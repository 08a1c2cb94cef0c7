//! A host-speed probe, independent of the program under test.
//!
//! The machines this benchmark runs on are shared, and their speed drifts
//! by 15-40% over minutes; every timing of a run moves with it. The probe
//! measures that drift where the benchmark's own traffic goes: a reference
//! request/reply server thread inside the harness, reached over loopback TCP
//! through the same client code, doing a fixed CPU task per request. Its
//! median round trip, taken between the rounds of a timed phase and around
//! each setup, rescales the run's timings to a reference host on which the
//! probe takes [`REFERENCE_NS`].

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::wire::Conn;

/// Probe round trip of the reference host (the median on a 2-vCPU Xeon
/// host with an idle neighbourhood, where the probe was calibrated).
pub const REFERENCE_NS: f64 = 200_000.0;
/// Round trips per probe; the probe is their median.
const TRIPS: usize = 15;

/// The fixed task served per request: sort 8192 pseudo-random words.
fn task() -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut words: Vec<u64> = (0..8192)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    std::hint::black_box(words[words.len() / 2])
}

/// The reference server thread and a connection to it. Dropping the probe
/// closes the connection and joins the thread.
pub struct Probe {
    conn: Option<Conn>,
    server: Option<JoinHandle<()>>,
}

impl Probe {
    pub fn start(spin: bool) -> Result<Probe, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probe listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("probe listener: {e}"))?
            .to_string();
        let server = std::thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let _ = stream.set_nodelay(true);
            let Ok(mut writer) = stream.try_clone() else {
                return;
            };
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            loop {
                line.clear();
                if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                    return;
                }
                let reply = format!("OK {}\n", task());
                if writer.write_all(reply.as_bytes()).is_err() {
                    return;
                }
            }
        });
        Ok(Probe {
            conn: Some(Conn::connect(&addr, spin)?),
            server: Some(server),
        })
    }

    /// Median round trip over [`TRIPS`] requests, in ns.
    pub fn measure(&mut self) -> Result<f64, String> {
        let conn = self.conn.as_mut().expect("connection open until drop");
        let mut trips = Vec::with_capacity(TRIPS);
        for _ in 0..TRIPS {
            let t0 = Instant::now();
            conn.call(b"PROBE\n")?;
            trips.push(t0.elapsed().as_nanos() as f64);
        }
        trips.sort_by(f64::total_cmp);
        Ok(trips[TRIPS / 2])
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.conn = None;
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}
