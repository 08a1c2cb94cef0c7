//! The server child process and one client connection speaking the wire
//! protocol, plus parsers for the `STATS` and `METRICS` replies.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// A `cqa-serverd` child. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Starts the daemon on an OS-chosen loopback port and waits for its
    /// banner. `PATH_CQA_*` knobs are cleared so the server runs its
    /// defaults; only `PATH_CQA_TRACE` is set, to `on` or `off`.
    pub fn spawn(binary: &str, flags: &[String], trace: bool) -> Result<Server, String> {
        let mut command = Command::new(binary);
        command
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, _) in std::env::vars() {
            if key.starts_with("PATH_CQA_") {
                command.env_remove(key);
            }
        }
        command.env("PATH_CQA_TRACE", if trace { "on" } else { "off" });
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {binary}: {e}"))?;
        let mut banner = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut banner);
        let addr = banner
            .split_once(" listening on ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("no banner from {binary}: {banner:?}"))
            }
        }
    }

    /// The child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's /proc status".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One closed-loop client connection: every call writes one frame and
/// waits for its reply line. With `spin`, the socket is non-blocking and
/// the wait busy-polls, so the client's CPU never idles between commands
/// and no wake-up latency of the client is measured. (`cqa_server::client`
/// blocks and formats each command itself; the timed loop needs neither.)
pub struct Conn {
    stream: TcpStream,
    spin: bool,
    /// Bytes received and not yet consumed.
    buf: Vec<u8>,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str, spin: bool) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Small request/reply frames: without this, Nagle and delayed ACKs
        // add tens of milliseconds per command.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        stream
            .set_nonblocking(spin)
            .map_err(|e| format!("non-blocking socket: {e}"))?;
        Ok(Conn {
            stream,
            spin,
            buf: Vec::with_capacity(1 << 16),
            line: String::new(),
        })
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        let mut sent = 0;
        while sent < frame.len() {
            match self.stream.write(&frame[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// Appends at least one received byte to `buf`.
    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_owned()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock && self.spin => std::hint::spin_loop(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
    }

    /// Sends one complete frame (command line plus any payload) and returns
    /// the reply line without its newline.
    pub fn call(&mut self, frame: &[u8]) -> Result<&str, String> {
        self.send(frame)?;
        let end = loop {
            if let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                break end;
            }
            self.fill()?;
        };
        self.line.clear();
        self.line
            .push_str(&String::from_utf8_lossy(&self.buf[..end]));
        self.buf.drain(..=end);
        Ok(self.line.trim_end_matches('\r'))
    }

    /// `STATS` or `STATS <tenant>` as a map of its numeric fields.
    pub fn stats(&mut self, tenant: Option<&str>) -> Result<BTreeMap<String, f64>, String> {
        let frame = match tenant {
            Some(t) => format!("STATS {t}\n"),
            None => "STATS\n".to_owned(),
        };
        let reply = self.call(frame.as_bytes())?;
        let body = reply
            .strip_prefix("OK STATS")
            .ok_or_else(|| format!("bad STATS reply {reply:?}"))?;
        Ok(body
            .split_whitespace()
            .filter_map(|pair| pair.split_once('='))
            .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_owned(), v)))
            .collect())
    }

    /// A `METRICS` scrape.
    pub fn metrics(&mut self) -> Result<Scrape, String> {
        let reply = self.call(b"METRICS\n")?;
        let nbytes: usize = reply
            .strip_prefix("OK METRICS ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("bad METRICS reply {reply:?}"))?;
        while self.buf.len() < nbytes {
            self.fill()?;
        }
        let body: Vec<u8> = self.buf.drain(..nbytes).collect();
        Ok(Scrape::parse(&String::from_utf8_lossy(&body)))
    }
}

/// A parsed Prometheus exposition: series text (`name{labels}`) to value.
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

/// A log2-bucket histogram: per-bucket counts (bucket `i` covers
/// `[2^i, 2^(i+1))` ns), plus the exact sum and count.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    pub buckets: Vec<f64>,
    pub sum: f64,
    pub count: f64,
}

impl Scrape {
    fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.rsplit_once(' '))
                .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_owned(), v)))
                .collect(),
        )
    }

    /// Histogram `family` restricted to series whose label set is exactly
    /// `labels` (e.g. `command="query"`; empty for unlabelled families).
    pub fn hist(&self, family: &str, labels: &str) -> Hist {
        let sep = if labels.is_empty() { "" } else { "," };
        let braces = |s: &str| {
            if s.is_empty() {
                String::new()
            } else {
                format!("{{{s}}}")
            }
        };
        let count = self
            .0
            .get(&format!("{family}_count{}", braces(labels)))
            .copied()
            .unwrap_or(0.0);
        let sum = self
            .0
            .get(&format!("{family}_sum{}", braces(labels)))
            .copied()
            .unwrap_or(0.0);
        // Buckets are rendered cumulatively up to the last occupied one;
        // beyond it every sample is already counted.
        let mut buckets = Vec::with_capacity(40);
        let mut below = 0.0;
        for i in 0..39 {
            let key = format!("{family}_bucket{{{labels}{sep}le=\"{}\"}}", 1u64 << (i + 1));
            let cumulative = self.0.get(&key).copied().unwrap_or(count);
            buckets.push(cumulative - below);
            below = cumulative;
        }
        buckets.push(count - below);
        Hist {
            buckets,
            sum,
            count,
        }
    }
}

impl Hist {
    /// Buckets nanosecond samples the way `cqa-obs` histograms do.
    pub fn of_samples(samples: &[u64]) -> Hist {
        let mut buckets = vec![0.0; 40];
        for &ns in samples {
            let i = if ns < 2 {
                0
            } else {
                (63 - ns.leading_zeros()) as usize
            };
            buckets[i.min(39)] += 1.0;
        }
        Hist {
            buckets,
            sum: samples.iter().sum::<u64>() as f64,
            count: samples.len() as f64,
        }
    }

    /// `self - earlier`: the samples recorded between two scrapes.
    pub fn since(&self, earlier: &Hist) -> Hist {
        Hist {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a - b)
                .collect(),
            sum: self.sum - earlier.sum,
            count: self.count - earlier.count,
        }
    }

    pub fn merge(&self, other: &Hist) -> Hist {
        Hist {
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a + b)
                .collect(),
            sum: self.sum + other.sum,
            count: self.count + other.count,
        }
    }

    /// Mean in nanoseconds (exact: from `_sum` / `_count`), 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }

    /// Quantile in nanoseconds, interpolated linearly inside the log2
    /// bucket that holds it; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count <= 0.0 {
            return 0.0;
        }
        let rank = q * self.count;
        let mut below = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0.0 && below + c >= rank {
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let hi = (1u64 << (i + 1)) as f64;
                return lo + (hi - lo) * ((rank - below) / c).clamp(0.0, 1.0);
            }
            below += c;
        }
        (1u64 << 39) as f64
    }
}
