//! `cqa-wirebench`: a closed-loop wire benchmark for `cqa-serverd`.
//!
//! ```text
//! cqa-wirebench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//!               [--meta JSON] [--out DIR]
//! ```
//!
//! With `--trace 0` it starts the release server as a child process five
//! times; on each fresh server it sets the workload up (the median of the
//! five setups is `setup_s`) and replays the next fifth of the seeded
//! command stream over one connection, so the timed phase pools five
//! processes. Every reply is checked against a fresh-load oracle, the
//! workload's self-checks run on each server, and every timing is rescaled
//! by the host probe of `host.rs`. With `--trace 1` it measures the same
//! stream once untraced and once with `PATH_CQA_TRACE=on` (half the time
//! each), scrapes `STATS` and `METRICS` around the traced phases, replays
//! the stream in-process through each layer's public functions inside
//! spans of its own, and prints the per-layer metrics. The last stdout line
//! is always the JSON result. See `README.md` next to this crate for the
//! metric definitions.

mod host;
mod layers;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cqa_solver::dispatch::Route;
use cqa_solver::nl_solver::NlBackend;

use wire::{Conn, Hist, Scrape, Server};
use workload::{expected_answers, Kind, Op, Oracle, Stream, Workload};

/// Fresh servers per end-to-end run. Each is set up and then runs an
/// equal slice of the timed phase, so a run's figures pool five processes
/// (heap layout, thread placement) instead of hanging on one.
const SERVERS: usize = 5;
/// Length of a timed-phase round; rates are round medians.
const ROUND_SECONDS: f64 = 1.0;
/// Length of the traced run's in-process replay.
const REPLAY_SECONDS: f64 = 1.5;
/// `query_p99_ms` is the median of per-window p99s over windows of at
/// least this many samples (10 beyond the p99 in each).
const P99_WINDOW: usize = 1000;
/// Server worker threads (the daemon's default).
const WORKERS: usize = 2;

struct Args {
    server: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    meta: String,
    out: PathBuf,
    /// Busy-poll the client socket (when the host has a CPU to spare).
    spin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    Ok(Args {
        server: get("--server")?,
        kind: Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}")),
        },
        meta: map
            .get("--meta")
            .cloned()
            .unwrap_or_else(|| "{}".to_owned()),
        out: PathBuf::from(
            map.get("--out")
                .cloned()
                .unwrap_or_else(|| "wirebench/out".into()),
        ),
        spin: std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cqa-wirebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("cqa-wirebench: {e}");
            std::process::exit(1);
        }
    }
}

fn server_flags(workload: &Workload) -> Vec<String> {
    let mut flags = vec!["--workers".to_owned(), WORKERS.to_string()];
    if let Some(n) = workload.spec.max_tenants {
        flags.extend(["--max-tenants".to_owned(), n.to_string()]);
    }
    flags
}

/// Frames rendered once per workload, so the timed loop only formats
/// short query lines.
struct Frames {
    loads: Vec<Vec<u8>>,
    writes: Vec<[Vec<u8>; 2]>,
}

impl Frames {
    fn new(w: &Workload) -> Frames {
        Frames {
            loads: w
                .tenants
                .iter()
                .map(|t| format!("LOAD {} {}\n{}", t.name, t.text.len(), t.text).into_bytes())
                .collect(),
            writes: w
                .mutations
                .iter()
                .map(|m| {
                    let name = &w.tenants[m.tenant].name;
                    let frame = |append: bool| {
                        let verb = if append { "APPEND" } else { "RETRACT" };
                        format!("{verb} {name} {} {}\n{}", m.request, m.text.len(), m.text)
                            .into_bytes()
                    };
                    [frame(m.append), frame(!m.append)]
                })
                .collect(),
        }
    }
}

fn query_line(w: &Workload, op: &Op) -> String {
    let Op::Query {
        tenant, word, ids, ..
    } = op
    else {
        panic!("not a query");
    };
    let name = &w.tenants[*tenant].name;
    match ids {
        None => format!("QUERY {name} {}\n", w.word(*word)),
        Some(ids) => {
            let ids: Vec<String> = ids.iter().map(usize::to_string).collect();
            format!("BATCH {name} {} {}\n", ids.join(","), w.word(*word))
        }
    }
}

fn write_reply(w: &Workload, mutation: usize, undo: bool) -> String {
    let m = &w.mutations[mutation];
    let verb = if m.append != undo {
        "APPENDED"
    } else {
        "RETRACTED"
    };
    format!(
        "OK {verb} tenant={} request={} facts={}",
        w.tenants[m.tenant].name,
        m.request,
        w.delta_len_after(mutation, undo)
    )
}

/// What one phase of wire traffic did.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    query_ns: Vec<u64>,
    /// Round trips of the replies that answered, per query word.
    answered_ns: BTreeMap<usize, Vec<u64>>,
    write_ns: Vec<u64>,
    decisions: u64,
    /// Decided requests per query word.
    decided_by_word: BTreeMap<usize, u64>,
    loads: u64,
    misses: u64,
    mutations: u64,
    rounds: Vec<Round>,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.query_ns.extend(other.query_ns);
        self.write_ns.extend(other.write_ns);
        for (word, ns) in other.answered_ns {
            self.answered_ns.entry(word).or_default().extend(ns);
        }
        self.decisions += other.decisions;
        for (word, n) in other.decided_by_word {
            *self.decided_by_word.entry(word).or_default() += n;
        }
        self.loads += other.loads;
        self.misses += other.misses;
        self.mutations += other.mutations;
        self.rounds.extend(other.rounds);
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }

    /// Median over full rounds of `pick(round) / seconds`, rescaled to the
    /// reference host by each round's probe (`scaled: false` keeps it raw).
    fn round_rate(&self, pick: impl Fn(&Round) -> u64, scaled: bool) -> f64 {
        let full = self.rounds.iter().map(|r| r.secs).fold(0.0, f64::max) / 2.0;
        median(
            self.rounds
                .iter()
                .filter(|r| r.secs > full)
                .map(|r| {
                    let rate = pick(r) as f64 / r.secs;
                    if scaled {
                        rate * r.probe_ns / host::REFERENCE_NS
                    } else {
                        rate
                    }
                })
                .collect(),
        )
    }

    /// Samples in ms, each rescaled by the probe of the round it fell in;
    /// `count` says how many of them each round recorded.
    fn scaled_ms(&self, samples: &[u64], count: impl Fn(&Round) -> usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(samples.len());
        for r in &self.rounds {
            let next = out.len() + count(r);
            out.extend(
                samples[out.len()..next]
                    .iter()
                    .map(|&ns| ns as f64 / 1e6 * host::REFERENCE_NS / r.probe_ns),
            );
        }
        out
    }

    /// Median over windows of consecutive rounds, each holding at least
    /// [`P99_WINDOW`] query samples, of the window's p99 of `queries_ms`
    /// (a short last window joins the one before it). `None` below one
    /// full window.
    fn windowed_p99_ms(&self, queries_ms: &[f64]) -> Option<f64> {
        let mut windows: Vec<std::ops::Range<usize>> = Vec::new();
        let (mut start, mut end) = (0, 0);
        for r in &self.rounds {
            end += r.queries;
            if end - start >= P99_WINDOW {
                windows.push(start..end);
                start = end;
            }
        }
        windows.last_mut()?.end = queries_ms.len();
        Some(median(
            windows
                .into_iter()
                .map(|w| quantile(&queries_ms[w], 0.99))
                .collect(),
        ))
    }
}

struct Runner<'a> {
    w: &'a Workload,
    oracle: &'a Oracle,
    frames: &'a Frames,
    conn: Conn,
    probe: host::Probe,
}

impl Runner<'_> {
    fn load(&mut self, tenant: usize, tally: &mut Tally) -> Result<(), String> {
        let t0 = Instant::now();
        let reply = self.conn.call(&self.frames.loads[tenant])?;
        tally.write_ns.push(t0.elapsed().as_nanos() as u64);
        tally.attempted += 1;
        tally.loads += 1;
        let t = &self.w.tenants[tenant];
        let expect = format!(
            "OK LOADED tenant={} requests={} prefix_facts={} ",
            t.name,
            t.family.len(),
            t.family.prefix().len()
        );
        if !reply.starts_with(&expect) {
            let reply = reply.to_owned();
            tally.fail(format!("LOAD {}: {reply:?}", t.name));
        }
        Ok(())
    }

    /// Executes one command. On tenant_churn a `not-loaded` reply is a
    /// registry miss, answered with `LOAD` and one retry.
    fn run(&mut self, op: &Op, tally: &mut Tally) -> Result<(), String> {
        match op {
            Op::Query { tenant, word, .. } => {
                let line = query_line(self.w, op);
                let expect = expected_answers(self.w, self.oracle, op);
                for attempt in 0..2 {
                    let t0 = Instant::now();
                    let reply = self.conn.call(line.as_bytes())?;
                    let ns = t0.elapsed().as_nanos() as u64;
                    tally.query_ns.push(ns);
                    tally.attempted += 1;
                    if reply == expect {
                        tally.answered_ns.entry(*word).or_default().push(ns);
                        let n = op.decisions(self.w.spec.requests) as u64;
                        tally.decisions += n;
                        *tally.decided_by_word.entry(*word).or_default() += n;
                        return Ok(());
                    }
                    let miss = self.w.kind == Kind::TenantChurn
                        && attempt == 0
                        && reply.starts_with("ERR not-loaded ");
                    if !miss {
                        let reply = reply.to_owned();
                        tally.fail(format!("{}: {reply:?}, want {expect:?}", line.trim_end()));
                        return Ok(());
                    }
                    tally.misses += 1;
                    self.load(*tenant, tally)?;
                }
                Ok(())
            }
            Op::Write { mutation, undo } => {
                let t0 = Instant::now();
                let reply = self
                    .conn
                    .call(&self.frames.writes[*mutation][*undo as usize])?;
                tally.write_ns.push(t0.elapsed().as_nanos() as u64);
                tally.attempted += 1;
                tally.mutations += 1;
                let expect = write_reply(self.w, *mutation, *undo);
                if reply != expect {
                    let reply = reply.to_owned();
                    tally.fail(format!(
                        "write {mutation}/{undo}: {reply:?}, want {expect:?}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// Loads every tenant and materializes every (tenant, word, request)
    /// with one `QUERY` each. Returns the seconds from the first `LOAD`
    /// sent to the last reply, and the mean host probe around them.
    fn setup(&mut self, tally: &mut Tally) -> Result<(f64, f64), String> {
        let before = self.probe.measure()?;
        let t0 = Instant::now();
        for t in self.w.setup_order() {
            self.load(t, tally)?;
            for &word in &self.w.tenants[t].words {
                let op = Op::Query {
                    tenant: t,
                    word,
                    ids: None,
                    variant: 0,
                };
                self.run(&op, tally)?;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        Ok((secs, (before + self.probe.measure()?) / 2.0))
    }

    /// Replays the stream closed-loop for `seconds`, in rounds of
    /// [`ROUND_SECONDS`] with a host probe between them (not timed). The phase runs on, up
    /// to half as long again, until it holds `min_queries` query samples.
    /// A mutate_requery cycle (mutate, query, undo, query) always
    /// completes, so the families end where they started.
    fn timed(
        &mut self,
        stream: &mut Stream,
        seconds: f64,
        min_queries: usize,
    ) -> Result<Tally, String> {
        let mut tally = Tally::default();
        let round = Duration::from_secs_f64(ROUND_SECONDS.min(seconds));
        let mut probe = self.probe.measure()?;
        let start = Instant::now();
        let mut round_start = start;
        let mut mark = Round::default();
        loop {
            if stream.at_boundary() {
                let now = Instant::now();
                let elapsed = now.duration_since(start).as_secs_f64();
                let done = elapsed >= seconds
                    && (tally.query_ns.len() >= min_queries || elapsed >= 1.5 * seconds);
                if done || now.duration_since(round_start) >= round {
                    let after = self.probe.measure()?;
                    let next = Round {
                        commands: tally.attempted,
                        decisions: tally.decisions,
                        queries: tally.query_ns.len(),
                        writes: tally.write_ns.len(),
                        ..Round::default()
                    };
                    tally.rounds.push(Round {
                        commands: next.commands - mark.commands,
                        decisions: next.decisions - mark.decisions,
                        queries: next.queries - mark.queries,
                        writes: next.writes - mark.writes,
                        secs: now.duration_since(round_start).as_secs_f64(),
                        probe_ns: (probe + after) / 2.0,
                    });
                    mark = next;
                    probe = after;
                    round_start = Instant::now();
                }
                if done {
                    break;
                }
            }
            let op = stream.next_op();
            self.run(&op, &mut tally)?;
        }
        Ok(tally)
    }
}

/// What completed in one round of a timed phase.
#[derive(Debug, Clone, Copy, Default)]
struct Round {
    commands: u64,
    decisions: u64,
    /// Query and write samples recorded in the round.
    queries: usize,
    writes: usize,
    secs: f64,
    /// Mean host probe before and after the round.
    probe_ns: f64,
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile; 0 when empty.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank quantile of nanosecond samples, in milliseconds.
fn quantile_ms(samples: &[u64], q: f64) -> f64 {
    let ms: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1e6).collect();
    quantile(&ms, q)
}

/// A workload's self-checks over the timed phase's `STATS` delta; each
/// failure is a message.
fn self_checks(
    w: &Workload,
    conn: &mut Conn,
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    tally: &Tally,
) -> Result<Vec<String>, String> {
    let d = |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let mut failures = Vec::new();
    match w.kind {
        Kind::ReadResident => {
            if d("tuples_derived") != 0.0 {
                failures.push(format!(
                    "read_resident derived {} tuples in the timed phase",
                    d("tuples_derived")
                ));
            }
            if d("route_nl_datalog") <= 0.0 || d("maintained_hits") != d("route_nl_datalog") {
                failures.push(format!(
                    "read_resident maintained hits {} of {} Datalog decisions",
                    d("maintained_hits"),
                    d("route_nl_datalog")
                ));
            }
        }
        Kind::MutateRequery => {
            for t in &w.tenants {
                let stats = conn.stats(Some(&t.name))?;
                let facts = stats.get("facts").copied().unwrap_or(-1.0);
                if facts != t.facts as f64 {
                    failures.push(format!(
                        "{} holds {facts} facts, loaded {}",
                        t.name, t.facts
                    ));
                }
            }
        }
        Kind::RouteMix => {
            let mut planned: BTreeMap<&str, u64> = BTreeMap::new();
            for (&word, &n) in &tally.decided_by_word {
                *planned.entry(route_stat(w, word)).or_default() += n;
            }
            for key in [
                "route_fo",
                "route_nl_direct",
                "route_nl_datalog",
                "route_ptime",
                "route_conp",
            ] {
                let want = planned.get(key).copied().unwrap_or(0) as f64;
                if d(key) != want {
                    failures.push(format!("{key} moved {} for {want} planned", d(key)));
                }
            }
        }
        Kind::TenantChurn => {
            if d("loads") != tally.loads as f64 || d("tenant_misses") != tally.misses as f64 {
                failures.push(format!(
                    "tenant_churn: server counted {} loads / {} misses, client sent {} / saw {}",
                    d("loads"),
                    d("tenant_misses"),
                    tally.loads,
                    tally.misses
                ));
            }
        }
    }
    Ok(failures)
}

/// The `STATS` route counter a word's decisions land in.
fn route_stat(w: &Workload, word: usize) -> &'static str {
    let session = cqa_solver::session::CertaintySession::with_datalog_nl();
    match session.route(&w.words[word]) {
        Route::FoRewriting => "route_fo",
        Route::Nl(NlBackend::Direct) => "route_nl_direct",
        Route::Nl(NlBackend::Datalog) => "route_nl_datalog",
        Route::PtimeFixpoint => "route_ptime",
        Route::ConpSat => "route_conp",
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` entries, in order.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_owned(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    )
}

fn run(args: &Args) -> Result<String, String> {
    let t_gen = Instant::now();
    let w = Workload::generate(args.kind, args.seed);
    let oracle = workload::oracle(&w, 2)?;
    let frames = Frames::new(&w);
    let flags = server_flags(&w);
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"server_flags\": \"{}\", \"states_checked\": {}, \"prepare_s\": {:.3}, \"build\": {}}}",
        w.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        flags.join(" "),
        oracle.len(),
        t_gen.elapsed().as_secs_f64(),
        args.meta
    );
    println!("# meta {meta}");
    if args.trace {
        traced(args, &w, &oracle, &frames, &flags, &meta)
    } else {
        end_to_end(args, &w, &oracle, &frames, &flags)
    }
}

fn end_to_end(
    args: &Args,
    w: &Workload,
    oracle: &Oracle,
    frames: &Frames,
    flags: &[String],
) -> Result<String, String> {
    let mut setup_tally = Tally::default();
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    // Per server: raw setup seconds and the host probe around them, and the
    // peak RSS; setup LOAD round trips rescaled.
    let mut setups = Vec::new();
    let mut peak_rss = Vec::new();
    let mut writes_ms = Vec::new();
    let mut stream = w.stream();
    let slice = args.seconds / SERVERS as f64;
    for _ in 0..SERVERS {
        let server = Server::spawn(&args.server, flags, false)?;
        let mut runner = Runner {
            w,
            oracle,
            frames,
            conn: Conn::connect(&server.addr, args.spin)?,
            probe: host::Probe::start(args.spin)?,
        };
        let first = setup_tally.write_ns.len();
        let (secs, probe) = runner.setup(&mut setup_tally)?;
        writes_ms.extend(
            setup_tally.write_ns[first..]
                .iter()
                .map(|&ns| ns as f64 / 1e6 * host::REFERENCE_NS / probe),
        );
        setups.push((secs, probe));
        let before = runner.conn.stats(None)?;
        let part = runner.timed(&mut stream, slice, P99_WINDOW.div_ceil(SERVERS))?;
        let after = runner.conn.stats(None)?;
        peak_rss.push(server.peak_rss_mib()?);
        failures.extend(self_checks(w, &mut runner.conn, &before, &after, &part)?);
        tally.absorb(part);
    }

    let queries_ms = tally.scaled_ms(&tally.query_ns, |r| r.queries);
    writes_ms.extend(tally.scaled_ms(&tally.write_ns, |r| r.writes));
    let probes: Vec<f64> = tally.rounds.iter().map(|r| r.probe_ns / 1e3).collect();
    println!(
        "# samples queries={} p99_windows={} writes={} rounds={}",
        tally.query_ns.len(),
        (tally.query_ns.len() / P99_WINDOW).max(1),
        writes_ms.len(),
        tally.rounds.len(),
    );
    println!(
        "# host probe_us median={} min={} max={} setup={:?}",
        median(probes.clone()),
        probes.iter().copied().fold(f64::INFINITY, f64::min),
        probes.iter().copied().fold(0.0, f64::max),
        setups.iter().map(|s| s.1 / 1e3).collect::<Vec<_>>()
    );
    println!(
        "# raw (not rescaled) setup_s={} throughput_cmd_s={} query_p50_ms={} query_p99_ms={}",
        median(setups.iter().map(|s| s.0).collect()),
        tally.round_rate(|r| r.commands, false),
        quantile_ms(&tally.query_ns, 0.5),
        quantile_ms(&tally.query_ns, 0.99),
    );
    println!(
        "# raw query deciles_ms {:?}",
        (1..10)
            .map(|d| quantile_ms(&tally.query_ns, d as f64 / 10.0))
            .collect::<Vec<_>>()
    );
    for (word, ns) in &tally.answered_ns {
        println!(
            "# raw word {} answered={} p5_ms={} p50_ms={} p95_ms={}",
            w.word(*word),
            ns.len(),
            quantile_ms(ns, 0.05),
            quantile_ms(ns, 0.5),
            quantile_ms(ns, 0.95)
        );
    }
    // A host slow enough to leave the (extended) phase short of one window
    // still gets a figure, flagged: the p99 of every sample.
    let query_p99 = tally.windowed_p99_ms(&queries_ms).unwrap_or_else(|| {
        println!(
            "# warning: {} query samples, fewer than {P99_WINDOW}: query_p99_ms has fewer \
             than 10 samples beyond it",
            queries_ms.len()
        );
        quantile(&queries_ms, 0.99)
    });
    let mut metrics = Metrics(Vec::new());
    metrics.put(
        "setup_s",
        median(
            setups
                .iter()
                .map(|(secs, probe)| secs * host::REFERENCE_NS / probe)
                .collect(),
        ),
        "s",
    );
    metrics.put(
        "throughput_cmd_s",
        tally.round_rate(|r| r.commands, true),
        "1/s",
    );
    metrics.put(
        "decisions_s",
        tally.round_rate(|r| r.decisions, true),
        "1/s",
    );
    metrics.put("query_p50_ms", quantile(&queries_ms, 0.50), "ms");
    metrics.put("query_p99_ms", query_p99, "ms");
    metrics.put("write_p50_ms", quantile(&writes_ms, 0.50), "ms");
    let ok = tally.attempted - tally.failed;
    metrics.put(
        "success_ratio",
        ok as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    metrics.put("peak_rss_mib", median(peak_rss), "MiB");
    report_failures(&setup_tally, &tally, &failures);
    let correct = setup_tally.failed == 0 && tally.failed == 0 && failures.is_empty();
    Ok(result_json(
        correct,
        tally.attempted,
        tally.failed,
        &metrics,
    ))
}

fn report_failures(setup: &Tally, timed: &Tally, checks: &[String]) {
    for e in setup.errors.iter().chain(&timed.errors) {
        eprintln!("cqa-wirebench: wrong reply: {e}");
    }
    for c in checks {
        eprintln!("cqa-wirebench: self-check failed: {c}");
    }
}

/// Scrapes `STATS` and `METRICS` at one point of a traced phase.
struct Snapshot {
    stats: BTreeMap<String, f64>,
    metrics: Scrape,
}

fn snapshot(conn: &mut Conn) -> Result<Snapshot, String> {
    Ok(Snapshot {
        stats: conn.stats(None)?,
        metrics: conn.metrics()?,
    })
}

fn traced(
    args: &Args,
    w: &Workload,
    oracle: &Oracle,
    frames: &Frames,
    flags: &[String],
    meta: &str,
) -> Result<String, String> {
    let half = args.seconds / 2.0;
    // Setup replies, and timed-phase replies, of both phases.
    let mut setups = Tally::default();
    let mut replies = Tally::default();
    let mut checks = Vec::new();

    // Untraced phase: only its throughput is kept, for the overhead ratio.
    let untraced_rate = {
        let server = Server::spawn(&args.server, flags, false)?;
        let mut runner = Runner {
            w,
            oracle,
            frames,
            conn: Conn::connect(&server.addr, args.spin)?,
            probe: host::Probe::start(args.spin)?,
        };
        let mut setup = Tally::default();
        runner.setup(&mut setup)?;
        let before = runner.conn.stats(None)?;
        let tally = runner.timed(&mut w.stream(), half, 0)?;
        let after = runner.conn.stats(None)?;
        checks.extend(self_checks(w, &mut runner.conn, &before, &after, &tally)?);
        let rate = tally.round_rate(|r| r.commands, true);
        setups.absorb(setup);
        replies.absorb(tally);
        rate
    };

    let server = Server::spawn(&args.server, flags, true)?;
    let mut runner = Runner {
        w,
        oracle,
        frames,
        conn: Conn::connect(&server.addr, args.spin)?,
        probe: host::Probe::start(args.spin)?,
    };
    let s0 = snapshot(&mut runner.conn)?;
    let mut setup = Tally::default();
    runner.setup(&mut setup)?;
    let s1 = snapshot(&mut runner.conn)?;
    let tally = runner.timed(&mut w.stream(), half, 0)?;
    let s2 = snapshot(&mut runner.conn)?;
    checks.extend(self_checks(
        w,
        &mut runner.conn,
        &s1.stats,
        &s2.stats,
        &tally,
    )?);
    drop(runner);
    drop(server);

    let commands = tally.attempted as f64;
    let kcmd = (commands / 1000.0).max(1e-9);
    let traced_rate = tally.round_rate(|r| r.commands, true);
    let dt =
        |k: &str| s2.stats.get(k).copied().unwrap_or(0.0) - s1.stats.get(k).copied().unwrap_or(0.0);
    let drun =
        |k: &str| s2.stats.get(k).copied().unwrap_or(0.0) - s0.stats.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let timed_hist = |family: &str, labels: &str| {
        s2.metrics
            .hist(family, labels)
            .since(&s1.metrics.hist(family, labels))
    };
    let run_hist = |family: &str, labels: &str| {
        s2.metrics
            .hist(family, labels)
            .since(&s0.metrics.hist(family, labels))
    };
    let queries = |family: &str| -> Hist {
        timed_hist(family, "command=\"query\"").merge(&timed_hist(family, "command=\"batch\""))
    };
    let span = |name: &str| timed_hist("cqa_trace_span_ns", &format!("span=\"{name}\""));
    let run_span = |name: &str| run_hist("cqa_trace_span_ns", &format!("span=\"{name}\""));
    let route = |name: &str| timed_hist("cqa_route_service_ns", &format!("route=\"{name}\""));

    let layer = layers::replay(w, oracle, REPLAY_SECONDS.min(half), &args.out, meta)?;

    let mut m = Metrics(Vec::new());
    let command_p50_us = queries("cqa_server_command_ns").quantile_ns(0.5) / 1e3;
    // The client's p50 goes through the same log2-bucket estimator as the
    // server's, so the two interpolation errors largely cancel.
    let client_p50_us = Hist::of_samples(&tally.query_ns).quantile_ns(0.5) / 1e3;
    m.put("proto.parse_us", layer.parse_us, "us");
    m.put("wire.overhead_p50_us", client_p50_us - command_p50_us, "us");
    m.put("server.command_p50_us", command_p50_us, "us");
    m.put(
        "server.service_p50_us",
        queries("cqa_server_service_ns").quantile_ns(0.5) / 1e3,
        "us",
    );
    m.put(
        "server.queue_wait_p50_us",
        queries("cqa_server_queue_wait_ns").quantile_ns(0.5) / 1e3,
        "us",
    );
    m.put(
        "registry.hit_ratio",
        ratio(dt("tenant_hits"), dt("tenant_hits") + dt("tenant_misses")),
        "ratio",
    );
    m.put(
        "registry.evictions_per_kcmd",
        dt("evictions") / kcmd,
        "1/kcmd",
    );
    m.put(
        "registry.load_ms",
        run_hist("cqa_server_service_ns", "command=\"load\"").mean_ns() / 1e6,
        "ms",
    );
    m.put("codec.family_parse_ms", layer.family_parse_ms, "ms");
    m.put("store.base_freeze_ms", layer.base_freeze_ms, "ms");
    m.put(
        "store.index_builds_per_load",
        ratio(drun("base_index_builds"), drun("loads")),
        "count",
    );
    m.put("registry.mutate_us", layer.mutate_us, "us");
    m.put("codec.facts_parse_us", layer.facts_parse_us, "us");
    m.put(
        "registry.resident_facts",
        s2.stats.get("resident_facts").copied().unwrap_or(0.0),
        "facts",
    );
    m.put("session.prepare_warm_us", layer.prepare_warm_us, "us");
    m.put(
        "session.plan_hit_ratio",
        ratio(dt("plan_hits"), dt("plan_hits") + dt("plan_misses")),
        "ratio",
    );
    m.put(
        "route.nl_datalog_hit_us",
        route("nl_datalog").mean_ns() / 1e3,
        "us",
    );
    m.put(
        "session.plan_build_ms",
        run_hist("cqa_session_plan_build_ns", "").mean_ns() / 1e6,
        "ms",
    );
    m.put("route.fo_us", route("fo_rewriting").mean_ns() / 1e3, "us");
    m.put(
        "route.ptime_us",
        route("ptime_fixpoint").mean_ns() / 1e3,
        "us",
    );
    m.put("route.conp_us", route("conp_sat").mean_ns() / 1e3, "us");
    m.put("db.materialize_us", layer.materialize_us, "us");
    m.put(
        "engine.tuples_derived_per_kcmd",
        dt("tuples_derived") / kcmd,
        "1/kcmd",
    );
    m.put(
        "engine.eval_ms_per_kcmd",
        span("stratum_eval").sum / 1e6 / kcmd,
        "ms/kcmd",
    );
    m.put(
        "engine.index_build_ms_per_kcmd",
        span("index_build").sum / 1e6 / kcmd,
        "ms/kcmd",
    );
    m.put(
        "engine.kernel_share",
        ratio(dt("kernel_rules"), dt("kernel_rules") + dt("generic_rules")),
        "ratio",
    );
    m.put(
        "engine.checkpoint_hits_per_kcmd",
        dt("checkpoint_hits") / kcmd,
        "1/kcmd",
    );
    let bootstrap = run_span("scratch_derive").merge(&run_span("checkpoint_resume"));
    m.put("maintain.bootstrap_ms", bootstrap.mean_ns() / 1e6, "ms");
    m.put(
        "maintain.hit_ratio",
        ratio(dt("maintained_hits"), dt("route_nl_datalog")),
        "ratio",
    );
    m.put(
        "maintain.repair_us",
        span("maintain_repair").mean_ns() / 1e3,
        "us",
    );
    let mutations = tally.mutations as f64;
    m.put(
        "maintain.overdeleted_per_mutation",
        ratio(dt("tuples_overdeleted"), mutations),
        "count",
    );
    m.put(
        "maintain.rederived_per_mutation",
        ratio(dt("tuples_rederived"), mutations),
        "count",
    );
    m.put(
        "trace.overhead_ratio",
        ratio(untraced_rate, traced_rate),
        "ratio",
    );
    m.put(
        "trace.unattributed_share",
        layer.unattributed_share,
        "ratio",
    );
    println!(
        "# traced commands={} untraced_rate={untraced_rate} traced_rate={traced_rate} \
         replayed={} spans={} wrong_in_process={}",
        commands, layer.replayed, layer.spans, layer.wrong
    );

    setups.absorb(setup);
    replies.absorb(tally);
    report_failures(&setups, &replies, &checks);
    let correct =
        setups.failed == 0 && replies.failed == 0 && checks.is_empty() && layer.wrong == 0;
    let (attempted, failed) = (replies.attempted, replies.failed);
    Ok(result_json(correct, attempted, failed, &m))
}
