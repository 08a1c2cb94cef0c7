//! The in-process half of the traced run: the same command stream, executed
//! without a socket through each layer's public functions — protocol parse,
//! codec, residency registry, session, routes, reply rendering — in the
//! order the server's worker runs them, with every call wrapped in a span
//! this module opens. Nothing inside the program is instrumented for it.
//!
//! Spans carry a request id, layer, name, start, end and parent; they are
//! kept in memory and written as JSON lines to `<out>/<workload>-<seed>-spans.jsonl`
//! at the end. A span's self time is its duration minus its children's.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use cqa_core::query::PathQuery;
use cqa_datalog::parallel::EvalOptions;
use cqa_db::instance::DatabaseInstance;
use cqa_server::proto::{parse_command, Command, ErrorCode, Reply, WireError};
use cqa_server::registry::{ResidencyLimits, TenantRegistry};
use cqa_solver::dispatch::Route;
use cqa_solver::nl_solver::NlBackend;
use cqa_solver::session::CertaintySession;

use crate::workload::{expected_answers, Kind, Op, Oracle, Workload};

struct Span {
    request: u64,
    layer: &'static str,
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    request: u64,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, parent: Option<usize>, layer: &'static str, name: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            request: self.request,
            layer,
            name,
            start,
            end: start,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span under `parent`.
    fn span<R>(
        &mut self,
        parent: usize,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(Some(parent), layer, name);
        let out = f();
        self.close(id);
        out
    }
}

/// Per-layer figures from the in-process replay.
pub struct LayerReport {
    pub parse_us: f64,
    pub family_parse_ms: f64,
    pub base_freeze_ms: f64,
    pub mutate_us: f64,
    pub facts_parse_us: f64,
    pub prepare_warm_us: f64,
    pub materialize_us: f64,
    pub unattributed_share: f64,
    pub replayed: u64,
    pub spans: usize,
    /// In-process answers that disagree with the oracle.
    pub wrong: u64,
}

/// The server's worker, re-assembled from public functions.
struct Machine {
    registry: TenantRegistry,
    session: CertaintySession,
    tracer: Tracer,
}

fn not_loaded(tenant: &str) -> Reply {
    Reply::Err(WireError::new(
        ErrorCode::NotLoaded,
        format!("tenant {tenant:?} is not resident"),
    ))
}

impl Machine {
    /// Executes one command line (plus payload) and returns the rendered
    /// reply, as one `client/request` span with a child per layer call.
    fn execute(&mut self, line: &str, payload: &str) -> String {
        self.tracer.request += 1;
        let root = self.tracer.open(None, "client", "request");
        let command = self
            .tracer
            .span(root, "proto", "parse", || parse_command(line));
        let reply = match command {
            Ok(command) => self.dispatch(root, command, payload),
            Err(e) => Reply::Err(e),
        };
        let rendered = self.tracer.span(root, "proto", "render", || reply.render());
        self.tracer.close(root);
        rendered
    }

    fn dispatch(&mut self, root: usize, command: Command, payload: &str) -> Reply {
        let t = &mut self.tracer;
        let registry = &self.registry;
        match command {
            Command::Load { tenant, .. } => {
                let family = t.span(root, "codec", "family_parse", || {
                    cqa_db::codec::family_from_text(payload)
                });
                match family {
                    Ok(family) => {
                        let outcome =
                            t.span(root, "registry", "load", || registry.load(&tenant, family));
                        Reply::Loaded {
                            tenant,
                            requests: outcome.requests,
                            prefix_facts: outcome.prefix_facts,
                            evicted: outcome.evicted.len(),
                        }
                    }
                    Err(e) => Reply::Err(WireError::new(ErrorCode::BadPayload, e.to_string())),
                }
            }
            Command::Append {
                tenant, request, ..
            } => self.mutate(root, tenant, request, payload, true),
            Command::Retract {
                tenant, request, ..
            } => self.mutate(root, tenant, request, payload, false),
            Command::Query { tenant, word } => self.answer(root, &tenant, &word, None),
            Command::Batch {
                tenant,
                requests,
                word,
            } => self.answer(root, &tenant, &word, Some(requests)),
            other => Reply::Err(WireError::new(
                ErrorCode::BadCommand,
                format!("not replayed: {other:?}"),
            )),
        }
    }

    fn mutate(
        &mut self,
        root: usize,
        tenant: String,
        request: usize,
        payload: &str,
        append: bool,
    ) -> Reply {
        let t = &mut self.tracer;
        let registry = &self.registry;
        let facts = t.span(root, "codec", "facts_parse", || {
            cqa_db::codec::from_text(payload)
        });
        let Ok(facts) = facts else {
            return Reply::Err(WireError::new(ErrorCode::BadPayload, "bad facts"));
        };
        let mutated = t.span(root, "registry", "mutate", || {
            registry.mutate_delta(&tenant, request, |delta| {
                if append {
                    delta.union(&facts)
                } else {
                    DatabaseInstance::from_facts(
                        delta.facts().iter().copied().filter(|f| !facts.contains(f)),
                    )
                }
            })
        });
        match (mutated, append) {
            (Ok(facts), true) => Reply::Appended {
                tenant,
                request,
                facts,
            },
            (Ok(facts), false) => Reply::Retracted {
                tenant,
                request,
                facts,
            },
            (Err(_), _) => not_loaded(&tenant),
        }
    }

    fn answer(&mut self, root: usize, tenant: &str, word: &str, ids: Option<Vec<usize>>) -> Reply {
        let t = &mut self.tracer;
        let session = &self.session;
        let registry = &self.registry;
        let (query, plan) = t.span(root, "session", "prepare", || {
            let query = PathQuery::parse(word).expect("stream words parse");
            let plan = session.prepare(&query);
            (query, plan)
        });
        let Some(data) = t.span(root, "registry", "get", || registry.get(tenant)) else {
            return not_loaded(tenant);
        };
        let requests = ids.unwrap_or_else(|| (0..data.family.len()).collect());
        let mut bits = Vec::with_capacity(requests.len());
        if plan.route() == Route::Nl(NlBackend::Datalog) {
            let (answers, derived) = t.span(root, "session", "answer_datalog", || {
                session.certain_batch_family_resident_counted(
                    &query,
                    &data.family,
                    &data.base,
                    &requests,
                )
            });
            t.span(root, "registry", "record", || {
                registry.record_derived(tenant, derived, 0)
            });
            for a in answers {
                bits.push(a.expect("solver succeeds on the stream"));
            }
        } else {
            // Every other route materializes `prefix ∪ delta` per request.
            let name = match plan.route() {
                Route::FoRewriting => "fo",
                Route::PtimeFixpoint => "ptime",
                Route::ConpSat => "conp",
                Route::Nl(_) => "nl_direct",
            };
            for &r in &requests {
                let full = t.span(root, "db", "materialize", || {
                    data.family.prefix().union(&data.family.deltas()[r])
                });
                let bit = t.span(root, "route", name, || {
                    session.certain_planned(&plan, &full)
                });
                bits.push(bit.expect("solver succeeds on the stream"));
            }
        }
        Reply::Answers(bits)
    }
}

/// Replays the workload in-process for `seconds` after its setup.
pub fn replay(
    w: &Workload,
    oracle: &Oracle,
    seconds: f64,
    out: &Path,
    meta: &str,
) -> Result<LayerReport, String> {
    let limits = ResidencyLimits {
        max_tenants: w
            .spec
            .max_tenants
            .unwrap_or(ResidencyLimits::default().max_tenants),
        ..ResidencyLimits::default()
    };
    let mut m = Machine {
        registry: TenantRegistry::new(limits),
        session: CertaintySession::with_options(NlBackend::Datalog, EvalOptions::sequential()),
        tracer: Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            request: 0,
        },
    };
    let load = |m: &mut Machine, t: usize| {
        let tenant = &w.tenants[t];
        m.execute(
            &format!("LOAD {} {}", tenant.name, tenant.text.len()),
            &tenant.text,
        )
    };
    let mut wrong = 0u64;
    let mut run = |m: &mut Machine, op: &Op| match op {
        Op::Query { tenant, .. } => {
            let line = crate::query_line(w, op);
            let want = expected_answers(w, oracle, op);
            let mut got = m.execute(line.trim_end(), "");
            if w.kind == Kind::TenantChurn && got.starts_with("ERR not-loaded ") {
                load(m, *tenant);
                got = m.execute(line.trim_end(), "");
            }
            wrong += u64::from(got != want);
        }
        Op::Write { mutation, undo } => {
            let mu = &w.mutations[*mutation];
            let verb = if mu.append != *undo {
                "APPEND"
            } else {
                "RETRACT"
            };
            let line = format!(
                "{verb} {} {} {}",
                w.tenants[mu.tenant].name,
                mu.request,
                mu.text.len()
            );
            let got = m.execute(&line, &mu.text);
            wrong += u64::from(got != crate::write_reply(w, *mutation, *undo));
        }
    };

    // Setup, in the wire run's order.
    for t in w.setup_order() {
        load(&mut m, t);
        for &word in &w.tenants[t].words {
            run(
                &mut m,
                &Op::Query {
                    tenant: t,
                    word,
                    ids: None,
                    variant: 0,
                },
            );
        }
    }
    // The base freeze runs inside `registry.load`; time it on its own.
    for tenant in &w.tenants {
        m.tracer.request += 1;
        let root = m.tracer.open(None, "store", "base_freeze");
        drop(cqa_datalog::store::edb_base_from_instance(
            tenant.family.prefix(),
        ));
        m.tracer.close(root);
    }

    let replay_start = m.tracer.now();
    let first_request = m.tracer.request + 1;
    let mut stream = w.stream();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut replayed = 0u64;
    while !(stream.at_boundary() && Instant::now() >= deadline) {
        run(&mut m, &stream.next_op());
        replayed += 1;
    }

    let spans = &m.tracer.spans;
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end - s.start;
        }
    }
    let mean_of = |layer: &str, name: &str, replay_only: bool| {
        let (sum, n) = spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .filter(|s| !replay_only || s.start >= replay_start)
            .fold((0u64, 0u64), |(sum, n), s| (sum + (s.end - s.start), n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    };
    let (mut total, mut unattributed) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && s.layer == "client" && s.request >= first_request {
            total += s.end - s.start;
            unattributed += (s.end - s.start).saturating_sub(child_ns[i]);
        }
    }
    let mut self_ns: std::collections::BTreeMap<&str, u64> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        if s.request >= first_request {
            *self_ns.entry(s.layer).or_default() += (s.end - s.start).saturating_sub(child_ns[i]);
        }
    }
    println!(
        "# replay self time ms: {}",
        self_ns
            .iter()
            .map(|(layer, ns)| format!("{layer}={:.3}", *ns as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let report = LayerReport {
        parse_us: mean_of("proto", "parse", true) / 1e3,
        family_parse_ms: mean_of("codec", "family_parse", false) / 1e6,
        base_freeze_ms: mean_of("store", "base_freeze", false) / 1e6,
        mutate_us: mean_of("registry", "mutate", true) / 1e3,
        facts_parse_us: mean_of("codec", "facts_parse", true) / 1e3,
        prepare_warm_us: mean_of("session", "prepare", true) / 1e3,
        materialize_us: mean_of("db", "materialize", true) / 1e3,
        unattributed_share: if total > 0 {
            unattributed as f64 / total as f64
        } else {
            0.0
        },
        replayed,
        spans: spans.len(),
        wrong,
    };
    write_spans(w, out, meta, spans, &child_ns)?;
    Ok(report)
}

fn write_spans(
    w: &Workload,
    out: &Path,
    meta: &str,
    spans: &[Span],
    child_ns: &[u64],
) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let path = out.join(format!("{}-{}-spans.jsonl", w.kind.name(), w.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut file = std::io::BufWriter::new(file);
    let mut text = format!("{{\"meta\": {meta}}}\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        text.push_str(&format!(
            "{{\"id\": {i}, \"request\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {}}}\n",
            s.request,
            s.layer,
            s.name,
            s.start,
            s.end,
            (s.end - s.start).saturating_sub(child_ns[i])
        ));
        if text.len() > 1 << 16 {
            file.write_all(text.as_bytes()).map_err(|e| e.to_string())?;
            text.clear();
        }
    }
    file.write_all(text.as_bytes()).map_err(|e| e.to_string())?;
    file.flush().map_err(|e| e.to_string())
}
