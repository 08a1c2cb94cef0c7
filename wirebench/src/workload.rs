//! The four seeded workloads: their tenants' instance families, the
//! command streams replayed against them, and the fresh-load oracle that
//! checks every answer.
//!
//! Every random choice flows from the run's `--seed` through [`Rng`], so a
//! seed fixes the families, the mutation pool and the command stream.
//! Tenant and word draws come from shuffled decks with exact multiplicities
//! ([`Deck`]) rather than independent draws: the mix of a run, and with it
//! the share of cheap and expensive commands, is the same for every seed.

use std::collections::{HashMap, HashSet};

use cqa_core::query::PathQuery;
use cqa_core::symbol::RelName;
use cqa_datalog::parallel::EvalOptions;
use cqa_db::fact::{Constant, Fact};
use cqa_db::family::InstanceFamily;
use cqa_db::instance::DatabaseInstance;
use cqa_solver::dispatch::DispatchSolver;
use cqa_solver::nl_solver::NlBackend;
use cqa_solver::traits::CertaintySolver;
use cqa_workloads::random::shared_prefix_families;

/// SplitMix64: a small, seedable generator owned by the benchmark, so the
/// streams do not change when a library's generator does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A shuffled deck of indices with exact multiplicities, reshuffled when
/// exhausted: a stratified sampler for a discrete distribution.
#[derive(Debug, Clone)]
pub struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    /// `counts[i]` copies of index `i`.
    pub fn new(counts: &[usize]) -> Deck {
        let cards: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
            .collect();
        assert!(!cards.is_empty(), "a deck needs at least one card");
        Deck {
            next: cards.len(),
            cards,
        }
    }

    /// A deck of `size` cards whose counts follow Zipf weights
    /// `1 / (i + 1)^skew` over `n` indices (largest-remainder rounding,
    /// every index at least once).
    pub fn zipf(n: usize, skew: f64, size: usize) -> Deck {
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(skew)).collect();
        let total: f64 = weights.iter().sum();
        let exact: Vec<f64> = weights.iter().map(|w| w / total * size as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| (e.floor() as usize).max(1)).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let ra = exact[a] - exact[a].floor();
            let rb = exact[b] - exact[b].floor();
            rb.total_cmp(&ra).then(a.cmp(&b))
        });
        let mut missing = size.saturating_sub(counts.iter().sum());
        for &i in order.iter().cycle().take(n * 4) {
            if missing == 0 {
                break;
            }
            counts[i] += 1;
            missing -= 1;
        }
        Deck::new(&counts)
    }

    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReadResident,
    MutateRequery,
    TenantChurn,
    RouteMix,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "read_resident" => Some(Kind::ReadResident),
            "mutate_requery" => Some(Kind::MutateRequery),
            "tenant_churn" => Some(Kind::TenantChurn),
            "route_mix" => Some(Kind::RouteMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReadResident => "read_resident",
            Kind::MutateRequery => "mutate_requery",
            Kind::TenantChurn => "tenant_churn",
            Kind::RouteMix => "route_mix",
        }
    }
}

/// The fixed shape of a workload; only the seed varies between runs.
#[derive(Debug, Clone)]
pub struct Spec {
    pub tenants: usize,
    /// Word whose letters lay out the layered families (`R`, `X`, `Y`).
    pub family_word: &'static str,
    /// Layer width of the shared prefix (`~7.3 * width` prefix facts).
    pub width: usize,
    /// Requests (deltas) per family.
    pub requests: usize,
    /// Query words, each with its share of the stream's deck.
    pub words: &'static [(&'static str, usize)],
    /// `--max-tenants` for the server; `None` keeps the default.
    pub max_tenants: Option<usize>,
    /// Zipf skew of tenant draws (0 = uniform).
    pub skew: f64,
}

impl Spec {
    pub fn of(kind: Kind) -> Spec {
        match kind {
            Kind::ReadResident => Spec {
                tenants: 8,
                family_word: "RXRYRY",
                width: 270,
                requests: 8,
                words: &[("RRX", 1), ("RXRY", 1), ("RYRX", 1)],
                max_tenants: None,
                skew: 1.0,
            },
            Kind::MutateRequery => Spec {
                tenants: 4,
                family_word: "RXRYRY",
                width: 2700,
                requests: 4,
                words: &[("RXRY", 1)],
                max_tenants: None,
                skew: 0.0,
            },
            Kind::TenantChurn => Spec {
                tenants: 28,
                family_word: "RXRYRY",
                width: 270,
                requests: 8,
                words: &[("RRX", 1), ("RXRY", 1), ("RYRX", 1)],
                max_tenants: Some(14),
                skew: 1.0,
            },
            Kind::RouteMix => Spec {
                tenants: 8,
                family_word: "RXRYRY",
                width: 135,
                requests: 4,
                words: &[("RXRX", 3), ("RXRYRY", 5), ("RXRXRYRY", 2)],
                max_tenants: None,
                skew: 0.0,
            },
        }
    }
}

/// One tenant: its family, the family's wire text, and the words the
/// stream asks it.
#[derive(Debug)]
pub struct Tenant {
    pub name: String,
    pub family: InstanceFamily,
    /// `cqa_db::codec::family_to_text` of the family, rendered once.
    pub text: String,
    /// Facts in the family as loaded (prefix plus every delta).
    pub facts: usize,
    /// Indexes into [`Workload::words`].
    pub words: Vec<usize>,
}

/// A reversible delta mutation of one request (mutate_requery's pool).
#[derive(Debug)]
pub struct Mutation {
    pub tenant: usize,
    pub request: usize,
    /// `true`: the forward step appends fresh facts; `false`: it retracts
    /// facts of the delta. The undo step does the opposite.
    pub append: bool,
    pub facts: DatabaseInstance,
    /// `cqa_db::codec::to_text` of `facts`.
    pub text: String,
}

/// One command of a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `QUERY` (`ids: None`) or `BATCH` over `ids`. `variant` names the
    /// state of the queried request: 0 is the loaded state, `m + 1` is the
    /// state with mutation `m` applied.
    Query {
        tenant: usize,
        word: usize,
        ids: Option<Vec<usize>>,
        variant: usize,
    },
    /// Apply (`undo: false`) or revert mutation `mutation`.
    Write { mutation: usize, undo: bool },
}

impl Op {
    /// Certainty instances the command decides (0 for writes).
    pub fn decisions(&self, requests: usize) -> usize {
        match self {
            Op::Query { ids: Some(ids), .. } => ids.len(),
            Op::Query { ids: None, .. } => requests,
            Op::Write { .. } => 0,
        }
    }
}

#[derive(Debug)]
pub struct Workload {
    pub kind: Kind,
    pub spec: Spec,
    pub seed: u64,
    pub words: Vec<PathQuery>,
    pub tenants: Vec<Tenant>,
    pub mutations: Vec<Mutation>,
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let spec = Spec::of(kind);
        let mut rng = Rng::new(seed);
        let words: Vec<PathQuery> = spec
            .words
            .iter()
            .map(|(w, _)| PathQuery::parse(w).expect("valid query word"))
            .collect();
        let family_word = PathQuery::parse(spec.family_word).expect("valid family word");
        let tenants: Vec<Tenant> = (0..spec.tenants)
            .map(|t| {
                let family = shared_prefix_families(
                    family_word.word(),
                    spec.width,
                    spec.requests,
                    0.1,
                    rng.next_u64(),
                );
                let facts =
                    family.prefix().len() + family.deltas().iter().map(|d| d.len()).sum::<usize>();
                let tenant_words = match kind {
                    // One word per tenant: a reload re-derives one word,
                    // and mutations repair one maintained store.
                    Kind::TenantChurn | Kind::MutateRequery => vec![t % words.len()],
                    Kind::ReadResident | Kind::RouteMix => (0..words.len()).collect(),
                };
                Tenant {
                    name: format!("{}-t{t}", kind.name().replace('_', "-")),
                    text: cqa_db::codec::family_to_text(&family),
                    family,
                    facts,
                    words: tenant_words,
                }
            })
            .collect();
        let mutations = if kind == Kind::MutateRequery {
            mutation_pool(&spec, &tenants, &mut rng)
        } else {
            Vec::new()
        };
        Workload {
            kind,
            spec,
            seed,
            words,
            tenants,
            mutations,
        }
    }

    /// Tenants in setup order. tenant_churn loads its coldest tenants
    /// first, so the hot ones are resident when the timed phase starts.
    pub fn setup_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.tenants.len()).collect();
        if self.kind == Kind::TenantChurn {
            order.reverse();
        }
        order
    }

    pub fn word(&self, w: usize) -> &str {
        self.spec.words[w].0
    }

    /// The delta of `request` in state `variant` (see [`Op::Query`]).
    pub fn delta(&self, tenant: usize, request: usize, variant: usize) -> DatabaseInstance {
        let delta = &self.tenants[tenant].family.deltas()[request];
        match variant.checked_sub(1).map(|m| &self.mutations[m]) {
            None => delta.clone(),
            Some(m) => {
                assert_eq!((m.tenant, m.request), (tenant, request));
                if m.append {
                    delta.union(&m.facts)
                } else {
                    DatabaseInstance::from_facts(
                        delta
                            .facts()
                            .iter()
                            .copied()
                            .filter(|f| !m.facts.contains(f)),
                    )
                }
            }
        }
    }

    /// Delta size of the mutated request after the step (an undo restores
    /// the loaded delta).
    pub fn delta_len_after(&self, mutation: usize, undo: bool) -> usize {
        let m = &self.mutations[mutation];
        let base = self.tenants[m.tenant].family.deltas()[m.request].len();
        match (undo, m.append) {
            (true, _) => base,
            (false, true) => base + m.facts.len(),
            (false, false) => base - m.facts.len(),
        }
    }

    /// Every `(tenant, word, request, variant)` the stream can ask about.
    pub fn states(&self) -> Vec<(usize, usize, usize, usize)> {
        let mut states = Vec::new();
        for (t, tenant) in self.tenants.iter().enumerate() {
            for &w in &tenant.words {
                for r in 0..tenant.family.len() {
                    states.push((t, w, r, 0));
                }
            }
        }
        for (m, mutation) in self.mutations.iter().enumerate() {
            for &w in &self.tenants[mutation.tenant].words {
                states.push((mutation.tenant, w, mutation.request, m + 1));
            }
        }
        states
    }

    pub fn stream(&self) -> Stream {
        let spec = &self.spec;
        let word_counts: Vec<usize> = spec.words.iter().map(|&(_, c)| c).collect();
        let tenant_deck = if spec.skew > 0.0 {
            Deck::zipf(spec.tenants, spec.skew, 40 * spec.tenants)
        } else {
            Deck::new(&vec![1; spec.tenants])
        };
        Stream {
            kind: self.kind,
            rng: Rng::new(self.seed ^ 0x5157_EA11),
            tenants: tenant_deck,
            words: Deck::new(&word_counts),
            verbs: Deck::new(&[1, 3]),
            pending: Vec::new(),
            requests: spec.requests,
            mutations: Deck::new(&vec![1; self.mutations.len().max(1)]),
            targets: self
                .mutations
                .iter()
                .map(|m| (m.tenant, m.request))
                .collect(),
            tenant_words: self.tenants.iter().map(|t| t.words.clone()).collect(),
        }
    }
}

/// Pool mutations per (tenant, request, direction, size).
const POOL_REPEATS: usize = 2;

/// Forward mutations for every (tenant, request): half append fresh edges
/// between existing vertices (new conflicts and escapes), half retract
/// existing delta facts, each direction with [`POOL_REPEATS`] mutations of
/// every size from 1 to 4 facts. Exact counts per size keep the pool's
/// mean repair cost, and with it the run's figures, from depending on how
/// the seed happened to draw sizes.
fn mutation_pool(spec: &Spec, tenants: &[Tenant], rng: &mut Rng) -> Vec<Mutation> {
    let letters: Vec<RelName> = PathQuery::parse(spec.family_word)
        .expect("valid family word")
        .word()
        .iter()
        .collect();
    let mut pool = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        for (r, delta) in tenant.family.deltas().iter().enumerate() {
            let shapes = [true, false]
                .into_iter()
                .flat_map(|append| (1..=4).map(move |size| (append, size)));
            for (append, size) in shapes.flat_map(|s| std::iter::repeat_n(s, POOL_REPEATS)) {
                let mut facts = DatabaseInstance::new();
                if append {
                    while facts.len() < size {
                        let layer = rng.below(letters.len());
                        let fact = Fact::new(
                            letters[layer],
                            Constant::new(&format!("L{layer}_{}", rng.below(spec.width))),
                            Constant::new(&format!("L{}_{}", layer + 1, rng.below(spec.width))),
                        );
                        if !tenant.family.prefix().contains(&fact) && !delta.contains(&fact) {
                            facts.insert(fact);
                        }
                    }
                } else {
                    let mut picked = HashSet::new();
                    while picked.len() < size.min(delta.len()) {
                        picked.insert(rng.below(delta.len()));
                    }
                    let mut picked: Vec<usize> = picked.into_iter().collect();
                    picked.sort_unstable();
                    for i in picked {
                        facts.insert(delta.facts()[i]);
                    }
                }
                pool.push(Mutation {
                    tenant: t,
                    request: r,
                    append,
                    text: cqa_db::codec::to_text(&facts),
                    facts,
                });
            }
        }
    }
    pool
}

/// An endless command stream; the same seed yields the same commands.
#[derive(Debug, Clone)]
pub struct Stream {
    kind: Kind,
    rng: Rng,
    tenants: Deck,
    words: Deck,
    /// read_resident: 1 `QUERY` per 3 `BATCH`es.
    verbs: Deck,
    /// Commands already decided, in reverse order.
    pending: Vec<Op>,
    requests: usize,
    /// mutate_requery: every mutation of the pool once per pass.
    mutations: Deck,
    /// (tenant, request) of each mutation.
    targets: Vec<(usize, usize)>,
    tenant_words: Vec<Vec<usize>>,
}

/// `BATCH` size on read_resident (half the family).
const BATCH_IDS: usize = 4;

impl Stream {
    /// True between mutate_requery cycles (always true elsewhere): a run
    /// may stop here and leave every family as it was loaded.
    pub fn at_boundary(&self) -> bool {
        self.pending.is_empty()
    }

    pub fn next_op(&mut self) -> Op {
        if let Some(op) = self.pending.pop() {
            return op;
        }
        let rng = &mut self.rng;
        match self.kind {
            Kind::ReadResident => {
                let tenant = self.tenants.draw(rng);
                let word = self.words.draw(rng);
                let ids = if self.verbs.draw(rng) == 0 {
                    None
                } else {
                    let mut ids: Vec<usize> = (0..self.requests).collect();
                    rng.shuffle(&mut ids);
                    ids.truncate(BATCH_IDS);
                    Some(ids)
                };
                Op::Query {
                    tenant,
                    word,
                    ids,
                    variant: 0,
                }
            }
            Kind::RouteMix => Op::Query {
                tenant: self.tenants.draw(rng),
                word: self.words.draw(rng),
                ids: None,
                variant: 0,
            },
            Kind::TenantChurn => {
                let tenant = self.tenants.draw(rng);
                Op::Query {
                    tenant,
                    word: self.tenant_words[tenant][0],
                    ids: None,
                    variant: 0,
                }
            }
            Kind::MutateRequery => {
                // Four commands: mutate, re-query, undo, re-query.
                let mutation = self.mutations.draw(rng);
                let (tenant, request) = self.targets[mutation];
                let word = self.tenant_words[tenant][0];
                let query = |variant| Op::Query {
                    tenant,
                    word,
                    ids: Some(vec![request]),
                    variant,
                };
                self.pending = vec![
                    query(0),
                    Op::Write {
                        mutation,
                        undo: true,
                    },
                    query(mutation + 1),
                ];
                Op::Write {
                    mutation,
                    undo: false,
                }
            }
        }
    }
}

/// Fresh-load answers for every state of a workload:
/// `(tenant, word, request, variant) -> certain?`.
pub type Oracle = HashMap<(usize, usize, usize, usize), bool>;

/// Decides every state with a fresh [`DispatchSolver`] on the materialized
/// instance `prefix ∪ delta` — no shared base, no maintained state — on
/// `threads` scoped workers.
pub fn oracle(workload: &Workload, threads: usize) -> Result<Oracle, String> {
    let states = workload.states();
    let chunk = states.len().div_ceil(threads.max(1)).max(1);
    let results: Vec<Result<Vec<bool>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let solver =
                        DispatchSolver::with_options(NlBackend::Datalog, EvalOptions::sequential());
                    part.iter()
                        .map(|&(t, w, r, v)| {
                            let full = workload.tenants[t]
                                .family
                                .prefix()
                                .union(&workload.delta(t, r, v));
                            solver
                                .certain(&workload.words[w], &full)
                                .map_err(|e| format!("oracle failed on {t}/{w}/{r}/{v}: {e}"))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle worker panicked"))
            .collect()
    });
    let mut answers = Oracle::new();
    let mut decided = states.iter();
    for part in results {
        for bit in part? {
            answers.insert(*decided.next().expect("one answer per state"), bit);
        }
    }
    Ok(answers)
}

/// The reply a query must get: `OK ANSWERS <bits>` in id order.
pub fn expected_answers(workload: &Workload, oracle: &Oracle, op: &Op) -> String {
    let Op::Query {
        tenant,
        word,
        ids,
        variant,
    } = op
    else {
        panic!("only queries have answers");
    };
    let all: Vec<usize>;
    let ids = match ids {
        Some(ids) => ids,
        None => {
            all = (0..workload.tenants[*tenant].family.len()).collect();
            &all
        }
    };
    let mut line = String::from("OK ANSWERS ");
    for &r in ids {
        // Only the mutated request carries the variant.
        let v = match variant.checked_sub(1) {
            Some(m) if workload.mutations[m].request == r => *variant,
            _ => 0,
        };
        line.push(if oracle[&(*tenant, *word, r, v)] {
            '1'
        } else {
            '0'
        });
    }
    line
}
