//! Benefit evaluation with efficient optimizer-call management.
//!
//! Implements the paper's benefit formula (Section III)
//!
//! ```text
//! Benefit(x1..xn; W) = Σ_{s∈W} ( freq_s · (s_old − s_new) − Σ_i freq_s · mc(x_i, s) )
//! ```
//!
//! and the paper's Section VI-C machinery to keep the number of *Evaluate
//! Indexes* optimizer calls small:
//!
//! * **affected sets** — only statements whose basic patterns a candidate
//!   covers can change cost, so only the union of the configuration's
//!   affected sets is re-optimized;
//! * **sub-configurations** — the configuration is split into groups of
//!   candidates with overlapping affected sets (indexes in different
//!   groups cannot interact) and each group is evaluated independently;
//! * **cache** — evaluated sub-configurations are memoized.
//!
//! All three mechanisms can be disabled independently for the ablation
//! experiment (E9 in DESIGN.md).
//!
//! On top of these sits **statement-relevance pruning** (DESIGN.md §11): a
//! relevance matrix derived from the statements' index-matching signatures
//! tells, for each candidate, exactly which statements' plans could consult
//! it. Each per-statement costing is keyed on the canonical *projection* of
//! the sub-configuration onto the statement's relevant candidates and
//! memoized in a statement-level cost cache — adding an irrelevant index or
//! permuting the configuration is a guaranteed hit, so an incremental
//! `benefit(config ∪ {x})` probe re-costs only statements in
//! `relevant(x)`. The optimizer consults the catalog only through index
//! matching (the same covers/kind test the signature encodes), so serving a
//! projection hit is bitwise identical to re-running the optimizer; the
//! pruned and unpruned paths produce byte-identical recommendations (pinned
//! by `tests/determinism.rs`). `prune` toggles the layer for ablation.

use crate::candidate::{CandId, CandidateSet, StmtSet};
use crate::error::{IssueStage, StatementIssue};
use crate::runctl::{GovernorRung, RunController, WarmEntry, WarmKey};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};
use xia_fault::FaultInjector;
use xia_obs::{Counter, Event, EventJournal, Hist, Telemetry};
use xia_optimizer::{maintenance, Optimizer};
use xia_storage::{CatalogOverlay, Database, IndexStats};
use xia_workloads::Workload;
use xia_xpath::{CoverCache, LinearPath, RelevanceMatrix};

/// Counters exposed for the efficiency experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalStats {
    /// Evaluate-mode optimizer invocations (one per statement costed).
    pub optimizer_calls: u64,
    /// Sub-configuration cache hits.
    pub cache_hits: u64,
    /// Sub-configuration cache misses (evaluations performed).
    pub cache_misses: u64,
    /// `benefit()` invocations.
    pub benefit_calls: u64,
    /// Per-statement costings answered from the projection-keyed statement
    /// cost cache.
    pub stmt_cache_hits: u64,
    /// Per-statement costings the pruning layer served without an
    /// optimizer call.
    pub statements_pruned: u64,
    /// Incremental `benefit_delta` probes issued by the searches.
    pub delta_probes: u64,
}

/// A what-if evaluation budget. When either limit is reached, further
/// benefit evaluations fall back to cached sub-configuration values and,
/// failing that, heuristic costs (the degradation ladder: budget → cached
/// → heuristic). Zero means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WhatIfBudget {
    /// Maximum Evaluate-mode optimizer calls (0 = unlimited).
    pub max_calls: u64,
    /// Maximum wall-clock milliseconds spent evaluating (0 = unlimited).
    pub max_millis: u64,
}

impl WhatIfBudget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A call-count budget.
    pub fn calls(max_calls: u64) -> Self {
        Self {
            max_calls,
            max_millis: 0,
        }
    }

    fn exhausted(&self, calls: u64, elapsed: Duration) -> bool {
        (self.max_calls > 0 && calls >= self.max_calls)
            || (self.max_millis > 0 && elapsed.as_millis() as u64 >= self.max_millis)
    }
}

/// Canonicalizes a sub-configuration cache key: sorted, deduplicated. The
/// same sub-configuration reached in any order maps to one key.
fn canonical_key(mut key: Vec<CandId>) -> Vec<CandId> {
    key.sort_unstable();
    key.dedup();
    key
}

/// Number of memo-cache shards (a power of two; keys spread by FNV hash).
const CACHE_SHARDS: usize = 16;

/// FNV-1a over a canonical key (also used to salt per-task fault streams).
fn key_hash(seed: u64, key: &[CandId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &CandId(id) in key {
        h = (h ^ u64::from(id)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The sub-configuration memo cache: canonical-key entries sharded by key
/// hash, each shard behind its own `RwLock`. Reads take a shard read lock
/// only, so concurrent readers on different shards (or the same shard)
/// never serialize behind one another; writes touch a single shard.
#[derive(Debug)]
struct ShardedCache {
    shards: Vec<RwLock<HashMap<Vec<CandId>, f64>>>,
}

impl ShardedCache {
    fn new() -> Self {
        Self {
            shards: (0..CACHE_SHARDS).map(|_| RwLock::default()).collect(),
        }
    }

    fn shard(&self, key: &[CandId]) -> &RwLock<HashMap<Vec<CandId>, f64>> {
        &self.shards[(key_hash(0, key) % CACHE_SHARDS as u64) as usize]
    }

    fn get(&self, key: &[CandId]) -> Option<f64> {
        self.shard(key)
            .read()
            .ok()
            .and_then(|m| m.get(key).copied())
    }

    fn insert(&self, key: Vec<CandId>, value: f64) {
        if let Ok(mut m) = self.shard(&key).write() {
            m.insert(key, value);
        }
    }
}

/// Minimum task count before `run_indexed` spawns workers. Costing one
/// statement takes single-digit microseconds while a scoped spawn+join of
/// a small worker pool costs ~150µs; fanning out a handful of tasks is a
/// guaranteed slowdown. Small batches (the greedy search's incremental
/// `benefit()` probes) stay serial; large ones (`benefit_batch` over all
/// candidates, baseline costing) parallelize. Results are identical
/// either way.
const PAR_MIN_TASKS: usize = 48;

/// Runs `f(0..n)` across `jobs` scoped worker threads (work-stealing via a
/// shared atomic cursor) and returns the results in index order. With one
/// job — or fewer than [`PAR_MIN_TASKS`] tasks — it degenerates to a plain
/// serial loop, so the results are identical either way; `f` must be a
/// pure function of its index apart from counting into the telemetry
/// handle it is given.
///
/// Each worker thread counts into its own scratch [`Telemetry`], merged
/// into `telemetry` after the join: counter totals are exact and
/// jobs-invariant (addition commutes), but the hot costing loop never
/// touches a shared cache line — contended `fetch_add`s on one counter
/// array would otherwise eat the entire fan-out win.
fn run_indexed<T, F>(n: usize, jobs: usize, telemetry: &Telemetry, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &Telemetry) -> T + Sync,
{
    if jobs <= 1 || n < PAR_MIN_TASKS {
        return (0..n).map(|i| f(i, telemetry)).collect();
    }
    let workers = jobs.min(n);
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let scratch = Telemetry::new();
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &scratch)));
                    }
                    (local, scratch)
                })
            })
            .collect();
        for handle in handles {
            let (local, scratch) = handle.join().expect("what-if worker panicked");
            for (i, v) in local {
                out[i] = Some(v);
            }
            for c in Counter::ALL {
                let count = scratch.get(c);
                if count > 0 {
                    telemetry.add(c, count);
                }
            }
            telemetry.merge_hists_from(&scratch);
        }
    });
    out.into_iter()
        .map(|v| v.expect("every task index was claimed"))
        .collect()
}

/// How one planned statement costing resolves. All nondeterministic
/// decisions (budget, statistics availability) are made by the coordinator
/// at planning time; workers only execute `Optimize` tasks.
#[derive(Debug, Clone, Copy)]
enum TaskKind {
    /// Cost through the optimizer, rolling a fault stream derived from
    /// `salt` (a pure function of the statement and the sub-configuration's
    /// *projection* onto its relevant candidates, so the schedule is
    /// independent of worker interleaving — and of whether an equal
    /// projection was previously served from the statement cache).
    Optimize { salt: u64 },
    /// Answered from the statement cost cache at planning time (projection
    /// hit, or post-exhaustion cached serve); workers skip it.
    Served { cost: f64 },
    /// The what-if budget was exhausted when this task was planned.
    BudgetFallback,
    /// Collection statistics were unavailable when this task was planned.
    StatsFallback,
    /// The resource governor's `heuristic_only` rung was in effect when
    /// this task was planned: no optimizer fan-out for uncached work.
    GovernorFallback,
}

/// Scratch-counter snapshot taken around one worker task while
/// checkpointing is armed, so the task's exact counter footprint can be
/// replayed when a warm-store entry serves it on `--resume`.
fn counter_snapshot(tel: &Telemetry) -> Vec<u64> {
    Counter::ALL.iter().map(|&c| tel.get(c)).collect()
}

/// `(Counter::ALL index, delta)` pairs the task added over `before`.
fn counter_deltas(before: &[u64], tel: &Telemetry) -> Vec<(usize, u64)> {
    Counter::ALL
        .iter()
        .enumerate()
        .filter_map(|(i, &c)| {
            let d = tel.get(c).saturating_sub(before[i]);
            (d > 0).then_some((i, d))
        })
        .collect()
}

/// One planned statement costing against one missed sub-configuration.
#[derive(Debug, Clone)]
struct CostTask {
    /// Index into the batch's missed-group list.
    group: usize,
    /// Statement index in the workload.
    si: usize,
    kind: TaskKind,
    /// Canonical projection of the group onto the statement's relevant
    /// candidates — the statement-cache key an `Optimize` result is
    /// memoized under (`None` for fallback and served tasks).
    proj: Option<Vec<CandId>>,
}

/// Fault-stream phase tags (keep baseline and evaluation schedules apart).
const SALT_BASELINE: u64 = 0xBA5E;
const SALT_EVALUATE: u64 = 0xE7A1;

/// Evaluates candidate-configuration benefits through the optimizer.
///
/// Costing is side-effect-free: candidate configurations are materialized
/// as [`CatalogOverlay`]s over the immutable database instead of being
/// created and dropped in the shared catalogs, so per-statement what-if
/// calls fan out across `jobs` scoped worker threads. The coordinator
/// thread plans every task (cache lookups, budget charging, fault-stream
/// salts) serially and merges results in task order, which keeps
/// recommendations and counter totals byte-identical for any `jobs`.
pub struct BenefitEvaluator<'a> {
    db: &'a Database,
    workload: &'a Workload,
    set: &'a CandidateSet,
    /// Baseline (no-candidate) cost per statement.
    baseline: Vec<f64>,
    /// Derived index statistics per candidate (for maintenance costs).
    istats: HashMap<CandId, IndexStats>,
    /// Total (frequency-weighted) maintenance cost per candidate.
    mc_totals: HashMap<CandId, f64>,
    /// Memoized sub-configuration benefits (query side, before mc).
    cache: ShardedCache,
    /// Per-candidate relevance: the statements whose plans could possibly
    /// consult the candidate (derived from the statements' index-matching
    /// signatures at construction time — no optimizer calls).
    relevance: Vec<StmtSet>,
    /// Content-derived fault salt per statement: the FNV-1a fingerprint
    /// of the statement's cost-identity template key. XORed into every
    /// fault-stream salt in place of the raw statement index, so an
    /// injected fault verdict is a pure function of *what* the statement
    /// is (and the projection being costed), never of where it sits in
    /// the workload — the invariant that keeps CoPhy workload compression
    /// lossless under fault injection.
    stmt_salts: Vec<u64>,
    /// Per-statement cost cache: statement index → canonical projection of
    /// a sub-configuration onto the statement's relevant candidates → cost.
    /// Coordinator-only; maintained identically with pruning on or off so
    /// the budget trajectory is mode-invariant. Tainted (fault/fallback)
    /// costs are never inserted.
    stmt_cache: HashMap<usize, HashMap<Vec<CandId>, f64>>,
    /// What-if budget account: statements actually re-costed (statement
    /// cache misses), charged identically with pruning on or off.
    charged: u64,
    /// Ablation switch (Section VI-C): serve projection hits from the
    /// statement cache instead of re-running the optimizer. Off
    /// re-executes every hit (uncharged); results are byte-identical.
    pub prune: bool,
    /// Shared containment-verdict cache: the relevance build, greedy
    /// coverage bitmaps, and top-down leftover fill all ask the same
    /// `(general, specific)` questions repeatedly. Coordinator-only, so
    /// its hit counters are invariant under `jobs`.
    cover_cache: CoverCache,
    /// Ablation switch: restrict evaluation to affected statements.
    pub use_affected_sets: bool,
    /// Ablation switch: decompose configurations into sub-configurations.
    pub use_subconfigs: bool,
    /// Ablation switch: memoize sub-configuration evaluations.
    pub use_cache: bool,
    stats: EvalStats,
    /// Telemetry sink for what-if accounting (off unless attached).
    telemetry: Telemetry,
    /// Fault injector that per-task streams are derived from.
    faults: FaultInjector,
    /// What-if call/time budget; exhausted → heuristic fallbacks.
    budget: WhatIfBudget,
    /// When the first `benefit()` call arrived (anchor for the time
    /// budget; `None` until evaluation starts, so a long prepare phase
    /// cannot eat the budget).
    started: Option<Instant>,
    /// Worker threads for what-if fan-out (1 = serial).
    jobs: usize,
    /// Per-statement liveness: quarantined statements are masked out of
    /// every evaluation loop.
    active: Vec<bool>,
    /// Diagnostics for quarantined statements.
    quarantined: Vec<StatementIssue>,
    /// Benefit evaluations answered heuristically (fault or budget).
    fallbacks: u64,
    /// Decision-provenance journal. All emissions happen coordinator-side
    /// (planning and merge phases), so the event stream is jobs-invariant.
    journal: EventJournal,
    /// `BudgetExhausted` is emitted once, at the first fallback planning.
    budget_event_emitted: bool,
    /// Run-lifecycle controller: deadline/cancel polls, the checkpoint
    /// warm store and log, and the governor's memory budget. All
    /// interactions are coordinator-side, so lifecycle decisions are
    /// jobs-invariant.
    ctl: RunController,
    /// Candidate-set digest binding checkpoint files to this run.
    digest: u64,
    /// Resource-governor rung currently in effect (demotions are
    /// one-way).
    rung: GovernorRung,
    /// Approximate live bytes of the sharded memo cache.
    memo_bytes: u64,
    /// Approximate live bytes of the statement cost cache.
    stmt_bytes: u64,
    /// Lifecycle warnings to surface to the caller (abandoned checkpoint
    /// writes).
    warnings: Vec<String>,
}

impl<'a> BenefitEvaluator<'a> {
    /// Creates an evaluator, computing per-statement baseline costs with
    /// no candidate indexes in place.
    pub fn new(db: &'a mut Database, workload: &'a Workload, set: &'a CandidateSet) -> Self {
        Self::with_faults(
            db,
            workload,
            set,
            &FaultInjector::off(),
            WhatIfBudget::unlimited(),
        )
    }

    /// Creates an evaluator configured from [`crate::advisor::AdvisorParams`]:
    /// telemetry, fault injector, and what-if budget are all in effect from
    /// baseline costing onwards.
    pub fn configured(
        db: &'a mut Database,
        workload: &'a Workload,
        set: &'a CandidateSet,
        params: &crate::advisor::AdvisorParams,
    ) -> Self {
        Self::build(
            db,
            workload,
            set,
            &params.faults,
            params.what_if_budget,
            &params.telemetry,
            params.effective_jobs(),
            &params.journal,
            &params.ctl,
        )
    }

    /// Creates an evaluator with a fault injector and what-if budget in
    /// effect from baseline costing onwards. Statements whose collection
    /// is missing are quarantined here; statements whose costing fails
    /// (stats unavailable, injected optimizer fault) get a heuristic
    /// baseline and the run is marked degraded.
    pub fn with_faults(
        db: &'a mut Database,
        workload: &'a Workload,
        set: &'a CandidateSet,
        faults: &FaultInjector,
        budget: WhatIfBudget,
    ) -> Self {
        Self::build(
            db,
            workload,
            set,
            faults,
            budget,
            &Telemetry::off(),
            1,
            &EventJournal::off(),
            &RunController::off(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        db: &'a mut Database,
        workload: &'a Workload,
        set: &'a CandidateSet,
        faults: &FaultInjector,
        budget: WhatIfBudget,
        telemetry: &Telemetry,
        jobs: usize,
        journal: &EventJournal,
        ctl: &RunController,
    ) -> Self {
        // Setup is the only phase that mutates the database: attach the
        // sinks, refresh statistics, and clear stale virtual indexes. From
        // here on the evaluator holds the database immutably — what-if
        // configurations live in catalog overlays, never in the catalogs.
        db.set_faults(faults);
        db.set_telemetry(telemetry);
        db.runstats_all();
        for name in db
            .collection_names()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
        {
            if let Some(cat) = db.catalog_mut(&name) {
                cat.drop_all_virtual();
            }
        }
        let db: &'a Database = db;
        // Relevance matrix: one signature per statement, one bitset per
        // candidate. Pure containment work — no optimizer calls.
        let matrix = RelevanceMatrix::new(
            workload
                .entries()
                .iter()
                .map(|e| xia_optimizer::statement_signature(&e.statement))
                .collect(),
        );
        let stmt_salts: Vec<u64> = workload
            .entries()
            .iter()
            .map(|e| xia_xpath::template_fingerprint(&e.statement))
            .collect();
        let cover_cache = CoverCache::new();
        let relevance = set
            .ids()
            .map(|id| {
                let c = set.get(id);
                let mut s = StmtSet::new();
                for si in matrix.relevant_statements_cached(
                    &c.collection,
                    &c.pattern,
                    c.kind,
                    &cover_cache,
                ) {
                    s.insert(si);
                }
                s
            })
            .collect();
        let mut ev = Self {
            db,
            workload,
            set,
            baseline: Vec::new(),
            istats: HashMap::new(),
            mc_totals: HashMap::new(),
            cache: ShardedCache::new(),
            relevance,
            stmt_salts,
            stmt_cache: HashMap::new(),
            charged: 0,
            prune: true,
            cover_cache,
            use_affected_sets: true,
            use_subconfigs: true,
            use_cache: true,
            stats: EvalStats::default(),
            telemetry: telemetry.clone(),
            faults: faults.clone(),
            budget,
            started: None,
            jobs: jobs.max(1),
            active: vec![true; workload.len()],
            quarantined: Vec::new(),
            fallbacks: 0,
            journal: journal.clone(),
            budget_event_emitted: false,
            ctl: ctl.clone(),
            // The digest only matters for checkpoint binding; skip the
            // render when no controller is armed.
            digest: if ctl.is_enabled() {
                crate::runctl::candidate_digest(set)
            } else {
                0
            },
            rung: GovernorRung::Full,
            memo_bytes: 0,
            stmt_bytes: 0,
            warnings: Vec::new(),
        };
        ev.compute_baselines();
        ev
    }

    fn compute_baselines(&mut self) {
        let n = self.workload.len();
        self.baseline = vec![0.0; n];
        // Plan serially: quarantine missing collections, resolve stats
        // availability, and assign fault-stream salts.
        #[derive(Clone, Copy)]
        enum BasePlan {
            Quarantined,
            StatsFallback,
            Cost { salt: u64 },
        }
        let mut plans = Vec::with_capacity(n);
        for si in 0..n {
            let entry = &self.workload.entries()[si];
            let coll = entry.statement.collection();
            plans.push(if self.db.collection(coll).is_none() {
                self.active[si] = false;
                self.telemetry.incr(Counter::StatementsQuarantined);
                self.quarantined.push(StatementIssue {
                    index: si,
                    text: entry.text.clone(),
                    stage: IssueStage::Cost,
                    detail: format!("unknown collection `{coll}`"),
                });
                BasePlan::Quarantined
            } else if self.db.parts(coll).is_none() {
                // The collection exists but statistics are unavailable.
                BasePlan::StatsFallback
            } else {
                BasePlan::Cost {
                    salt: key_hash(SALT_BASELINE, &[]) ^ self.stmt_salts[si],
                }
            });
        }
        // Warm-store consult (coordinator-side): a resumed run serves any
        // baseline costing the interrupted run already executed.
        let capture = self.ctl.checkpointing();
        let mut warm: Vec<Option<WarmEntry>> = if self.ctl.resumed() {
            plans
                .iter()
                .enumerate()
                .map(|(si, plan)| match plan {
                    BasePlan::Cost { salt } => self.ctl.warm_lookup(&WarmKey {
                        salt: *salt,
                        si,
                        proj: Vec::new(),
                    }),
                    _ => None,
                })
                .collect()
        } else {
            vec![None; n]
        };
        let (db, workload) = (self.db, self.workload);
        let faults = self.faults.clone();
        let warm_ref = &warm;
        let results = run_indexed(n, self.jobs, &self.telemetry.clone(), |si, tel| {
            let BasePlan::Cost { salt } = plans[si] else {
                return (None, Vec::new());
            };
            if warm_ref[si].is_some() {
                // Served from the warm store at merge time.
                return (None, Vec::new());
            }
            let stmt = &workload.entries()[si].statement;
            let Some((collection, catalog, stats)) = db.parts(stmt.collection()) else {
                return (None, Vec::new());
            };
            let before = capture.then(|| counter_snapshot(tel));
            let mut optimizer = Optimizer::with_view(collection, stats, catalog.view());
            optimizer.set_telemetry(tel);
            optimizer.set_faults(&faults.derive_stream(salt));
            let t0 = tel.is_enabled().then(Instant::now);
            let cost = optimizer.try_optimize(stmt).ok().map(|p| p.total_cost);
            if let Some(t0) = t0 {
                tel.record(Hist::WhatIfCall, t0.elapsed());
            }
            let deltas = before.map(|b| counter_deltas(&b, tel)).unwrap_or_default();
            (cost, deltas)
        });
        for (si, (plan, (result, deltas))) in plans.iter().zip(results).enumerate() {
            let served = warm[si].take();
            self.baseline[si] = match (plan, served, result) {
                (BasePlan::Quarantined, _, _) => 0.0,
                (BasePlan::Cost { salt }, Some(entry), _) => {
                    // Warm-served replay: reuse the exact cost and reapply
                    // the original execution's counter footprint, then log
                    // the entry again so the next checkpoint carries it.
                    self.stats.optimizer_calls += 1;
                    self.charged += 1;
                    self.apply_deltas(&entry.deltas);
                    let cost = f64::from_bits(entry.cost_bits);
                    self.ctl.record_costing(
                        WarmKey {
                            salt: *salt,
                            si,
                            proj: Vec::new(),
                        },
                        entry,
                    );
                    cost
                }
                (BasePlan::Cost { salt }, None, Some(cost)) => {
                    self.stats.optimizer_calls += 1;
                    self.charged += 1;
                    self.ctl.record_costing(
                        WarmKey {
                            salt: *salt,
                            si,
                            proj: Vec::new(),
                        },
                        WarmEntry {
                            cost_bits: cost.to_bits(),
                            deltas,
                        },
                    );
                    cost
                }
                (kind, _, _) => {
                    // An optimizer failure here is an injected fault — the
                    // collection and its statistics were resolvable at
                    // planning time.
                    if matches!(kind, BasePlan::Cost { .. }) {
                        self.journal.emit(|| Event::FaultInjected { statement: si });
                    }
                    // The statement is costable in principle (the data is
                    // there); fall back to a heuristic scan estimate so the
                    // run can continue degraded.
                    if matches!(kind, BasePlan::Cost { .. }) {
                        self.stats.optimizer_calls += 1;
                        self.charged += 1;
                    }
                    self.fallbacks += 1;
                    self.telemetry.incr(Counter::CostFallbacks);
                    let coll = self.workload.entries()[si].statement.collection();
                    self.heuristic_statement_cost(coll)
                }
            };
        }
    }

    /// A crude scan-cost proxy used when the optimizer cannot answer:
    /// touch every node of the statement's collection once.
    fn heuristic_statement_cost(&self, coll: &str) -> f64 {
        self.db
            .collection(coll)
            .map(|c| c.total_nodes() as f64)
            .unwrap_or(0.0)
            .max(1.0)
    }

    /// Evaluation counters so far.
    pub fn eval_stats(&self) -> EvalStats {
        self.stats
    }

    /// Diagnostics for statements quarantined during baseline costing.
    pub fn quarantined(&self) -> &[StatementIssue] {
        &self.quarantined
    }

    /// Number of statements still participating in evaluation.
    pub fn active_statements(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Benefit evaluations answered heuristically so far (injected faults,
    /// unavailable statistics, or budget exhaustion).
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks
    }

    /// Optimizer calls charged against the what-if budget so far. Only
    /// statements actually re-costed charge; costings served from the
    /// statement cache are free, with pruning on or off.
    pub fn budget_charged(&self) -> u64 {
        self.charged
    }

    /// Whether any quarantine or fallback degraded this run.
    pub fn is_degraded(&self) -> bool {
        self.fallbacks > 0 || !self.quarantined.is_empty()
    }

    /// The run-lifecycle controller threaded through this evaluator (the
    /// searches poll it at their loop boundaries).
    pub fn ctl(&self) -> &RunController {
        &self.ctl
    }

    /// The resource-governor rung currently in effect.
    pub fn governor_rung(&self) -> GovernorRung {
        self.rung
    }

    /// Lifecycle warnings accumulated so far (abandoned checkpoint
    /// writes), in emission order.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Writes a final checkpoint unconditionally (the advisor calls this
    /// when a run stops early, so `--resume` sees all completed work).
    pub fn final_checkpoint(&mut self) {
        if let Some(w) = self
            .ctl
            .final_checkpoint(self.digest, &self.faults, &self.telemetry)
        {
            self.warnings.push(w);
        }
    }

    /// Replays a warm-store entry's counter footprint into the attached
    /// telemetry (coordinator-side, so totals merge identically to the
    /// original worker execution).
    fn apply_deltas(&self, deltas: &[(usize, u64)]) {
        for &(i, v) in deltas {
            // Out-of-range indexes can only come from a checkpoint written
            // by a different build; ignore them rather than panic.
            if let Some(&c) = Counter::ALL.get(i) {
                self.telemetry.add(c, v);
            }
        }
    }

    /// Inserts one statement costing into the projection-keyed cache
    /// unless the governor demoted past `no_stmt_cache`, tracking the
    /// approximate live bytes the governor budgets against.
    fn insert_stmt_cost(&mut self, si: usize, proj: Vec<CandId>, cost: f64) {
        if self.rung >= GovernorRung::NoStmtCache {
            return;
        }
        self.stmt_bytes += (48 + 8 * proj.len()) as u64;
        self.stmt_cache.entry(si).or_default().insert(proj, cost);
    }

    /// Batch epilogue: walk the governor's degradation ladder one rung if
    /// the cache tally exceeds the memory budget, then let the controller
    /// write a cadence checkpoint. Entirely coordinator-side, so both
    /// decisions are jobs-invariant and replay-invariant.
    fn end_batch(&mut self) {
        if let Some(budget) = self.ctl.mem_budget() {
            if self.memo_bytes + self.stmt_bytes > budget {
                if let Some(next) = self.rung.next() {
                    self.rung = next;
                    match next {
                        GovernorRung::ShrinkMemo => {
                            // Reclaim the memo now; it may regrow, and
                            // renewed pressure demotes further.
                            self.cache = ShardedCache::new();
                            self.memo_bytes = 0;
                        }
                        GovernorRung::NoStmtCache | GovernorRung::HeuristicOnly => {
                            self.cache = ShardedCache::new();
                            self.memo_bytes = 0;
                            self.stmt_cache.clear();
                            self.stmt_bytes = 0;
                        }
                        GovernorRung::Full => {}
                    }
                    let approx_bytes = self.memo_bytes + self.stmt_bytes;
                    self.telemetry.incr(Counter::GovernorDemotions);
                    self.journal.emit(|| Event::GovernorDemoted {
                        rung: next.name().to_string(),
                        approx_bytes,
                    });
                }
            }
        }
        if let Some(w) = self
            .ctl
            .after_batch(self.digest, &self.faults, &self.telemetry)
        {
            self.warnings.push(w);
        }
    }

    /// Attaches a telemetry sink: subsequent optimizer calls, cache
    /// activity, and virtual-index churn (via what-if catalog overlays)
    /// count against it. Baseline costing in [`BenefitEvaluator::new`]
    /// happens before any sink can be attached and is deliberately
    /// uncounted.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// Sets the number of what-if worker threads (clamped to at least 1).
    /// Results are identical for any value; only wall-clock time changes.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// The number of what-if worker threads in use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The attached telemetry sink (disabled unless
    /// [`BenefitEvaluator::set_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The attached decision-provenance journal (disabled unless one was
    /// passed through [`crate::advisor::AdvisorParams::journal`]).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The shared containment-verdict cache (counters feed the
    /// `contain_cache_hits` / `contain_fast_rejects` telemetry).
    pub fn cover_cache(&self) -> &CoverCache {
        &self.cover_cache
    }

    /// Containment check routed through the shared cover cache (same
    /// verdict as [`xia_xpath::contain::covers`], which the property
    /// suite pins it against).
    pub fn covers(&self, general: &LinearPath, specific: &LinearPath) -> bool {
        let t0 = self.telemetry.is_enabled().then(Instant::now);
        let verdict = self.cover_cache.covers(general, specific);
        if let Some(t0) = t0 {
            self.telemetry.record(Hist::ContainCheck, t0.elapsed());
        }
        verdict
    }

    /// Total baseline (no-index) workload cost.
    pub fn baseline_cost(&self) -> f64 {
        self.baseline
            .iter()
            .zip(self.workload.entries())
            .map(|(c, e)| c * e.freq)
            .sum()
    }

    /// The candidate set being evaluated.
    pub fn candidates(&self) -> &CandidateSet {
        self.set
    }

    /// The workload being evaluated.
    pub fn workload(&self) -> &Workload {
        self.workload
    }

    /// Builds one what-if overlay per collection touched by `key`, holding
    /// exactly the sub-configuration's members as virtual indexes. The
    /// shared catalogs are never mutated; candidates whose collection has
    /// no statistics are skipped (mirroring the old install path, which
    /// could not create their virtual indexes either).
    fn build_overlays(&self, key: &[CandId]) -> Vec<(String, CatalogOverlay<'a>)> {
        let mut per: Vec<(String, CatalogOverlay<'a>)> = Vec::new();
        for &id in key {
            let c = self.set.get(id);
            let Some((collection, catalog, stats)) = self.db.parts(&c.collection) else {
                continue;
            };
            let slot = match per.iter().position(|(name, _)| name == &c.collection) {
                Some(i) => &mut per[i].1,
                None => {
                    per.push((
                        c.collection.clone(),
                        CatalogOverlay::with_telemetry(catalog, &self.telemetry),
                    ));
                    &mut per.last_mut().expect("just pushed").1
                }
            };
            slot.add_virtual(collection, stats, &c.pattern, c.kind);
        }
        per
    }

    /// Canonical projection of a (sorted, deduplicated) sub-configuration
    /// key onto one statement's relevant candidates. Filtering preserves
    /// order, so the projection is itself canonical.
    fn projection(&self, key: &[CandId], si: usize) -> Vec<CandId> {
        key.iter()
            .copied()
            .filter(|&id| self.relevance[id.index()].contains(si))
            .collect()
    }

    /// Affected statements of a sub-configuration: the union of member
    /// affected sets (or every statement when the optimization is off).
    fn affected_statements(&self, key: &[CandId]) -> Vec<usize> {
        if self.use_affected_sets {
            let mut u = StmtSet::new();
            for &id in key {
                u.union_with(&self.set.get(id).affected);
            }
            u.iter().collect()
        } else {
            (0..self.workload.len()).collect()
        }
    }

    /// Evaluates a batch of canonical sub-configuration keys and returns
    /// each key's query-side benefit `Σ freq·(old − new)`, in order.
    ///
    /// The coordinator thread does everything order-sensitive serially —
    /// cache lookups (and their hit/miss counters), budget charging,
    /// fault-stream salting, overlay construction — then fans the planned
    /// optimizer calls out across workers and merges their results back in
    /// task order. Costs are pure functions of the plan, so the returned
    /// values, the memo cache, and every counter total are identical for
    /// any `jobs` value.
    fn eval_groups(&mut self, keys: Vec<Vec<CandId>>) -> Vec<f64> {
        // The time budget is anchored at the first evaluation, not at
        // evaluator construction: a long prepare phase must not eat it.
        let started = *self.started.get_or_insert_with(Instant::now);
        // Coordinator-side stop check: latches a deadline crossing or a
        // cancellation. The current batch still evaluates — the searches
        // observe the latch at their next loop boundary and unwind.
        self.ctl.poll();

        // Phase 1 (coordinator): cache lookups and miss collection.
        enum Slot {
            Done(f64),
            Miss(usize),
        }
        // Journal bookkeeping mirrors the slot list: each input key's
        // member patterns plus whether it was served without a fresh
        // costing (memo hit or in-batch duplicate).
        let journal_on = self.journal.is_enabled();
        let mut journal_slots: Vec<(Vec<String>, bool)> = Vec::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(keys.len());
        let mut misses: Vec<Vec<CandId>> = Vec::new();
        for key in keys {
            debug_assert!(key.windows(2).all(|w| w[0] < w[1]), "canonical keys");
            let patterns: Vec<String> = if journal_on {
                key.iter()
                    .map(|&id| self.set.get(id).pattern.to_string())
                    .collect()
            } else {
                Vec::new()
            };
            if self.use_cache {
                if let Some(v) = self.cache.get(&key) {
                    self.stats.cache_hits += 1;
                    self.telemetry.incr(Counter::BenefitCacheHits);
                    slots.push(Slot::Done(v));
                    journal_slots.push((patterns, true));
                    continue;
                }
            }
            if let Some(i) = misses.iter().position(|k| k == &key) {
                // A duplicate within this batch: evaluate once, fan out
                // once, charge the budget once — even with the memo cache
                // disabled, identical configs in one batch must not cost
                // the workload twice. (With the cache on, a serial
                // evaluation would have found the first occurrence
                // memoized, so it counts as a hit.)
                if self.use_cache {
                    self.stats.cache_hits += 1;
                    self.telemetry.incr(Counter::BenefitCacheHits);
                }
                slots.push(Slot::Miss(i));
                journal_slots.push((patterns, true));
                continue;
            }
            if self.use_cache {
                self.stats.cache_misses += 1;
                self.telemetry.incr(Counter::BenefitCacheMisses);
            }
            slots.push(Slot::Miss(misses.len()));
            journal_slots.push((patterns, false));
            misses.push(key);
        }
        if misses.is_empty() {
            let out: Vec<f64> = slots
                .into_iter()
                .map(|s| match s {
                    Slot::Done(v) => v,
                    Slot::Miss(_) => 0.0,
                })
                .collect();
            self.emit_what_if_events(&journal_slots, &out);
            return out;
        }

        // Phase 2 (coordinator): plan per-statement tasks. Statement-cache
        // lookups, budget charging, and fault-stream salts all happen
        // here, in deterministic order — workers never touch them. Each
        // costing is keyed on the projection of the group onto the
        // statement's relevant candidates: a plan can only consult
        // matching indexes, so equal projections have bitwise-equal
        // costs. A projection hit is served without an optimizer call
        // when pruning is on, and replayed — uncharged, under the same
        // projection-derived fault salt, hence bitwise identically — when
        // it is off; the budget and the cache evolve identically either
        // way.
        let mut tasks: Vec<CostTask> = Vec::new();
        for (group, key) in misses.iter().enumerate() {
            for si in self.affected_statements(key) {
                if !self.active[si] {
                    continue;
                }
                let proj = self.projection(key, si);
                let cached = self.stmt_cache.get(&si).and_then(|m| m.get(&proj)).copied();
                let exhausted = self.budget.exhausted(self.charged, started.elapsed());
                let (kind, proj) = match cached {
                    // Pruning serves every projection hit; with pruning
                    // off, hits are still served once the budget is gone
                    // (the PR2 ladder: budget → cached → heuristic).
                    Some(cost) if self.prune || exhausted => {
                        self.stats.stmt_cache_hits += 1;
                        self.telemetry.incr(Counter::StmtCacheHits);
                        if self.prune {
                            self.stats.statements_pruned += 1;
                            self.telemetry.incr(Counter::StatementsPruned);
                        }
                        (TaskKind::Served { cost }, None)
                    }
                    // Ablation replay: the cached value exists, so the
                    // statement's collection is known costable and the
                    // call is not charged against the budget.
                    Some(_) => (
                        TaskKind::Optimize {
                            salt: key_hash(SALT_EVALUATE, &proj) ^ self.stmt_salts[si],
                        },
                        Some(proj),
                    ),
                    None if exhausted => {
                        if !self.budget_event_emitted {
                            self.budget_event_emitted = true;
                            let charged = self.charged;
                            self.journal.emit(|| Event::BudgetExhausted { charged });
                        }
                        (TaskKind::BudgetFallback, None)
                    }
                    None => {
                        let coll = self.workload.entries()[si].statement.collection();
                        if self.db.parts(coll).is_none() {
                            (TaskKind::StatsFallback, None)
                        } else if self.rung >= GovernorRung::HeuristicOnly {
                            // Bottom governor rung: uncached costings stop
                            // fanning out to the optimizer entirely.
                            (TaskKind::GovernorFallback, None)
                        } else {
                            self.charged += 1;
                            (
                                TaskKind::Optimize {
                                    salt: key_hash(SALT_EVALUATE, &proj) ^ self.stmt_salts[si],
                                },
                                Some(proj),
                            )
                        }
                    }
                };
                tasks.push(CostTask {
                    group,
                    si,
                    kind,
                    proj,
                });
            }
        }

        // Phase 3 (coordinator): one overlay set per missed group that
        // still needs real optimizer work, built serially so virtual-index
        // churn counters stay deterministic. Fully-served groups skip the
        // overlay — their virtual indexes would never be probed.
        let mut needs_overlay = vec![false; misses.len()];
        for task in &tasks {
            if matches!(task.kind, TaskKind::Optimize { .. }) {
                needs_overlay[task.group] = true;
            }
        }
        let overlays: Vec<Vec<(String, CatalogOverlay<'a>)>> = misses
            .iter()
            .enumerate()
            .map(|(g, key)| {
                if needs_overlay[g] {
                    self.build_overlays(key)
                } else {
                    Vec::new()
                }
            })
            .collect();

        // Warm-store consult (coordinator-side): a resumed run serves any
        // optimizer task the interrupted run already executed. The
        // overlays above are still built — their virtual-index churn
        // counters are part of the uninterrupted run's footprint.
        let capture = self.ctl.checkpointing();
        let mut warm: Vec<Option<WarmEntry>> = if self.ctl.resumed() {
            tasks
                .iter()
                .map(|t| match t.kind {
                    TaskKind::Optimize { salt } => self.ctl.warm_lookup(&WarmKey {
                        salt,
                        si: t.si,
                        proj: t.proj.clone().unwrap_or_default(),
                    }),
                    _ => None,
                })
                .collect()
        } else {
            vec![None; tasks.len()]
        };

        // Phase 4 (workers): pure costing, fanned out over `jobs` threads.
        let (db, workload) = (self.db, self.workload);
        let faults = self.faults.clone();
        let warm_ref = &warm;
        let results = run_indexed(tasks.len(), self.jobs, &self.telemetry.clone(), |i, tel| {
            let task = &tasks[i];
            let TaskKind::Optimize { salt } = task.kind else {
                return (None, Vec::new());
            };
            if warm_ref[i].is_some() {
                // Served from the warm store at merge time.
                return (None, Vec::new());
            }
            let stmt = &workload.entries()[task.si].statement;
            let coll = stmt.collection();
            let Some((collection, catalog, stats)) = db.parts(coll) else {
                return (None, Vec::new());
            };
            let view = overlays[task.group]
                .iter()
                .find(|(name, _)| name == coll)
                .map(|(_, ov)| ov.view())
                .unwrap_or_else(|| catalog.view());
            let before = capture.then(|| counter_snapshot(tel));
            let mut optimizer = Optimizer::with_view(collection, stats, view);
            optimizer.set_telemetry(tel);
            optimizer.set_faults(&faults.derive_stream(salt));
            let t0 = tel.is_enabled().then(Instant::now);
            let cost = optimizer.try_optimize(stmt).ok().map(|p| p.total_cost);
            if let Some(t0) = t0 {
                tel.record(Hist::WhatIfCall, t0.elapsed());
            }
            let deltas = before.map(|b| counter_deltas(&b, tel)).unwrap_or_default();
            (cost, deltas)
        });

        // Phase 5 (coordinator): merge in task order — the floating-point
        // summation order is fixed regardless of worker interleaving.
        let mut totals = vec![0.0f64; misses.len()];
        let mut tainted = vec![false; misses.len()];
        for (i, (task, (result, deltas))) in tasks.iter().zip(results).enumerate() {
            let served = warm[i].take();
            let new_cost = match (task.kind, served, result) {
                (TaskKind::Served { cost }, _, _) => cost,
                (TaskKind::Optimize { salt }, Some(entry), _) => {
                    // Warm-served replay: reuse the exact cost, reapply the
                    // original counter footprint, and re-log the entry so
                    // the next checkpoint carries it.
                    self.stats.optimizer_calls += 1;
                    self.apply_deltas(&entry.deltas);
                    let cost = f64::from_bits(entry.cost_bits);
                    if let Some(proj) = &task.proj {
                        self.insert_stmt_cost(task.si, proj.clone(), cost);
                        self.ctl.record_costing(
                            WarmKey {
                                salt,
                                si: task.si,
                                proj: proj.clone(),
                            },
                            entry,
                        );
                    }
                    cost
                }
                (TaskKind::Optimize { salt }, None, Some(cost)) => {
                    self.stats.optimizer_calls += 1;
                    // Memoize under the projection key: any configuration
                    // with the same projection onto this statement has
                    // bitwise the same cost.
                    if let Some(proj) = &task.proj {
                        self.insert_stmt_cost(task.si, proj.clone(), cost);
                        self.ctl.record_costing(
                            WarmKey {
                                salt,
                                si: task.si,
                                proj: proj.clone(),
                            },
                            WarmEntry {
                                cost_bits: cost.to_bits(),
                                deltas,
                            },
                        );
                    }
                    cost
                }
                (kind, _, _) => {
                    // The degradation ladder's heuristic indexed-cost
                    // estimate: half the baseline — optimistic enough that
                    // candidates still rank by affected baseline mass.
                    if matches!(kind, TaskKind::Optimize { .. }) {
                        self.stats.optimizer_calls += 1;
                        // A planned optimizer call that came back empty is
                        // an injected (or real) optimizer failure.
                        let si = task.si;
                        self.journal.emit(|| Event::FaultInjected { statement: si });
                    }
                    if matches!(kind, TaskKind::BudgetFallback) {
                        self.telemetry.incr(Counter::WhatIfBudgetExhausted);
                    }
                    self.fallbacks += 1;
                    self.telemetry.incr(Counter::CostFallbacks);
                    tainted[task.group] = true;
                    0.5 * self.baseline[task.si]
                }
            };
            let entry = &self.workload.entries()[task.si];
            totals[task.group] += entry.freq * (self.baseline[task.si] - new_cost);
        }
        // Discarding the overlays here (not in a worker) keeps the
        // virtual-indexes-dropped counter deterministic too.
        drop(overlays);

        // Heuristic answers are not memoized: a later evaluation inside
        // budget (or past the fault) should get the real number. The
        // bottom governor rung stops memo inserts too.
        if self.use_cache && self.rung < GovernorRung::HeuristicOnly {
            for ((key, &value), &bad) in misses.iter().zip(&totals).zip(&tainted) {
                if !bad {
                    self.memo_bytes += (32 + 8 * key.len()) as u64;
                    self.cache.insert(key.clone(), value);
                }
            }
        }
        let out: Vec<f64> = slots
            .into_iter()
            .map(|s| match s {
                Slot::Done(v) => v,
                Slot::Miss(i) => totals[i],
            })
            .collect();
        self.emit_what_if_events(&journal_slots, &out);
        // Governor ladder + cadence checkpoint: only batches that actually
        // costed something count (fully-served batches change no state
        // worth persisting).
        self.end_batch();
        out
    }

    /// Emits one `WhatIfEvaluated` event per input slot, in slot order,
    /// pairing each configuration with its final query-side benefit. Runs
    /// on the coordinator after the merge, so the journal stream is
    /// identical regardless of worker count.
    fn emit_what_if_events(&self, journal_slots: &[(Vec<String>, bool)], values: &[f64]) {
        if !self.journal.is_enabled() {
            return;
        }
        for ((config, cache_hit), &cost) in journal_slots.iter().zip(values) {
            self.journal.emit(|| Event::WhatIfEvaluated {
                config: config.clone(),
                cost,
                cache_hit: *cache_hit,
            });
        }
    }

    /// Benefit of a configuration per the paper's formula. The
    /// configuration is canonicalized first: duplicate members describe
    /// one index, so they are evaluated — and charged maintenance cost —
    /// once.
    pub fn benefit(&mut self, config: &[CandId]) -> f64 {
        self.stats.benefit_calls += 1;
        self.telemetry.incr(Counter::BenefitEvaluations);
        let _evaluate = self.telemetry.span("evaluate");
        if config.is_empty() {
            return 0.0;
        }
        let config = canonical_key(config.to_vec());
        let groups = if self.use_subconfigs {
            self.decompose(&config)
        } else {
            vec![config.clone()]
        };
        let values = self.eval_groups(groups.into_iter().map(canonical_key).collect());
        let mut total: f64 = values.iter().sum();
        for &id in &config {
            total -= self.mc_total(id);
        }
        total
    }

    /// Benefit of `base ∪ {add}` — the incremental probe the greedy and
    /// top-down searches issue each round. The value (and every counter a
    /// plain [`BenefitEvaluator::benefit`] call would bump) is identical
    /// to evaluating the union directly; the saving comes from the
    /// relevance-pruning layer, which re-costs only statements relevant to
    /// `add` (or whose projection the addition changed) and serves the
    /// rest from the group and statement caches.
    pub fn benefit_delta(&mut self, base: &[CandId], add: CandId) -> f64 {
        self.stats.delta_probes += 1;
        self.telemetry.incr(Counter::DeltaProbes);
        let mut config = base.to_vec();
        config.push(add);
        self.benefit(&config)
    }

    /// Benefits of many configurations, planned and costed as one batch:
    /// every sub-configuration group of every input fans out into the same
    /// worker pool, which is where parallel evaluation pays off most (the
    /// per-candidate scoring pass evaluates dozens of independent
    /// singletons). Equivalent to mapping [`BenefitEvaluator::benefit`]
    /// over `configs`, including all counter totals.
    pub fn benefit_batch(&mut self, configs: &[Vec<CandId>]) -> Vec<f64> {
        let _evaluate = self.telemetry.span("evaluate");
        // Canonicalize every config up front: identical configurations in
        // one batch (after sorting and deduplication) share their group
        // keys, which the in-batch duplicate check in `eval_groups`
        // collapses to a single fan-out — and a single budget charge.
        let canon: Vec<Vec<CandId>> = configs.iter().map(|c| canonical_key(c.clone())).collect();
        let mut keys: Vec<Vec<CandId>> = Vec::new();
        let mut ranges = Vec::with_capacity(canon.len());
        for config in &canon {
            self.stats.benefit_calls += 1;
            self.telemetry.incr(Counter::BenefitEvaluations);
            let start = keys.len();
            if !config.is_empty() {
                let groups = if self.use_subconfigs {
                    self.decompose(config)
                } else {
                    vec![config.clone()]
                };
                keys.extend(groups.into_iter().map(canonical_key));
            }
            ranges.push(start..keys.len());
        }
        let values = self.eval_groups(keys);
        canon
            .iter()
            .zip(ranges)
            .map(|(config, range)| {
                let mut total: f64 = values[range].iter().sum();
                for &id in config {
                    total -= self.mc_total(id);
                }
                total
            })
            .collect()
    }

    /// Estimated workload cost under a configuration
    /// (`baseline − benefit`). Fully reuses the group and statement
    /// caches: pricing a configuration the search already probed costs no
    /// optimizer calls.
    pub fn workload_cost(&mut self, config: &[CandId]) -> f64 {
        self.baseline_cost() - self.benefit(config)
    }

    /// Estimated speedup: baseline cost over configured cost.
    pub fn speedup(&mut self, config: &[CandId]) -> f64 {
        let base = self.baseline_cost();
        let cost = self.workload_cost(config);
        if cost <= 0.0 {
            f64::INFINITY
        } else {
            base / cost
        }
    }

    /// Splits a configuration into sub-configurations of candidates with
    /// transitively overlapping affected sets.
    pub fn decompose(&self, config: &[CandId]) -> Vec<Vec<CandId>> {
        let n = config.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (self.set.get(config[i]), self.set.get(config[j]));
                if a.affected.overlaps(&b.affected) {
                    let (ra, rb) = (find(&mut parent, i), find(&mut parent, j));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
        let mut groups: HashMap<usize, Vec<CandId>> = HashMap::new();
        for (i, &cand) in config.iter().enumerate().take(n) {
            let r = find(&mut parent, i);
            groups.entry(r).or_default().push(cand);
        }
        let mut out: Vec<Vec<CandId>> = groups.into_values().collect();
        for g in &mut out {
            g.sort_unstable();
        }
        out.sort();
        out
    }

    /// Which members of `config` are actually used in some statement's
    /// best plan when the whole configuration is installed — the paper's
    /// "compile all workload queries ... and eliminate indexes that are
    /// never used" check, used by greedy-with-heuristics as a final
    /// redundancy pass. The configuration is materialized as catalog
    /// overlays and statements are compiled across the worker pool; the
    /// result is order-insensitive (sorted), so the fan-out cannot change
    /// it.
    pub fn used_candidates(&mut self, config: &[CandId]) -> Vec<CandId> {
        if config.is_empty() {
            return Vec::new();
        }
        // Map (collection, pattern, kind) → CandId to resolve the overlay
        // index definitions a plan used back to candidates.
        let mut by_key: HashMap<(String, String, xia_xpath::ValueKind), CandId> = HashMap::new();
        for &id in config {
            let c = self.set.get(id);
            by_key.insert((c.collection.clone(), c.pattern.to_string(), c.kind), id);
        }
        let overlays = self.build_overlays(config);
        let stmts: Vec<usize> = self
            .affected_statements(config)
            .into_iter()
            .filter(|&si| self.active[si])
            .collect();
        // Compiling (Evaluate mode without fault rolls) consumes one
        // optimizer call per statement with statistics available — counted
        // at planning time so the total is deterministic.
        let planned: u64 = stmts
            .iter()
            .filter(|&&si| {
                let coll = self.workload.entries()[si].statement.collection();
                self.db.parts(coll).is_some()
            })
            .count() as u64;
        let (db, workload) = (self.db, self.workload);
        let by_key = &by_key;
        let overlays = &overlays;
        let results = run_indexed(stmts.len(), self.jobs, &self.telemetry.clone(), |i, tel| {
            let stmt = &workload.entries()[stmts[i]].statement;
            let coll = stmt.collection();
            let Some((collection, catalog, stats)) = db.parts(coll) else {
                return Vec::new();
            };
            let view = overlays
                .iter()
                .find(|(name, _)| name == coll)
                .map(|(_, ov)| ov.view())
                .unwrap_or_else(|| catalog.view());
            let mut optimizer = Optimizer::with_view(collection, stats, view);
            optimizer.set_telemetry(tel);
            let plan = optimizer.optimize(stmt);
            plan.used_indexes()
                .into_iter()
                .filter_map(|ix| {
                    let def = view.get(ix)?;
                    by_key
                        .get(&(coll.to_string(), def.pattern.to_string(), def.kind))
                        .copied()
                })
                .collect::<Vec<CandId>>()
        });
        self.stats.optimizer_calls += planned;
        self.charged += planned;
        let mut used: Vec<CandId> = Vec::new();
        for cid in results.into_iter().flatten() {
            if !used.contains(&cid) {
                used.push(cid);
            }
        }
        used.sort_unstable();
        used
    }

    fn derived_istats(&mut self, id: CandId) -> IndexStats {
        if let Some(s) = self.istats.get(&id) {
            return s.clone();
        }
        let c = self.set.get(id);
        let (coll, pattern, kind) = (c.collection.clone(), c.pattern.clone(), c.kind);
        let stats = match self.db.parts(&coll) {
            Some((collection, _, stats)) => {
                self.telemetry.incr(Counter::StatsDerivations);
                xia_storage::Catalog::derive_stats(collection, stats, &pattern, kind).1
            }
            None => IndexStats::default(),
        };
        self.istats.insert(id, stats.clone());
        stats
    }

    /// Total frequency-weighted maintenance cost of one candidate over the
    /// workload's modification statements.
    pub fn mc_total(&mut self, id: CandId) -> f64 {
        if let Some(&v) = self.mc_totals.get(&id) {
            return v;
        }
        let istats = self.derived_istats(id);
        let c = self.set.get(id);
        let (coll, pattern, kind) = (c.collection.clone(), c.pattern.clone(), c.kind);
        let mut total = 0.0;
        for entry in self.workload.entries() {
            if !entry.statement.is_modification() || entry.statement.collection() != coll {
                continue;
            }
            let Some((collection, catalog, stats)) = self.db.parts(&coll) else {
                continue;
            };
            let mut optimizer = Optimizer::new(collection, stats, catalog);
            optimizer.set_telemetry(&self.telemetry);
            let mc = maintenance::maintenance_cost(
                &pattern,
                kind,
                &istats,
                &entry.statement,
                &optimizer,
                stats,
                optimizer.cost_model(),
            );
            total += entry.freq * mc;
        }
        self.mc_totals.insert(id, total);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate_candidates, size_candidates};
    use crate::generalize::generalize_set;
    use xia_workloads::tpox::{self, TpoxConfig};

    fn setup() -> (Database, Workload) {
        let mut db = Database::new();
        let cfg = TpoxConfig::tiny();
        tpox::generate(&mut db, &cfg);
        let w = Workload::from_texts(tpox::queries(&cfg).iter().map(|s| s.as_str())).unwrap();
        (db, w)
    }

    fn candidates(db: &mut Database, w: &Workload) -> CandidateSet {
        let mut set = enumerate_candidates(db, w);
        generalize_set(&mut set);
        size_candidates(db, &mut set);
        set
    }

    #[test]
    fn empty_config_has_zero_benefit() {
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        assert_eq!(ev.benefit(&[]), 0.0);
        assert!(ev.baseline_cost() > 0.0);
    }

    #[test]
    fn single_selective_index_has_positive_benefit() {
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let sym = set
            .lookup(
                "SDOC",
                &xia_xpath::parse_linear_path("/Security/Symbol").unwrap(),
                xia_xpath::ValueKind::Str,
            )
            .expect("symbol candidate enumerated");
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let b = ev.benefit(&[sym]);
        assert!(b > 0.0, "benefit = {b}");
        assert!(ev.speedup(&[sym]) > 1.0);
    }

    #[test]
    fn benefit_is_monotone_enough_for_all_vs_one() {
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let all = set.basic_ids();
        let one = vec![all[0]];
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let b_all = ev.benefit(&all);
        let b_one = ev.benefit(&one);
        assert!(b_all >= b_one, "all={b_all} one={b_one}");
    }

    #[test]
    fn decompose_groups_by_affected_overlap() {
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let all = set.basic_ids();
        let groups = ev.decompose(&all);
        // There is more than one group (queries over three collections),
        // and groups partition the config.
        assert!(groups.len() > 1);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, all.len());
        // Candidates from different collections never share a group.
        for g in &groups {
            let coll = &set.get(g[0]).collection;
            assert!(g.iter().all(|&id| &set.get(id).collection == coll));
        }
        let _ = ev.benefit(&all);
    }

    #[test]
    fn cache_reduces_optimizer_calls() {
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let all = set.basic_ids();
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let calls0 = ev.eval_stats().optimizer_calls;
        let b1 = ev.benefit(&all);
        let calls1 = ev.eval_stats().optimizer_calls;
        let b2 = ev.benefit(&all);
        let calls2 = ev.eval_stats().optimizer_calls;
        assert_eq!(b1, b2);
        assert!(calls1 > calls0);
        assert_eq!(calls2, calls1, "second evaluation must be fully cached");
        assert!(ev.eval_stats().cache_hits > 0);
    }

    #[test]
    fn affected_sets_limit_work() {
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let one = vec![set.basic_ids()[0]];
        // With affected sets on.
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let base_calls = ev.eval_stats().optimizer_calls;
        ev.benefit(&one);
        let with = ev.eval_stats().optimizer_calls - base_calls;
        // With affected sets off (must re-cost every statement).
        let mut ev2 = BenefitEvaluator::new(&mut db, &w, &set);
        ev2.use_affected_sets = false;
        ev2.use_cache = false;
        let base_calls2 = ev2.eval_stats().optimizer_calls;
        ev2.benefit(&one);
        let without = ev2.eval_stats().optimizer_calls - base_calls2;
        assert!(with < without, "with={with} without={without}");
    }

    #[test]
    fn maintenance_cost_reduces_benefit_for_update_workloads() {
        let mut db = Database::new();
        let cfg = TpoxConfig::tiny();
        tpox::generate(&mut db, &cfg);
        let mut texts = tpox::queries(&cfg);
        let n_queries = texts.len();
        texts.extend(tpox::update_mix(&cfg));
        let w = Workload::from_texts(texts.iter().map(|s| s.as_str())).unwrap();
        let set = candidates(&mut db, &w);
        let sym = set
            .lookup(
                "SDOC",
                &xia_xpath::parse_linear_path("/Security/Symbol").unwrap(),
                xia_xpath::ValueKind::Str,
            )
            .unwrap();
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let mc = ev.mc_total(sym);
        assert!(
            mc > 0.0,
            "insert of a Security must charge the symbol index"
        );
        let _ = n_queries;
    }

    #[test]
    fn subconfig_results_compose() {
        // benefit(config) must equal the sum over its decomposition when
        // evaluated without subconfig decomposition (no cross-group
        // interaction by construction).
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let all = set.basic_ids();
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let with_sub = ev.benefit(&all);
        let mut ev2 = BenefitEvaluator::new(&mut db, &w, &set);
        ev2.use_subconfigs = false;
        let without_sub = ev2.benefit(&all);
        let rel = (with_sub - without_sub).abs() / without_sub.abs().max(1.0);
        assert!(rel < 1e-9, "with={with_sub} without={without_sub}");
    }

    #[test]
    fn cache_key_is_order_insensitive() {
        // The memo cache keys on the canonical (sorted) sub-configuration:
        // re-evaluating a permutation of an already-costed configuration
        // must be served entirely from cache.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let fwd = set.basic_ids();
        assert!(fwd.len() >= 2);
        let mut rev = fwd.clone();
        rev.reverse();
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let b1 = ev.benefit(&fwd);
        let stats1 = ev.eval_stats();
        let b2 = ev.benefit(&rev);
        let stats2 = ev.eval_stats();
        assert_eq!(b1.to_bits(), b2.to_bits());
        assert_eq!(
            stats2.optimizer_calls, stats1.optimizer_calls,
            "permuted configuration re-costed instead of cache-served"
        );
        assert_eq!(stats2.cache_misses, stats1.cache_misses);
        assert!(stats2.cache_hits > stats1.cache_hits);
    }

    #[test]
    fn duplicate_configs_in_batch_cost_once_without_cache() {
        // Identical configurations inside one batch must collapse to a
        // single fan-out and a single budget charge even with the memo
        // cache disabled — double costing was the PR 4 bugfix target.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let one = vec![set.basic_ids()[0]];
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        ev.use_cache = false;
        let calls0 = ev.eval_stats().optimizer_calls;
        let charged0 = ev.budget_charged();
        let dup = ev.benefit_batch(&[one.clone(), one.clone(), one.clone()]);
        let dup_calls = ev.eval_stats().optimizer_calls - calls0;
        let dup_charged = ev.budget_charged() - charged0;
        assert_eq!(dup[0].to_bits(), dup[1].to_bits());
        assert_eq!(dup[0].to_bits(), dup[2].to_bits());

        let mut ev2 = BenefitEvaluator::new(&mut db, &w, &set);
        ev2.use_cache = false;
        let calls1 = ev2.eval_stats().optimizer_calls;
        let charged1 = ev2.budget_charged();
        let single = ev2.benefit_batch(std::slice::from_ref(&one));
        assert_eq!(single[0].to_bits(), dup[0].to_bits());
        assert_eq!(
            ev2.eval_stats().optimizer_calls - calls1,
            dup_calls,
            "duplicates in a batch were costed more than once"
        );
        assert_eq!(
            ev2.budget_charged() - charged1,
            dup_charged,
            "duplicates in a batch were charged more than once"
        );
    }

    #[test]
    fn duplicate_members_in_config_collapse() {
        // A configuration is a set: listing a member twice must evaluate
        // (and charge maintenance for) one index.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let a = set.basic_ids()[0];
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let once = ev.benefit(&[a]);
        let twice = ev.benefit(&[a, a]);
        assert_eq!(once.to_bits(), twice.to_bits());
    }

    #[test]
    fn pruned_and_unpruned_benefits_match_bitwise() {
        // The relevance-pruning layer is a pure evaluation shortcut: with
        // the memo cache disabled (so the statement cache carries the whole
        // load), every benefit value must stay bitwise identical to the
        // unpruned path, at strictly fewer optimizer calls.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let all = set.basic_ids();
        let probe = |prune: bool, db: &mut Database| -> (Vec<u64>, u64, u64, EvalStats) {
            let mut ev = BenefitEvaluator::new(db, &w, &set);
            ev.prune = prune;
            ev.use_cache = false;
            let mut bits = Vec::new();
            let mut base: Vec<CandId> = Vec::new();
            for &id in all.iter().take(4) {
                bits.push(ev.benefit_delta(&base, id).to_bits());
                base.push(id);
            }
            bits.push(ev.benefit(&all).to_bits());
            bits.push(ev.benefit(&all).to_bits());
            (
                bits,
                ev.eval_stats().optimizer_calls,
                ev.budget_charged(),
                ev.eval_stats(),
            )
        };
        let (bits_on, calls_on, charged_on, stats_on) = probe(true, &mut db);
        let (bits_off, calls_off, charged_off, stats_off) = probe(false, &mut db);
        assert_eq!(bits_on, bits_off, "pruning changed a benefit value");
        assert_eq!(
            charged_on, charged_off,
            "pruning changed the budget trajectory"
        );
        assert!(
            calls_on < calls_off,
            "pruning saved no optimizer calls: on={calls_on} off={calls_off}"
        );
        assert!(stats_on.statements_pruned > 0);
        assert!(stats_on.stmt_cache_hits > 0);
        assert_eq!(stats_off.statements_pruned, 0);
        assert_eq!(stats_on.delta_probes, 4);
        assert_eq!(stats_off.delta_probes, 4);
    }

    #[test]
    fn delta_probe_matches_fresh_union_evaluation() {
        // benefit_delta(base, x) must return bitwise the same value a
        // fresh evaluator computes for base ∪ {x}, while re-costing only
        // what the addition touched.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let all = set.basic_ids();
        assert!(all.len() >= 3);
        let base = vec![all[0], all[1]];
        let add = all[2];

        let (delta, delta_calls, probes) = {
            let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
            let _ = ev.benefit(&base);
            let calls_before = ev.eval_stats().optimizer_calls;
            let delta = ev.benefit_delta(&base, add);
            (
                delta,
                ev.eval_stats().optimizer_calls - calls_before,
                ev.eval_stats().delta_probes,
            )
        };
        let mut ev2 = BenefitEvaluator::new(&mut db, &w, &set);
        let union = vec![all[0], all[1], all[2]];
        let fresh = ev2.benefit(&union);
        let fresh_calls = ev2.eval_stats().optimizer_calls;
        assert_eq!(delta.to_bits(), fresh.to_bits());
        assert!(
            delta_calls < fresh_calls,
            "delta probe re-costed as much as a fresh evaluation: \
             delta={delta_calls} fresh={fresh_calls}"
        );
        assert_eq!(probes, 1);
    }

    #[test]
    fn repeated_evaluation_charges_no_further_budget() {
        // Only statements actually re-costed charge the what-if budget:
        // re-evaluating a configuration (in any member order) is free.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let fwd = set.basic_ids();
        let mut rev = fwd.clone();
        rev.reverse();
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let _ = ev.benefit(&fwd);
        let charged = ev.budget_charged();
        let _ = ev.benefit(&fwd);
        let _ = ev.benefit(&rev);
        assert_eq!(
            ev.budget_charged(),
            charged,
            "a cache-served evaluation charged the budget"
        );
    }

    #[test]
    fn time_budget_clock_starts_at_first_benefit_call() {
        // The wall-clock budget must account evaluation time, not the time
        // since evaluator construction — expensive setup (or an idle
        // advisor session) between construction and the first benefit()
        // call must not burn the budget.
        let (mut db, w) = setup();
        let set = candidates(&mut db, &w);
        let budget = WhatIfBudget {
            max_calls: 0,
            max_millis: 500,
        };
        let mut ev =
            BenefitEvaluator::with_faults(&mut db, &w, &set, &FaultInjector::off(), budget);
        std::thread::sleep(Duration::from_millis(600));
        let b = ev.benefit(&set.basic_ids());
        assert_eq!(
            ev.fallback_count(),
            0,
            "budget clock counted pre-evaluation time"
        );
        assert!(b > 0.0);
    }
}
