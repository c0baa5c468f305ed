//! The end-to-end intersection-join engine.
//!
//! [`IntersectionJoinEngine`] ties the pieces of the reproduction together:
//!
//! 1. [`IntersectionJoinEngine::analyze`] inspects a query: acyclicity class
//!    (Section 6), ij-width report (Definition 4.14) and the number of EJ
//!    queries the reduction will produce;
//! 2. [`IntersectionJoinEngine::evaluate`] answers the Boolean query through
//!    the forward reduction (Section 4) and the equality-join engine: each EJ
//!    query of the disjunction is evaluated (Yannakakis when α-acyclic,
//!    width-guided otherwise) with early exit on the first true disjunct —
//!    the `O(N^{ijw} polylog N)` algorithm of Theorem 4.15, which becomes
//!    `O(N polylog N)` for ι-acyclic queries (Theorem 6.6).  Only the *plan*
//!    of the reduction runs up front; each transformed relation is built by
//!    the worker that first reads it, so the early exit also skips the
//!    relations only unevaluated disjuncts read.  One helper worker helps
//!    build the first disjunct's relations before it speculates on later
//!    disjuncts.
//!
//! Every evaluation is **cancellable**: the `*_cancellable` entry points take
//! a caller-owned [`CancellationToken`] — a deadline is a token with a
//! [budget](CancellationToken::with_budget) — and disjunct workers run
//! panic-isolated — failures surface as the typed
//! [`EvalError`](ij_relation::EvalError) taxonomy, never as a poisoned
//! engine.

use ij_ejoin::{evaluate_ej_boolean, BoundAtom, EvalActivity, EvalContext, TrieCache};
use ij_hypergraph::{AcyclicityClass, AcyclicityReport};
use ij_reduction::{
    plan_forward_reduction, ForwardReduction, ReductionConfig, ReductionError, ReductionStats,
};
use ij_relation::sync::lock_recover;

/// Lock class of the worker pool's first-disjunct-error slot
/// (`sync::lock_order`); a leaf: held only to fold an error value.
const DISJUNCT_ERROR: &str = "disjunct-error";
use ij_relation::{panic_payload_string, CancellationToken, Database, EvalError, Query};
use ij_widths::{ij_width, IjWidthReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

pub use ij_ejoin::TrieCacheStats;

/// Returns `"scalar"`, the label the portable kernels have always reported.
/// The kernels have one implementation and no per-host arm, but
/// `benchmark/src/adapter.rs` still records this label in a run's `meta`;
/// it goes when that file stops calling it.
#[doc(hidden)]
pub fn kernel_arm() -> &'static str {
    "scalar"
}

/// The trie-cache byte budget of [`IntersectionJoinEngine::new`] and
/// [`Workspace::new`](crate::Workspace::new): 256 MiB.
pub const DEFAULT_TRIE_CACHE_BYTES: usize = 256 << 20;

/// The hardware thread count (1 when it cannot be determined).  One call
/// reads the process's cgroup limits, a few microseconds, so engines and
/// workspaces call it once when they are built.
#[expect(clippy::disallowed_methods, reason = "read once per engine")]
pub(crate) fn hardware_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Configuration of the engine: its worker count.  The encoding is the
/// reduction's ([`ReductionConfig`]); to evaluate a non-default one, plan it
/// ([`plan_forward_reduction`]) and call
/// [`evaluate_reduction`](IntersectionJoinEngine::evaluate_reduction).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of threads evaluating the EJ disjunction — the only threads an
    /// evaluation uses, the calling thread among them: `0` uses the
    /// available hardware parallelism, as read once when the engine (or the
    /// workspace it comes from) was built, `1` evaluates sequentially on the
    /// caller, any other value caps the worker count.  The
    /// `parallelism − 1` helper threads are spawned at the start; the first
    /// of them helps build the first disjunct's relations before it takes
    /// disjuncts
    /// ([`evaluate_reduction_cancellable`](IntersectionJoinEngine::evaluate_reduction_cancellable)).
    /// The Boolean answer is identical for every setting; a true disjunct
    /// found by any worker stops the others at their next scheduling point.
    pub parallelism: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new()
    }
}

impl EngineConfig {
    /// The default configuration: hardware parallelism across disjuncts.
    pub fn new() -> Self {
        EngineConfig { parallelism: 0 }
    }

    /// This configuration with an explicit disjunct-evaluation worker count.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Returns `self` unchanged.  Hash-sharded tries are gone —
    /// [`EngineConfig::parallelism`] is the engine's only thread count — but
    /// `benchmark/src/adapter.rs`, which only a `benchmark` issue may edit,
    /// still calls this setter; it goes when that file stops calling it.
    #[doc(hidden)]
    pub fn with_trie_shards(self, _: usize) -> Self {
        self
    }

    /// The worker count to use for `disjuncts` EJ queries on a
    /// host with `hardware` threads.
    fn worker_count(&self, disjuncts: usize, hardware: usize) -> usize {
        let requested = if self.parallelism == 0 {
            hardware
        } else {
            self.parallelism
        };
        requested.min(disjuncts).max(1)
    }
}

/// Errors raised by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The forward reduction failed.
    Reduction(ReductionError),
    /// The evaluation stopped without an answer: cancelled, past its
    /// deadline, or a panic-isolated worker failure (see [`EvalError`]).
    /// Interruptions *during the reduction phase* are reported through this
    /// variant too, so callers match one variant for the whole cancellation
    /// taxonomy.
    Evaluation(EvalError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Reduction(e) => write!(f, "{e}"),
            EngineError::Evaluation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Reduction(e) => Some(e),
            EngineError::Evaluation(e) => Some(e),
        }
    }
}

impl From<ReductionError> for EngineError {
    fn from(e: ReductionError) -> Self {
        // An interruption that happened to surface during the reduction
        // phase is still a cancellation/deadline/panic event: report it
        // uniformly through `Evaluation`.
        match e {
            ReductionError::Interrupted(inner) => EngineError::Evaluation(inner),
            other => EngineError::Reduction(other),
        }
    }
}

impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Evaluation(e)
    }
}

/// Static analysis of a query.
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// Acyclicity classification of the query hypergraph (Section 6).
    pub acyclicity: AcyclicityReport,
    /// The ij-width report (Definition 4.14).
    pub ij_width: IjWidthReport,
    /// Whether Theorem 6.6 guarantees near-linear evaluation.
    pub linear_time: bool,
}

impl QueryAnalysis {
    /// A one-line summary such as
    /// `"iota-acyclic, ijw = 1 → O(N·polylog N)"`.
    pub fn summary(&self) -> String {
        format!(
            "{}, ijw = {:.4} → O(N^{:.4}·polylog N)",
            self.acyclicity.class, self.ij_width.value, self.ij_width.value
        )
    }
}

/// Runtime statistics of one evaluation.
#[derive(Debug, Clone)]
pub struct EvaluationStats {
    /// Statistics of the forward reduction.  `num_relations` is what the
    /// reduction plans; `relations_built`, `transformed_tuples` and
    /// `max_relation_tuples` count the transformed relations this
    /// evaluation's reduction held when it finished.  Under
    /// [`evaluate_cancellable`](IntersectionJoinEngine::evaluate_cancellable)
    /// those are the relations the evaluated disjuncts read (early exit
    /// leaves the rest unbuilt) of [`plan_forward_reduction`], and their
    /// sizes are *live* sizes: that plan builds no `X#2` column for an
    /// interval variable shared by two atoms, so a relation is at most as
    /// large as its namesake in `D̃`.  Under
    /// [`evaluate_reduction`](IntersectionJoinEngine::evaluate_reduction)
    /// on a reduction from `forward_reduction_with` they are all of `D̃`, at
    /// Lemma 4.10's sizes.
    pub reduction: ReductionStats,
    /// Number of EJ queries actually evaluated (early exit stops at the
    /// first true disjunct).
    pub ej_queries_evaluated: usize,
    /// Number of EJ queries in the disjunction.
    pub ej_queries_total: usize,
    /// Always equals [`EvaluationStats::ej_queries_total`]: a worker pulls
    /// one disjunct at a time, and no two disjuncts share a relation set to
    /// group by.  `benchmark/src/adapter.rs` still reads it as its
    /// `engine.batches` metric; it goes when that file stops reading it.
    #[doc(hidden)]
    pub ej_query_batches: usize,
    /// This evaluation's activity on the engine's **persistent** trie cache:
    /// the hit/miss/eviction counters are **exact** — accumulated by this
    /// evaluation's own lookups in its [`EvalActivity`] ledger, not inferred
    /// from snapshots of the shared cache's counters — so they are correct
    /// under any concurrency:
    /// evaluations running in parallel against one cache (on this engine, a
    /// clone of it, or any engine built from the same
    /// [`Workspace`](crate::Workspace)) never report each other's hits,
    /// misses or evictions.  `entries` and `resident_bytes` are the cache's
    /// resident state when the evaluation finished.  All zeros on an engine
    /// of a workspace whose budget is `0`
    /// ([`Workspace::with_trie_cache_bytes`](crate::Workspace::with_trie_cache_bytes)).
    /// A warm evaluation of a previously-seen reduction reports hits with no
    /// misses.
    pub trie_cache: TrieCacheStats,
    /// Disjuncts whose variable order went through the planner (a cyclic
    /// disjunct plans per materialised bag, so the count can exceed the
    /// disjunct count) — exact, read from the same ledger as the cache
    /// counters.
    pub disjuncts_planned: usize,
    /// Total time the planner spent choosing orders, in nanoseconds, from
    /// the same ledger.
    pub planning_nanos: u64,
    /// The answer.
    pub answer: bool,
}

/// A human-readable multi-line summary of the evaluation: the answer, the
/// disjunct counts, the reduction size, the trie-cache activity
/// including resident bytes and evictions, and the planner's work.
impl std::fmt::Display for EvaluationStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "answer = {}", self.answer)?;
        writeln!(
            f,
            "built {} of {} transformed relations ({} tuples); \
             {}/{} EJ disjuncts evaluated (early exit)",
            self.reduction.relations_built,
            self.reduction.num_relations,
            self.reduction.transformed_tuples,
            self.ej_queries_evaluated,
            self.ej_queries_total
        )?;
        writeln!(
            f,
            "trie cache: {} hits / {} misses ({:.0}% of builds shared), \
             {} evictions; {} tries resident ({:.1} KiB)",
            self.trie_cache.hits,
            self.trie_cache.misses,
            100.0 * self.trie_cache.hit_rate(),
            self.trie_cache.evictions,
            self.trie_cache.entries,
            self.trie_cache.resident_bytes as f64 / 1024.0
        )?;
        write!(
            f,
            "plan: {} disjuncts planned in {:.1} µs",
            self.disjuncts_planned,
            self.planning_nanos as f64 / 1e3
        )
    }
}

/// The atoms of disjunct `index` of `reduction`, each bound to its
/// transformed relation with the disjunct's variables numbered densely.
/// Binding is where a relation nobody has read yet gets built, polling
/// `token`.
///
/// # Errors
///
/// The [`EvalError`] of a relation build that `token` interrupted or that
/// panicked.
///
/// # Panics
///
/// If `index` is not below `reduction.queries.len()`.
pub fn disjunct_atoms<'r>(
    reduction: &'r ForwardReduction,
    index: usize,
    token: Option<&CancellationToken>,
) -> Result<Vec<BoundAtom<'r>>, EvalError> {
    let rq = &reduction.queries[index];
    let var_ids = rq.dense_var_ids();
    rq.atoms
        .iter()
        .map(|a| {
            let rel = reduction.relation(&a.relation, token)?;
            let vars = a.vars.iter().map(|v| var_ids[v.as_str()]).collect();
            Ok(BoundAtom::new(rel, vars))
        })
        .collect()
}

/// Runs a worker's work on disjunct `index` panic-isolated: a panic anywhere
/// inside `work` is caught, reported as [`EvalError::WorkerPanicked`], and
/// cancels the pool token so sibling workers stop at their next checkpoint.
/// `AssertUnwindSafe` is justified by the pipeline's panic-atomicity
/// discipline: a worker only reads the reduction (a relation build that
/// unwinds leaves its cell empty), and the shared trie cache mutates under
/// panic-free critical sections (see `ij_relation::sync`), so no broken
/// invariant can escape the unwind boundary.
fn isolated<T>(
    pool: &CancellationToken,
    index: usize,
    work: impl FnOnce() -> Result<T, EvalError>,
) -> Result<T, EvalError> {
    catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|payload| {
        pool.cancel();
        Err(EvalError::WorkerPanicked {
            atom: format!("disjunct {index}"),
            payload: panic_payload_string(payload.as_ref()),
        })
    })
}

/// Folds a worker's error into the evaluation's single reported error slot,
/// preferring a diagnostic (`WorkerPanicked`, `DeadlineExceeded`) over the
/// `Cancelled` it induced in sibling workers.
fn fold_error(slot: &mut Option<EvalError>, e: EvalError) {
    let prefer = match (&slot, &e) {
        (None, _) => true,
        (Some(EvalError::Cancelled), other) => !matches!(other, EvalError::Cancelled),
        _ => false,
    };
    if prefer {
        *slot = Some(e);
    }
}

/// The intersection-join query engine.
///
/// The engine evaluates against a **persistent** [`TrieCache`] that survives
/// across evaluations: repeated queries over the same reduced database reuse
/// built tries instead of rebuilding them.  Within one evaluation, disjuncts
/// overwhelmingly share transformed relations, so the cache also lets them
/// share the *built tries* instead of rebuilding per disjunct.  The cache is
/// the engine's own ([`IntersectionJoinEngine::new`]) or its workspace's
/// ([`Workspace::engine`](crate::Workspace::engine), which also sets any
/// other byte budget).  Cloning an engine shares the cache — sound, because
/// cache keys are relation content fingerprints — so cheap per-thread clones
/// all warm one cache.
#[derive(Debug, Clone)]
pub struct IntersectionJoinEngine {
    config: EngineConfig,
    /// The persistent cross-evaluation trie cache (`None` on an engine of a
    /// workspace whose budget is `0`).
    trie_cache: Option<Arc<TrieCache>>,
    /// [`hardware_parallelism`] when the engine (or its workspace) was
    /// built: what [`EngineConfig::parallelism`] `0` runs on.
    hardware_threads: usize,
}

impl Default for IntersectionJoinEngine {
    fn default() -> Self {
        IntersectionJoinEngine::with_defaults()
    }
}

impl IntersectionJoinEngine {
    /// Creates an engine with the given configuration and a private
    /// persistent trie cache of [`DEFAULT_TRIE_CACHE_BYTES`].  Engines that
    /// should *share* a cache, or use another budget, are built from one
    /// [`Workspace`](crate::Workspace) instead.
    pub fn new(config: EngineConfig) -> Self {
        let cache = TrieCache::with_byte_budget(DEFAULT_TRIE_CACHE_BYTES);
        IntersectionJoinEngine::with_cache(config, Some(Arc::new(cache)), hardware_parallelism())
    }

    /// Creates an engine evaluating against `trie_cache` (none: every
    /// disjunct rebuilds its tries) on a host with `hardware_threads`
    /// threads.
    pub(crate) fn with_cache(
        config: EngineConfig,
        trie_cache: Option<Arc<TrieCache>>,
        hardware_threads: usize,
    ) -> Self {
        IntersectionJoinEngine {
            config,
            trie_cache,
            hardware_threads,
        }
    }

    /// Creates an engine with the default configuration.
    pub fn with_defaults() -> Self {
        IntersectionJoinEngine::new(EngineConfig::new())
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cumulative statistics of the engine's persistent trie cache over its
    /// whole lifetime (all zeros when the cache is disabled).  Exact
    /// per-evaluation counters are reported in
    /// [`EvaluationStats::trie_cache`].
    pub fn trie_cache_stats(&self) -> TrieCacheStats {
        self.trie_cache
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Static analysis: acyclicity, ij-width and the runtime regime.
    ///
    /// The analysis is data-independent (it only looks at the query
    /// hypergraph) and exponential in the query size only, exactly like the
    /// reduction itself.
    pub fn analyze(&self, query: &Query) -> QueryAnalysis {
        let (h, _) = query.hypergraph();
        let acyclicity = AcyclicityReport::of(&h);
        let ij_width = ij_width(&h);
        let linear_time = matches!(
            acyclicity.class,
            AcyclicityClass::BergeAcyclic | AcyclicityClass::IotaAcyclic
        );
        QueryAnalysis {
            acyclicity,
            ij_width,
            linear_time,
        }
    }

    /// Evaluates a Boolean EIJ query over an interval database through the
    /// forward reduction.
    pub fn evaluate(&self, query: &Query, db: &Database) -> Result<bool, EngineError> {
        Ok(self.evaluate_cancellable(query, db, None)?.answer)
    }

    /// Evaluates a Boolean EIJ query over an interval database through the
    /// forward reduction under a caller-owned [`CancellationToken`], and
    /// returns the answer with the evaluation's runtime statistics.  It plans
    /// with [`ReductionConfig::default`], the flat encoding ([`EngineConfig`]).
    ///
    /// Cancelling the token (from any thread) makes the evaluation return
    /// [`EngineError::Evaluation`]`(`[`EvalError::Cancelled`]`)` within the
    /// token's check-interval latency bound; a token with a
    /// [budget](CancellationToken::with_budget) makes it return
    /// [`EvalError::DeadlineExceeded`] once the budget has elapsed, covering
    /// the forward reduction *and* the disjunct evaluation.  A deadline is a
    /// property of the call, not of the engine: one engine can run a bounded
    /// call and an unbounded one.  The disjunct workers run on a *child* of
    /// the caller's token (see
    /// [`evaluate_reduction_cancellable`](IntersectionJoinEngine::evaluate_reduction_cancellable)),
    /// so internal cancellation (e.g. after a worker panic) never trips the
    /// caller's token.
    pub fn evaluate_cancellable(
        &self,
        query: &Query,
        db: &Database,
        token: Option<&CancellationToken>,
    ) -> Result<EvaluationStats, EngineError> {
        // Only the *plan* of the forward reduction runs here, on the caller's
        // thread: segment trees, node lists and the EJ queries.  The
        // transformed relations are built by the disjunct workers, each the
        // first time a disjunct binds it (`evaluate_disjunct`).  Isolate the
        // plan like a worker so a panic inside it surfaces as a typed error
        // instead of unwinding through the caller.
        let reduction = catch_unwind(AssertUnwindSafe(|| {
            plan_forward_reduction(query, db, ReductionConfig::default(), token)
        }))
        .unwrap_or_else(|payload| {
            Err(ReductionError::Interrupted(EvalError::WorkerPanicked {
                atom: "forward reduction".to_string(),
                payload: panic_payload_string(payload.as_ref()),
            }))
        })?;
        Ok(self.evaluate_reduction_cancellable(&reduction, token)?)
    }

    /// [`IntersectionJoinEngine::evaluate_reduction_cancellable`] without a
    /// token: it cannot be cancelled externally, and its only error is
    /// [`EvalError::WorkerPanicked`].
    pub fn evaluate_reduction(
        &self,
        reduction: &ForwardReduction,
    ) -> Result<EvaluationStats, EvalError> {
        self.evaluate_reduction_cancellable(reduction, None)
    }

    /// Evaluates a forward reduction computed by the caller (useful when the
    /// same reduced database is probed several times, e.g. in benchmarks)
    /// under a caller-owned [`CancellationToken`].
    ///
    /// The workers read transformed relations through
    /// [`ForwardReduction::relation`], so this works on any reduction: one
    /// from [`forward_reduction_with`](ij_reduction::forward_reduction_with)
    /// has every relation built and each read is a load; one from
    /// [`plan_forward_reduction`] — which is what
    /// [`evaluate`](IntersectionJoinEngine::evaluate) runs on — has none, and
    /// a worker builds a relation the first time a disjunct it evaluates
    /// binds it, while a second worker needing the same relation waits for
    /// that build.  Relations only unevaluated disjuncts read are never
    /// built; [`EvaluationStats::reduction`] counts what was.
    ///
    /// Each disjunct is one unit of work.  [`EngineConfig::parallelism`]
    /// workers — the calling thread and `parallelism − 1` spawned helpers,
    /// all running the same loop — take disjunct indices, in order, off one
    /// shared atomic counter.  The first helper's first job is not
    /// speculative: a true instance is decided by building and probing
    /// disjunct 0's relations, so it builds them from the last atom back
    /// while the caller binds them from the first, and only then takes
    /// disjuncts of its own; the other helpers take disjuncts at once.  On
    /// a reduction whose relations are built, that first job is a few
    /// loads.
    /// The first worker to find a true disjunct flips an [`AtomicBool`]
    /// that stops the others before their next disjunct and cancels the
    /// pool's own token, which interrupts their relation builds, trie
    /// builds and searches in flight at the next poll.
    /// The evaluation returns once every worker has stopped, so the answer
    /// is as late as the slowest sibling's next poll: each worker polls
    /// between binding a disjunct's relations and searching it, and the
    /// Yannakakis pass of an acyclic disjunct before each semijoin, so a
    /// semijoin in flight runs to its end; so does
    /// [`Relation::dedup`](ij_relation::Relation::dedup) — over the seeds
    /// of a relation build, at most tens of thousands of keys, and over
    /// each projection a cyclic disjunct's atoms or bags derive, once per
    /// reduction: a later disjunct, or a later evaluation of the same
    /// reduction, finds it memoised and copies nothing.
    /// All workers share the engine's **persistent** [`TrieCache`], so a
    /// trie built for one disjunct is reused by every later disjunct of this
    /// *and every subsequent* evaluation, and repeat evaluations of the same
    /// reduction run warm end to end.  No two disjuncts of a planned
    /// reduction read the same set of transformed relations — each is its
    /// own choice of permutations, and a relation is named after its atom
    /// and levels (Section 4.3, Definition 4.9) — so there is nothing to
    /// deduplicate or group.
    /// The evaluation only *reads* the transformed relations' interned id
    /// columns, so the workers share the reduction without locking.
    ///
    /// The pool polls a *child* of `token` between disjuncts and inside every
    /// relation build, trie build and candidate-intersection loop, so the
    /// pool cancelling itself — after a witness or a worker panic — never
    /// trips the caller's token.
    ///
    /// # Errors
    ///
    /// Returns the typed [`EvalError`] taxonomy when the evaluation stops
    /// without an answer: [`EvalError::Cancelled`] or
    /// [`EvalError::DeadlineExceeded`] within the check-interval latency
    /// bound once `token` is cancelled or past its budget, or
    /// [`EvalError::WorkerPanicked`] when a disjunct worker panics, in a
    /// relation build or after it (the panic is caught, its siblings are
    /// cancelled, a relation whose build failed stays unbuilt, and the engine
    /// — including its shared trie cache — stays fully usable).
    pub fn evaluate_reduction_cancellable(
        &self,
        reduction: &ForwardReduction,
        token: Option<&CancellationToken>,
    ) -> Result<EvaluationStats, EvalError> {
        let pool = &token.map(CancellationToken::child).unwrap_or_default();
        let disjuncts = reduction.queries.len();
        let workers = self.config.worker_count(disjuncts, self.hardware_threads);
        // The ledger makes this evaluation's statistics exact: every lookup
        // and plan any of its workers performs is counted here, so
        // concurrent evaluations sharing the cache cannot pollute them.
        let activity = EvalActivity::new();
        let eval = EvalContext {
            cache: self.trie_cache.as_deref(),
            activity: Some(&activity),
            token: Some(pool),
        };
        let next = AtomicUsize::new(0);
        let found = AtomicBool::new(false);
        let evaluated = AtomicUsize::new(0);
        let error: Mutex<Option<EvalError>> = Mutex::new(None);
        let fail = |e| {
            // Stop the siblings promptly; fold_error's precedence keeps a
            // diagnostic over the `Cancelled` it induces in them.
            pool.cancel();
            fold_error(&mut lock_recover(&error, DISJUNCT_ERROR), e);
        };
        // The loop every worker runs: take the next disjunct, evaluate it,
        // stop at a witness or an error.
        let pull = || loop {
            if found.load(Ordering::Acquire) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= disjuncts {
                break;
            }
            // Between-disjunct checkpoint: a long disjunction cancels
            // promptly even when each disjunct is tiny.
            if let Err(e) = pool.checkpoint() {
                fold_error(&mut lock_recover(&error, DISJUNCT_ERROR), e);
                break;
            }
            evaluated.fetch_add(1, Ordering::Relaxed);
            match isolated(pool, i, || self.evaluate_disjunct(reduction, i, eval)) {
                Ok(true) => {
                    found.store(true, Ordering::Release);
                    // The siblings' work is speculative from here on: stop
                    // it mid-build.  `pool` is this evaluation's own token,
                    // never the caller's.
                    pool.cancel();
                    break;
                }
                Ok(false) => {}
                Err(e) => {
                    fail(e);
                    break;
                }
            }
        };
        // The first helper's loop: build disjunct 0's relations back to
        // front while the caller binds them front to back (a worker needing
        // a relation another one is building waits for it), then pull.
        let prefetch_then_pull = || {
            let first = reduction.queries.first().map_or(&[][..], |q| &q.atoms[..]);
            let bound = isolated(pool, 0, || {
                (first.iter().rev())
                    .try_for_each(|atom| reduction.relation(&atom.relation, Some(pool)).map(drop))
            });
            match bound {
                Ok(()) => pull(),
                Err(e) => fail(e),
            }
        };
        std::thread::scope(|scope| {
            if workers > 1 {
                scope.spawn(prefetch_then_pull);
            }
            for _ in 2..workers {
                scope.spawn(pull);
            }
            pull();
        });
        // A true disjunct is a witness regardless of what happened to the
        // sibling workers: true ∨ unknown = true.
        let answer = found.into_inner();
        if !answer {
            if let Some(e) = lock_recover(&error, DISJUNCT_ERROR).take() {
                return Err(e);
            }
        }
        // Exact per-evaluation counters from the local ledger; the
        // resident entry/byte state is a (consistent) snapshot of the shared
        // cache at completion time.
        let resident = self.trie_cache_stats();
        Ok(EvaluationStats {
            reduction: reduction.materialised_stats(),
            ej_queries_evaluated: evaluated.into_inner(),
            ej_queries_total: disjuncts,
            ej_query_batches: disjuncts,
            trie_cache: TrieCacheStats {
                hits: activity.hits(),
                misses: activity.misses(),
                evictions: activity.evictions(),
                entries: resident.entries,
                resident_bytes: resident.resident_bytes,
            },
            disjuncts_planned: activity.plans(),
            planning_nanos: activity.planning_nanos(),
            answer,
        })
    }

    /// Evaluates disjunct `index` of a reduction.  Binding its atoms is
    /// where a transformed relation nobody has read yet gets built, on this
    /// worker.
    fn evaluate_disjunct(
        &self,
        reduction: &ForwardReduction,
        index: usize,
        eval: EvalContext<'_>,
    ) -> Result<bool, EvalError> {
        let atoms = disjunct_atoms(reduction, index, eval.token)?;
        // Binding may have taken a while (it is where relations get built)
        // and a cyclic disjunct derives its projections before anything
        // below polls: a worker whose sibling found a witness meanwhile must
        // not start work the evaluation would then have to wait out.
        if let Some(token) = eval.token {
            token.checkpoint()?;
        }
        evaluate_ej_boolean(&atoms, eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive_boolean, Workspace};
    use ij_ejoin::{generic_join_boolean, yannakakis_boolean};
    use ij_reduction::{forward_reduction, EncodingStrategy};
    use ij_relation::Value;
    use std::time::Duration;

    fn iv(lo: f64, hi: f64) -> Value {
        Value::interval(lo, hi)
    }

    fn triangle_db(satisfiable: bool) -> (Query, Database) {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let mut db = Database::new();
        db.insert_tuples(
            "R",
            2,
            vec![
                vec![iv(0.0, 4.0), iv(10.0, 14.0)],
                vec![iv(100.0, 101.0), iv(200.0, 201.0)],
            ],
        );
        db.insert_tuples("S", 2, vec![vec![iv(12.0, 13.0), iv(20.0, 25.0)]]);
        let c = if satisfiable {
            iv(24.0, 26.0)
        } else {
            iv(30.0, 31.0)
        };
        db.insert_tuples("T", 2, vec![vec![iv(3.0, 5.0), c]]);
        (q, db)
    }

    /// The disjunction of `q` over `db` decided disjunct by disjunct, after
    /// checking on each that [`evaluate_ej_boolean`] and Yannakakis (where it
    /// accepts the disjunct) answer like the plain generic join.
    fn disjunction_by_every_algorithm(q: &Query, db: &Database) -> bool {
        let reduction = forward_reduction(q, db).unwrap();
        let eval = EvalContext::default();
        let mut answer = false;
        for i in 0..reduction.queries.len() {
            let atoms = disjunct_atoms(&reduction, i, None).unwrap();
            let reference = generic_join_boolean(&atoms, None, eval).unwrap();
            assert_eq!(
                evaluate_ej_boolean(&atoms, eval),
                Ok(reference),
                "disjunct {i}"
            );
            if let Some(pass) = yannakakis_boolean(&atoms, None).unwrap() {
                assert_eq!(pass, reference, "Yannakakis on disjunct {i}");
            }
            answer |= reference;
        }
        answer
    }

    #[test]
    fn engine_agrees_with_naive_on_the_triangle() {
        let engine = IntersectionJoinEngine::with_defaults();
        for satisfiable in [true, false] {
            let (q, db) = triangle_db(satisfiable);
            let via_reduction = engine.evaluate(&q, &db).unwrap();
            let via_naive = naive_boolean(&q, &db).unwrap();
            assert_eq!(via_reduction, via_naive);
            assert_eq!(via_reduction, satisfiable);
        }
    }

    #[test]
    fn analysis_of_the_triangle() {
        let engine = IntersectionJoinEngine::with_defaults();
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let analysis = engine.analyze(&q);
        assert_eq!(analysis.acyclicity.class, AcyclicityClass::Cyclic);
        assert!((analysis.ij_width.value - 1.5).abs() < 1e-9);
        assert!(!analysis.linear_time);
        assert!(analysis.summary().contains("1.5"));
    }

    #[test]
    fn analysis_of_an_iota_acyclic_query() {
        let engine = IntersectionJoinEngine::with_defaults();
        // Figure 9d.
        let q = Query::parse("R([A],[B],[C]) & S([A],[B],[C]) & T([A])").unwrap();
        let analysis = engine.analyze(&q);
        assert!(analysis.linear_time);
        assert!(analysis.ij_width.is_linear_time());
    }

    #[test]
    fn evaluation_stats_expose_early_exit() {
        let engine = IntersectionJoinEngine::with_defaults();
        let (q, db) = triangle_db(true);
        let stats = engine.evaluate_cancellable(&q, &db, None).unwrap();
        assert!(stats.answer);
        assert!(stats.ej_queries_evaluated <= stats.ej_queries_total);
        assert_eq!(stats.reduction.num_queries, 8);

        let (q, db) = triangle_db(false);
        let stats = engine.evaluate_cancellable(&q, &db, None).unwrap();
        assert!(!stats.answer);
        // A false answer requires evaluating every disjunct.
        assert_eq!(stats.ej_queries_evaluated, stats.ej_queries_total);
    }

    #[test]
    fn every_triangle_disjunct_agrees_with_the_reference_joins() {
        for satisfiable in [true, false] {
            let (q, db) = triangle_db(satisfiable);
            assert_eq!(disjunction_by_every_algorithm(&q, &db), satisfiable);
        }
    }

    #[test]
    fn flat_and_decomposed_encodings_agree() {
        let engine = IntersectionJoinEngine::with_defaults();
        let decomposed = ReductionConfig {
            encoding: EncodingStrategy::Decomposed,
        };
        for satisfiable in [true, false] {
            let (q, db) = triangle_db(satisfiable);
            assert_eq!(engine.evaluate(&q, &db).unwrap(), satisfiable);
            let plan = plan_forward_reduction(&q, &db, decomposed, None).unwrap();
            assert_eq!(
                engine.evaluate_reduction(&plan).unwrap().answer,
                satisfiable
            );
        }
    }

    #[test]
    fn parallel_and_sequential_disjunct_evaluation_agree() {
        // At 4 and 8 workers the first helper builds disjunct 0's relations
        // while the others take disjuncts at once.
        for parallelism in [1usize, 2, 4, 8] {
            let engine =
                IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(parallelism));
            for satisfiable in [true, false] {
                let (q, db) = triangle_db(satisfiable);
                assert_eq!(
                    engine.evaluate(&q, &db).unwrap(),
                    satisfiable,
                    "parallelism {parallelism}"
                );
                let stats = engine.evaluate_cancellable(&q, &db, None).unwrap();
                assert_eq!(stats.answer, satisfiable);
                if !satisfiable {
                    // A false answer requires every disjunct to be evaluated,
                    // regardless of the worker count.
                    assert_eq!(stats.ej_queries_evaluated, stats.ej_queries_total);
                    assert_eq!(
                        stats.reduction.relations_built,
                        stats.reduction.num_relations
                    );
                }
            }
        }
    }

    #[test]
    fn trie_cache_is_hit_on_a_disjunction_with_shared_atoms() {
        // Force a full pass over every disjunct (false answer) with one
        // worker: the disjuncts of the triangle reduction share transformed
        // relations, so later disjuncts must find earlier tries in the cache.
        let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(1));
        let (q, db) = triangle_db(false);
        let stats = engine.evaluate_cancellable(&q, &db, None).unwrap();
        assert!(!stats.answer);
        assert!(
            stats.trie_cache.hits > 0,
            "expected cache hits, got {:?}",
            stats.trie_cache
        );
        assert!(stats.trie_cache.entries > 0);

        // Without a cache, the same evaluation reports no activity.
        let rebuild =
            Workspace::with_trie_cache_bytes(0).engine(EngineConfig::new().with_parallelism(1));
        let stats = rebuild.evaluate_cancellable(&q, &db, None).unwrap();
        assert!(!stats.answer);
        assert_eq!(stats.trie_cache, TrieCacheStats::default());
    }

    #[test]
    fn worker_count_resolves_against_the_given_hardware_count() {
        let config = |parallelism| EngineConfig::new().with_parallelism(parallelism);
        // `0`: the hardware count, capped by the disjuncts, at least one.
        assert_eq!(config(0).worker_count(36, 2), 2);
        assert_eq!(config(0).worker_count(36, 64), 36);
        assert_eq!(config(0).worker_count(0, 8), 1);
        // `1`: sequential whatever the hardware.
        assert_eq!(config(1).worker_count(36, 8), 1);
        assert_eq!(config(1).worker_count(0, 8), 1);
        // Any other value caps the workers and ignores the hardware.
        assert_eq!(config(4).worker_count(36, 2), 4);
        assert_eq!(config(4).worker_count(3, 64), 3);
        assert_eq!(config(4).worker_count(0, 64), 1);
    }

    #[test]
    fn empty_reduction_evaluates_to_false_without_panicking() {
        // Regression: an empty disjunction still runs one worker
        // (worker_count(0) returns 1), which must find no work.
        let (q, db) = triangle_db(true);
        let mut reduction =
            plan_forward_reduction(&q, &db, ReductionConfig::default(), None).unwrap();
        reduction.queries.clear();
        for parallelism in [1usize, 4] {
            let engine =
                IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(parallelism));
            let stats = engine.evaluate_reduction(&reduction).unwrap();
            assert!(!stats.answer);
            assert_eq!(stats.ej_queries_total, 0);
            assert_eq!(stats.ej_query_batches, 0);
        }
    }

    #[test]
    fn persistent_cache_survives_across_evaluations_and_clones() {
        let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(1));
        let (q, db) = triangle_db(false);
        let first = engine.evaluate_cancellable(&q, &db, None).unwrap();
        assert!(first.trie_cache.misses > 0);
        // Second evaluation of the same reduction: all builds served warm.
        let second = engine.evaluate_cancellable(&q, &db, None).unwrap();
        assert_eq!(second.answer, first.answer);
        assert_eq!(second.trie_cache.misses, 0, "{:?}", second.trie_cache);
        assert!(second.trie_cache.hits > 0);
        // Clones share the cache: a clone's evaluation is warm too, and its
        // activity shows up in the original's cumulative stats.
        let clone = engine.clone();
        let cloned = clone.evaluate_cancellable(&q, &db, None).unwrap();
        assert_eq!(cloned.trie_cache.misses, 0);
        assert_eq!(
            engine.trie_cache_stats().hits,
            first.trie_cache.hits + second.trie_cache.hits + cloned.trie_cache.hits
        );
    }

    #[test]
    fn answers_identical_across_cache_settings() {
        // One trie's bytes, measured: a budget that evicts on most inserts.
        let (q, db) = triangle_db(false);
        let probe = IntersectionJoinEngine::with_defaults()
            .evaluate_cancellable(&q, &db, None)
            .unwrap()
            .trie_cache;
        let one_trie = probe.resident_bytes / probe.entries;
        for satisfiable in [true, false] {
            let (q, db) = triangle_db(satisfiable);
            for parallelism in [1usize, 2] {
                for bytes in [0, one_trie, DEFAULT_TRIE_CACHE_BYTES] {
                    let engine = Workspace::with_trie_cache_bytes(bytes)
                        .engine(EngineConfig::new().with_parallelism(parallelism));
                    assert_eq!(
                        engine.evaluate(&q, &db).unwrap(),
                        satisfiable,
                        "parallelism {parallelism}, {bytes} cache bytes"
                    );
                }
            }
        }
    }

    #[test]
    fn with_trie_shards_is_a_no_op() {
        // `benchmark/src/adapter.rs` still calls the setter on its traced
        // configuration; whatever it passes, the evaluation is the same.
        let (q, db) = triangle_db(false);
        let run = |shards: usize| {
            let engine = IntersectionJoinEngine::new(
                EngineConfig::new()
                    .with_parallelism(1)
                    .with_trie_shards(shards),
            );
            [(); 2].map(|()| {
                let stats = engine.evaluate_cancellable(&q, &db, None).unwrap();
                (stats.answer, stats.trie_cache, stats.ej_query_batches)
            })
        };
        let [cold, warm] = run(1);
        assert_eq!(run(7), [cold, warm]);
        assert!(cold.1.misses > 0 && warm.1.misses == 0, "{cold:?} {warm:?}");
    }

    #[test]
    fn planning_is_reported_in_evaluation_stats() {
        // False → every disjunct runs; each is cyclic and plans per bag.
        let (q, db) = triangle_db(false);
        let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(1));
        let stats = engine.evaluate_cancellable(&q, &db, None).unwrap();
        assert!(stats.disjuncts_planned > 0, "{stats:?}");
        let printed = stats.to_string();
        assert!(
            printed.contains("built 12 of 12 transformed relations"),
            "{printed}"
        );
    }

    #[test]
    fn kernel_arm_is_a_constant_label() {
        // `benchmark/src/adapter.rs` still records the label in a run's
        // `meta`; there is one kernel implementation, so it never changes.
        assert_eq!(kernel_arm(), "scalar");
    }

    #[test]
    fn point_interval_database_degenerates_to_equality_joins() {
        // With point intervals the IJ triangle behaves exactly like the EJ
        // triangle (Section 1).
        let engine = IntersectionJoinEngine::with_defaults();
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let mut db = Database::new();
        let p = |x: f64| Value::Interval(ij_segtree::Interval::point(x));
        db.insert_tuples("R", 2, vec![vec![p(1.0), p(2.0)], vec![p(4.0), p(5.0)]]);
        db.insert_tuples("S", 2, vec![vec![p(2.0), p(3.0)]]);
        db.insert_tuples("T", 2, vec![vec![p(1.0), p(3.0)]]);
        assert!(engine.evaluate(&q, &db).unwrap());
        // Remove the closing edge.
        let mut db2 = db.clone();
        db2.insert_tuples("T", 2, vec![vec![p(1.0), p(9.0)]]);
        assert!(!engine.evaluate(&q, &db2).unwrap());
    }

    #[test]
    fn a_cancelled_worker_does_not_start_its_search() {
        // A built relation is loaded without a poll, a cyclic disjunct's
        // projections are derived without one, and one-row tries are built
        // and searched before a ticker's first, so on this triangle only the
        // checkpoint between binding and searching can stop a worker whose
        // sibling has found a witness.
        let q = Query::parse("R(X,Y) & S(Y,Z) & T(X,Z)").unwrap();
        let mut db = Database::new();
        for name in ["R", "S", "T"] {
            db.insert_tuples(name, 2, vec![vec![Value::point(1.0), Value::point(1.0)]]);
        }
        // A point triangle reduces to one cyclic disjunct, every relation
        // built.
        let reduction = forward_reduction(&q, &db).unwrap();
        assert_eq!(reduction.queries.len(), 1);
        assert_eq!(reduction.relations().count(), 3);
        let engine = IntersectionJoinEngine::with_defaults();
        let token = CancellationToken::new();
        let eval = EvalContext {
            token: Some(&token),
            ..EvalContext::default()
        };
        assert_eq!(engine.evaluate_disjunct(&reduction, 0, eval), Ok(true));
        token.cancel();
        assert_eq!(
            engine.evaluate_disjunct(&reduction, 0, eval),
            Err(EvalError::Cancelled)
        );
    }

    #[test]
    fn pre_cancelled_token_stops_evaluation_with_typed_error() {
        let token = CancellationToken::new();
        token.cancel();
        for parallelism in [1usize, 4] {
            let engine =
                IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(parallelism));
            let (q, db) = triangle_db(true);
            let err = engine
                .evaluate_cancellable(&q, &db, Some(&token))
                .expect_err("cancelled token must not produce an answer");
            assert_eq!(
                err,
                EngineError::Evaluation(EvalError::Cancelled),
                "parallelism {parallelism}"
            );
        }
        // The engine worked on a child: the caller's token is merely
        // cancelled, not otherwise disturbed, and an un-cancelled token on
        // the same engine still evaluates fine.
        let engine = IntersectionJoinEngine::with_defaults();
        let (q, db) = triangle_db(true);
        let fresh = CancellationToken::new();
        assert!(
            engine
                .evaluate_cancellable(&q, &db, Some(&fresh))
                .unwrap()
                .answer
        );
    }

    #[test]
    fn engine_stays_usable_after_an_interrupted_evaluation() {
        // A deadline belongs to one call: the same engine runs a call whose
        // budget is spent before it starts, then unbounded ones, and the
        // interrupted call leaves the persistent cache consistent.
        let (q, db) = triangle_db(false); // false → every disjunct runs
        for parallelism in [1usize, 4] {
            let engine =
                IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(parallelism));
            let spent = CancellationToken::new().with_budget(Duration::ZERO);
            match engine.evaluate_cancellable(&q, &db, Some(&spent)) {
                Err(EngineError::Evaluation(EvalError::DeadlineExceeded { budget, .. })) => {
                    assert_eq!(budget, Duration::ZERO);
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
            let cold = engine.evaluate_cancellable(&q, &db, None).unwrap();
            assert!(!cold.answer);
            let warm = engine.evaluate_cancellable(&q, &db, None).unwrap();
            assert!(!warm.answer);
            assert_eq!(warm.trie_cache.misses, 0, "{:?}", warm.trie_cache);
            assert!(warm.trie_cache.hits > 0, "{:?}", warm.trie_cache);
        }
        // A generous budget does not perturb the answer.
        let (q, db) = triangle_db(true);
        let generous = CancellationToken::new().with_budget(Duration::from_secs(60));
        let engine = IntersectionJoinEngine::with_defaults();
        let stats = engine.evaluate_cancellable(&q, &db, Some(&generous));
        assert!(stats.unwrap().answer);
    }

    #[test]
    fn fold_error_prefers_diagnostics_over_induced_cancellation() {
        let panicked = || EvalError::WorkerPanicked {
            atom: "disjunct 3".into(),
            payload: "boom".into(),
        };
        let mut slot = None;
        fold_error(&mut slot, EvalError::Cancelled);
        assert_eq!(slot, Some(EvalError::Cancelled));
        // A diagnostic replaces the Cancelled it induced in siblings…
        fold_error(&mut slot, panicked());
        assert_eq!(slot, Some(panicked()));
        // …and the first diagnostic wins from then on.
        fold_error(
            &mut slot,
            EvalError::DeadlineExceeded {
                elapsed: Duration::from_secs(1),
                budget: Duration::ZERO,
            },
        );
        assert_eq!(slot, Some(panicked()));
        fold_error(&mut slot, EvalError::Cancelled);
        assert_eq!(slot, Some(panicked()));
    }

    #[test]
    fn engine_error_exposes_sources_and_conversions() {
        use std::error::Error as _;
        let e = EngineError::from(EvalError::Cancelled);
        assert_eq!(e, EngineError::Evaluation(EvalError::Cancelled));
        assert!(e.source().is_some());
        assert_eq!(e.to_string(), "evaluation cancelled");
        // An interruption surfacing through the reduction phase is folded
        // into the same Evaluation variant.
        let via_reduction = EngineError::from(ReductionError::from(EvalError::Cancelled));
        assert_eq!(via_reduction, EngineError::Evaluation(EvalError::Cancelled));
    }

    #[test]
    fn missing_relation_surfaces_as_engine_error() {
        let engine = IntersectionJoinEngine::with_defaults();
        let q = Query::parse("R([A]) & S([A])").unwrap();
        let db = Database::new();
        assert!(matches!(
            engine.evaluate(&q, &db),
            Err(EngineError::Reduction(_))
        ));
        assert!(naive_boolean(&q, &db).is_err());
    }

    #[test]
    fn mixed_eij_queries_are_supported() {
        // Equality join on X, intersection join on [A].
        let engine = IntersectionJoinEngine::with_defaults();
        let q = Query::parse("R(X,[A]) & S(X,[A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples(
            "R",
            2,
            vec![
                vec![Value::point(1.0), iv(0.0, 2.0)],
                vec![Value::point(2.0), iv(5.0, 6.0)],
            ],
        );
        db.insert_tuples("S", 2, vec![vec![Value::point(1.0), iv(1.0, 3.0)]]);
        assert!(engine.evaluate(&q, &db).unwrap());
        assert!(naive_boolean(&q, &db).unwrap());

        // Same intervals but mismatching point values.
        let mut db2 = Database::new();
        db2.insert_tuples("R", 2, vec![vec![Value::point(7.0), iv(0.0, 2.0)]]);
        db2.insert_tuples("S", 2, vec![vec![Value::point(1.0), iv(1.0, 3.0)]]);
        assert!(!engine.evaluate(&q, &db2).unwrap());
    }

    #[test]
    fn a_repeated_point_variable_keeps_its_equality_under_every_algorithm() {
        // Both queries are ι-acyclic, so every disjunct runs Yannakakis.
        // R's row (1, 2, [0,5]) meets S's interval but breaks X = X.
        let row = |x1: f64, x2: f64| vec![Value::point(x1), Value::point(x2), iv(0.0, 5.0)];
        for (query, s_row) in [
            (
                "R(X,X,[A]) & S(X,[A])",
                vec![Value::point(1.0), iv(1.0, 3.0)],
            ),
            ("R(X,X,[A]) & S([A])", vec![iv(1.0, 3.0)]),
        ] {
            let q = Query::parse(query).unwrap();
            for (r_rows, expected) in [
                (vec![row(1.0, 2.0)], false),
                (vec![row(1.0, 2.0), row(1.0, 1.0)], true),
            ] {
                let mut db = Database::new();
                db.insert_tuples("R", 3, r_rows);
                db.insert_tuples("S", s_row.len(), vec![s_row.clone()]);
                assert_eq!(naive_boolean(&q, &db).unwrap(), expected, "{query}");
                let engine = IntersectionJoinEngine::with_defaults();
                assert_eq!(engine.evaluate(&q, &db).unwrap(), expected, "{query}");
                assert_eq!(disjunction_by_every_algorithm(&q, &db), expected, "{query}");
            }
        }
    }
}
