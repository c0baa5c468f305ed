//! Deadline and cancellation acceptance tests.
//!
//! The robustness contract under test (see README § Robustness):
//!
//! * the budget of a [`CancellationToken::with_budget`] token is enforced on
//!   a planted near-miss workload whose uncancelled runtime exceeds the
//!   budget ≥ 10× — the evaluation returns [`EvalError::DeadlineExceeded`]
//!   instead of running to completion;
//! * cancelling a caller-owned [`CancellationToken`] from another thread
//!   makes an in-flight evaluation return within the documented latency
//!   ceiling ([`LATENCY_BOUND`]);
//! * both also hold while the disjunct workers are still *building* the
//!   transformed relations (the forward reduction's builds run on the
//!   workers, on demand), and the pool cancelling itself after a found
//!   witness never cancels the caller's token;
//! * the Yannakakis pass of an acyclic disjunct polls before every semijoin:
//!   a pre-cancelled token stops it before the first, and a cancel racing 36
//!   such passes yields the right answer or `Cancelled`;
//! * cancellation racing concurrent evaluations over one shared workspace is
//!   **correct-or-`Cancelled`**: every evaluation either returns the right
//!   answer or the typed error, the cache's resident bytes still equal the
//!   sum of its resident entries, and the workspace stays fully usable
//!   (clean re-run correct, warm re-run all-hits);
//! * every error in the taxonomy implements `std::error::Error`.

use ij_ejoin::{evaluate_ej_boolean, yannakakis_boolean, EvalContext};
use ij_engine::{
    disjunct_atoms, naive_boolean, CancellationToken, EngineConfig, EngineError, EvalError,
    IntersectionJoinEngine, Workspace,
};
use ij_reduction::{forward_reduction, ForwardReduction};
use ij_relation::{Database, Query, Value};
use ij_workloads::{build_scenario, PlantedAnswer, Scenario, ScenarioConfig, ScenarioFamily};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The documented cancellation-latency ceiling: once a cancel (or deadline
/// expiry) is signalled, an evaluation returns within the time it takes the
/// active workers to reach their next cooperative checkpoint — one
/// check-interval of candidate steps plus a worker join, asserted here as a
/// conservative wall-clock bound that holds on debug builds under load.
const LATENCY_BOUND: Duration = Duration::from_millis(250);

/// A planted near-miss scenario grown until its uncancelled runtime clears
/// `floor`: the last atom's relation is shifted just out of range, so the
/// generic-join search backtracks through every partial match before
/// concluding `false` — the worst case for a deadline to interrupt.
fn grow_near_miss(floor: Duration) -> (ForwardReduction, Duration) {
    let mut last = None;
    for tuples in [100usize, 200, 400, 800, 1600] {
        let cfg = ScenarioConfig::new(ScenarioFamily::SpatialRectangles)
            .with_tuples(tuples)
            .with_seed(3)
            .with_planted(PlantedAnswer::NearMiss);
        let scenario = build_scenario(&cfg);
        let reduction = forward_reduction(&scenario.query, &scenario.database)
            .expect("forward reduction succeeds");
        let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(1));
        let start = Instant::now();
        let stats = engine
            .evaluate_reduction(&reduction)
            .expect("uncancelled evaluation succeeds");
        let uncancelled = start.elapsed();
        assert!(!stats.answer, "near-miss scenario must be unsatisfiable");
        let long_enough = uncancelled >= floor;
        last = Some((reduction, uncancelled));
        if long_enough {
            break;
        }
    }
    last.expect("at least one size was measured")
}

/// Shared fixture: measured once, reused by the deadline and latency tests.
fn fixture() -> &'static (ForwardReduction, Duration) {
    static FIXTURE: OnceLock<(ForwardReduction, Duration)> = OnceLock::new();
    FIXTURE.get_or_init(|| grow_near_miss(Duration::from_millis(100)))
}

/// Acceptance: on a near-miss workload whose uncancelled runtime is ≥ 10×
/// the budget (20× by construction here), the deadline fires as
/// [`EvalError::DeadlineExceeded`] and the evaluation returns within the
/// documented latency ceiling past the budget.
#[test]
fn deadline_interrupts_a_near_miss_evaluation() {
    let (reduction, uncancelled) = fixture();
    let budget = (*uncancelled / 20).max(Duration::from_millis(2));
    assert!(
        *uncancelled >= 10 * budget,
        "fixture too fast: uncancelled {uncancelled:?} vs budget {budget:?}"
    );
    let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(1));
    let start = Instant::now();
    let deadline = CancellationToken::new().with_budget(budget);
    let result = engine.evaluate_reduction_cancellable(reduction, Some(&deadline));
    let wall = start.elapsed();
    match result {
        Err(EvalError::DeadlineExceeded {
            elapsed,
            budget: reported,
        }) => {
            assert_eq!(reported, budget);
            assert!(
                elapsed >= reported,
                "deadline reported before it elapsed: {elapsed:?} < {reported:?}"
            );
        }
        other => panic!(
            "a {budget:?} deadline on a {uncancelled:?} workload returned {other:?}, \
             expected DeadlineExceeded"
        ),
    }
    assert!(
        wall <= budget + LATENCY_BOUND,
        "deadline latency {wall:?} exceeded budget {budget:?} + bound {LATENCY_BOUND:?}"
    );
}

/// Cancelling from another thread mid-evaluation: signal→return latency is
/// within [`LATENCY_BOUND`], and the result is the typed `Cancelled` error
/// (or the correct answer, if the evaluation happened to finish first).
#[test]
fn external_cancel_returns_within_the_documented_bound() {
    let (reduction, uncancelled) = fixture();
    let token = CancellationToken::new();
    let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(1));
    let (result, latency) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let result = engine.evaluate_reduction_cancellable(reduction, Some(&token));
            (result, Instant::now())
        });
        // Let the evaluation get well into its search before signalling.
        std::thread::sleep((*uncancelled / 4).min(Duration::from_millis(50)));
        let signalled = Instant::now();
        token.cancel();
        let (result, returned) = worker.join().expect("worker does not panic");
        (result, returned.saturating_duration_since(signalled))
    });
    match result {
        Err(EvalError::Cancelled) => {}
        Ok(stats) => assert!(!stats.answer, "near-miss workload answered true"),
        Err(other) => panic!("external cancel surfaced as {other:?}, expected Cancelled"),
    }
    assert!(
        latency <= LATENCY_BOUND,
        "signal→return latency {latency:?} exceeded the documented bound {LATENCY_BOUND:?}"
    );
}

/// A near-miss temporal star grown until its uncancelled evaluation clears
/// `floor`.  All six disjuncts run (by Yannakakis, no tries), so nearly all
/// of the time goes into the workers building the nine transformed
/// relations: an interruption a fraction of the way in lands in a build.
fn grow_build_heavy(floor: Duration) -> (Scenario, Duration) {
    let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(2));
    let mut last = None;
    for tuples in [500usize, 1000, 2000, 4000, 8000] {
        let cfg = ScenarioConfig::new(ScenarioFamily::TemporalOverlap)
            .with_tuples(tuples)
            .with_seed(3)
            .with_planted(PlantedAnswer::NearMiss);
        let scenario = build_scenario(&cfg);
        let start = Instant::now();
        let stats = engine
            .evaluate_cancellable(&scenario.query, &scenario.database, None)
            .expect("uncancelled evaluation succeeds");
        let uncancelled = start.elapsed();
        assert!(!stats.answer, "near-miss scenario must be unsatisfiable");
        assert_eq!(
            stats.reduction.relations_built,
            stats.reduction.num_relations
        );
        let long_enough = uncancelled >= floor;
        last = Some((scenario, uncancelled));
        if long_enough {
            break;
        }
    }
    last.expect("at least one size was measured")
}

fn build_heavy_fixture() -> &'static (Scenario, Duration) {
    static FIXTURE: OnceLock<(Scenario, Duration)> = OnceLock::new();
    FIXTURE.get_or_init(|| grow_build_heavy(Duration::from_millis(100)))
}

/// A deadline that expires while the workers are building transformed
/// relations surfaces as `DeadlineExceeded` within the latency ceiling: the
/// builds poll the pool's token every check interval of source rows.
#[test]
fn deadline_interrupts_worker_side_relation_builds() {
    let (scenario, uncancelled) = build_heavy_fixture();
    let budget = (*uncancelled / 20).max(Duration::from_millis(2));
    let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(2));
    let start = Instant::now();
    let deadline = CancellationToken::new().with_budget(budget);
    let result = engine.evaluate_cancellable(&scenario.query, &scenario.database, Some(&deadline));
    let wall = start.elapsed();
    match result {
        Err(EngineError::Evaluation(EvalError::DeadlineExceeded {
            budget: reported, ..
        })) => assert_eq!(reported, budget),
        other => panic!(
            "a {budget:?} deadline on a {uncancelled:?} workload returned {other:?}, \
             expected DeadlineExceeded"
        ),
    }
    assert!(
        wall <= budget + LATENCY_BOUND,
        "deadline latency {wall:?} exceeded budget {budget:?} + bound {LATENCY_BOUND:?}"
    );
    // Nothing the interrupted builds left behind outlives the evaluation: the
    // same engine, unbounded, answers.
    assert!(!engine
        .evaluate(&scenario.query, &scenario.database)
        .expect("clean evaluation"));
}

/// An external cancel while the workers are building returns `Cancelled`
/// within the latency ceiling.
#[test]
fn external_cancel_interrupts_worker_side_relation_builds() {
    let (scenario, uncancelled) = build_heavy_fixture();
    let token = CancellationToken::new();
    let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(2));
    let (result, latency) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let result =
                engine.evaluate_cancellable(&scenario.query, &scenario.database, Some(&token));
            (result, Instant::now())
        });
        std::thread::sleep((*uncancelled / 4).min(Duration::from_millis(50)));
        let signalled = Instant::now();
        token.cancel();
        let (result, returned) = worker.join().expect("worker does not panic");
        (result, returned.saturating_duration_since(signalled))
    });
    match result {
        Err(EngineError::Evaluation(EvalError::Cancelled)) => {}
        Ok(stats) => assert!(!stats.answer, "near-miss workload answered true"),
        Err(other) => panic!("external cancel surfaced as {other:?}, expected Cancelled"),
    }
    assert!(
        latency <= LATENCY_BOUND,
        "signal→return latency {latency:?} exceeded the documented bound {LATENCY_BOUND:?}"
    );
}

/// The first worker to find a witness cancels the *pool's* token so its
/// siblings drop their speculative builds; the pool token is a child of the
/// caller's, so the caller's token stays usable for the next evaluation.
#[test]
fn a_found_witness_never_cancels_the_callers_token() {
    let cfg = ScenarioConfig::new(ScenarioFamily::TemporalOverlap)
        .with_tuples(300)
        .with_seed(7)
        .with_planted(PlantedAnswer::Natural);
    let scenario = build_scenario(&cfg);
    let token = CancellationToken::new().with_check_interval(16);
    for parallelism in [2usize, 4, 2, 4] {
        let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(parallelism));
        let stats = engine
            .evaluate_cancellable(&scenario.query, &scenario.database, Some(&token))
            .expect("a true disjunct outranks whatever its siblings were interrupted in");
        assert!(stats.answer);
        assert!(
            stats.reduction.relations_built <= stats.reduction.num_relations
                && stats.reduction.relations_built >= 3,
            "{:?}",
            stats.reduction
        );
        assert!(!token.is_cancelled(), "parallelism {parallelism}");
        assert!(token.checkpoint().is_ok());
    }
}

/// The Yannakakis pass polls before each join-tree edge's semijoin.  Each
/// disjunct of `R([A]) & S([A])` has one edge, and on disjoint intervals its
/// semijoin alone decides `false` — so `Cancelled`, not `false`, under a
/// pre-cancelled token says the poll came first and no semijoin ran.
#[test]
fn a_pre_cancelled_token_stops_the_yannakakis_pass_before_a_semijoin() {
    let query = Query::parse("R([A]) & S([A])").expect("valid query");
    let mut db = Database::new();
    db.insert_tuples("R", 1, vec![vec![Value::interval(0.0, 1.0)]]);
    db.insert_tuples("S", 1, vec![vec![Value::interval(5.0, 6.0)]]);
    let cancelled = CancellationToken::new();
    cancelled.cancel();

    let reduction = forward_reduction(&query, &db).expect("forward reduction succeeds");
    assert_eq!(reduction.queries.len(), 2);
    for i in 0..reduction.queries.len() {
        let atoms = disjunct_atoms(&reduction, i, None).expect("built");
        assert_eq!(yannakakis_boolean(&atoms, None), Ok(Some(false)));
        assert_eq!(
            yannakakis_boolean(&atoms, Some(&cancelled)),
            Err(EvalError::Cancelled)
        );
        let eval = EvalContext {
            token: Some(&cancelled),
            ..EvalContext::default()
        };
        assert_eq!(evaluate_ej_boolean(&atoms, eval), Err(EvalError::Cancelled));
    }
    let engine = IntersectionJoinEngine::with_defaults();
    assert!(matches!(
        engine.evaluate_cancellable(&query, &db, Some(&cancelled)),
        Err(EngineError::Evaluation(EvalError::Cancelled))
    ));
    assert!(!engine.evaluate(&query, &db).expect("tokenless evaluation"));
}

/// A cancel landing anywhere in an evaluation of 36 acyclic disjuncts — in a
/// relation build, between two disjuncts, or between two semijoins of a
/// Yannakakis pass — leaves the right answer or the typed error, never the
/// answer of a pass cut short: not on a false instance, where all 36 run, nor
/// on a true one, where a pass that gave up early would read `false`.
#[test]
fn a_cancel_racing_thirty_six_yannakakis_passes_is_correct_or_cancelled() {
    let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(2));
    for planted in [PlantedAnswer::NearMiss, PlantedAnswer::Satisfiable] {
        let cfg = ScenarioConfig::new(ScenarioFamily::IpRanges)
            .with_tuples(if cfg!(debug_assertions) { 8 } else { 24 })
            .with_seed(7)
            .with_planted(planted);
        let scenario = build_scenario(&cfg);
        let expected =
            naive_boolean(&scenario.query, &scenario.database).expect("naive oracle succeeds");
        let start = Instant::now();
        let uncancelled = engine
            .evaluate_cancellable(&scenario.query, &scenario.database, None)
            .expect("uncancelled evaluation succeeds");
        let runtime = start.elapsed();
        assert_eq!(uncancelled.answer, expected, "{planted:?}");
        assert_eq!(uncancelled.answer, planted == PlantedAnswer::Satisfiable);
        assert_eq!(uncancelled.ej_queries_total, 36);
        assert_eq!(
            uncancelled.trie_cache.misses, 0,
            "no disjunct builds a trie"
        );

        // Cancel points spread over the whole evaluation, ends included.
        for step in 0..=8u32 {
            let token = CancellationToken::new();
            let result = std::thread::scope(|scope| {
                let worker = scope.spawn(|| {
                    engine.evaluate_cancellable(&scenario.query, &scenario.database, Some(&token))
                });
                std::thread::sleep(runtime * step / 8);
                token.cancel();
                worker.join().expect("evaluations never panic")
            });
            match result {
                Ok(stats) => assert_eq!(stats.answer, expected, "{planted:?}, step {step}"),
                Err(EngineError::Evaluation(EvalError::Cancelled)) => {}
                Err(other) => panic!("{planted:?}, step {step}: cancel surfaced as {other:?}"),
            }
        }
        assert_eq!(
            engine
                .evaluate(&scenario.query, &scenario.database)
                .expect("clean evaluation after the races"),
            expected
        );
    }
}

fn is_std_error<E: std::error::Error + Send + 'static>() {}

/// The whole taxonomy composes as `std::error::Error` values (the engine's
/// `source()` chains are covered by its unit tests).
#[test]
fn error_taxonomy_implements_std_error() {
    is_std_error::<EvalError>();
    is_std_error::<EngineError>();
    is_std_error::<ij_engine::NaiveError>();
    is_std_error::<ij_segtree::IntervalError>();
    is_std_error::<ij_reduction::ReductionError>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 6 } else { 16 }
    ))]

    /// Cancels at a random point while two engines evaluate concurrently
    /// over one shared workspace cache.  Every evaluation is
    /// correct-or-`Cancelled`, abandoned builds leak no accounting, and the
    /// workspace stays fully usable afterwards.
    #[test]
    fn random_cancellation_races_are_correct_or_cancelled(
        delay_us in 0u64..3_000,
        seed in 0u64..64,
    ) {
        let cfg = ScenarioConfig::new(ScenarioFamily::SpatialRectangles)
            .with_tuples(16)
            .with_seed(seed)
            .with_planted(PlantedAnswer::Natural);
        let scenario = build_scenario(&cfg);
        let expected = naive_boolean(&scenario.query, &scenario.database)
            .expect("naive oracle succeeds");

        let ws = Workspace::new();
        let db = ws.import_database(&scenario.database);
        let token = CancellationToken::new().with_check_interval(64);
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (ws, db, query, token) = (&ws, &db, &scenario.query, &token);
                    scope.spawn(move || {
                        ws.engine(EngineConfig::new().with_parallelism(2))
                            .evaluate_cancellable(query, db, Some(token))
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_micros(delay_us));
            token.cancel();
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluations never panic"))
                .collect::<Vec<_>>()
        });
        for result in results {
            match result {
                Ok(stats) => prop_assert_eq!(stats.answer, expected),
                Err(EngineError::Evaluation(EvalError::Cancelled)) => {}
                Err(other) => prop_assert!(false, "unexpected error: {:?}", other),
            }
        }

        // Conservation under abandonment: in debug builds this snapshot
        // asserts that the resident bytes are exactly the sum of the
        // resident slots — nothing leaked mid-build.
        let pool = ws.trie_cache_stats();
        prop_assert_eq!(pool.entries == 0, pool.resident_bytes == 0, "{:?}", pool);

        // The workspace survives the interruption: a clean run is correct
        // and a warm repeat serves entirely from the shared cache.
        let engine = ws.engine(EngineConfig::new().with_parallelism(1));
        let clean = engine
            .evaluate_cancellable(&scenario.query, &db, None)
            .expect("clean evaluation after cancellation succeeds");
        prop_assert_eq!(clean.answer, expected);
        let warm = engine
            .evaluate_cancellable(&scenario.query, &db, None)
            .expect("warm evaluation succeeds");
        prop_assert_eq!(warm.answer, expected);
        prop_assert_eq!(warm.trie_cache.misses, 0);
    }
}
