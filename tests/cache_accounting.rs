//! Acceptance tests for the trie ledgers under concurrency:
//!
//! * per-evaluation `EvaluationStats::trie_cache` must be **exact** when
//!   evaluations run concurrently over one shared reduction — a warm
//!   evaluation never reports a concurrent neighbor's misses, each
//!   evaluation makes as many lookups as the same evaluation alone, and an
//!   evaluation of another reduction reports what it reports alone;
//! * evaluations cancelled mid-flight leak nothing into the ledgers: a
//!   finished evaluation built one trie per miss, and a warm re-run of the
//!   interrupted reduction stays warm;
//! * a warm re-evaluation of a cyclic query makes no miss, whether its bags
//!   bind their atoms' relations whole or memoised projections of them.
//!
//! Run in `--release` too (see the CI test job): the optimized lock paths
//! are where attribution races would actually surface.

use ij_engine::{EngineConfig, EvaluationStats, Workspace};
use ij_reduction::{plan_forward_reduction, ForwardReduction, ReductionConfig};
use ij_relation::{Database, Query};
use ij_workloads::{
    generate_for_query, planted_unsatisfiable, IntervalDistribution, WorkloadConfig,
};

fn triangle() -> Query {
    Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap()
}

fn workload(seed: u64, tuples: usize) -> Database {
    generate_for_query(
        &triangle(),
        &WorkloadConfig {
            tuples_per_relation: tuples,
            seed,
            distribution: IntervalDistribution::Uniform {
                span: 120.0,
                max_len: 25.0,
            },
        },
    )
}

/// A planted-unsatisfiable workload: the false answer forces a full pass
/// over every disjunct, so each evaluation makes every lookup (early exit
/// would otherwise let small satisfiable databases stop short).
fn planted(seed: u64, tuples: usize) -> Database {
    planted_unsatisfiable(
        &triangle(),
        &WorkloadConfig {
            tuples_per_relation: tuples,
            seed,
            distribution: IntervalDistribution::GridAligned {
                span: 4.0 * tuples as f64,
                cells: (2 * tuples) as u32,
                max_cells: 3,
            },
        },
    )
}

/// The reduction `evaluate` runs, planned once so that it can be kept.
fn plan(query: &Query, db: &Database) -> ForwardReduction {
    plan_forward_reduction(query, db, ReductionConfig::default(), None).unwrap()
}

/// A finished evaluation's ledger is whole: every miss built one trie, and
/// the built bytes are there exactly when a trie was built.
fn assert_whole(stats: &EvaluationStats, what: &str) {
    let tries = stats.trie_cache;
    assert_eq!(tries.entries, tries.misses, "{what}: {tries:?}");
    assert_eq!(
        tries.entries == 0,
        tries.resident_bytes == 0,
        "{what}: {tries:?}"
    );
    assert_eq!(tries.evictions, 0, "{what}: {tries:?}");
}

/// Concurrent evaluations of one shared reduction report exact
/// per-evaluation statistics: two threads evaluate one fresh kept reduction
/// — racing to build its tries on the first pass, finding them all built
/// after — while a noisy thread streams reductions of *distinct* databases
/// (misses) beside them.  Every evaluation of the shared reduction makes
/// exactly the lookups and plans of that evaluation alone, every pass after
/// a thread's first reports zero misses, and the first passes between them
/// build each trie at least once and at most twice; every noisy evaluation
/// reports exactly what it reports alone.
#[test]
fn concurrent_evaluations_report_exact_per_evaluation_stats() {
    let query = triangle();
    let ws = Workspace::new();
    let shared_db = ws.import_database(&workload(1, 10));
    let config = EngineConfig::new().with_parallelism(1);
    let alone = ws
        .engine(config)
        .evaluate_reduction(&plan(&query, &shared_db))
        .unwrap();
    assert!(alone.trie_cache.misses > 0, "a cold pass must build");
    let lookups = alone.trie_cache.hits + alone.trie_cache.misses;
    let shared = plan(&query, &shared_db);
    let noisy_dbs: Vec<Database> = (0..8)
        .map(|i| ws.import_database(&workload(100 + i, 10)))
        .collect();

    const ROUNDS: usize = 8;
    let (shared_stats, noisy_stats) = std::thread::scope(|scope| {
        let evaluators: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let engine = ws.engine(config);
                    (0..ROUNDS)
                        .map(|_| engine.evaluate_reduction(&shared).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let noisy = scope.spawn(|| {
            (noisy_dbs.iter())
                .map(|db| {
                    ws.engine(config)
                        .evaluate_cancellable(&query, db, None)
                        .unwrap()
                })
                .collect::<Vec<_>>()
        });
        let shared_stats: Vec<Vec<EvaluationStats>> = (evaluators.into_iter())
            .map(|h| h.join().unwrap())
            .collect();
        (shared_stats, noisy.join().unwrap())
    });

    let mut first_misses = 0;
    for (t, rounds) in shared_stats.iter().enumerate() {
        for (i, stats) in rounds.iter().enumerate() {
            let what = format!("thread {t}, evaluation {i}");
            assert_eq!(stats.answer, alone.answer, "{what}");
            assert_whole(stats, &what);
            assert_eq!(
                stats.trie_cache.hits + stats.trie_cache.misses,
                lookups,
                "{what} counted a neighbor's lookups or lost its own: {:?}",
                stats.trie_cache
            );
            assert_eq!(
                stats.disjuncts_planned, alone.disjuncts_planned,
                "{what} planned a neighbor's joins or lost its own"
            );
            if i == 0 {
                first_misses += stats.trie_cache.misses;
            } else {
                assert_eq!(
                    stats.trie_cache.misses, 0,
                    "{what} stole a neighbor's misses: {:?}",
                    stats.trie_cache
                );
            }
        }
    }
    assert!(
        (alone.trie_cache.misses..=2 * alone.trie_cache.misses).contains(&first_misses),
        "two racing first passes built {first_misses} tries of {}",
        alone.trie_cache.misses
    );
    // The noisy evaluations really did miss concurrently, and each reports
    // exactly its own activity.
    for (db, stats) in noisy_dbs.iter().zip(&noisy_stats) {
        assert!(stats.trie_cache.misses > 0, "the noisy thread must build");
        let solo = ws
            .engine(config)
            .evaluate_cancellable(&query, db, None)
            .unwrap();
        assert_eq!(stats.trie_cache, solo.trie_cache);
        assert_eq!(stats.disjuncts_planned, solo.disjuncts_planned);
    }
}

/// Cancellation never breaks the accounting: evaluations of two kept
/// reductions interrupted mid-flight — during trie builds included — leave
/// nothing half-published, so a clean re-run of each reduction builds one
/// trie per miss and a second clean run reports zero misses.
#[test]
fn cancelled_evaluations_leave_ledgers_exact() {
    use ij_engine::{CancellationToken, EvalError};

    let query = triangle();
    for delay_us in [0u64, 50, 200, 800, 3_000] {
        let ws = Workspace::new();
        let plans: Vec<_> = (0..2)
            .map(|i| plan(&query, &ws.import_database(&planted(i, 12))))
            .collect();
        let token = CancellationToken::new().with_check_interval(32);
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .map(|reduction| {
                    let (ws, token) = (&ws, &token);
                    scope.spawn(move || {
                        ws.engine(EngineConfig::new().with_parallelism(2))
                            .evaluate_reduction_cancellable(reduction, Some(token))
                    })
                })
                .collect();
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            token.cancel();
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluations never panic"))
                .collect::<Vec<_>>()
        });
        for result in results {
            match result {
                Ok(stats) => {
                    assert!(!stats.answer, "planted-unsatisfiable workload");
                    assert_whole(&stats, "uncancelled");
                }
                Err(EvalError::Cancelled) => {}
                Err(other) => panic!("unexpected error at delay {delay_us}µs: {other:?}"),
            }
        }

        // Warm exactness survives the interruption: a clean run finishes
        // the builds, then the repeat reports zero misses of its own and
        // finds every trie the clean run looked up.
        let engine = ws.engine(EngineConfig::new().with_parallelism(1));
        for reduction in &plans {
            let clean = engine.evaluate_reduction(reduction).unwrap();
            assert!(!clean.answer);
            assert_whole(&clean, "clean re-run");
            let again = engine.evaluate_reduction(reduction).unwrap();
            assert_eq!(
                again.trie_cache.misses, 0,
                "warm re-run rebuilt after cancellation at delay {delay_us}µs: {:?}",
                again.trie_cache
            );
            assert_eq!(
                again.trie_cache.hits,
                clean.trie_cache.hits + clean.trie_cache.misses
            );
        }
    }
}

/// A warm evaluation of a kept reduction is served by the memos alone,
/// whether its bags keep
/// every column of their atoms (the triangle: one bag binding the memoised
/// singleton-variable projections as they are) or drop some (the 4-cycle:
/// each bag binds memoised projections of those projections).  With two
/// workers the first evaluation also races the first insert of each nested
/// projection; the second reports no misses and as many hits as the first
/// made lookups, with the same answer.
#[test]
fn warm_bag_evaluations_are_served_from_the_cache_alone() {
    let four_cycle = Query::parse("R([A],[B]) & S([B],[C]) & T([C],[D]) & U([D],[A])").unwrap();
    for query in [triangle(), four_cycle] {
        let ws = Workspace::new();
        let db = ws.import_database(&planted_unsatisfiable(
            &query,
            &WorkloadConfig {
                tuples_per_relation: 10,
                seed: 3,
                ..WorkloadConfig::default()
            },
        ));
        let engine = ws.engine(EngineConfig::new().with_parallelism(2));
        let reduction = plan(&query, &db);
        let cold = engine.evaluate_reduction(&reduction).unwrap();
        let warm = engine.evaluate_reduction(&reduction).unwrap();
        assert!(
            !cold.answer && !warm.answer,
            "{query}: planted unsatisfiable"
        );
        assert_eq!(
            cold.ej_queries_evaluated, warm.ej_queries_evaluated,
            "{query}"
        );
        assert!(cold.trie_cache.misses > 0, "{query}: the first pass builds");
        assert_eq!(warm.trie_cache.misses, 0, "{query}: {:?}", warm.trie_cache);
        assert_eq!(
            warm.trie_cache.hits,
            cold.trie_cache.hits + cold.trie_cache.misses,
            "{query}"
        );
    }
}
