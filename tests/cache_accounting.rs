//! Acceptance tests for the trie cache's accounting under concurrency:
//!
//! * per-evaluation `EvaluationStats::trie_cache` must be **exact** when
//!   evaluations run concurrently against one shared workspace cache — a
//!   warm evaluation never reports a concurrent neighbor's misses, and the
//!   per-evaluation lookups sum to the cache's cumulative counters;
//! * evaluations cancelled mid-flight leak no accounting: the cache's
//!   resident bytes stay exactly the sum of its resident entries (audited by
//!   `TrieCache::stats()` in debug builds) and warm re-runs stay warm;
//! * a warm re-evaluation of a cyclic query makes no miss, whether its bags
//!   bind their atoms' relations whole or memoised projections of them.
//!
//! Run in `--release` too (see the CI test job): the optimized lock paths
//! are where attribution races would actually surface.

use ij_engine::{EngineConfig, Workspace};
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
/// over every disjunct, so each database leaves its full trie footprint in
/// the cache (early exit would otherwise let small satisfiable databases
/// under-fill it).
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

/// Concurrent evaluations sharing one workspace cache report exact
/// per-evaluation statistics: the warm thread re-evaluates a cached
/// reduction while the noisy thread streams *distinct* databases (misses)
/// through the same cache — and every warm evaluation still reports zero
/// misses, because its counters are accumulated locally rather than
/// snapshotted off the shared cache.
#[test]
fn concurrent_evaluations_report_exact_per_evaluation_stats() {
    let query = triangle();
    let ws = Workspace::new();
    let warm_db = ws.import_database(&workload(1, 10));
    let primer = ws.engine(EngineConfig::new().with_parallelism(1));
    let primed = primer.evaluate_cancellable(&query, &warm_db, None).unwrap();
    assert!(primed.trie_cache.misses > 0, "priming pass must build");
    let baseline = ws.trie_cache_stats();

    const ROUNDS: usize = 8;
    let (warm_stats, noisy_stats) = std::thread::scope(|scope| {
        let warm = scope.spawn(|| {
            let engine = ws.engine(EngineConfig::new().with_parallelism(1));
            (0..ROUNDS)
                .map(|_| engine.evaluate_cancellable(&query, &warm_db, None).unwrap())
                .collect::<Vec<_>>()
        });
        let noisy = scope.spawn(|| {
            (0..ROUNDS)
                .map(|i| {
                    let db = ws.import_database(&workload(100 + i as u64, 10));
                    ws.engine(EngineConfig::new().with_parallelism(1))
                        .evaluate_cancellable(&query, &db, None)
                        .unwrap()
                })
                .collect::<Vec<_>>()
        });
        (warm.join().unwrap(), noisy.join().unwrap())
    });

    // Exactness: a warm evaluation never reports a neighbor's misses, no
    // matter how the two threads interleave.
    for (i, stats) in warm_stats.iter().enumerate() {
        assert_eq!(
            stats.trie_cache.misses, 0,
            "warm evaluation {i} stole a neighbor's misses: {:?}",
            stats.trie_cache
        );
        assert!(stats.trie_cache.hits > 0, "warm evaluation {i} must hit");
    }
    // The noisy evaluations really did miss concurrently (the scenario the
    // old snapshot-delta reporting misattributed).
    let noisy_misses: usize = noisy_stats.iter().map(|s| s.trie_cache.misses).sum();
    assert!(noisy_misses > 0, "noisy thread must have built tries");

    // Conservation: the per-evaluation counters sum exactly to the cache's
    // cumulative counters — nothing double-counted, nothing dropped.
    let local_lookups: usize = warm_stats
        .iter()
        .chain(&noisy_stats)
        .map(|s| s.trie_cache.hits + s.trie_cache.misses)
        .sum();
    let total = ws.trie_cache_stats();
    assert_eq!(
        (total.hits + total.misses) - (baseline.hits + baseline.misses),
        local_lookups,
        "per-evaluation lookups must sum to the cache's cumulative counters"
    );
}

/// Cancellation never breaks the accounting: evaluations interrupted
/// mid-flight — during trie builds included — leave the cache's resident
/// bytes exactly the sum of its resident entries, and a subsequent warm
/// evaluation still reports zero misses.
#[test]
fn cancelled_evaluations_leave_ledgers_exact() {
    use ij_engine::{CancellationToken, EvalError};

    let query = triangle();
    for delay_us in [0u64, 50, 200, 800, 3_000] {
        let ws = Workspace::new();
        let dbs: Vec<_> = (0..2)
            .map(|i| ws.import_database(&planted(i, 12)))
            .collect();
        let token = CancellationToken::new().with_check_interval(32);
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = dbs
                .iter()
                .map(|db| {
                    let (ws, query, token) = (&ws, &query, &token);
                    scope.spawn(move || {
                        ws.engine(EngineConfig::new().with_parallelism(2))
                            .evaluate_cancellable(query, db, Some(token))
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
                Ok(stats) => assert!(!stats.answer, "planted-unsatisfiable workload"),
                Err(ij_engine::EngineError::Evaluation(EvalError::Cancelled)) => {}
                Err(other) => panic!("unexpected error at delay {delay_us}µs: {other:?}"),
            }
        }

        // Conservation: abandoned builds leak no accounting — in debug
        // builds this snapshot asserts that the resident bytes are exactly
        // the sum of the resident slots.
        let pool = ws.trie_cache_stats();
        assert_eq!(pool.entries == 0, pool.resident_bytes == 0, "{pool:?}");

        // Warm exactness survives the interruption: prime once, then the
        // repeat reports zero misses of its own.
        let engine = ws.engine(EngineConfig::new().with_parallelism(1));
        let primed = engine.evaluate_cancellable(&query, &dbs[1], None).unwrap();
        assert!(!primed.answer);
        let again = engine.evaluate_cancellable(&query, &dbs[1], None).unwrap();
        assert_eq!(
            again.trie_cache.misses, 0,
            "warm re-run rebuilt after cancellation at delay {delay_us}µs: {:?}",
            again.trie_cache
        );
    }
}

/// A warm evaluation is served by the cache alone, whether its bags keep
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
        let cold = engine.evaluate_cancellable(&query, &db, None).unwrap();
        let warm = engine.evaluate_cancellable(&query, &db, None).unwrap();
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
