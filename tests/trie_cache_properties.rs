//! Property tests for the shared trie cache: on random interval workloads,
//! cached-trie evaluation must be indistinguishable from rebuild-per-disjunct
//! evaluation, at every parallelism setting, and must agree with the naive
//! reference evaluator.

use ij_engine::{
    naive_boolean, EngineConfig, IntersectionJoinEngine, Workspace, DEFAULT_TRIE_CACHE_BYTES,
};
use ij_relation::{Database, Query, Value};
use proptest::prelude::*;

/// A random interval over a small integer domain (ties and overlaps likely).
fn arb_interval() -> impl Strategy<Value = Value> {
    (0i32..14, 0i32..5).prop_map(|(lo, len)| Value::interval(lo as f64, (lo + len) as f64))
}

/// Random rows of interval pairs.
fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(Value, Value)>> {
    proptest::collection::vec((arb_interval(), arb_interval()), 1..=max)
}

/// An engine with its own trie cache of `bytes` (none at `0`).
fn engine_with(parallelism: usize, bytes: usize) -> IntersectionJoinEngine {
    Workspace::with_trie_cache_bytes(bytes)
        .engine(EngineConfig::new().with_parallelism(parallelism))
}

fn db_of(rows: [(&str, &Vec<(Value, Value)>); 3]) -> Database {
    let mut db = Database::new();
    for (name, rows) in rows {
        db.insert_tuples(name, 2, rows.iter().map(|&(a, b)| vec![a, b]).collect());
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached-trie evaluation ≡ rebuild-per-disjunct evaluation on random
    /// triangle workloads (the E1 cyclic query), across parallelism
    /// settings, and both agree with the naive oracle.
    #[test]
    fn cached_evaluation_matches_rebuild_per_disjunct(
        r in arb_rows(6),
        s in arb_rows(6),
        t in arb_rows(6),
    ) {
        let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let db = db_of([("R", &r), ("S", &s), ("T", &t)]);
        let expected = naive_boolean(&query, &db).unwrap();
        for parallelism in [1usize, 2] {
            for bytes in [0, DEFAULT_TRIE_CACHE_BYTES] {
                let engine = engine_with(parallelism, bytes);
                prop_assert_eq!(
                    engine.evaluate(&query, &db).unwrap(),
                    expected,
                    "parallelism {}, {} cache bytes",
                    parallelism, bytes
                );
            }
        }
    }

    /// Persistent-cache equivalence: one long-lived engine evaluating a
    /// *sequence* of random databases — its cache surviving (and, at tiny
    /// budgets, evicting) across evaluations — must answer every query
    /// exactly like a cold engine created fresh for that database, like the
    /// unbudgeted run and like the naive oracle, and never keep more than
    /// its budget resident.  Exercises cross-evaluation reuse, LRU eviction
    /// and the disabled-cache path side by side.
    #[test]
    fn persistent_cache_eviction_never_changes_answers(
        dbs in proptest::collection::vec((arb_rows(5), arb_rows(5), arb_rows(5)), 2..=4),
        budget_choice in 0usize..4,
    ) {
        let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let dbs: Vec<Database> = dbs
            .iter()
            .map(|(r, s, t)| db_of([("R", r), ("S", s), ("T", t)]))
            .collect();
        // The unbudgeted run: the reference answers, and one trie's bytes
        // (its resident footprint over its entries) to size the budgets.
        let free = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(1));
        let unbudgeted: Vec<bool> = dbs.iter().map(|db| free.evaluate(&query, db).unwrap()).collect();
        let footprint = free.trie_cache_stats();
        prop_assert!(footprint.entries > 0, "non-empty databases must leave tries resident");
        prop_assert_eq!(footprint.evictions, 0);
        let one_trie = footprint.resident_bytes / footprint.entries;
        let budget = [one_trie, 2 * one_trie, 3 * one_trie, DEFAULT_TRIE_CACHE_BYTES][budget_choice];
        let warm = engine_with(1, budget);
        let uncached = engine_with(1, 0);
        for (db, &free_answer) in dbs.iter().zip(&unbudgeted) {
            let expected = naive_boolean(&query, db).unwrap();
            prop_assert_eq!(free_answer, expected, "unbudgeted");
            let cold = engine_with(1, budget);
            prop_assert_eq!(warm.evaluate(&query, db).unwrap(), expected, "warm, budget {}", budget);
            prop_assert_eq!(cold.evaluate(&query, db).unwrap(), expected, "cold, budget {}", budget);
            prop_assert_eq!(uncached.evaluate(&query, db).unwrap(), expected, "uncached");
            // Re-evaluating the same database warm must also agree (the
            // second pass is served mostly from the persistent cache).
            prop_assert_eq!(warm.evaluate(&query, db).unwrap(), expected, "warm repeat");
            let resident = warm.trie_cache_stats().resident_bytes;
            prop_assert!(resident <= budget, "resident {} exceeds budget {}", resident, budget);
        }
    }

    /// The same equivalence on an acyclic (path) query, which exercises the
    /// Yannakakis branch next to the trie-building ones.
    #[test]
    fn cached_evaluation_matches_on_acyclic_queries(
        r in arb_rows(6),
        s in arb_rows(6),
        t in arb_rows(6),
    ) {
        let query = Query::parse("R([A],[B]) & S([B],[C]) & T([C],[D])").unwrap();
        let db = db_of([("R", &r), ("S", &s), ("T", &t)]);
        let expected = naive_boolean(&query, &db).unwrap();
        for bytes in [0, DEFAULT_TRIE_CACHE_BYTES] {
            let engine = engine_with(0, bytes);
            prop_assert_eq!(engine.evaluate(&query, &db).unwrap(), expected);
        }
    }
}

/// Deterministic (non-property) check that the cache is actually exercised:
/// a disjunction with shared atoms must record hits, and the hit-serving
/// evaluation must report the same answer and disjunct counts as the
/// rebuilding one.
#[test]
fn cache_hits_are_recorded_and_answer_preserving() {
    let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
    let iv = |lo: f64, hi: f64| Value::interval(lo, hi);
    let mut db = Database::new();
    // Planted unsatisfiable: pairwise overlaps exist but no triple does.
    db.insert_tuples("R", 2, vec![vec![iv(0.0, 2.0), iv(10.0, 12.0)]]);
    db.insert_tuples("S", 2, vec![vec![iv(11.0, 13.0), iv(20.0, 22.0)]]);
    db.insert_tuples("T", 2, vec![vec![iv(1.0, 3.0), iv(30.0, 31.0)]]);

    let shared = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(1));
    let rebuild = engine_with(1, 0);
    let shared_stats = shared.evaluate_cancellable(&query, &db, None).unwrap();
    let rebuild_stats = rebuild.evaluate_cancellable(&query, &db, None).unwrap();
    assert!(!shared_stats.answer);
    assert_eq!(shared_stats.answer, rebuild_stats.answer);
    assert_eq!(
        shared_stats.ej_queries_evaluated,
        rebuild_stats.ej_queries_evaluated
    );
    assert!(
        shared_stats.trie_cache.hits > 0,
        "{:?}",
        shared_stats.trie_cache
    );
    assert_eq!(rebuild_stats.trie_cache.hits, 0);
    assert_eq!(rebuild_stats.trie_cache.entries, 0);

    // The cache persists across evaluations: a second evaluation of the same
    // database is served entirely from the warmed cache (no new misses), and
    // its per-evaluation stats report only that evaluation's activity.
    let warm_stats = shared.evaluate_cancellable(&query, &db, None).unwrap();
    assert_eq!(warm_stats.answer, shared_stats.answer);
    assert_eq!(
        warm_stats.trie_cache.misses, 0,
        "{:?}",
        warm_stats.trie_cache
    );
    assert!(warm_stats.trie_cache.hits > 0);
    assert_eq!(
        shared.trie_cache_stats().misses,
        shared_stats.trie_cache.misses,
        "cumulative misses must not grow on the warm pass"
    );
}

/// Two evaluations of one reduction reach the cache with the same relations:
/// the projected atoms are derived once per reduction, fingerprints included,
/// so every lookup of the second evaluation — as many as the first made — is
/// a hit.
#[test]
fn a_second_evaluation_of_one_reduction_only_hits() {
    let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
    let iv = |lo: f64, hi: f64| Value::interval(lo, hi);
    let mut db = Database::new();
    // Pairwise overlaps but no triple: all eight disjuncts run.
    db.insert_tuples("R", 2, vec![vec![iv(0.0, 2.0), iv(10.0, 12.0)]]);
    db.insert_tuples("S", 2, vec![vec![iv(11.0, 13.0), iv(20.0, 22.0)]]);
    db.insert_tuples("T", 2, vec![vec![iv(1.0, 3.0), iv(30.0, 31.0)]]);
    let reduction = ij_reduction::forward_reduction(&query, &db).unwrap();
    for parallelism in [1usize, 2] {
        let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(parallelism));
        let first = engine.evaluate_reduction(&reduction).unwrap();
        let second = engine.evaluate_reduction(&reduction).unwrap();
        assert!(!first.answer && !second.answer);
        assert_eq!(first.ej_queries_evaluated, 8);
        assert!(first.trie_cache.misses > 0, "{:?}", first.trie_cache);
        assert_eq!(second.trie_cache.misses, 0, "{:?}", second.trie_cache);
        assert_eq!(
            second.trie_cache.hits,
            first.trie_cache.hits + first.trie_cache.misses,
            "parallelism {parallelism}"
        );
    }
}

/// A persistent cache with room for one trie must evict (and count
/// evictions) while still answering correctly — eviction only ever costs
/// rebuilds, never answers.
#[test]
fn tiny_persistent_cache_counts_evictions() {
    let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
    let iv = |lo: f64, hi: f64| Value::interval(lo, hi);
    let mut db = Database::new();
    db.insert_tuples("R", 2, vec![vec![iv(0.0, 2.0), iv(10.0, 12.0)]]);
    db.insert_tuples("S", 2, vec![vec![iv(11.0, 13.0), iv(20.0, 22.0)]]);
    db.insert_tuples("T", 2, vec![vec![iv(1.0, 3.0), iv(30.0, 31.0)]]);
    let reference = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(1));
    let reference_stats = reference.evaluate_cancellable(&query, &db, None).unwrap();
    assert_eq!(reference_stats.trie_cache.evictions, 0);
    let one_trie = reference_stats.trie_cache.resident_bytes / reference_stats.trie_cache.entries;
    let tiny = engine_with(1, one_trie);
    let tiny_stats = tiny.evaluate_cancellable(&query, &db, None).unwrap();
    assert_eq!(tiny_stats.answer, reference_stats.answer);
    assert!(
        tiny_stats.trie_cache.evictions > 0,
        "a one-trie cache under a multi-relation disjunction must evict: {:?}",
        tiny_stats.trie_cache
    );
    assert!(tiny_stats.trie_cache.resident_bytes <= one_trie);
}
