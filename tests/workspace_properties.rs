//! Property and acceptance tests for the `Workspace` layer:
//! workspace-scoped evaluation must be answer-identical to the process-global
//! path, per-database workspaces must bound interned residency (dropping a
//! workspace returns the dictionary to baseline), a single long-lived
//! workspace must preserve cross-evaluation cache warmth, and the trie
//! cache's byte budget must be enforced with LRU evictions.

use ij_engine::{EngineConfig, IntersectionJoinEngine, Workspace};
use ij_relation::{Database, Dictionary, Query, Value};
use ij_workloads::{generate_for_query, IntervalDistribution, WorkloadConfig};
use proptest::prelude::*;

/// Serializes the tests of this file: they assert that scoped work leaves
/// `Dictionary::shared_len()` unchanged, which would race against a
/// concurrently running sibling test interning workload values globally.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

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

/// A random interval over a small integer domain (ties and overlaps likely).
fn arb_interval() -> impl Strategy<Value = Value> {
    (0i32..14, 0i32..5).prop_map(|(lo, len)| Value::interval(lo as f64, (lo + len) as f64))
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(Value, Value)>> {
    proptest::collection::vec((arb_interval(), arb_interval()), 1..=max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two sequentially-created workspaces evaluating the same query and
    /// database produce the same answer as the process-global path, and the
    /// second workspace's dictionary starts from the empty baseline after
    /// the first workspace drops — scoped interning leaks into neither the
    /// global store nor later workspaces.
    #[test]
    fn sequential_workspaces_agree_with_the_global_path(
        r in arb_rows(6),
        s in arb_rows(6),
        t in arb_rows(6),
    ) {
        let _serial = serial();
        let query = triangle();
        let mut global_db = Database::new();
        for (name, rows) in [("R", &r), ("S", &s), ("T", &t)] {
            global_db.insert_tuples(name, 2, rows.iter().map(|&(a, b)| vec![a, b]).collect());
        }
        let expected = IntersectionJoinEngine::with_defaults()
            .evaluate(&query, &global_db)
            .unwrap();

        // Sequential workers make the early-exit point — and hence the
        // placeholder interning of the enumerate path — deterministic, so
        // both workspaces end at the same residency.
        let config = EngineConfig::new().with_parallelism(1);
        let first = Workspace::new();
        let db = first.import_database(&global_db);
        let global_before = Dictionary::shared_len();
        prop_assert_eq!(
            first.engine(config).evaluate(&query, &db).unwrap(),
            expected
        );
        let first_residency = first.dictionary_len();
        prop_assert!(first_residency > 0);
        // Scoped evaluation interned nothing globally.
        prop_assert_eq!(Dictionary::shared_len(), global_before);
        drop(db);
        drop(first);

        // After the first workspace drops, a sequentially-created second
        // workspace starts at the empty baseline and reproduces the answer.
        let second = Workspace::new();
        prop_assert_eq!(second.dictionary_len(), 0);
        let db = second.import_database(&global_db);
        prop_assert_eq!(
            second.engine(config).evaluate(&query, &db).unwrap(),
            expected
        );
        prop_assert_eq!(second.dictionary_len(), first_residency);
        prop_assert_eq!(Dictionary::shared_len(), global_before);
    }
}

/// Evaluating a sequence of distinct databases in per-database workspaces
/// keeps peak dictionary residency bounded: each workspace holds only its own
/// database's values (position in the sequence is irrelevant), the global
/// dictionary sees none of them, and dropping a workspace releases its
/// residency (a fresh workspace is back at the empty baseline).
#[test]
fn per_database_workspaces_bound_dictionary_residency() {
    let _serial = serial();
    let query = triangle();
    // Generate the (globally interned) source databases *before* snapshotting
    // the global dictionary: only the scoped work below must leave it alone.
    let sources: Vec<Database> = (0..6).map(|seed| workload(seed, 10)).collect();
    let residency_of = |source: &Database| {
        let ws = Workspace::new();
        let db = ws.import_database(source);
        let engine = ws.engine(EngineConfig::new().with_parallelism(1));
        let _ = engine.evaluate(&query, &db).unwrap();
        ws.dictionary_len()
    };
    let global_before = Dictionary::shared_len();
    let first_pass: Vec<usize> = sources.iter().map(residency_of).collect();
    let peak = *first_pass.iter().max().unwrap();
    assert!(peak > 0);
    // The global dictionary is untouched by any number of scoped databases…
    assert_eq!(Dictionary::shared_len(), global_before);
    // …and residency is a per-database property, not a function of how many
    // databases were evaluated before: replaying the sequence reproduces the
    // same per-workspace residencies (the process-global path would instead
    // accrete every distinct database's values).
    let second_pass: Vec<usize> = sources.iter().map(residency_of).collect();
    assert_eq!(first_pass, second_pass);
    assert_eq!(Dictionary::shared_len(), global_before);
}

/// A single long-lived workspace preserves the cross-evaluation cache-hit
/// behaviour of the per-engine persistent cache: a warm repeat evaluation
/// reports zero misses — including from an engine constructed *after* the
/// cache was warmed.
#[test]
fn single_workspace_preserves_cross_evaluation_warmth() {
    let _serial = serial();
    let query = triangle();
    let ws = Workspace::new();
    let db = ws.import_database(&workload(7, 10));
    let engine = ws.engine(EngineConfig::new().with_parallelism(1));
    let cold = engine.evaluate_cancellable(&query, &db, None).unwrap();
    assert!(cold.trie_cache.misses > 0);
    let warm = engine.evaluate_cancellable(&query, &db, None).unwrap();
    assert_eq!(warm.answer, cold.answer);
    assert_eq!(warm.trie_cache.misses, 0, "{:?}", warm.trie_cache);
    assert!(warm.trie_cache.hits > 0);
    // A per-request engine built now — after the warm-up — starts warm too.
    let fresh = ws.engine(EngineConfig::new().with_parallelism(1));
    let warm_fresh = fresh.evaluate_cancellable(&query, &db, None).unwrap();
    assert_eq!(
        warm_fresh.trie_cache.misses, 0,
        "{:?}",
        warm_fresh.trie_cache
    );
    assert!(warm_fresh.trie_cache.hits > 0);
}

/// The trie cache's byte budget is enforced: a sequence of distinct
/// databases inserts more trie bytes than the budget admits, evictions are
/// observed, and the resident-bytes stat never exceeds the budget.
#[test]
fn trie_cache_byte_budget_is_enforced_with_evictions() {
    let _serial = serial();
    let query = triangle();
    // Measure the resident footprint of one database's tries on an
    // unbounded workspace, then budget for about two databases and insert
    // six distinct ones.
    let probe = Workspace::new();
    let db = probe.import_database(&workload(0, 10));
    let _ = probe
        .engine(EngineConfig::new().with_parallelism(1))
        .evaluate(&query, &db)
        .unwrap();
    let per_db = probe.trie_cache_stats().resident_bytes;
    assert!(per_db > 0);

    let budget = 2 * per_db;
    let ws = Workspace::with_trie_cache_bytes(budget);
    for seed in 0..6 {
        let db = ws.import_database(&workload(seed, 10));
        let engine = ws.engine(EngineConfig::new().with_parallelism(1));
        let _ = engine.evaluate(&query, &db).unwrap();
        let stats = ws.trie_cache_stats();
        assert!(
            stats.resident_bytes <= budget,
            "resident {} exceeds budget {budget}",
            stats.resident_bytes
        );
    }
    let stats = ws.trie_cache_stats();
    assert!(stats.evictions > 0, "expected evictions, got {stats:?}");
    assert!(stats.resident_bytes <= budget);
    // The byte budget bounds memory, never correctness: answers above were
    // all computed through the evicting cache and the engine still answers
    // a repeat query correctly.
    let db = ws.import_database(&workload(0, 10));
    let engine = ws.engine(EngineConfig::new().with_parallelism(1));
    assert_eq!(
        engine.evaluate(&query, &db).unwrap(),
        IntersectionJoinEngine::with_defaults()
            .evaluate(&query, &workload(0, 10))
            .unwrap()
    );
}
