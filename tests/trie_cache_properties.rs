//! Property tests for the memoised tries: on random interval workloads,
//! evaluation over tries memoised on the reduction's relations — cold, and
//! warm on a kept reduction — must be indistinguishable from building every
//! disjunct's tries afresh, at every parallelism setting, and must agree
//! with the naive reference evaluator.

use ij_ejoin::{evaluate_ej_boolean, BoundAtom, EvalContext};
use ij_engine::{disjunct_atoms, naive_boolean, EngineConfig, IntersectionJoinEngine};
use ij_reduction::{plan_forward_reduction, ForwardReduction, ReductionConfig};
use ij_relation::{Database, Query, Relation, Value};
use proptest::prelude::*;

/// A random interval over a small integer domain (ties and overlaps likely).
fn arb_interval() -> impl Strategy<Value = Value> {
    (0i32..14, 0i32..5).prop_map(|(lo, len)| Value::interval(lo as f64, (lo + len) as f64))
}

/// Random rows of interval pairs.
fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(Value, Value)>> {
    proptest::collection::vec((arb_interval(), arb_interval()), 1..=max)
}

fn engine_with(parallelism: usize) -> IntersectionJoinEngine {
    IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(parallelism))
}

fn db_of(rows: [(&str, &Vec<(Value, Value)>); 3]) -> Database {
    let mut db = Database::new();
    for (name, rows) in rows {
        db.insert_tuples(name, 2, rows.iter().map(|&(a, b)| vec![a, b]).collect());
    }
    db
}

fn plan(query: &Query, db: &Database) -> ForwardReduction {
    plan_forward_reduction(query, db, ReductionConfig::default(), None).unwrap()
}

/// The reduction's answer with every disjunct's tries built afresh: each
/// disjunct is evaluated over copies of its relations, and a copy starts
/// with nothing memoised.
fn rebuilt_per_disjunct(reduction: &ForwardReduction) -> bool {
    (0..reduction.queries.len()).any(|i| {
        let atoms = disjunct_atoms(reduction, i, None).unwrap();
        let copies: Vec<Relation> = atoms.iter().map(|a| a.relation.clone()).collect();
        let fresh: Vec<BoundAtom<'_>> = (atoms.iter().zip(&copies))
            .map(|(a, copy)| BoundAtom::new(copy, a.vars.clone()))
            .collect();
        evaluate_ej_boolean(&fresh, EvalContext::default()).unwrap()
    })
}

/// The answers of `query` over `db` on `engine`: a fresh `evaluate`, then a
/// kept reduction evaluated cold and warm.
fn cold_and_warm(engine: &IntersectionJoinEngine, query: &Query, db: &Database) -> [bool; 3] {
    let reduction = plan(query, db);
    [
        engine.evaluate(query, db).unwrap(),
        engine.evaluate_reduction(&reduction).unwrap().answer,
        engine.evaluate_reduction(&reduction).unwrap().answer,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Memoised-trie evaluation ≡ rebuild-per-disjunct evaluation on random
    /// triangle workloads (the E1 cyclic query), cold and warm, across
    /// parallelism settings, and both agree with the naive oracle.
    #[test]
    fn cached_evaluation_matches_rebuild_per_disjunct(
        r in arb_rows(6),
        s in arb_rows(6),
        t in arb_rows(6),
    ) {
        let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let db = db_of([("R", &r), ("S", &s), ("T", &t)]);
        let expected = naive_boolean(&query, &db).unwrap();
        prop_assert_eq!(rebuilt_per_disjunct(&plan(&query, &db)), expected, "rebuilt");
        for parallelism in [1usize, 2] {
            prop_assert_eq!(
                cold_and_warm(&engine_with(parallelism), &query, &db),
                [expected; 3],
                "parallelism {}",
                parallelism
            );
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
        prop_assert_eq!(rebuilt_per_disjunct(&plan(&query, &db)), expected, "rebuilt");
        prop_assert_eq!(cold_and_warm(&engine_with(0), &query, &db), [expected; 3]);
    }
}

/// The triangle with pairwise overlaps but no triple: all eight disjuncts
/// run.
fn planted_triangle() -> (Query, Database) {
    let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
    let iv = |lo: f64, hi: f64| Value::interval(lo, hi);
    let mut db = Database::new();
    db.insert_tuples("R", 2, vec![vec![iv(0.0, 2.0), iv(10.0, 12.0)]]);
    db.insert_tuples("S", 2, vec![vec![iv(11.0, 13.0), iv(20.0, 22.0)]]);
    db.insert_tuples("T", 2, vec![vec![iv(1.0, 3.0), iv(30.0, 31.0)]]);
    (query, db)
}

/// Deterministic (non-property) check that the memo is actually exercised:
/// within one evaluation the disjuncts share atoms, so lookups hit; every
/// miss built one trie; and `evaluate`, which plans a fresh reduction every
/// call, reports the same cold activity each time.
#[test]
fn cache_hits_are_recorded_and_answer_preserving() {
    let (query, db) = planted_triangle();
    let engine = engine_with(1);
    let first = engine.evaluate_cancellable(&query, &db, None).unwrap();
    assert!(!first.answer);
    assert_eq!(first.answer, rebuilt_per_disjunct(&plan(&query, &db)));
    assert_eq!(first.ej_queries_evaluated, 8);
    assert!(first.trie_cache.hits > 0, "{:?}", first.trie_cache);
    assert_eq!(first.trie_cache.entries, first.trie_cache.misses);
    assert!(first.trie_cache.resident_bytes > 0);
    let again = engine.evaluate_cancellable(&query, &db, None).unwrap();
    assert_eq!(again.answer, first.answer);
    assert_eq!(
        again.trie_cache, first.trie_cache,
        "each `evaluate` starts cold"
    );
}

/// Two evaluations of one reduction reach the memos with the same relations:
/// the projected atoms are derived once per reduction, and their tries with
/// them, so every lookup of the second evaluation — as many as the first
/// made — is a hit, and the second builds nothing.
#[test]
fn a_second_evaluation_of_one_reduction_only_hits() {
    let (query, db) = planted_triangle();
    for parallelism in [1usize, 2] {
        let reduction = ij_reduction::forward_reduction(&query, &db).unwrap();
        let engine = engine_with(parallelism);
        let first = engine.evaluate_reduction(&reduction).unwrap();
        let second = engine.evaluate_reduction(&reduction).unwrap();
        assert!(!first.answer && !second.answer);
        assert_eq!(first.ej_queries_evaluated, 8);
        assert!(first.trie_cache.misses > 0, "{:?}", first.trie_cache);
        assert_eq!(second.trie_cache.misses, 0, "{:?}", second.trie_cache);
        assert_eq!(
            (second.trie_cache.entries, second.trie_cache.resident_bytes),
            (0, 0)
        );
        assert_eq!(
            second.trie_cache.hits,
            first.trie_cache.hits + first.trie_cache.misses,
            "parallelism {parallelism}"
        );
    }
}
