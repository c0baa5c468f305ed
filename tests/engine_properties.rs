//! Property-based differential tests of the end-to-end engine
//! (forward reduction + EJ engine) against the naive oracle.

use ij_engine::{naive_boolean, IntersectionJoinEngine};
use ij_relation::{Database, Query, Value};
use proptest::prelude::*;

/// A strategy for small relations of binary interval tuples with integer
/// endpoints in a window chosen to make both true and false instances likely.
fn arb_binary_relation(
    max_tuples: usize,
    span: i32,
) -> impl Strategy<Value = Vec<(f64, f64, f64, f64)>> {
    proptest::collection::vec((0..span, 0..6i32, 0..span, 0..6i32), 1..=max_tuples).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(a, alen, b, blen)| {
                    (a as f64, (a + alen) as f64, b as f64, (b + blen) as f64)
                })
                .collect()
        },
    )
}

type IntervalRows = Vec<(f64, f64, f64, f64)>;

fn binary_db(name_rows: Vec<(&str, IntervalRows)>) -> Database {
    let mut db = Database::new();
    for (name, rows) in name_rows {
        db.insert_tuples(
            name,
            2,
            rows.into_iter()
                .map(|(l1, h1, l2, h2)| vec![Value::interval(l1, h1), Value::interval(l2, h2)])
                .collect(),
        );
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The reduction-based evaluation agrees with the naive oracle on the
    /// triangle query for arbitrary small interval databases.
    #[test]
    fn triangle_engine_matches_oracle(
        r in arb_binary_relation(8, 30),
        s in arb_binary_relation(8, 30),
        t in arb_binary_relation(8, 30),
    ) {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let db = binary_db(vec![("R", r), ("S", s), ("T", t)]);
        let engine = IntersectionJoinEngine::with_defaults();
        let expected = naive_boolean(&q, &db).unwrap();
        prop_assert_eq!(engine.evaluate(&q, &db).unwrap(), expected);
    }

    /// Same for the iota-acyclic path query R([A],[B]) ∧ S([B],[C]).
    #[test]
    fn path_engine_matches_oracle(
        r in arb_binary_relation(10, 25),
        s in arb_binary_relation(10, 25),
    ) {
        let q = Query::parse("R([A],[B]) & S([B],[C])").unwrap();
        let db = binary_db(vec![("R", r), ("S", s)]);
        let engine = IntersectionJoinEngine::with_defaults();
        let expected = naive_boolean(&q, &db).unwrap();
        prop_assert_eq!(engine.evaluate(&q, &db).unwrap(), expected);
    }

    /// Figure 9f: R([A],[B],[C]) ∧ S([A],[B]) — an iota-acyclic query with a
    /// Berge cycle of length two.
    #[test]
    fn figure_9f_engine_matches_oracle(
        r in proptest::collection::vec((0..20i32, 0..5i32, 0..20i32, 0..5i32, 0..20i32, 0..5i32), 1..8),
        s in arb_binary_relation(8, 20),
    ) {
        let q = Query::parse("R([A],[B],[C]) & S([A],[B])").unwrap();
        let mut db = binary_db(vec![("S", s)]);
        db.insert_tuples(
            "R",
            3,
            r.into_iter()
                .map(|(a, al, b, bl, c, cl)| {
                    vec![
                        Value::interval(a as f64, (a + al) as f64),
                        Value::interval(b as f64, (b + bl) as f64),
                        Value::interval(c as f64, (c + cl) as f64),
                    ]
                })
                .collect(),
        );
        let engine = IntersectionJoinEngine::with_defaults();
        let expected = naive_boolean(&q, &db).unwrap();
        prop_assert_eq!(engine.evaluate(&q, &db).unwrap(), expected);
    }

    /// Witness counts of the naive evaluator are consistent with the Boolean
    /// answer of the engine.
    #[test]
    fn witness_counts_are_consistent(
        r in arb_binary_relation(6, 20),
        s in arb_binary_relation(6, 20),
        t in arb_binary_relation(6, 20),
    ) {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let db = binary_db(vec![("R", r), ("S", s), ("T", t)]);
        let engine = IntersectionJoinEngine::with_defaults();
        let count = ij_engine::naive_count(&q, &db).unwrap();
        let answer = engine.evaluate(&q, &db).unwrap();
        prop_assert_eq!(answer, count > 0);
    }
}
