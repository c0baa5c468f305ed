//! E9 — the backward reduction (Section 5, Theorem 5.2, Example 5.1).
//!
//! For a self-join-free IJ query `Q` and any EJ query `Q̃` produced by the
//! forward reduction, an arbitrary database `D̃` of (fixed-length) bitstrings
//! over the schema of `Q̃` maps to an interval database `D` of the same size
//! such that `Q(D)` holds iff `Q̃(D̃)` holds.

use ij_ejoin::{evaluate_ej_boolean, BoundAtom, EvalContext};
use ij_engine::naive_boolean;
use ij_reduction::{backward_reduction, forward_reduction, ForwardReduction};
use ij_relation::{Database, Query, Relation, Value};
use ij_segtree::BitString;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Builds the triangle forward reduction (the data content is irrelevant —
/// only the reduced query structures are needed).
fn triangle_reduction() -> (Query, ForwardReduction) {
    let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
    let mut db = Database::new();
    let iv = |lo: f64, hi: f64| Value::interval(lo, hi);
    db.insert_tuples("R", 2, vec![vec![iv(0.0, 1.0), iv(0.0, 1.0)]]);
    db.insert_tuples("S", 2, vec![vec![iv(0.0, 1.0), iv(0.0, 1.0)]]);
    db.insert_tuples("T", 2, vec![vec![iv(0.0, 1.0), iv(0.0, 1.0)]]);
    let fr = forward_reduction(&q, &db).unwrap();
    (q, fr)
}

/// A random EJ database over the schema of a reduced query, with every value
/// a bitstring of exactly `bits` bits (the fixed-length-domain assumption of
/// Theorem 5.2's proof).
fn random_ej_database(
    reduced: &ij_reduction::ReducedQuery,
    tuples: usize,
    bits: u8,
    rng: &mut StdRng,
) -> Database {
    let mut db = Database::new();
    for atom in &reduced.atoms {
        let mut rel = Relation::new(atom.relation.clone(), atom.vars.len());
        for _ in 0..tuples {
            let row: Vec<Value> = (0..atom.vars.len())
                .map(|_| {
                    let raw: u64 = rng.gen_range(0..(1u64 << bits));
                    Value::Bits(BitString::from_bits(raw, bits))
                })
                .collect();
            rel.push(row);
        }
        db.insert(rel);
    }
    db
}

/// Evaluates a reduced EJ query over an EJ database with the equality-join
/// engine.
fn evaluate_reduced(reduced: &ij_reduction::ReducedQuery, ej_db: &Database) -> bool {
    let mut var_ids: BTreeMap<&str, usize> = BTreeMap::new();
    for atom in &reduced.atoms {
        for v in &atom.vars {
            let next = var_ids.len();
            var_ids.entry(v.as_str()).or_insert(next);
        }
    }
    let atoms: Vec<BoundAtom<'_>> = reduced
        .atoms
        .iter()
        .map(|a| {
            let rel = ej_db.relation(&a.relation).unwrap();
            BoundAtom::new(rel, a.vars.iter().map(|v| var_ids[v.as_str()]).collect())
        })
        .collect();
    evaluate_ej_boolean(&atoms, EvalContext::default()).unwrap()
}

#[test]
fn backward_reduction_round_trip_on_random_databases() {
    let (q, fr) = triangle_reduction();
    let mut rng = StdRng::seed_from_u64(2022);
    let mut agree_true = 0usize;
    let mut agree_false = 0usize;
    // Exercise every reduced query of the disjunction.
    for reduced in &fr.queries {
        for _ in 0..6 {
            // Small domains produce both outcomes.
            let ej_db = random_ej_database(reduced, 4, 2, &mut rng);
            let ej_answer = evaluate_reduced(reduced, &ej_db);
            let ij_db = backward_reduction(&q, reduced, &ej_db).unwrap();
            // Size preservation: |D| = |D̃|.
            assert_eq!(ij_db.total_tuples(), ej_db.total_tuples());
            let ij_answer = naive_boolean(&q, &ij_db).unwrap();
            assert_eq!(ij_answer, ej_answer, "reduced query {:?}", reduced.atoms);
            if ej_answer {
                agree_true += 1;
            } else {
                agree_false += 1;
            }
        }
    }
    assert!(agree_true > 0, "no positive instance exercised");
    assert!(agree_false > 0, "no negative instance exercised");
}

#[test]
fn backward_reduction_works_for_longer_bitstrings() {
    let (q, fr) = triangle_reduction();
    let mut rng = StdRng::seed_from_u64(7);
    let reduced = &fr.queries[3];
    for _ in 0..10 {
        let ej_db = random_ej_database(reduced, 6, 5, &mut rng);
        let ej_answer = evaluate_reduced(reduced, &ej_db);
        let ij_db = backward_reduction(&q, reduced, &ej_db).unwrap();
        assert_eq!(naive_boolean(&q, &ij_db).unwrap(), ej_answer);
    }
}

#[test]
fn backward_reduction_of_star_queries() {
    // A non-cyclic original query: the 2-star R([X],[Y1]) ∧ S([X],[Y2]).
    let q = Query::parse("R([X],[Y1]) & S([X],[Y2])").unwrap();
    let mut db = Database::new();
    let iv = |lo: f64, hi: f64| Value::interval(lo, hi);
    db.insert_tuples("R", 2, vec![vec![iv(0.0, 1.0), iv(0.0, 1.0)]]);
    db.insert_tuples("S", 2, vec![vec![iv(0.0, 1.0), iv(0.0, 1.0)]]);
    let fr = forward_reduction(&q, &db).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    for reduced in &fr.queries {
        for _ in 0..5 {
            let ej_db = random_ej_database(reduced, 5, 3, &mut rng);
            let ej_answer = evaluate_reduced(reduced, &ej_db);
            let ij_db = backward_reduction(&q, reduced, &ej_db).unwrap();
            assert_eq!(naive_boolean(&q, &ij_db).unwrap(), ej_answer);
        }
    }
}

#[test]
fn forward_then_backward_preserves_hardness_witnesses() {
    // Example 5.1 in miniature: craft an EJ database that satisfies Q̃3 and
    // check the mapped interval database satisfies Q△.
    let (q, fr) = triangle_reduction();
    let reduced = &fr.queries[0];
    // One tuple per relation, all bitstrings identical → every equality join
    // trivially succeeds.
    let mut ej_db = Database::new();
    for atom in &reduced.atoms {
        let mut rel = Relation::new(atom.relation.clone(), atom.vars.len());
        rel.push(vec![
            Value::Bits(BitString::from_bits(0b1, 1));
            atom.vars.len()
        ]);
        ej_db.insert(rel);
    }
    assert!(evaluate_reduced(reduced, &ej_db));
    let ij_db = backward_reduction(&q, reduced, &ej_db).unwrap();
    assert!(naive_boolean(&q, &ij_db).unwrap());
}
