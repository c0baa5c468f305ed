//! Property tests for the flat (CSR leapfrog) trie.
//!
//! Three layers of equivalence, all on random inputs:
//!
//! * **kernels** — `gallop_seek` / `leapfrog_next` must be
//!   indistinguishable from their scalar reference
//!   implementations (and from a brute-force oracle) on arbitrary sorted
//!   distinct runs, including the adversarial shapes where galloping
//!   off-by-ones hide: empty, singleton, disjoint, fully-equal, and lengths
//!   that are not a multiple of the linear-probe span;
//! * **generic join** — Boolean and enumerated answers must equal a
//!   brute-force nested loop over the relations, with and without a cache,
//!   under the planned order and under every explicit one;
//! * **engine** — end-to-end evaluation through the forward reduction must
//!   agree with the naive oracle for every parallelism × cache capacity.
//!
//! CI runs this file in `--release` as well: optimized galloping is where
//! seek bugs actually surface.

use ij_ejoin::{generic_join_boolean, generic_join_enumerate, BoundAtom, EvalContext, TrieCache};
use ij_engine::{naive_boolean, EngineConfig, Workspace, DEFAULT_TRIE_CACHE_BYTES};
use ij_relation::kernels::{
    gallop_seek, gallop_seek_scalar, leapfrog_next, leapfrog_next_scalar, GALLOP_LINEAR_SPAN,
};
use ij_relation::{Database, Query, Relation, Value, ValueId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A sorted, distinct run of ids — the invariant every flat-trie run holds.
/// The raw domain spans several gallop spans so seeks overshoot and settle.
fn arb_run(max_len: usize) -> impl Strategy<Value = Vec<ValueId>> {
    proptest::collection::vec(0u32..(12 * GALLOP_LINEAR_SPAN as u32), 0..=max_len).prop_map(
        |mut raw| {
            raw.sort_unstable();
            raw.dedup();
            raw.into_iter().map(ValueId::from_raw).collect()
        },
    )
}

/// A random interval over a small integer domain (ties and overlaps likely).
fn arb_interval() -> impl Strategy<Value = Value> {
    (0i32..14, 0i32..5).prop_map(|(lo, len)| Value::interval(lo as f64, (lo + len) as f64))
}

/// Random rows of interval pairs.
fn arb_interval_rows(max: usize) -> impl Strategy<Value = Vec<(Value, Value)>> {
    proptest::collection::vec((arb_interval(), arb_interval()), 1..=max)
}

/// Random rows of point pairs over a tiny domain (shared values likely).
fn arb_point_rows(max: usize) -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0u8..6, 0u8..6), 1..=max)
}

/// The intersection of two sorted distinct runs, enumerated by `next` (a
/// leapfrog kernel over the two runs).
fn intersect(
    a: &[ValueId],
    b: &[ValueId],
    next: fn(&[&[ValueId]], &mut [usize]) -> Option<ValueId>,
) -> Vec<ValueId> {
    let runs = [a, b];
    let mut cursors = [0usize; 2];
    let mut out = Vec::new();
    while let Some(v) = next(&runs, &mut cursors) {
        out.push(v);
        cursors.iter_mut().for_each(|c| *c += 1);
    }
    out
}

fn point_rel(name: &str, rows: &[(u8, u8)]) -> Relation {
    Relation::from_tuples(
        name,
        2,
        rows.iter()
            .map(|&(a, b)| vec![Value::point(a as f64), Value::point(b as f64)])
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `gallop_seek` ≡ linear scan for every starting cursor and target.
    #[test]
    fn gallop_seek_matches_the_scalar_reference(
        run in arb_run(5 * GALLOP_LINEAR_SPAN),
        target_raw in 0u32..(14 * GALLOP_LINEAR_SPAN as u32),
    ) {
        let target = ValueId::from_raw(target_raw);
        for start in 0..=run.len() {
            let fast = gallop_seek(&run, start, target);
            let slow = gallop_seek_scalar(&run, start, target);
            prop_assert_eq!(fast, slow, "start {}", start);
            // Postcondition: first element >= target at or after `start`.
            prop_assert!(run[start..fast].iter().all(|&v| v < target));
            if fast < run.len() {
                prop_assert!(run[fast] >= target);
            }
        }
    }

    /// Galloping two-run intersection (leapfrog over a long and a short
    /// run) ≡ the scalar reference, in both argument orders (random runs
    /// include empty, singleton, disjoint and fully-equal pairs as
    /// degenerate draws, and lengths off the linear-probe span).
    #[test]
    fn intersect_gallop_matches_the_scalar_reference(
        a in arb_run(6 * GALLOP_LINEAR_SPAN),
        b in arb_run(2 * GALLOP_LINEAR_SPAN + 3),
    ) {
        let fast = intersect(&a, &b, leapfrog_next);
        prop_assert_eq!(&fast, &intersect(&a, &b, leapfrog_next_scalar));
        prop_assert_eq!(&fast, &intersect(&b, &a, leapfrog_next));
        // Oracle: exactly the elements of `a` also present in `b`.
        let oracle: Vec<ValueId> =
            a.iter().copied().filter(|v| b.contains(v)).collect();
        prop_assert_eq!(fast, oracle);
    }

    /// Multi-way leapfrog ≡ scalar reference ≡ brute-force membership
    /// oracle, over 1–4 runs of uneven lengths.
    #[test]
    fn leapfrog_matches_scalar_and_oracle(
        runs in proptest::collection::vec(arb_run(4 * GALLOP_LINEAR_SPAN), 1..=4),
    ) {
        let slices: Vec<&[ValueId]> = runs.iter().map(|r| r.as_slice()).collect();
        let collect = |next: fn(&[&[ValueId]], &mut [usize]) -> Option<ValueId>| {
            let mut cursors = vec![0usize; slices.len()];
            let mut out = Vec::new();
            while let Some(v) = next(&slices, &mut cursors) {
                // Every cursor points at the matched value.
                for (run, &c) in slices.iter().zip(&cursors) {
                    assert_eq!(run[c], v);
                }
                out.push(v);
                for c in cursors.iter_mut() {
                    *c += 1;
                }
            }
            out
        };
        let fast = collect(leapfrog_next);
        let slow = collect(leapfrog_next_scalar);
        prop_assert_eq!(&fast, &slow);
        let oracle: Vec<ValueId> = runs[0]
            .iter()
            .copied()
            .filter(|v| runs.iter().all(|r| r.contains(v)))
            .collect();
        prop_assert_eq!(fast, oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generic-join correctness on random triangle instances: Boolean and
    /// enumerated answers equal a brute-force nested loop over the three
    /// relations, with and without a cache.
    #[test]
    fn generic_joins_match_brute_force(
        r_rows in arb_point_rows(10),
        s_rows in arb_point_rows(10),
        t_rows in arb_point_rows(10),
    ) {
        let r = point_rel("R", &r_rows);
        let s = point_rel("S", &s_rows);
        let t = point_rel("T", &t_rows);
        let atoms = vec![
            BoundAtom::new(&r, vec![0, 1]),
            BoundAtom::new(&s, vec![1, 2]),
            BoundAtom::new(&t, vec![0, 2]),
        ];
        let mut expected_out: BTreeSet<Vec<Value>> = BTreeSet::new();
        for &(a, b) in &r_rows {
            for &(b2, c) in &s_rows {
                for &(a2, c2) in &t_rows {
                    if b == b2 && a == a2 && c == c2 {
                        expected_out.insert(
                            [a, b, c].iter().map(|&p| Value::point(p as f64)).collect(),
                        );
                    }
                }
            }
        }
        let cache = TrieCache::new();
        for cache_ref in [None, Some(&cache)] {
            let eval = EvalContext {
                cache: cache_ref,
                ..EvalContext::default()
            };
            prop_assert_eq!(
                generic_join_boolean(&atoms, None, eval).unwrap(),
                !expected_out.is_empty(),
                "boolean: cached {}",
                cache_ref.is_some()
            );
            let out = generic_join_enumerate(&atoms, &[0, 1, 2], "out", eval).unwrap();
            // The output is deduplicated: as many rows as distinct tuples.
            prop_assert_eq!(out.len(), expected_out.len());
            prop_assert_eq!(
                &out.tuples().into_iter().collect::<BTreeSet<_>>(),
                &expected_out,
                "enumerate: cached {}",
                cache_ref.is_some()
            );
        }
        // Every explicit variable order against the one cache above: a trie
        // built for one order is never served to another.
        let shared = EvalContext {
            cache: Some(&cache),
            ..EvalContext::default()
        };
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            prop_assert_eq!(
                generic_join_boolean(&atoms, Some(order.to_vec()), shared).unwrap(),
                !expected_out.is_empty(),
                "boolean under order {:?}",
                order
            );
            // Enumerating onto the order itself pins the join to that order.
            let out = generic_join_enumerate(&atoms, &order, "out", shared).unwrap();
            let permuted: BTreeSet<Vec<Value>> = expected_out
                .iter()
                .map(|row| order.iter().map(|&v| row[v]).collect())
                .collect();
            prop_assert_eq!(
                &out.tuples().into_iter().collect::<BTreeSet<_>>(),
                &permuted,
                "enumerate under order {:?}",
                order
            );
        }
    }

    /// End-to-end equivalence with the naive oracle on random interval
    /// triangle workloads, for every parallelism × cache budget.
    #[test]
    fn engine_answers_match_the_naive_oracle(
        r in arb_interval_rows(6),
        s in arb_interval_rows(6),
        t in arb_interval_rows(6),
    ) {
        let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let mut db = Database::new();
        for (name, rows) in [("R", &r), ("S", &s), ("T", &t)] {
            db.insert_tuples(name, 2, rows.iter().map(|&(a, b)| vec![a, b]).collect());
        }
        let expected = naive_boolean(&query, &db).unwrap();
        for parallelism in [1usize, 2] {
            for bytes in [0, DEFAULT_TRIE_CACHE_BYTES] {
                let engine = Workspace::with_trie_cache_bytes(bytes)
                    .engine(EngineConfig::new().with_parallelism(parallelism));
                prop_assert_eq!(
                    engine.evaluate(&query, &db).unwrap(),
                    expected,
                    "parallelism {}, {} cache bytes",
                    parallelism, bytes
                );
            }
        }
    }
}

/// Deterministic adversarial shapes for the galloping kernels — the named
/// cases from the checklist, pinned so a regression is reported by name
/// rather than by a shrunk random draw.
#[test]
fn adversarial_runs_intersect_identically() {
    let ids =
        |raw: &[u32]| -> Vec<ValueId> { raw.iter().copied().map(ValueId::from_raw).collect() };
    let span = GALLOP_LINEAR_SPAN as u32;
    let cases: Vec<(Vec<ValueId>, Vec<ValueId>)> = vec![
        (ids(&[]), ids(&[])),                                   // both empty
        (ids(&[]), ids(&[1, 2, 3])),                            // one empty
        (ids(&[5]), ids(&[5])),                                 // equal singletons
        (ids(&[5]), ids(&[6])),                                 // disjoint singletons
        ((0..40).map(ValueId::from_raw).collect(), ids(&[39])), // long vs singleton
        (
            (0..33).map(|i| ValueId::from_raw(2 * i)).collect(), // evens…
            (0..33).map(|i| ValueId::from_raw(2 * i + 1)).collect(), // …vs odds: disjoint
        ),
        (
            (0..(3 * span + 1)).map(ValueId::from_raw).collect(), // fully equal,
            (0..(3 * span + 1)).map(ValueId::from_raw).collect(), // off-span length
        ),
        (
            (0..10 * span).step_by(7).map(ValueId::from_raw).collect(), // sparse strides
            (0..10 * span).step_by(3).map(ValueId::from_raw).collect(),
        ),
    ];
    for (a, b) in &cases {
        let oracle: Vec<ValueId> = a.iter().copied().filter(|v| b.contains(v)).collect();
        assert_eq!(
            intersect(a, b, leapfrog_next),
            oracle,
            "a = {a:?}, b = {b:?}"
        );
        assert_eq!(
            intersect(b, a, leapfrog_next),
            oracle,
            "swapped: a = {a:?}, b = {b:?}"
        );
        assert_eq!(
            intersect(a, b, leapfrog_next_scalar),
            oracle,
            "scalar: a = {a:?}, b = {b:?}"
        );
    }
}
