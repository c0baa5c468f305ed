//! Property tests for the interned columnar core: the value dictionary
//! (intern/resolve round-trips, dedup, ordering stability) and the
//! equivalence of the `u32`-keyed tries with their `Value`-level definition
//! on random workloads.

use ij_ejoin::{generic_join_boolean, BoundAtom, EvalContext, FlatTrie};
use ij_hypergraph::VarId;
use ij_relation::{Relation, SharedDictionary, Value, ValueId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A strategy for mixed point/interval values over a small domain (ties are
/// likely, which is what interning must handle).
fn arb_value() -> impl Strategy<Value = Value> {
    (0u32..3, 0i32..12, 0i32..4).prop_map(|(kind, a, len)| match kind {
        0 => Value::point(a as f64),
        _ => Value::interval(a as f64, (a + len) as f64),
    })
}

/// A strategy for small binary relations of integer points.
fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(i32, i32)>> {
    proptest::collection::vec((0i32..6, 0i32..6), 1..=max)
}

/// What a trie over `relation` bound to `vars` must hold, computed over
/// materialised rows of full [`Value`]s: the rows whose repeated columns
/// agree (by value equality), projected onto the distinct variables in global
/// order, as a set.
fn value_paths(
    relation: &Relation,
    vars: &[VarId],
    global_order: &[VarId],
) -> BTreeSet<Vec<Value>> {
    let column_of = |v: VarId| vars.iter().position(|&u| u == v).unwrap();
    let level_columns: Vec<usize> = global_order
        .iter()
        .filter(|v| vars.contains(v))
        .map(|&v| column_of(v))
        .collect();
    relation
        .tuples()
        .into_iter()
        .filter(|t| {
            vars.iter()
                .enumerate()
                .all(|(c, &v)| t[c] == t[column_of(v)])
        })
        .map(|t| level_columns.iter().map(|&c| t[c]).collect())
        .collect()
}

/// Every root-to-leaf path of an id-keyed trie, resolved back to values
/// through the dictionary of the relation it was built over.
fn trie_paths(trie: &FlatTrie, dict: &SharedDictionary) -> Vec<Vec<Value>> {
    fn walk(
        trie: &FlatTrie,
        dict: &SharedDictionary,
        level: usize,
        (lo, hi): (u32, u32),
        prefix: &mut Vec<Value>,
        out: &mut Vec<Vec<Value>>,
    ) {
        for (i, id) in trie.run(level, lo, hi).iter().enumerate() {
            prefix.push(dict.resolve(*id));
            if level + 1 < trie.depth() {
                let children = trie.child_range(level, lo + i as u32);
                walk(trie, dict, level + 1, children, prefix, out);
            } else {
                out.push(prefix.clone());
            }
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    walk(
        trie,
        dict,
        0,
        (0, trie.level_len(0)),
        &mut Vec::new(),
        &mut out,
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Interning and resolving through a dictionary round-trips and
    /// deduplicates: equal values get equal ids, distinct values distinct ids.
    #[test]
    fn intern_resolve_round_trip_and_dedup(values in proptest::collection::vec(arb_value(), 1..40)) {
        let dict = SharedDictionary::new();
        let ids: Vec<ValueId> = values.iter().map(|&v| dict.intern(v)).collect();
        for (&v, &id) in values.iter().zip(&ids) {
            prop_assert_eq!(dict.resolve(id), v);
        }
        for (i, &a) in values.iter().enumerate() {
            for (j, &b) in values.iter().enumerate() {
                prop_assert_eq!(a == b, ids[i] == ids[j], "values {:?} / {:?}", a, b);
            }
        }
    }

    /// Ordering stability: once assigned, an id never changes — re-interning
    /// after arbitrary further interns yields the original ids, and the
    /// dictionary lookup agrees.
    #[test]
    fn interned_ids_are_stable(
        first in proptest::collection::vec(arb_value(), 1..20),
        later in proptest::collection::vec(arb_value(), 0..20),
    ) {
        let dict = SharedDictionary::new();
        let before: Vec<ValueId> = first.iter().map(|&v| dict.intern(v)).collect();
        for &v in &later {
            dict.intern(v);
        }
        let after: Vec<ValueId> = first.iter().map(|&v| dict.intern(v)).collect();
        prop_assert_eq!(&before, &after);
        let reader = dict.reader();
        for (&v, &id) in first.iter().zip(&before) {
            prop_assert_eq!(reader.lookup(&v), Some(id));
        }
    }

    /// The u32-keyed trie of the join engine holds exactly the paths of its
    /// Value-level definition on random relations — each once — including
    /// repeated variables (filters) and both level orders.
    #[test]
    fn id_trie_matches_value_trie(rows in arb_rows(20), repeated in 0u32..3) {
        let vars: Vec<VarId> = match repeated {
            0 => vec![0, 1],
            1 => vec![1, 0],
            _ => vec![0, 0],
        };
        let relation = Relation::from_tuples(
            "R",
            2,
            rows.iter().map(|&(a, b)| vec![Value::point(a as f64), Value::point(b as f64)]).collect(),
            &SharedDictionary::new(),
        );
        for order in [vec![0, 1], vec![1, 0]] {
            let atom = BoundAtom::new(&relation, vars.clone());
            let trie = FlatTrie::build(&atom, &order, None).unwrap();
            let paths = trie_paths(&trie, relation.dictionary());
            let expected = value_paths(&relation, &vars, &order);
            prop_assert_eq!(paths.len(), expected.len(), "duplicate paths in {:?}", paths);
            prop_assert_eq!(paths.into_iter().collect::<BTreeSet<_>>(), expected);
        }
    }

    /// End-to-end: the id-keyed generic join answers the triangle query the
    /// same as a brute-force check over materialised rows.
    #[test]
    fn id_joins_match_row_oriented_answers(
        r in arb_rows(8),
        s in arb_rows(8),
        t in arb_rows(8),
    ) {
        let dict = SharedDictionary::new();
        let rel = |name: &str, rows: &[(i32, i32)]| {
            Relation::from_tuples(
                name,
                2,
                rows.iter().map(|&(a, b)| vec![Value::point(a as f64), Value::point(b as f64)]).collect(),
                &dict,
            )
        };
        let (r, s, t) = (rel("R", &r), rel("S", &s), rel("T", &t));
        let atoms = vec![
            BoundAtom::new(&r, vec![0, 1]),
            BoundAtom::new(&s, vec![1, 2]),
            BoundAtom::new(&t, vec![0, 2]),
        ];
        let expected = r.tuples().iter().any(|ra| {
            s.tuples().iter().any(|sa| {
                t.tuples().iter().any(|ta| ra[1] == sa[0] && ra[0] == ta[0] && sa[1] == ta[1])
            })
        });
        prop_assert_eq!(
            generic_join_boolean(&atoms, None, EvalContext::default()),
            Ok(expected)
        );
    }
}
