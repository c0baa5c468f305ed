//! Yannakakis' algorithm for α-acyclic Boolean conjunctive queries \[35\].
//!
//! For a Boolean query it suffices to run the bottom-up semijoin pass of the
//! full reducer over a join tree: each relation is semijoin-reduced by its
//! children (in a leaves-first order); the query is true if and only if the
//! root relation is non-empty at the end.  The pass costs time linear in the
//! total size of the relations (with hashing), which is what makes ι-acyclic
//! IJ queries near-linear after the forward reduction (Theorem 6.6).
//!
//! # Implementation: alive-row lists over scan kernels
//!
//! The pass never materialises intermediate relations.  Each atom carries an
//! **alive-row list** (`None` = all rows alive); one semijoin step gathers
//! the parent's and child's key columns at their alive rows
//! ([`kernels::gather_ids`]), probes them through the packed-key mask of
//! `semijoin_mask`, and shrinks the parent's list with the chunked selection
//! kernel — column copies are limited to the key columns actually probed,
//! instead of cloning and re-gathering whole relations per step.

use crate::atom::{hypergraph_of, BoundAtom};
use crate::generic::semijoin_mask;
use crate::trie::repeated_variable_mask;
use ij_hypergraph::{join_tree, VarId};
use ij_relation::{kernels, CancellationToken, EvalError, ValueId};

/// Evaluates an α-acyclic Boolean query with Yannakakis' algorithm.
///
/// Returns `Ok(None)` if the atom set is not α-acyclic (no join tree
/// exists); callers fall back to another algorithm in that case.
///
/// An atom that binds one variable to several columns keeps only the rows on
/// which those columns agree, before any semijoin reads the variable's first
/// column as its key.
///
/// # Errors
///
/// `token`, if any, is polled once per join-tree edge, before the edge's
/// semijoin: a token cancelled (or past its deadline) by then surfaces as its
/// [`EvalError`] and no further semijoin runs.
///
/// # Panics
///
/// Panics if a relation has more than `u32::MAX` rows (alive-row lists store
/// row indices as `u32`; a silent wrap would corrupt the pass).
pub fn yannakakis_boolean(
    atoms: &[BoundAtom<'_>],
    token: Option<&CancellationToken>,
) -> Result<Option<bool>, EvalError> {
    assert!(
        atoms.iter().all(|a| a.relation.len() <= u32::MAX as usize),
        "Yannakakis pass supports at most 2^32 rows per relation"
    );
    if atoms.is_empty() {
        return Ok(Some(true));
    }
    if atoms.iter().any(|a| a.relation.is_empty()) {
        return Ok(Some(false));
    }
    let (h, _) = hypergraph_of(atoms);
    let Some(tree) = join_tree(&h) else {
        return Ok(None);
    };

    // Alive rows per atom (`None` = every row).  Rows only ever leave; an
    // atom that repeats a variable starts without the rows that break the
    // repetition's equality.
    let mut alive: Vec<Option<Vec<u32>>> = atoms
        .iter()
        .map(|atom| {
            repeated_variable_mask(atom).map(|mask| {
                let mut rows = Vec::new();
                kernels::select_indices(&mask, 0, &mut rows);
                rows
            })
        })
        .collect();
    if alive.iter().flatten().any(|rows| rows.is_empty()) {
        return Ok(Some(false));
    }
    let alive_count = |alive: &Option<Vec<u32>>, atom: &BoundAtom<'_>| match alive {
        Some(rows) => rows.len(),
        None => atom.relation.len(),
    };

    // The key columns of `atom` for the given shared variables, restricted
    // to its alive rows.  With every row alive the relation's columns are
    // borrowed as-is (no copy); once a filter exists, the surviving rows are
    // gathered into `scratch`, one buffer per column.
    fn key_columns<'a, 's>(
        atom: &BoundAtom<'a>,
        alive: &Option<Vec<u32>>,
        shared: &[VarId],
        scratch: &'s mut Vec<Vec<ValueId>>,
    ) -> Vec<&'s [ValueId]>
    where
        'a: 's,
    {
        let column_of = |v: VarId| {
            let c = atom.vars.iter().position(|&u| u == v).unwrap();
            atom.relation.column_ids(c)
        };
        match alive {
            None => shared.iter().map(|&v| column_of(v)).collect(),
            Some(rows) => {
                scratch.clear();
                for &v in shared {
                    let mut gathered = Vec::new();
                    kernels::gather_ids(column_of(v), rows, &mut gathered);
                    scratch.push(gathered);
                }
                scratch.iter().map(|c| c.as_slice()).collect()
            }
        }
    }

    // Bottom-up pass: `tree.order` lists children before parents.
    let mut parent_scratch: Vec<Vec<ValueId>> = Vec::new();
    let mut child_scratch: Vec<Vec<ValueId>> = Vec::new();
    for &child in &tree.order {
        let Some(parent) = tree.parent[child] else {
            continue;
        };
        if let Some(token) = token {
            token.checkpoint()?;
        }
        let shared: Vec<VarId> = atoms[parent]
            .var_set()
            .intersection(&atoms[child].var_set())
            .copied()
            .collect();
        if shared.is_empty() {
            // No shared variables: the child only contributes an emptiness
            // check (a join tree normally connects on shared variables, but
            // disconnected queries degenerate here).
            if alive_count(&alive[child], &atoms[child]) == 0 {
                return Ok(Some(false));
            }
            continue;
        }
        let left_cols = key_columns(&atoms[parent], &alive[parent], &shared, &mut parent_scratch);
        let right_cols = key_columns(&atoms[child], &alive[child], &shared, &mut child_scratch);
        let mask = semijoin_mask(&left_cols, &right_cols);
        let mut surviving: Vec<u32> = Vec::new();
        kernels::select_indices(&mask, 0, &mut surviving);
        // `surviving` indexes the parent's *alive list*; map back to rows.
        let new_alive: Vec<u32> = match &alive[parent] {
            Some(rows) => surviving.iter().map(|&i| rows[i as usize]).collect(),
            None => surviving,
        };
        if new_alive.is_empty() {
            return Ok(Some(false));
        }
        alive[parent] = Some(new_alive);
    }
    Ok(Some(alive_count(&alive[tree.root], &atoms[tree.root]) > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_relation::{Relation, Value};

    fn rel(name: &str, rows: Vec<Vec<f64>>) -> Relation {
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        Relation::from_tuples(
            name,
            arity,
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::point).collect())
                .collect(),
        )
    }

    #[test]
    fn path_query_true_and_false() {
        // R(A,B) ∧ S(B,C) ∧ T(C,D)
        let r = rel("R", vec![vec![1.0, 2.0], vec![9.0, 9.0]]);
        let s = rel("S", vec![vec![2.0, 3.0]]);
        let t_yes = rel("T", vec![vec![3.0, 4.0]]);
        let t_no = rel("T", vec![vec![7.0, 4.0]]);
        let atoms_yes = vec![
            BoundAtom::new(&r, vec![0, 1]),
            BoundAtom::new(&s, vec![1, 2]),
            BoundAtom::new(&t_yes, vec![2, 3]),
        ];
        assert_eq!(yannakakis_boolean(&atoms_yes, None), Ok(Some(true)));
        let atoms_no = vec![
            BoundAtom::new(&r, vec![0, 1]),
            BoundAtom::new(&s, vec![1, 2]),
            BoundAtom::new(&t_no, vec![2, 3]),
        ];
        assert_eq!(yannakakis_boolean(&atoms_no, None), Ok(Some(false)));
    }

    #[test]
    fn cyclic_queries_are_rejected() {
        let r = rel("R", vec![vec![1.0, 2.0]]);
        let s = rel("S", vec![vec![2.0, 3.0]]);
        let t = rel("T", vec![vec![1.0, 3.0]]);
        let atoms = vec![
            BoundAtom::new(&r, vec![0, 1]),
            BoundAtom::new(&s, vec![1, 2]),
            BoundAtom::new(&t, vec![0, 2]),
        ];
        assert_eq!(yannakakis_boolean(&atoms, None), Ok(None));
    }

    #[test]
    fn star_query_with_selective_leaves() {
        // Center R(A,B,C) with leaves S(A), T(B), U(C).
        let r = rel(
            "R",
            vec![
                vec![1.0, 2.0, 3.0],
                vec![4.0, 5.0, 6.0],
                vec![1.0, 5.0, 3.0],
            ],
        );
        let s = rel("S", vec![vec![1.0]]);
        let t = rel("T", vec![vec![5.0]]);
        let u = rel("U", vec![vec![3.0]]);
        let atoms = vec![
            BoundAtom::new(&r, vec![0, 1, 2]),
            BoundAtom::new(&s, vec![0]),
            BoundAtom::new(&t, vec![1]),
            BoundAtom::new(&u, vec![2]),
        ];
        // Only (1,5,3) survives all three semijoins.
        assert_eq!(yannakakis_boolean(&atoms, None), Ok(Some(true)));

        let t_miss = rel("T", vec![vec![9.0]]);
        let atoms_miss = vec![
            BoundAtom::new(&r, vec![0, 1, 2]),
            BoundAtom::new(&s, vec![0]),
            BoundAtom::new(&t_miss, vec![1]),
            BoundAtom::new(&u, vec![2]),
        ];
        assert_eq!(yannakakis_boolean(&atoms_miss, None), Ok(Some(false)));
    }

    #[test]
    fn empty_relation_is_false_even_for_acyclic_queries() {
        let r = rel("R", vec![vec![1.0, 2.0]]);
        let empty = Relation::new("S", 2);
        let atoms = vec![
            BoundAtom::new(&r, vec![0, 1]),
            BoundAtom::new(&empty, vec![1, 2]),
        ];
        assert_eq!(yannakakis_boolean(&atoms, None), Ok(Some(false)));
    }

    #[test]
    fn no_atoms_is_true() {
        assert_eq!(yannakakis_boolean(&[], None), Ok(Some(true)));
    }

    #[test]
    fn agrees_with_generic_join_on_random_acyclic_instances() {
        use crate::generic::generic_join_boolean;
        // Small pseudo-random path instances.
        let mut seed = 42u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % 7) as f64
        };
        for _ in 0..50 {
            let rows = |n: usize, next: &mut dyn FnMut() -> f64| {
                (0..n).map(|_| vec![next(), next()]).collect::<Vec<_>>()
            };
            let r = rel("R", rows(6, &mut next));
            let s = rel("S", rows(6, &mut next));
            let t = rel("T", rows(6, &mut next));
            let atoms = vec![
                BoundAtom::new(&r, vec![0, 1]),
                BoundAtom::new(&s, vec![1, 2]),
                BoundAtom::new(&t, vec![2, 3]),
            ];
            assert_eq!(
                yannakakis_boolean(&atoms, None),
                generic_join_boolean(&atoms, None, Default::default()).map(Some)
            );
        }
    }

    #[test]
    fn repeated_variables_keep_their_equality() {
        // R(X, X, A) ∧ S(A): X is private to R, so no semijoin ever reads
        // it; the rows that break X = X must leave all the same.
        let s = rel("S", vec![vec![7.0]]);
        let broken = rel("R", vec![vec![1.0, 2.0, 7.0]]);
        let kept = rel("R", vec![vec![1.0, 2.0, 7.0], vec![3.0, 3.0, 7.0]]);
        for (r, expected) in [(&broken, false), (&kept, true)] {
            let atoms = vec![
                BoundAtom::new(r, vec![0, 0, 1]),
                BoundAtom::new(&s, vec![1]),
            ];
            assert_eq!(yannakakis_boolean(&atoms, None), Ok(Some(expected)));
        }
        // R(X, X) ∧ S(X): the key column is X's first; (1, 2) must not match
        // S = {1} through it.
        let s = rel("S", vec![vec![1.0]]);
        let broken = rel("R", vec![vec![1.0, 2.0]]);
        let kept = rel("R", vec![vec![1.0, 2.0], vec![1.0, 1.0]]);
        for (r, expected) in [(&broken, false), (&kept, true)] {
            let atoms = vec![BoundAtom::new(r, vec![0, 0]), BoundAtom::new(&s, vec![0])];
            assert_eq!(yannakakis_boolean(&atoms, None), Ok(Some(expected)));
            // Either atom may end up the semijoin's child.
            let flipped: Vec<_> = atoms.iter().rev().cloned().collect();
            assert_eq!(yannakakis_boolean(&flipped, None), Ok(Some(expected)));
        }
    }

    #[test]
    fn the_token_is_polled_once_per_join_tree_edge() {
        let r = rel("R", vec![vec![1.0, 2.0]]);
        let s = rel("S", vec![vec![2.0, 3.0]]);
        let path = vec![
            BoundAtom::new(&r, vec![0, 1]),
            BoundAtom::new(&s, vec![1, 2]),
        ];
        let token = CancellationToken::new();
        assert_eq!(yannakakis_boolean(&path, Some(&token)), Ok(Some(true)));
        token.cancel();
        assert_eq!(
            yannakakis_boolean(&path, Some(&token)),
            Err(EvalError::Cancelled)
        );
        let expired = CancellationToken::new().with_budget(std::time::Duration::ZERO);
        assert!(matches!(
            yannakakis_boolean(&path, Some(&expired)),
            Err(EvalError::DeadlineExceeded { .. })
        ));
        // No edge, no poll: a single atom is answered by its row count.
        assert_eq!(yannakakis_boolean(&path[..1], Some(&token)), Ok(Some(true)));
    }
}
