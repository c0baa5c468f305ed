//! Yannakakis' algorithm for α-acyclic Boolean conjunctive queries \[35\].
//!
//! For a Boolean query it suffices to run the bottom-up semijoin pass of the
//! full reducer over a join tree: each relation is semijoin-reduced by its
//! children (in a leaves-first order); the query is true if and only if the
//! root relation keeps a row, so the last semijoin into the root only has to
//! learn whether one root row matches, not which ones do.  The pass costs
//! time linear in the total size of the relations (with hashing), which is
//! what makes ι-acyclic IJ queries near-linear after the forward reduction
//! (Theorem 6.6).
//!
//! # Schedule: cheapest refutation first
//!
//! A join tree can be rooted at any of its atoms, and any leaves-first order
//! of its edges reduces the root to the same rows.  The pass roots GYO's tree
//! at the atom with the most alive rows — the one relation never read as a
//! semijoin's child — and then repeatedly runs the ready leaf edge (a child
//! with no unreduced children of its own) whose child and parent hold the
//! fewest alive rows between them.  A false disjunct usually dies at its
//! first empty parent, so the order decides what a refutation costs: the
//! cheapest edges run first, and every semijoin shrinks the parents the
//! later ones read.  Join-tree edges that share no variable are cut, leaving
//! one tree per group of atoms connected through shared variables, each
//! rooted at its own largest atom; the query is true when every tree's root
//! keeps a row.
//!
//! Each root's last edge — the one whose parent has no parent and no other
//! pending child — is an existence probe ([`kernels::semijoin_any`]): it
//! stops at the first root row whose key the child holds, and finishes that
//! tree without rebuilding the root's alive list, or answers false when no
//! row matches.  On `temporal-sparse` at seed 7 that edge reads about 51 k
//! root rows against 16 k child rows, and about 15 k root rows would survive
//! it: the probe hashes the child's keys and reads the root's rows only up
//! to its first hit, where a mask would read all of them and list the
//! survivors.  Multi-bag decompositions reach this pass too, through the
//! bag query of the width-guided evaluation.
//!
//! # Implementation: alive-row lists over scan kernels
//!
//! The pass never materialises intermediate relations.  Each atom carries an
//! **alive-row list** (`None` = all rows alive); one semijoin step gathers
//! the parent's and child's key columns at their alive rows
//! ([`kernels::gather_ids`]), filters the parent's rows with
//! [`kernels::semijoin_mask`] and shrinks the parent's list with the chunked
//! selection kernel; a root's last edge asks [`kernels::semijoin_any`]
//! instead and leaves the root's list as it is.  Column copies are limited
//! to the key columns actually probed.  The kernel reads each parent row's first key column against a
//! bitmap of the child's first key column and builds a whole key — up to
//! four columns, a fixed-width integer read straight from the columns —
//! only for the rows that pass, probing it against a hash set of the
//! child's keys (when a sample of the parent's first ids mostly passes,
//! it probes every row instead).  A refutation is mostly first-column
//! misses: on `ip-ranges-product` at seed 7 the 36 semijoins of an
//! evaluation read about 1.17 M parent rows against 28 k child rows, and
//! the first column alone rejects 81 % of them.  The child is always the
//! side hashed and bitmapped: the parent is seldom the smaller one (on that
//! workload in 4 of the 36 semijoins, each within 13 % of its child's rows),
//! so building either structure over the smaller side would buy nothing.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::atom::{hypergraph_of, BoundAtom};
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
/// `token`, if any, is polled once per join-tree edge: before the edge's
/// semijoin, or before the first semijoin for an edge that shares no
/// variable (it has none).  A token cancelled (or past its deadline) by then
/// surfaces as its [`EvalError`] and no further semijoin runs.
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
    let alive_count = |alive: &[Option<Vec<u32>>], a: usize| match &alive[a] {
        Some(rows) => rows.len(),
        None => atoms[a].relation.len(),
    };

    // The variables each join-tree edge shares; an edge that shares none
    // joins two independent parts of the query and is cut.  A cut edge runs
    // no semijoin, so it is polled here.
    let shared_vars = |a: usize, b: usize| -> Vec<VarId> {
        atoms[a]
            .var_set()
            .intersection(&atoms[b].var_set())
            .copied()
            .collect()
    };
    let mut neighbours: Vec<Vec<usize>> = vec![Vec::new(); atoms.len()];
    for (child, parent) in tree.parent.iter().enumerate() {
        if let Some(parent) = *parent {
            if !shared_vars(child, parent).is_empty() {
                neighbours[child].push(parent);
                neighbours[parent].push(child);
            } else if let Some(token) = token {
                token.checkpoint()?;
            }
        }
    }

    // Re-root every tree of the cut forest at its atom with the most alive
    // rows: visit atoms largest first, and each one not yet reached roots
    // the tree it spans.
    let mut by_size: Vec<usize> = (0..atoms.len()).collect();
    by_size.sort_by_key(|&a| std::cmp::Reverse(alive_count(&alive, a)));
    let mut parent_of: Vec<Option<usize>> = vec![None; atoms.len()];
    let mut pending_children = vec![0usize; atoms.len()];
    let mut reached = vec![false; atoms.len()];
    for root in by_size {
        if reached[root] {
            continue;
        }
        reached[root] = true;
        let mut stack = vec![root];
        while let Some(a) = stack.pop() {
            for &b in &neighbours[a] {
                if !reached[b] {
                    reached[b] = true;
                    parent_of[b] = Some(a);
                    pending_children[a] += 1;
                    stack.push(b);
                }
            }
        }
    }

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
            #[expect(
                clippy::unwrap_used,
                reason = "infallible: `shared` holds only variables of both atoms"
            )]
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

    // Bottom-up pass: the ready leaf edge with the fewest alive rows first;
    // a reduced child leaves the tree.  Every alive list stays non-empty
    // (the pass stops at the first empty parent), and each root's last edge
    // only asks whether the root keeps a row, so finishing every edge
    // answers true.
    let mut parent_scratch: Vec<Vec<ValueId>> = Vec::new();
    let mut child_scratch: Vec<Vec<ValueId>> = Vec::new();
    loop {
        let next = (0..atoms.len())
            .filter_map(|c| {
                let p = parent_of[c]?;
                (pending_children[c] == 0).then_some((c, p))
            })
            .min_by_key(|&(c, p)| alive_count(&alive, c) + alive_count(&alive, p));
        let Some((child, parent)) = next else {
            return Ok(Some(true));
        };
        if let Some(token) = token {
            token.checkpoint()?;
        }
        let shared = shared_vars(parent, child);
        let left_cols = key_columns(&atoms[parent], &alive[parent], &shared, &mut parent_scratch);
        let right_cols = key_columns(&atoms[child], &alive[child], &shared, &mut child_scratch);
        if parent_of[parent].is_none() && pending_children[parent] == 1 {
            // The last edge into a root: no later semijoin reads the root's
            // rows, so one surviving row finishes its tree.
            if !kernels::semijoin_any(&left_cols, &right_cols) {
                return Ok(Some(false));
            }
        } else {
            let mask = kernels::semijoin_mask(&left_cols, &right_cols);
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
        parent_of[child] = None;
        pending_children[parent] -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_relation::{Relation, SharedDictionary, Value};

    fn rel(dict: &SharedDictionary, name: &str, rows: Vec<Vec<f64>>) -> Relation {
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        Relation::from_tuples(
            name,
            arity,
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::point).collect())
                .collect(),
            dict,
        )
    }

    #[test]
    fn path_query_true_and_false() {
        // R(A,B) ∧ S(B,C) ∧ T(C,D)
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0], vec![9.0, 9.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 3.0]]);
        let t_yes = rel(&dict, "T", vec![vec![3.0, 4.0]]);
        let t_no = rel(&dict, "T", vec![vec![7.0, 4.0]]);
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
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 3.0]]);
        let t = rel(&dict, "T", vec![vec![1.0, 3.0]]);
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
        let dict = SharedDictionary::new();
        let r = rel(
            &dict,
            "R",
            vec![
                vec![1.0, 2.0, 3.0],
                vec![4.0, 5.0, 6.0],
                vec![1.0, 5.0, 3.0],
            ],
        );
        let s = rel(&dict, "S", vec![vec![1.0]]);
        let t = rel(&dict, "T", vec![vec![5.0]]);
        let u = rel(&dict, "U", vec![vec![3.0]]);
        let atoms = vec![
            BoundAtom::new(&r, vec![0, 1, 2]),
            BoundAtom::new(&s, vec![0]),
            BoundAtom::new(&t, vec![1]),
            BoundAtom::new(&u, vec![2]),
        ];
        // Only (1,5,3) survives all three semijoins.
        assert_eq!(yannakakis_boolean(&atoms, None), Ok(Some(true)));

        let t_miss = rel(&dict, "T", vec![vec![9.0]]);
        let atoms_miss = vec![
            BoundAtom::new(&r, vec![0, 1, 2]),
            BoundAtom::new(&s, vec![0]),
            BoundAtom::new(&t_miss, vec![1]),
            BoundAtom::new(&u, vec![2]),
        ];
        assert_eq!(yannakakis_boolean(&atoms_miss, None), Ok(Some(false)));
    }

    #[test]
    fn a_root_whose_last_child_misses_its_alive_rows_is_false() {
        use crate::generic::generic_join_boolean;
        // Center R(A,B,C) with leaves S(A), T(B), U(C).  S and T run first
        // (the cheapest edges) and leave R's rows (1,5,3) and (1,5,4); U,
        // the largest leaf, is R's last child and probes only those rows.
        // U = {9, 7, 8} matches R's dead row (9,9,9) alone.
        let dict = SharedDictionary::new();
        let r = rel(
            &dict,
            "R",
            vec![
                vec![1.0, 5.0, 3.0],
                vec![1.0, 5.0, 4.0],
                vec![2.0, 6.0, 3.0],
                vec![9.0, 9.0, 9.0],
            ],
        );
        let s = rel(&dict, "S", vec![vec![1.0]]);
        let t = rel(&dict, "T", vec![vec![5.0]]);
        for (u, expected) in [([9.0, 7.0, 8.0], false), ([9.0, 4.0, 8.0], true)] {
            let u = rel(&dict, "U", u.iter().map(|&c| vec![c]).collect());
            let atoms = vec![
                BoundAtom::new(&r, vec![0, 1, 2]),
                BoundAtom::new(&s, vec![0]),
                BoundAtom::new(&t, vec![1]),
                BoundAtom::new(&u, vec![2]),
            ];
            assert_eq!(
                generic_join_boolean(&atoms, None, Default::default()),
                Ok(expected)
            );
            for perm in permutations(atoms.len()) {
                let permuted: Vec<_> = perm.iter().map(|&i| atoms[i].clone()).collect();
                assert_eq!(
                    yannakakis_boolean(&permuted, None),
                    Ok(Some(expected)),
                    "order {perm:?}"
                );
            }
        }
    }

    #[test]
    fn a_cut_forest_is_true_only_when_every_tree_is() {
        // R(A,B) ⋉ S(B) and T(C,D) ⋉ U(D) share no variable: two trees,
        // each a root with one child, so each edge is its root's existence
        // probe.  The T tree is the larger, so its edge runs second, after
        // the R tree's probe has already finished that tree.
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let s = rel(&dict, "S", vec![vec![2.0]]);
        let t = rel(
            &dict,
            "T",
            vec![vec![5.0, 6.0], vec![7.0, 8.0], vec![9.0, 10.0]],
        );
        for (u, expected) in [([11.0, 12.0], false), ([11.0, 8.0], true)] {
            let u = rel(&dict, "U", u.iter().map(|&d| vec![d]).collect());
            let atoms = [
                BoundAtom::new(&r, vec![0, 1]),
                BoundAtom::new(&s, vec![1]),
                BoundAtom::new(&t, vec![2, 3]),
                BoundAtom::new(&u, vec![3]),
            ];
            for perm in permutations(atoms.len()) {
                let permuted: Vec<_> = perm.iter().map(|&i| atoms[i].clone()).collect();
                assert_eq!(
                    yannakakis_boolean(&permuted, None),
                    Ok(Some(expected)),
                    "order {perm:?}"
                );
            }
        }
        // The false tree first: a miss answers before the other tree runs.
        let s_miss = rel(&dict, "S", vec![vec![0.0]]);
        let u = rel(&dict, "U", vec![vec![8.0]]);
        let atoms = vec![
            BoundAtom::new(&r, vec![0, 1]),
            BoundAtom::new(&s_miss, vec![1]),
            BoundAtom::new(&t, vec![2, 3]),
            BoundAtom::new(&u, vec![3]),
        ];
        assert_eq!(yannakakis_boolean(&atoms, None), Ok(Some(false)));
    }

    #[test]
    fn empty_relation_is_false_even_for_acyclic_queries() {
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0]]);
        let empty = Relation::new("S", 2, &dict);
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
        let dict = SharedDictionary::new();
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
            let r = rel(&dict, "R", rows(6, &mut next));
            let s = rel(&dict, "S", rows(6, &mut next));
            let t = rel(&dict, "T", rows(6, &mut next));
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

    /// Every ordering of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for perm in permutations(n - 1) {
            for at in 0..=perm.len() {
                let mut p = perm.clone();
                p.insert(at, n - 1);
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn every_root_and_atom_order_agrees_with_generic_join() {
        use crate::generic::generic_join_boolean;
        // Path, star (keys of one and two columns) and a disconnected query
        // (a path beside a pair sharing three variables).  Each shape is run
        // with every atom inflated in turn, so the largest atom — the root —
        // moves through the tree, and under every atom order.
        let dict = SharedDictionary::new();
        let shapes: [Vec<Vec<VarId>>; 3] = [
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]],
            vec![vec![0, 1, 2], vec![0], vec![0, 1, 3], vec![2]],
            vec![vec![0, 1], vec![1, 2], vec![5, 6, 7], vec![5, 6, 7, 8]],
        ];
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % 3) as f64
        };
        let mut answers = [0usize; 2];
        for vars in &shapes {
            for big in 0..vars.len() {
                for _ in 0..4 {
                    let relations: Vec<Relation> = vars
                        .iter()
                        .enumerate()
                        .map(|(i, vs)| {
                            let n = if i == big { 30 } else { 3 };
                            let rows = (0..n)
                                .map(|_| (0..vs.len()).map(|_| next()).collect())
                                .collect();
                            rel(&dict, &format!("R{i}"), rows)
                        })
                        .collect();
                    let atoms: Vec<BoundAtom<'_>> = relations
                        .iter()
                        .zip(vars)
                        .map(|(r, vs)| BoundAtom::new(r, vs.clone()))
                        .collect();
                    let expected = generic_join_boolean(&atoms, None, Default::default());
                    answers[usize::from(expected == Ok(true))] += 1;
                    for perm in permutations(atoms.len()) {
                        let permuted: Vec<_> = perm.iter().map(|&i| atoms[i].clone()).collect();
                        assert_eq!(
                            yannakakis_boolean(&permuted, None),
                            expected.clone().map(Some),
                            "shape {vars:?}, inflated atom {big}, order {perm:?}"
                        );
                    }
                }
            }
        }
        // Both answers occur, so the agreement is not vacuous.
        assert!(answers.iter().all(|&n| n > 0), "{answers:?}");
    }

    #[test]
    fn repeated_variables_keep_their_equality() {
        // R(X, X, A) ∧ S(A): X is private to R, so no semijoin ever reads
        // it; the rows that break X = X must leave all the same.
        let dict = SharedDictionary::new();
        let s = rel(&dict, "S", vec![vec![7.0]]);
        let broken = rel(&dict, "R", vec![vec![1.0, 2.0, 7.0]]);
        let kept = rel(&dict, "R", vec![vec![1.0, 2.0, 7.0], vec![3.0, 3.0, 7.0]]);
        for (r, expected) in [(&broken, false), (&kept, true)] {
            let atoms = vec![
                BoundAtom::new(r, vec![0, 0, 1]),
                BoundAtom::new(&s, vec![1]),
            ];
            assert_eq!(yannakakis_boolean(&atoms, None), Ok(Some(expected)));
        }
        // R(X, X) ∧ S(X): the key column is X's first; (1, 2) must not match
        // S = {1} through it.
        let s = rel(&dict, "S", vec![vec![1.0]]);
        let broken = rel(&dict, "R", vec![vec![1.0, 2.0]]);
        let kept = rel(&dict, "R", vec![vec![1.0, 2.0], vec![1.0, 1.0]]);
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
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 3.0]]);
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
        // An edge between independent parts, R(X) ∧ S(Y), runs no semijoin
        // and is polled all the same.
        let x = rel(&dict, "X", vec![vec![1.0]]);
        let y = rel(&dict, "Y", vec![vec![2.0]]);
        let parts = vec![BoundAtom::new(&x, vec![0]), BoundAtom::new(&y, vec![1])];
        assert_eq!(yannakakis_boolean(&parts, None), Ok(Some(true)));
        assert_eq!(
            yannakakis_boolean(&parts, Some(&token)),
            Err(EvalError::Cancelled)
        );
    }
}
