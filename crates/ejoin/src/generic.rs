//! The generic worst-case-optimal join (attribute-at-a-time).
//!
//! The join processes the variables in a fixed global order.  For the current
//! variable it intersects the candidate values offered by every atom whose
//! trie is positioned at that variable, then recurses.  For Boolean queries
//! the recursion stops at the first full assignment; for enumeration it
//! collects the projection of every full assignment onto the requested output
//! variables.
//!
//! This is the standard leapfrog/generic-join scheme of Ngo et al. \[27\] and
//! Veldhuizen \[34\], realised over interned [`ValueId`]s — the search
//! intersects and collects dense `u32` ids end to end and only resolves
//! values at the API boundary.
//!
//! Each atom is indexed as a [`FlatTrie`] — CSR-style sorted value arrays per
//! level — so candidate generation is a true leapfrog: the participating
//! atoms' sorted runs are multi-way intersected with galloping seeks
//! ([`kernels::leapfrog_next`]) and each match descends by index arithmetic —
//! no hashing, no per-candidate allocation.
//!
//! # Caching
//!
//! Both joins take an [`EvalContext`]: tries are served from its
//! [`TrieCache`](crate::TrieCache) when one is attached and built on the
//! calling thread otherwise.  The search is single-threaded — the engine's
//! parallelism is across the disjuncts of a reduction, one join per worker —
//! and the answer is identical for every context.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::atom::BoundAtom;
use crate::cache::EvalContext;
use crate::flat::FlatTrie;
use ij_hypergraph::VarId;
use ij_relation::{kernels, CancelTicker, EvalError, Relation, SharedDictionary, Value, ValueId};
use std::sync::Arc;

/// A shared context for one generic-join execution: one trie per atom.
struct JoinContext {
    tries: Vec<Arc<FlatTrie>>,
    order: Vec<VarId>,
    /// For every order position, the atoms whose tries participate in that
    /// variable — precomputed once so the recursion never re-filters (or
    /// re-allocates) the list at every depth of every subtree.
    participating: Vec<Vec<usize>>,
}

impl JoinContext {
    /// Builds (or fetches from the context's cache) every atom's trie.
    /// Fallible: trie builds poll `eval.token`, so a cancellation or deadline
    /// expiry surfaces here before the search starts.
    fn new(
        atoms: &[BoundAtom<'_>],
        order: Option<Vec<VarId>>,
        eval: EvalContext<'_>,
    ) -> Result<Self, EvalError> {
        // No explicit order: plan one from cardinalities and degrees (see
        // `crate::plan`).
        let order = order.unwrap_or_else(|| crate::plan::resolve_order(atoms, &[], eval));
        let tries: Vec<Arc<FlatTrie>> = atoms
            .iter()
            .map(|a| match eval.cache {
                Some(cache) => cache.tries_for(a, &order, eval.activity, eval.token),
                None => Ok(Arc::new(FlatTrie::build(a, &order, eval.token)?)),
            })
            .collect::<Result<_, EvalError>>()?;
        let participating: Vec<Vec<usize>> = order
            .iter()
            .map(|v| {
                (0..tries.len())
                    .filter(|&i| tries[i].level_vars.contains(v))
                    .collect()
            })
            .collect();
        Ok(JoinContext {
            tries,
            order,
            participating,
        })
    }

    /// Every atom's root position.
    fn roots(&self) -> Vec<Pos<'_>> {
        self.tries
            .iter()
            .map(|trie| Pos {
                trie,
                level: 0,
                lo: 0,
                hi: if trie.depth() == 0 {
                    0
                } else {
                    trie.level_len(0)
                },
            })
            .collect()
    }
}

/// One atom's cursor into its trie during the search: the candidate values
/// `trie.run(level, lo, hi)` — one parent's sorted, distinct children.
/// `Copy`, so saving and restoring a frame's participating positions copies a
/// few words instead of cloning a `Vec` per candidate.
///
/// `level == trie.depth()` (with an empty range) means the atom's full path
/// is consumed; such positions never participate in a later variable, so
/// their run is never read.
#[derive(Clone, Copy)]
struct Pos<'t> {
    /// The trie this cursor ranges over.
    trie: &'t FlatTrie,
    /// Current level.
    level: usize,
    /// Run start (absolute index into the level's value array).
    lo: u32,
    /// Run end (exclusive).
    hi: u32,
}

impl<'t> Pos<'t> {
    /// The candidate values this position offers.
    fn run(self) -> &'t [ValueId] {
        self.trie.run(self.level, self.lo, self.hi)
    }

    /// The position below the entry at offset `at` of the run: the child run
    /// one level deeper, or the consumed position past the deepest level.
    fn down(self, at: usize) -> Pos<'t> {
        let (lo, hi) = if self.level + 1 < self.trie.depth() {
            self.trie.child_range(self.level, self.lo + at as u32)
        } else {
            (0, 0)
        };
        Pos {
            trie: self.trie,
            level: self.level + 1,
            lo,
            hi,
        }
    }
}

/// Evaluates the Boolean conjunctive query given by `atoms` (all joins are
/// equality joins on the shared variables).  Returns true if the join is
/// non-empty.  An explicit variable order can be supplied; by default the
/// order is planned from cardinalities and degrees ([`crate::plan`]).  Tries
/// come from the context's cache (when present); the answer is identical for
/// every order and every context.
///
/// # Errors
///
/// When the context carries a [`CancellationToken`](ij_relation::CancellationToken),
/// the trie builds and the candidate-intersection loops poll it every
/// [`check_interval`](ij_relation::CancellationToken::check_interval)
/// rows / candidates and surface [`EvalError::Cancelled`] /
/// [`EvalError::DeadlineExceeded`].  A tokenless context never fails.
pub fn generic_join_boolean(
    atoms: &[BoundAtom<'_>],
    order: Option<Vec<VarId>>,
    eval: EvalContext<'_>,
) -> Result<bool, EvalError> {
    if atoms.iter().any(|a| a.relation.is_empty()) {
        return Ok(false);
    }
    if atoms.is_empty() {
        return Ok(true);
    }
    let ctx = JoinContext::new(atoms, order, eval)?;
    let mut positions = ctx.roots();
    let mut ticker = CancelTicker::new(eval.token);
    search(&ctx, 0, &mut positions, &mut ticker)
}

/// Enumerates the projection of the join onto `output_vars`, deduplicated.
/// The variable order used for the join is `output_vars` first (in the given
/// order) followed by the remaining variables; this guarantees that results
/// can be collected without buffering full assignments.  Tries come from the
/// context's cache (when present); the output relation is sorted and
/// deduplicated, identical for every context.
///
/// # Errors
///
/// Same taxonomy as [`generic_join_boolean`]; an interrupted enumeration
/// fails as a whole (a partial enumeration would be a wrong answer).
pub fn generic_join_enumerate(
    atoms: &[BoundAtom<'_>],
    output_vars: &[VarId],
    output_name: &str,
    eval: EvalContext<'_>,
) -> Result<Relation, EvalError> {
    // The output lives in the input atoms' dictionary (ids pass through
    // without re-interning); with no atoms, in a fresh one.
    let dict = atoms
        .first()
        .map_or_else(SharedDictionary::new, |a| a.relation.dictionary().clone());
    let mut out = Relation::new(output_name, output_vars.len(), &dict);
    if atoms.is_empty() || atoms.iter().any(|a| a.relation.is_empty()) {
        return Ok(out);
    }
    // Order: output variables first (pinned, so results stream without
    // buffering full assignments), then the rest as planned.
    let order: Vec<VarId> = crate::plan::resolve_order(atoms, output_vars, eval);
    let ctx = JoinContext::new(atoms, Some(order.clone()), eval)?;
    #[expect(
        clippy::unwrap_used,
        reason = "infallible: `order` covers every variable by construction"
    )]
    let out_positions: Vec<usize> = output_vars
        .iter()
        .map(|v| order.iter().position(|u| u == v).unwrap())
        .collect();

    // Collect assignments of the output prefix; because output variables form
    // a prefix of the order, each time the search reaches depth
    // `output_vars.len()` with a new prefix we record it and prune the rest of
    // that subtree only after establishing at least one full match.
    // Variables constrained by no atom keep the placeholder value, which must
    // be resolvable in case such a variable is part of the output, so it is
    // interned into the atoms' dictionary (once per call — after the first
    // call this is one read-lock probe of the dictionary, off the search hot
    // path).
    let placeholder = dict.intern(Value::point(0.0));
    let mut results: Vec<Vec<ValueId>> = Vec::new();
    // An atom whose repeated-variable filter rejected every row empties the
    // join whatever the other atoms hold.
    if !ctx.tries.iter().any(|trie| trie.is_empty()) {
        let mut positions = ctx.roots();
        let mut assignment: Vec<ValueId> = vec![placeholder; order.len()];
        let mut ticker = CancelTicker::new(eval.token);
        enumerate_rec(
            &ctx,
            0,
            &mut positions,
            &mut assignment,
            &out_positions,
            &mut results,
            &mut ticker,
        )?;
    }
    results.sort_unstable();
    results.dedup();
    for r in results {
        out.push_ids(&r);
    }
    Ok(out)
}

/// Intersects the candidate values for `depth` across the participating
/// atoms' positions, invoking `visit` once per value of the intersection with
/// every participating position descended into that value.  Returns `true`
/// the moment `visit` does (the Boolean search's early exit — the whole stack
/// unwinds, so positions need no restoring); otherwise restores the
/// participating positions and returns `false`.
///
/// Only the participating atoms' positions are saved — a `Copy` of a few
/// words each.  The intersection is a true leapfrog
/// ([`kernels::leapfrog_next`]): the sorted runs are multi-way intersected
/// with galloping seeks, and each matched value descends every atom by index
/// arithmetic off its aligned cursor, no probing at all.
///
/// The ticker is threaded through every frame of the recursion (lent to
/// `visit` and back), so the cancellation check interval is amortised over
/// the *whole* search — one countdown across all depths — and ticked once per
/// value of the intersection.
fn intersect_candidates<'t, 'k>(
    ctx: &'t JoinContext,
    depth: usize,
    positions: &mut Vec<Pos<'t>>,
    ticker: &mut CancelTicker<'k>,
    visit: &mut impl FnMut(&mut Vec<Pos<'t>>, &mut CancelTicker<'k>, ValueId) -> Result<bool, EvalError>,
) -> Result<bool, EvalError> {
    let participating = &ctx.participating[depth];
    let saved: Vec<Pos<'t>> = participating.iter().map(|&i| positions[i]).collect();
    let runs: Vec<&[ValueId]> = saved.iter().map(|p| p.run()).collect();
    let mut cursors = vec![0usize; runs.len()];
    while let Some(value) = kernels::leapfrog_next(&runs, &mut cursors) {
        ticker.tick()?;
        // Every cursor points at `value`; descend by index.
        for (slot, &i) in participating.iter().enumerate() {
            positions[i] = saved[slot].down(cursors[slot]);
        }
        if visit(positions, ticker, value)? {
            return Ok(true);
        }
        for c in cursors.iter_mut() {
            *c += 1;
        }
    }
    for (slot, &i) in participating.iter().enumerate() {
        positions[i] = saved[slot];
    }
    Ok(false)
}

/// Core recursive search: `true` as soon as one full assignment exists.
fn search<'t, 'k>(
    ctx: &'t JoinContext,
    depth: usize,
    positions: &mut Vec<Pos<'t>>,
    ticker: &mut CancelTicker<'k>,
) -> Result<bool, EvalError> {
    if depth == ctx.order.len() {
        return Ok(true);
    }
    if ctx.participating[depth].is_empty() {
        // No atom constrains this variable (can happen for variables
        // projected away by empty atoms lists); just skip it.
        return search(ctx, depth + 1, positions, ticker);
    }
    intersect_candidates(
        ctx,
        depth,
        positions,
        ticker,
        &mut |positions, ticker, _| search(ctx, depth + 1, positions, ticker),
    )
}

/// Recursive enumeration collecting output prefixes of satisfiable
/// assignments.
fn enumerate_rec<'t, 'k>(
    ctx: &'t JoinContext,
    depth: usize,
    positions: &mut Vec<Pos<'t>>,
    assignment: &mut Vec<ValueId>,
    out_positions: &[usize],
    results: &mut Vec<Vec<ValueId>>,
    ticker: &mut CancelTicker<'k>,
) -> Result<(), EvalError> {
    if depth == ctx.order.len() {
        results.push(out_positions.iter().map(|&p| assignment[p]).collect());
        return Ok(());
    }
    if ctx.participating[depth].is_empty() {
        return enumerate_rec(
            ctx,
            depth + 1,
            positions,
            assignment,
            out_positions,
            results,
            ticker,
        );
    }
    intersect_candidates(
        ctx,
        depth,
        positions,
        ticker,
        &mut |positions, ticker, value| {
            assignment[depth] = value;
            enumerate_rec(
                ctx,
                depth + 1,
                positions,
                assignment,
                out_positions,
                results,
                ticker,
            )?;
            Ok(false)
        },
    )?;
    Ok(())
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

    const A: VarId = 0;
    const B: VarId = 1;
    const C: VarId = 2;

    fn boolean(atoms: &[BoundAtom<'_>], order: Option<Vec<VarId>>) -> bool {
        generic_join_boolean(atoms, order, EvalContext::default()).unwrap()
    }

    fn enumerate(atoms: &[BoundAtom<'_>], output_vars: &[VarId]) -> Relation {
        generic_join_enumerate(atoms, output_vars, "out", EvalContext::default()).unwrap()
    }

    #[test]
    fn triangle_join_finds_a_triangle() {
        // R(A,B), S(B,C), T(A,C) with exactly one triangle (1,2,3).
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0], vec![4.0, 5.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 3.0], vec![5.0, 9.0]]);
        let t = rel(&dict, "T", vec![vec![1.0, 3.0], vec![7.0, 9.0]]);
        let atoms = vec![
            BoundAtom::new(&r, vec![A, B]),
            BoundAtom::new(&s, vec![B, C]),
            BoundAtom::new(&t, vec![A, C]),
        ];
        assert!(boolean(&atoms, None));
        let out = enumerate(&atoms, &[A, B, C]);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out.tuples()[0],
            vec![Value::point(1.0), Value::point(2.0), Value::point(3.0)]
        );
    }

    #[test]
    fn triangle_join_rejects_near_misses() {
        // Edges exist pairwise but no closed triangle.
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 3.0]]);
        let t = rel(&dict, "T", vec![vec![1.0, 4.0]]);
        let atoms = vec![
            BoundAtom::new(&r, vec![A, B]),
            BoundAtom::new(&s, vec![B, C]),
            BoundAtom::new(&t, vec![A, C]),
        ];
        assert!(!boolean(&atoms, None));
        assert!(enumerate(&atoms, &[A]).is_empty());
    }

    #[test]
    fn empty_relation_short_circuits() {
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0]]);
        let empty = Relation::new("S", 2, &dict);
        let atoms = vec![
            BoundAtom::new(&r, vec![A, B]),
            BoundAtom::new(&empty, vec![B, C]),
        ];
        assert!(!boolean(&atoms, None));
    }

    #[test]
    fn no_atoms_means_true() {
        assert!(boolean(&[], None));
    }

    #[test]
    fn cartesian_product_when_no_shared_variables() {
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0], vec![2.0]]);
        let s = rel(&dict, "S", vec![vec![10.0], vec![20.0], vec![30.0]]);
        let atoms = vec![BoundAtom::new(&r, vec![A]), BoundAtom::new(&s, vec![B])];
        assert!(boolean(&atoms, None));
        let out = enumerate(&atoms, &[A, B]);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn enumeration_projects_and_deduplicates() {
        let dict = SharedDictionary::new();
        let r = rel(
            &dict,
            "R",
            vec![vec![1.0, 2.0], vec![1.0, 3.0], vec![2.0, 4.0]],
        );
        let s = rel(&dict, "S", vec![vec![2.0], vec![3.0], vec![4.0]]);
        let atoms = vec![BoundAtom::new(&r, vec![A, B]), BoundAtom::new(&s, vec![B])];
        let out = enumerate(&atoms, &[A]);
        // A values with some matching B: {1, 2}.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn enumeration_with_unconstrained_output_variable_is_resolvable() {
        // An output variable no atom constrains keeps the resolvable
        // placeholder value (regression: a raw dummy id would panic on
        // resolve).
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0]]);
        let atoms = vec![BoundAtom::new(&r, vec![A])];
        let out = enumerate(&atoms, &[A, B]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0], vec![Value::point(1.0), Value::point(0.0)]);
    }

    #[test]
    fn explicit_variable_order_is_respected() {
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 3.0]]);
        let atoms = vec![
            BoundAtom::new(&r, vec![A, B]),
            BoundAtom::new(&s, vec![B, C]),
        ];
        for order in [vec![A, B, C], vec![C, B, A], vec![B, A, C]] {
            assert!(boolean(&atoms, Some(order)));
        }
    }

    #[test]
    fn self_join_pattern_with_repeated_variable() {
        // R(A, A) as a filter for equal columns.
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 1.0], vec![2.0, 3.0]]);
        let atoms = vec![BoundAtom::new(&r, vec![A, A])];
        let out = enumerate(&atoms, &[A]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0][0], Value::point(1.0));
    }

    /// The triangle `R(A,B) ⋈ S(B,C) ⋈ T(A,C)` by nested loops over the rows.
    fn brute_force_triangle(r: &Relation, s: &Relation, t: &Relation) -> Vec<Vec<Value>> {
        let mut out = std::collections::BTreeSet::new();
        for x in r.tuples() {
            for y in s.tuples() {
                for z in t.tuples() {
                    if x[1] == y[0] && x[0] == z[0] && y[1] == z[1] {
                        out.insert(vec![x[0], x[1], y[1]]);
                    }
                }
            }
        }
        out.into_iter().collect()
    }

    fn sorted_tuples(relation: &Relation) -> Vec<Vec<Value>> {
        let mut tuples = relation.tuples();
        tuples.sort();
        tuples
    }

    #[test]
    fn cached_and_uncached_joins_match_brute_force() {
        use crate::cache::TrieCache;
        let dict = SharedDictionary::new();
        let mut seed = 99u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % 6) as f64
        };
        let cache = TrieCache::new();
        for _ in 0..20 {
            let rows = |n: usize, next: &mut dyn FnMut() -> f64| {
                (0..n).map(|_| vec![next(), next()]).collect::<Vec<_>>()
            };
            let r = rel(&dict, "R", rows(8, &mut next));
            let s = rel(&dict, "S", rows(8, &mut next));
            let t = rel(&dict, "T", rows(8, &mut next));
            let atoms = vec![
                BoundAtom::new(&r, vec![A, B]),
                BoundAtom::new(&s, vec![B, C]),
                BoundAtom::new(&t, vec![A, C]),
            ];
            let expected_out = brute_force_triangle(&r, &s, &t);
            for cache_ref in [None, Some(&cache)] {
                let eval = EvalContext {
                    cache: cache_ref,
                    ..EvalContext::default()
                };
                assert_eq!(
                    generic_join_boolean(&atoms, None, eval).unwrap(),
                    !expected_out.is_empty(),
                    "boolean, cached {}",
                    cache_ref.is_some()
                );
                let out = generic_join_enumerate(&atoms, &[A, B, C], "out", eval).unwrap();
                assert_eq!(
                    sorted_tuples(&out),
                    expected_out,
                    "enumerate, cached {}",
                    cache_ref.is_some()
                );
            }
        }
        // Equal sizes and degrees plan the order A, B, C — the enumeration's
        // pinned order — so it looks up the tries the Boolean join built.
        assert!(cache.stats().hits > 0);
    }

    #[test]
    fn degenerate_atoms_join_like_any_other() {
        use crate::cache::TrieCache;
        // A non-empty arity-zero guard atom (a trie with zero levels), a
        // one-row relation, and an atom whose repeated-variable filter
        // rejects every row.
        let dict = SharedDictionary::new();
        let mut guard = Relation::new("G", 0, &dict);
        guard.push(vec![]);
        let one = rel(&dict, "One", vec![vec![1.0, 2.0]]);
        let s = rel(
            &dict,
            "S",
            vec![vec![2.0, 3.0], vec![2.0, 4.0], vec![5.0, 6.0]],
        );
        let off_diagonal = rel(&dict, "D", vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let satisfiable = vec![
            BoundAtom::new(&guard, vec![]),
            BoundAtom::new(&one, vec![A, B]),
            BoundAtom::new(&s, vec![B, C]),
        ];
        let mut rejected = satisfiable.clone();
        rejected.push(BoundAtom::new(&off_diagonal, vec![A, A]));
        let guard_only = vec![BoundAtom::new(&guard, vec![])];
        let point = |p: f64| Value::point(p);
        let cache = TrieCache::new();
        for cache_ref in [None, Some(&cache)] {
            let eval = EvalContext {
                cache: cache_ref,
                ..EvalContext::default()
            };
            assert!(generic_join_boolean(&satisfiable, None, eval).unwrap());
            let out = generic_join_enumerate(&satisfiable, &[A, B, C], "out", eval);
            assert_eq!(
                sorted_tuples(&out.unwrap()),
                vec![
                    vec![point(1.0), point(2.0), point(3.0)],
                    vec![point(1.0), point(2.0), point(4.0)],
                ]
            );
            assert!(!generic_join_boolean(&rejected, None, eval).unwrap());
            let out = generic_join_enumerate(&rejected, &[A, B, C], "out", eval);
            assert!(out.unwrap().is_empty());
            assert!(generic_join_boolean(&guard_only, None, eval).unwrap());
            let out = generic_join_enumerate(&guard_only, &[], "out", eval);
            assert_eq!(out.unwrap().len(), 1);
        }
    }

    #[test]
    fn four_clique_boolean() {
        // A 4-clique on values {1,2,3,4} plus noise.
        let dict = SharedDictionary::new();
        let pairs: Vec<Vec<f64>> = (1..=4)
            .flat_map(|i| (1..=4).map(move |j| vec![i as f64, j as f64]))
            .filter(|p| p[0] < p[1])
            .collect();
        let e = rel(&dict, "E", pairs);
        let d: VarId = 3;
        let atoms = vec![
            BoundAtom::new(&e, vec![A, B]),
            BoundAtom::new(&e, vec![A, C]),
            BoundAtom::new(&e, vec![A, d]),
            BoundAtom::new(&e, vec![B, C]),
            BoundAtom::new(&e, vec![B, d]),
            BoundAtom::new(&e, vec![C, d]),
        ];
        assert!(boolean(&atoms, None));
        let out = enumerate(&atoms, &[A, B, C, d]);
        // Ordered 4-cliques with a < b < c < d: exactly one.
        assert_eq!(out.len(), 1);
    }
}
