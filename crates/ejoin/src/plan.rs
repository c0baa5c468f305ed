//! Adaptive per-disjunct join planning.
//!
//! The generic join processes variables in a fixed global order; a bad order
//! can make the search explore a huge cross product before the selective
//! atoms ever constrain it.  This module chooses the order per disjunct from
//! cheap statistics available before its search starts:
//!
//! * **per-variable minimum atom cardinality** — the smallest relation
//!   containing the variable bounds that variable's candidate fan-out from
//!   above, so small-minimum variables are cheap to bind first;
//! * **vertex degree** ([`ij_widths::vertex_degrees`] over
//!   [`hypergraph_of`]) — between equally small variables, the one touching
//!   more atoms constrains more of the query per candidate;
//! * **connectivity** — after the first variable, only variables sharing an
//!   atom with the chosen prefix are considered (a disconnected pick would
//!   interpose an unconstrained cross product), falling back to a global
//!   pick only when the remainder is genuinely disconnected.
//!
//! The result is a variable order, searched by the one implementation of
//! the intersection kernels in `ij_relation::kernels`.  Planning never
//! changes answers — any variable order enumerates the same
//! relation — and the order is chosen *before* trie construction, so the
//! per-atom trie memo keys (which embed the induced level order) stay
//! consistent between plans: two disjuncts planned to the same order share
//! memoised tries.  A caller that wants a particular order passes it to
//! [`generic_join_boolean`](crate::generic_join_boolean) explicitly.

use crate::atom::{all_vars, hypergraph_of, BoundAtom};
use crate::cache::EvalContext;
use ij_hypergraph::VarId;
use std::time::Instant;

/// Plans a variable order for one disjunct: `prefix` is pinned first (the
/// enumeration path pins its output variables so results can stream without
/// buffering full assignments; pass `&[]` for Boolean queries), then the
/// remaining variables are ordered greedily — repeatedly take the variable
/// with the smallest minimum containing-atom cardinality among those
/// connected to the chosen prefix, breaking ties by descending degree, then
/// by identifier.  `O(vars² · atoms)` on hypergraphs whose sizes are query
/// sizes, so planning cost is noise next to a single trie build.
pub fn plan_var_order(atoms: &[BoundAtom<'_>], prefix: &[VarId]) -> Vec<VarId> {
    let vars = all_vars(atoms);
    // Cheap statistics, one pass over the atoms.
    let (h, dense) = hypergraph_of(atoms);
    let degrees = ij_widths::vertex_degrees(&h);
    let stat = |v: VarId| -> (usize, usize) {
        let min_card = atoms
            .iter()
            .filter(|a| a.vars.contains(&v))
            .map(|a| a.relation.len())
            .min()
            .unwrap_or(usize::MAX);
        let degree = dense
            .iter()
            .position(|&u| u == v)
            .map(|i| degrees[i])
            .unwrap_or(0);
        (min_card, degree)
    };
    let mut order: Vec<VarId> = Vec::with_capacity(vars.len());
    for &v in prefix {
        if !order.contains(&v) {
            order.push(v);
        }
    }
    let mut remaining: Vec<VarId> = vars
        .iter()
        .copied()
        .filter(|v| !order.contains(v))
        .collect();
    while !remaining.is_empty() {
        // Variables sharing an atom with the chosen prefix; all of them on
        // the first pick (or when the residual query is disconnected).
        let connected: Vec<VarId> = if order.is_empty() {
            remaining.clone()
        } else {
            let linked: Vec<VarId> = remaining
                .iter()
                .copied()
                .filter(|&v| {
                    atoms
                        .iter()
                        .any(|a| a.vars.contains(&v) && a.vars.iter().any(|u| order.contains(u)))
                })
                .collect();
            if linked.is_empty() {
                remaining.clone()
            } else {
                linked
            }
        };
        let &best = connected
            .iter()
            .min_by_key(|&&v| {
                let (min_card, degree) = stat(v);
                // Smallest bound first; more-constraining (higher-degree)
                // first among equals; identifier last for determinism.
                (min_card, usize::MAX - degree, v)
            })
            .expect("connected set is non-empty");
        order.push(best);
        remaining.retain(|&v| v != best);
    }
    order
}

/// Plans the variable order one disjunct will run under, recording the plan
/// and its time into the context's [`EvalActivity`](crate::EvalActivity)
/// (when one is attached; the clock is read only then).  This is the single
/// entry point both join paths use: Boolean evaluation passes an empty
/// prefix, enumeration pins its output variables.
pub(crate) fn resolve_order(
    atoms: &[BoundAtom<'_>],
    prefix: &[VarId],
    eval: EvalContext<'_>,
) -> Vec<VarId> {
    let Some(activity) = eval.activity else {
        return plan_var_order(atoms, prefix);
    };
    let start = Instant::now();
    let order = plan_var_order(atoms, prefix);
    activity.record_plan(start.elapsed().as_nanos() as u64);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_relation::{Relation, SharedDictionary, Value};

    fn rel(dict: &SharedDictionary, name: &str, n: usize, arity: usize) -> Relation {
        Relation::from_tuples(
            name,
            arity,
            (0..n)
                .map(|i| {
                    (0..arity)
                        .map(|c| Value::point((i * arity + c) as f64))
                        .collect()
                })
                .collect(),
            dict,
        )
    }

    const A: VarId = 0;
    const B: VarId = 1;
    const C: VarId = 2;

    #[test]
    fn adaptive_order_starts_at_the_smallest_variable() {
        // B only occurs in large atoms; A and C each touch the small T.
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", 100, 2); // R(B, A)
        let s = rel(&dict, "S", 100, 2); // S(B, C)
        let t = rel(&dict, "T", 4, 2); // T(A, C)
        let atoms = vec![
            BoundAtom::new(&r, vec![B, A]),
            BoundAtom::new(&s, vec![B, C]),
            BoundAtom::new(&t, vec![A, C]),
        ];
        let order = plan_var_order(&atoms, &[]);
        // A and C (min card 4) before B (min card 100); identifier order
        // would have continued B before C.
        assert_eq!(order, vec![A, C, B]);
    }

    #[test]
    fn adaptive_order_stays_connected() {
        // Two components: tiny {D, E} and large {A, B}.  After picking from
        // the tiny component the planner must finish it before jumping.
        let dict = SharedDictionary::new();
        let d: VarId = 3;
        let e: VarId = 4;
        let big = rel(&dict, "Big", 50, 2);
        let tiny = rel(&dict, "Tiny", 2, 2);
        let atoms = vec![
            BoundAtom::new(&big, vec![A, B]),
            BoundAtom::new(&tiny, vec![d, e]),
        ];
        let order = plan_var_order(&atoms, &[]);
        assert_eq!(order, vec![d, e, A, B]);
    }

    #[test]
    fn degree_breaks_cardinality_ties() {
        // All atoms the same size; B occurs in two atoms, A and C in one
        // each — B binds first.
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", 10, 2);
        let s = rel(&dict, "S", 10, 2);
        let atoms = vec![
            BoundAtom::new(&r, vec![A, B]),
            BoundAtom::new(&s, vec![B, C]),
        ];
        assert_eq!(plan_var_order(&atoms, &[])[0], B);
    }

    #[test]
    fn prefix_is_pinned_verbatim() {
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", 100, 2);
        let s = rel(&dict, "S", 2, 2);
        let atoms = vec![
            BoundAtom::new(&r, vec![A, B]),
            BoundAtom::new(&s, vec![B, C]),
        ];
        let order = plan_var_order(&atoms, &[A, B]);
        assert_eq!(&order[..2], &[A, B]);
        assert_eq!(order.len(), 3);
    }
}
