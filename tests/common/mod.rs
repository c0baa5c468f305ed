//! Checks shared by the integration tests that hold the equality-join
//! algorithms to each other through the forward reduction.

use ij_ejoin::{
    evaluate_ej_boolean, generic_join_boolean, yannakakis_boolean, BoundAtom, EvalContext,
};
use ij_reduction::ForwardReduction;

/// Theorem 4.15's algorithm against the reference join, one disjunct at a
/// time: on every deduplicated disjunct of `reduction` (relations built),
/// [`evaluate_ej_boolean`] — Yannakakis when the disjunct is α-acyclic,
/// width-guided otherwise — answers like the plain generic join, Yannakakis
/// agrees wherever it accepts the disjunct, and the disjunction of the
/// answers is `expected` (Theorem 4.13).  Returns the first disagreement.
pub fn disjunct_divergence(reduction: &ForwardReduction, expected: bool) -> Option<String> {
    let eval = EvalContext::default();
    let mut answer = false;
    for i in reduction.deduped_query_indices() {
        let disjunct = &reduction.queries[i];
        let var_ids = disjunct.dense_var_ids();
        let atoms: Vec<BoundAtom<'_>> = disjunct
            .atoms
            .iter()
            .map(|a| {
                let relation = reduction.relation(&a.relation, None).expect("built");
                BoundAtom::new(
                    relation,
                    a.vars.iter().map(|v| var_ids[v.as_str()]).collect(),
                )
            })
            .collect();
        let reference = generic_join_boolean(&atoms, None, eval).expect("tokenless");
        let chosen = evaluate_ej_boolean(&atoms, eval).expect("tokenless");
        if chosen != reference {
            return Some(format!(
                "disjunct {i}: evaluate_ej_boolean answered {chosen}, the generic join {reference}"
            ));
        }
        if let Some(pass) = yannakakis_boolean(&atoms, None).expect("tokenless") {
            if pass != reference {
                return Some(format!(
                    "disjunct {i}: Yannakakis answered {pass}, the generic join {reference}"
                ));
            }
        }
        answer |= reference;
    }
    (answer != expected)
        .then(|| format!("the disjuncts' disjunction is {answer}, naive answered {expected}"))
}
