//! Algorithm selection for Boolean equality-join evaluation (Theorem 4.15).
//!
//! * α-acyclic queries run Yannakakis' algorithm (linear time);
//! * cyclic queries run the width-guided evaluation: compute an optimal
//!   fractional hypertree decomposition, materialise each of its maximal
//!   bags with the generic worst-case-optimal join, then run Yannakakis over
//!   the bag relations (the recipe of Appendix A.2.1, giving
//!   `O(N^{fhtw} log N)`);
//! * the plain generic join runs a cyclic query with more variables than the
//!   exact decomposition DP handles.

use crate::atom::{hypergraph_of, BoundAtom};
use crate::cache::EvalContext;
use crate::generic::{generic_join_boolean, generic_join_enumerate};
use crate::yannakakis::yannakakis_boolean;
use ij_hypergraph::VarId;
use ij_relation::{EvalError, Relation};
use ij_widths::{optimal_tree_decomposition, MAX_DP_VERTICES};
use std::collections::HashMap;
use std::sync::Arc;

/// Evaluates a Boolean conjunctive query with equality joins by the
/// algorithm of Theorem 4.15, chosen from the query's hypergraph.
///
/// An α-acyclic query is answered by Yannakakis' pass over the atoms as they
/// are bound — a semijoin reads shared columns only, so nothing is copied.
/// For a cyclic query, variables occupying a single position in the whole
/// query are projected away first (they are existential and impose no
/// condition); this mirrors the "drop singleton variables" step the paper
/// applies analytically in Appendix E.4/F and keeps the per-query
/// decomposition work proportional to the join structure rather than the
/// schema width.  An atom without such a variable is bound as it is; the
/// other projections are [`Relation::projection`]s: each is derived once per
/// source relation and shared by every query, and every evaluation, that
/// binds it.  The projected query then runs the width-guided
/// evaluation of Appendix A.2.1, or the plain generic join when it has more
/// than [`MAX_DP_VERTICES`] variables for the exact decomposition DP.
///
/// Every trie built anywhere on the way (the plain generic join, and the bag
/// materialisations of the width-guided evaluation) is memoised on the
/// relation it indexes — and every trie lookup and every plan is counted
/// into the context's [`EvalActivity`](crate::EvalActivity) ledger, if one
/// is attached.  The answer is identical for every context.
///
/// # Errors
///
/// Propagates the [`EvalError`] of any trie build, join search or Yannakakis
/// pass when the context's
/// [`CancellationToken`](ij_relation::CancellationToken) fires.  Tokenless
/// contexts never fail.
pub fn evaluate_ej_boolean(
    atoms: &[BoundAtom<'_>],
    eval: EvalContext<'_>,
) -> Result<bool, EvalError> {
    if atoms.is_empty() {
        return Ok(true);
    }
    if atoms.iter().any(|a| a.relation.is_empty()) {
        return Ok(false);
    }
    // Deleting a variable that lies in one atom cannot change α-acyclicity,
    // so the pass refuses the bound atoms exactly when it would refuse their
    // projections.
    if let Some(answer) = yannakakis_boolean(atoms, eval.token)? {
        return Ok(answer);
    }
    let inputs = project_singleton_variables(atoms);
    let projected: Vec<BoundAtom<'_>> = inputs.iter().map(BagInput::bind).collect();
    if hypergraph_of(&projected).0.num_vertices() > MAX_DP_VERTICES {
        generic_join_boolean(&projected, None, eval)
    } else {
        decomposition_boolean(&projected, eval)
    }
}

/// Projects every atom onto its columns whose variable occupies at least two
/// positions in the whole query.  A variable with a single position is
/// existential in a Boolean query, so dropping its column (and
/// deduplicating) preserves the answer; an atom left without columns
/// degenerates to a non-emptiness check (arity-0 relation with a single
/// empty tuple).  A variable one atom binds twice keeps both columns — the
/// equality between them is a condition, which the trie build downstream
/// filters on — whether or not another atom shares it.
///
/// An atom that keeps every column binds its relation as it is — on the
/// engine path a transformed relation of the live plan, which has no
/// singleton column to drop (`ij_reduction::plan_forward_reduction`) — and
/// is not copied.  Each other projection is the source relation's memoised
/// [`Relation::projection`]: atoms over the same relation and columns —
/// across the disjuncts of a reduction and across evaluations of it — get
/// the same `Arc`, memoised tries included, for as long as the source
/// relation lives.
fn project_singleton_variables<'a>(atoms: &[BoundAtom<'a>]) -> Vec<BagInput<'a>> {
    let mut positions: HashMap<VarId, usize> = HashMap::new();
    for atom in atoms {
        for &v in &atom.vars {
            *positions.entry(v).or_insert(0) += 1;
        }
    }
    (atoms.iter())
        .map(|atom| BagInput::keeping(atom, |v| positions[&v] >= 2))
        .collect()
}

/// The columns of `atom` whose variable satisfies `keep`, with the variables
/// those columns bind.
fn kept_columns(atom: &BoundAtom<'_>, keep: impl Fn(VarId) -> bool) -> (Vec<usize>, Vec<VarId>) {
    let cols: Vec<usize> = (0..atom.vars.len())
        .filter(|&c| keep(atom.vars[c]))
        .collect();
    let vars = cols.iter().map(|&c| atom.vars[c]).collect();
    (cols, vars)
}

/// Width-guided evaluation: materialise the bags of an optimal fractional
/// hypertree decomposition with the generic join, then run Yannakakis over
/// the (acyclic) bag query.  `eval` is threaded into every bag
/// materialisation (and the generic-join fallback).
///
/// The decomposition is reduced, so only maximal bags are built.  Dropping a
/// bag `B' ⊆ B` loses nothing: the projection of `B`'s join onto `B'` lies
/// inside `B'`'s join, and a subset bag is an ear, so the bag query stays
/// α-acyclic.  The bags are built in order and the first empty one answers
/// `false` before the next is built.
///
/// # Errors
///
/// Propagates any bag materialisation's [`EvalError`] — a cancelled bag would
/// under-approximate the join, so the whole evaluation fails instead.
pub(crate) fn decomposition_boolean(
    atoms: &[BoundAtom<'_>],
    eval: EvalContext<'_>,
) -> Result<bool, EvalError> {
    if atoms.is_empty() {
        return Ok(true);
    }
    if atoms.iter().any(|a| a.relation.is_empty()) {
        return Ok(false);
    }
    let (h, dense_to_caller) = hypergraph_of(atoms);
    // The disjuncts of one reduction share a handful of shapes: the memo
    // decomposes each once, for every worker and every evaluation it serves.
    let td = match eval.decompositions {
        Some(memo) => memo.decomposition(&h),
        None => Arc::new(optimal_tree_decomposition(&h)),
    };

    // Materialise the bags over the caller's variable identifiers, in order;
    // an empty bag with variables refutes the query before the next is built.
    let mut bags: Vec<(Relation, Vec<VarId>)> = Vec::with_capacity(td.bags.len());
    for (i, bag) in td.bags.iter().enumerate() {
        let bag_vars: Vec<VarId> = bag.iter().map(|&dense| dense_to_caller[dense]).collect();
        let rel = materialise_bag(atoms, &bag_vars, &format!("bag{i}"), eval)?;
        if rel.is_empty() && !bag_vars.is_empty() {
            return Ok(false);
        }
        bags.push((rel, bag_vars));
    }

    // The bag query is acyclic by construction; evaluate it with Yannakakis.
    let bag_atoms: Vec<BoundAtom<'_>> = bags
        .iter()
        .map(|(rel, vars)| BoundAtom::new(rel, vars.clone()))
        .collect();
    match yannakakis_boolean(&bag_atoms, eval.token)? {
        Some(answer) => Ok(answer),
        None => generic_join_boolean(&bag_atoms, None, eval),
    }
}

/// Materialises one bag: the join of the projections of every overlapping
/// atom onto the bag (atoms fully contained in the bag are enforced exactly;
/// the others act as semijoin filters), enumerated by the generic join under
/// `eval`.
///
/// Nothing is copied per call: [`bag_inputs`] binds each input to a relation
/// that outlives the evaluation, so a recurring bag — across the disjuncts
/// of a reduction, or across evaluations of it — finds every input's trie
/// memoised on its relation, leaving only the leapfrog search.
///
/// # Errors
///
/// Propagates the underlying enumeration's [`EvalError`] (cancellation or
/// deadline expiry).
pub(crate) fn materialise_bag(
    atoms: &[BoundAtom<'_>],
    bag_vars: &[VarId],
    name: &str,
    eval: EvalContext<'_>,
) -> Result<Relation, EvalError> {
    let inputs = bag_inputs(atoms, bag_vars);
    let bound: Vec<BoundAtom<'_>> = inputs.iter().map(BagInput::bind).collect();
    generic_join_enumerate(&bound, bag_vars, name, eval)
}

/// One atom's input to a bag, or to the query with its singleton variables
/// projected away: the atom's columns bound to kept variables, so a variable
/// the atom repeats keeps its equality.
struct BagInput<'a> {
    /// The atom's relation.
    whole: &'a Relation,
    /// Its [`Relation::projection`] onto the kept columns when some are
    /// dropped; `None` when every column is kept.
    cut: Option<Arc<Relation>>,
    vars: Vec<VarId>,
}

impl<'a> BagInput<'a> {
    /// The columns of `atom` whose variable satisfies `keep`: the relation
    /// itself when that is all of them, its memoised projection otherwise.
    fn keeping(atom: &BoundAtom<'a>, keep: impl Fn(VarId) -> bool) -> Self {
        let (cols, vars) = kept_columns(atom, keep);
        let cut = (cols.len() < atom.vars.len()).then(|| atom.relation.projection(&cols));
        BagInput {
            whole: atom.relation,
            cut,
            vars,
        }
    }

    fn bind(&self) -> BoundAtom<'_> {
        BoundAtom::new(self.cut.as_deref().unwrap_or(self.whole), self.vars.clone())
    }
}

/// The inputs of the bag over `bag_vars`, one per atom that overlaps it.  An
/// atom the bag keeps whole binds its relation as it is — on the engine path
/// that is already a singleton-free atom's relation, a set: a live
/// transformed relation, or the memoised singleton-variable projection —
/// and an atom the bag cuts binds the memoised [`Relation::projection`] of
/// its relation, derived once for as long as that relation lives.
fn bag_inputs<'a>(atoms: &[BoundAtom<'a>], bag_vars: &[VarId]) -> Vec<BagInput<'a>> {
    let in_bag = |v: VarId| bag_vars.contains(&v);
    (atoms.iter())
        .filter(|atom| atom.vars.iter().any(|&v| in_bag(v)))
        .map(|atom| BagInput::keeping(atom, in_bag))
        .collect()
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
    const D: VarId = 3;

    fn auto(atoms: &[BoundAtom<'_>]) -> bool {
        evaluate_ej_boolean(atoms, EvalContext::default()).unwrap()
    }

    fn generic(atoms: &[BoundAtom<'_>]) -> bool {
        generic_join_boolean(atoms, None, EvalContext::default()).unwrap()
    }

    fn decomposition(atoms: &[BoundAtom<'_>]) -> bool {
        decomposition_boolean(atoms, EvalContext::default()).unwrap()
    }

    fn yannakakis(atoms: &[BoundAtom<'_>]) -> Option<bool> {
        yannakakis_boolean(atoms, None).unwrap()
    }

    fn triangle_atoms<'a>(r: &'a Relation, s: &'a Relation, t: &'a Relation) -> Vec<BoundAtom<'a>> {
        vec![
            BoundAtom::new(r, vec![A, B]),
            BoundAtom::new(s, vec![B, C]),
            BoundAtom::new(t, vec![A, C]),
        ]
    }

    #[test]
    fn all_algorithms_agree_on_the_triangle() {
        let dict = SharedDictionary::new();
        let r = rel(
            &dict,
            "R",
            vec![vec![1.0, 2.0], vec![5.0, 6.0], vec![1.0, 6.0]],
        );
        let s = rel(&dict, "S", vec![vec![2.0, 3.0], vec![6.0, 7.0]]);
        let t = rel(&dict, "T", vec![vec![1.0, 3.0], vec![5.0, 9.0]]);
        let atoms = triangle_atoms(&r, &s, &t);
        assert!(auto(&atoms));
        assert!(generic(&atoms));
        assert!(decomposition(&atoms));
        assert_eq!(yannakakis(&atoms), None, "the triangle is cyclic");
    }

    #[test]
    fn decomposition_handles_negative_instances() {
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 3.0]]);
        let t = rel(&dict, "T", vec![vec![4.0, 3.0]]);
        let atoms = triangle_atoms(&r, &s, &t);
        assert!(!decomposition(&atoms));
        assert!(!auto(&atoms));
        assert!(!generic(&atoms));
    }

    #[test]
    fn acyclic_queries_are_answered_by_yannakakis() {
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 3.0]]);
        let atoms = vec![
            BoundAtom::new(&r, vec![A, B]),
            BoundAtom::new(&s, vec![B, C]),
        ];
        assert!(auto(&atoms));
        assert_eq!(yannakakis(&atoms), Some(true));
    }

    #[test]
    fn materialise_bag_computes_the_projection_join() {
        // Bag {A, B, C} of the triangle: the classic ABC join of the three
        // binary projections.
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0], vec![1.0, 9.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 3.0]]);
        let t = rel(&dict, "T", vec![vec![1.0, 3.0]]);
        let atoms = triangle_atoms(&r, &s, &t);
        let bag = materialise_bag(&atoms, &[A, B, C], "bag", EvalContext::default()).unwrap();
        assert_eq!(bag.len(), 1);
        assert_eq!(
            bag.tuples()[0],
            vec![Value::point(1.0), Value::point(2.0), Value::point(3.0)]
        );
    }

    #[test]
    fn a_repeated_variable_keeps_its_equality_under_every_algorithm() {
        // R(A, A, B) against S(A, B), where A is shared, and against S(B),
        // where A is private to R: either way R's row (1, 2, 7) breaks A = A
        // and must not join through its first column.  R(A, A, A, B) binds A
        // three times: its row (1, 1, 2, 7) keeps the first equality and
        // breaks the second, so it must not join either.
        let dict = SharedDictionary::new();
        let broken = rel(&dict, "R", vec![vec![1.0, 2.0, 7.0]]);
        let kept = rel(&dict, "R", vec![vec![1.0, 2.0, 7.0], vec![1.0, 1.0, 7.0]]);
        let thrice_broken = rel(&dict, "R", vec![vec![1.0, 1.0, 2.0, 7.0]]);
        let thrice_kept = rel(
            &dict,
            "R",
            vec![vec![1.0, 1.0, 2.0, 7.0], vec![1.0, 1.0, 1.0, 7.0]],
        );
        let shared = rel(&dict, "S", vec![vec![1.0, 7.0]]);
        let private = rel(&dict, "S", vec![vec![7.0]]);
        let twice = vec![A, A, B];
        let thrice = vec![A, A, A, B];
        for (r, r_vars, expected) in [
            (&broken, &twice, false),
            (&kept, &twice, true),
            (&thrice_broken, &thrice, false),
            (&thrice_kept, &thrice, true),
        ] {
            for (s, s_vars) in [(&shared, vec![A, B]), (&private, vec![B])] {
                let atoms = vec![BoundAtom::new(r, r_vars.clone()), BoundAtom::new(s, s_vars)];
                let case = format!(
                    "{} rows of R of arity {} against S of arity {}",
                    r.len(),
                    r.arity(),
                    s.arity()
                );
                assert_eq!(auto(&atoms), expected, "auto on {case}");
                assert_eq!(yannakakis(&atoms), Some(expected), "yannakakis on {case}");
                assert_eq!(generic(&atoms), expected, "generic join on {case}");
                assert_eq!(decomposition(&atoms), expected, "decomposition on {case}");
            }
        }
    }

    #[test]
    fn a_repeated_variable_keeps_its_equality_in_a_bag() {
        // The triangle with R(A, A, B): the bag join must drop (1, 2, 2).
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0, 2.0], vec![4.0, 4.0, 5.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 3.0], vec![5.0, 6.0]]);
        let t = rel(&dict, "T", vec![vec![1.0, 3.0], vec![4.0, 6.0]]);
        let atoms = vec![
            BoundAtom::new(&r, vec![A, A, B]),
            BoundAtom::new(&s, vec![B, C]),
            BoundAtom::new(&t, vec![A, C]),
        ];
        let bag = materialise_bag(&atoms, &[A, B, C], "bag", EvalContext::default()).unwrap();
        assert_eq!(
            bag.tuples(),
            vec![vec![
                Value::point(4.0),
                Value::point(5.0),
                Value::point(6.0)
            ]]
        );
        assert!(auto(&atoms));
        assert!(generic(&atoms));
        assert!(decomposition(&atoms));
    }

    #[test]
    fn singleton_projections_are_derived_once_per_source_relation() {
        // D is private to R, C to S; T keeps both its columns.
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0, 8.0], vec![1.0, 2.0, 9.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 3.0]]);
        let t = rel(&dict, "T", vec![vec![1.0, 2.0]]);
        let atoms = vec![
            BoundAtom::new(&r, vec![A, B, D]),
            BoundAtom::new(&s, vec![B, C]),
            BoundAtom::new(&t, vec![A, B]),
        ];
        let first = project_singleton_variables(&atoms);
        let vars: Vec<&[VarId]> = first.iter().map(|input| input.vars.as_slice()).collect();
        assert_eq!(vars, [&[A, B][..], &[B], &[A, B]]);
        let cut_of_r = first[0].cut.as_ref().unwrap();
        assert_eq!(cut_of_r.len(), 1, "the two rows of R agree on (A, B)");
        // T keeps both its columns: bound as it is, nothing derived.
        assert!(first[2].cut.is_none());
        assert!(std::ptr::eq(first[2].bind().relation, &t));
        // The same atoms again — another disjunct, another evaluation —
        // bind the very same relations.
        let second = project_singleton_variables(&atoms);
        assert!(Arc::ptr_eq(cut_of_r, second[0].cut.as_ref().unwrap()));
        assert!(Arc::ptr_eq(
            first[1].cut.as_ref().unwrap(),
            second[1].cut.as_ref().unwrap()
        ));
    }

    #[test]
    fn a_repeated_bag_is_served_from_the_memos_alone() {
        use crate::EvalActivity;
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0], vec![1.0, 9.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 3.0]]);
        let t = rel(&dict, "T", vec![vec![1.0, 3.0]]);
        let atoms = triangle_atoms(&r, &s, &t);
        let materialise = |activity: &EvalActivity| {
            let eval = EvalContext {
                activity: Some(activity),
                ..EvalContext::default()
            };
            materialise_bag(&atoms, &[A, B, C], "bag", eval).unwrap()
        };
        let (cold, warm) = (EvalActivity::new(), EvalActivity::new());
        let first = materialise(&cold);
        assert_eq!((cold.hits(), cold.misses()), (0, 3));
        assert_eq!(materialise(&warm), first);
        assert_eq!((warm.hits(), warm.misses()), (3, 0));
    }

    #[test]
    fn a_bag_keeping_every_column_binds_the_relation_itself() {
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0], vec![1.0, 9.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 3.0]]);
        let t = rel(&dict, "T", vec![vec![1.0, 3.0]]);
        let atoms = triangle_atoms(&r, &s, &t);
        let inputs = bag_inputs(&atoms, &[A, B, C]);
        assert_eq!(inputs.len(), 3);
        for (input, atom) in inputs.iter().zip(&atoms) {
            assert!(input.cut.is_none(), "no projection is derived");
            let bound = input.bind();
            assert!(std::ptr::eq(bound.relation, atom.relation));
            assert_eq!(bound.vars, atom.vars);
        }
    }

    #[test]
    fn a_bag_cutting_an_atom_binds_its_memoised_projection() {
        // The 4-cycle's bag {A, C, D} keeps A of R(A, B) and C of S(B, C).
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0], vec![1.0, 3.0]]);
        let s = rel(&dict, "S", vec![vec![2.0, 4.0]]);
        let t = rel(&dict, "T", vec![vec![4.0, 5.0]]);
        let u = rel(&dict, "U", vec![vec![5.0, 1.0]]);
        let atoms = vec![
            BoundAtom::new(&r, vec![A, B]),
            BoundAtom::new(&s, vec![B, C]),
            BoundAtom::new(&t, vec![C, D]),
            BoundAtom::new(&u, vec![D, A]),
        ];
        let (first, second) = (
            bag_inputs(&atoms, &[A, C, D]),
            bag_inputs(&atoms, &[A, C, D]),
        );
        let cut_of_r = first[0].cut.as_ref().unwrap();
        assert!(Arc::ptr_eq(cut_of_r, &r.projection(&[0])));
        assert_eq!(cut_of_r.len(), 1, "R's A column is {{1}}");
        assert!(Arc::ptr_eq(
            first[1].cut.as_ref().unwrap(),
            &s.projection(&[1])
        ));
        assert!(first[2].cut.is_none() && first[3].cut.is_none());
        for (a, b) in first.iter().zip(&second) {
            match (&a.cut, &b.cut) {
                (Some(a), Some(b)) => assert!(Arc::ptr_eq(a, b), "the same Arc both times"),
                (None, None) => {}
                _ => panic!("the two materialisations cut different atoms"),
            }
        }
        let bag = materialise_bag(&atoms, &[A, C, D], "bag", EvalContext::default()).unwrap();
        assert_eq!(
            bag.tuples(),
            vec![vec![
                Value::point(1.0),
                Value::point(4.0),
                Value::point(5.0)
            ]]
        );
    }

    /// `materialise_bag` as it was before bags bound their inputs: a fresh
    /// copy of each overlapping atom's kept columns, deduplicated.
    fn materialise_bag_by_copy(atoms: &[BoundAtom<'_>], bag_vars: &[VarId]) -> Relation {
        let in_bag = |v: VarId| bag_vars.contains(&v);
        let copies: Vec<(Relation, Vec<VarId>)> = atoms
            .iter()
            .filter(|atom| atom.vars.iter().any(|&v| in_bag(v)))
            .map(|atom| {
                let (cols, vars) = kept_columns(atom, in_bag);
                let ids = cols
                    .iter()
                    .map(|&c| atom.relation.column_ids(c).to_vec())
                    .collect();
                let mut copy = Relation::from_id_columns(
                    "copy",
                    atom.relation.len(),
                    ids,
                    atom.relation.dictionary(),
                );
                copy.dedup();
                (copy, vars)
            })
            .collect();
        let bound: Vec<BoundAtom<'_>> = copies
            .iter()
            .map(|(rel, vars)| BoundAtom::new(rel, vars.clone()))
            .collect();
        generic_join_enumerate(&bound, bag_vars, "bag", EvalContext::default()).unwrap()
    }

    #[test]
    fn bound_bag_inputs_materialise_what_copies_did() {
        let dict = SharedDictionary::new();
        const E: VarId = 4;
        let mut seed = 11u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % 4) as f64
        };
        // 4- and 5-cycles, the first atom binding A twice in the second
        // pair of shapes; rows are unsorted and may repeat.
        let shapes: [&[&[VarId]]; 4] = [
            &[&[A, B], &[B, C], &[C, D], &[D, A]],
            &[&[A, B], &[B, C], &[C, D], &[D, E], &[E, A]],
            &[&[A, A, B], &[B, C], &[C, D], &[D, A]],
            &[&[A, B, A], &[B, C], &[C, D], &[D, E], &[E, A]],
        ];
        let mut non_empty = 0;
        for shape in shapes {
            for _ in 0..10 {
                let relations: Vec<Relation> = shape
                    .iter()
                    .map(|vars| {
                        let rows = (0..8)
                            .map(|_| vars.iter().map(|_| next()).collect())
                            .collect();
                        rel(&dict, "R", rows)
                    })
                    .collect();
                let atoms: Vec<BoundAtom<'_>> = relations
                    .iter()
                    .zip(shape)
                    .map(|(r, vars)| BoundAtom::new(r, vars.to_vec()))
                    .collect();
                let vars = crate::atom::all_vars(&atoms);
                let (h, dense_to_caller) = hypergraph_of(&atoms);
                let mut bags: Vec<Vec<VarId>> = optimal_tree_decomposition(&h)
                    .bags
                    .iter()
                    .map(|bag| bag.iter().map(|&d| dense_to_caller[d]).collect())
                    .collect();
                // Every window of three consecutive variables as well.
                bags.extend(
                    (0..vars.len()).map(|i| (0..3).map(|k| vars[(i + k) % vars.len()]).collect()),
                );
                for bag in &bags {
                    let bound = materialise_bag(&atoms, bag, "bag", EvalContext::default());
                    let bound = bound.unwrap();
                    assert_eq!(
                        bound,
                        materialise_bag_by_copy(&atoms, bag),
                        "bag {bag:?} of {shape:?}"
                    );
                    non_empty += usize::from(!bound.is_empty());
                }
            }
        }
        assert!(non_empty > 100, "only {non_empty} bags were non-empty");
    }

    /// Runs `evaluate` against a fresh decomposition memo and ledger: its
    /// answer, its trie (hits, misses) and the number of enumerations it
    /// planned.
    fn counted(
        evaluate: impl FnOnce(EvalContext<'_>) -> Result<bool, EvalError>,
    ) -> (bool, (usize, usize), usize) {
        use crate::{DecompositionMemo, EvalActivity};
        let (memo, activity) = (DecompositionMemo::new(), EvalActivity::new());
        let eval = EvalContext {
            decompositions: Some(&memo),
            activity: Some(&activity),
            ..EvalContext::default()
        };
        let answer = evaluate(eval).unwrap();
        (
            answer,
            (activity.hits(), activity.misses()),
            activity.plans(),
        )
    }

    #[test]
    fn a_triangle_materialises_its_one_maximal_bag() {
        let dict = SharedDictionary::new();
        let r = rel(
            &dict,
            "R",
            vec![vec![1.0, 2.0], vec![5.0, 6.0], vec![1.0, 6.0]],
        );
        let s = rel(&dict, "S", vec![vec![2.0, 3.0], vec![6.0, 7.0]]);
        let t = rel(&dict, "T", vec![vec![1.0, 3.0], vec![5.0, 9.0]]);
        let atoms = triangle_atoms(&r, &s, &t);
        // One bag {A, B, C}: one trie per atom, one planned enumeration.
        let evaluate = |eval: EvalContext<'_>| evaluate_ej_boolean(&atoms, eval);
        assert_eq!(counted(evaluate), (true, (0, 3), 1));
    }

    #[test]
    fn an_empty_bag_stops_the_materialisation() {
        // R(A,B) ∧ S(B,C) ∧ T(C,D) ∧ U(D,A): two maximal bags, each touching
        // all four atoms.  T and U share no D, so the first bag {A, C, D}
        // is empty while the second, {A, B, C}, is not.
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 1.0]]);
        let s = rel(&dict, "S", vec![vec![1.0, 1.0]]);
        let t = rel(&dict, "T", vec![vec![1.0, 1.0]]);
        let u = rel(&dict, "U", vec![vec![2.0, 1.0]]);
        let atoms = vec![
            BoundAtom::new(&r, vec![A, B]),
            BoundAtom::new(&s, vec![B, C]),
            BoundAtom::new(&t, vec![C, D]),
            BoundAtom::new(&u, vec![D, A]),
        ];
        let td = optimal_tree_decomposition(&hypergraph_of(&atoms).0);
        let bag = |vars: &[VarId]| vars.iter().copied().collect();
        assert_eq!(td.bags, vec![bag(&[A, C, D]), bag(&[A, B, C])]);
        let second = materialise_bag(&atoms, &[A, B, C], "bag1", EvalContext::default()).unwrap();
        assert!(!second.is_empty());
        // Only the first bag's four lookups and its one enumeration.
        let evaluate = |eval: EvalContext<'_>| decomposition_boolean(&atoms, eval);
        assert_eq!(counted(evaluate), (false, (0, 4), 1));
    }

    #[test]
    fn four_cycle_agreement_between_algorithms() {
        // R(A,B) ∧ S(B,C) ∧ T(C,D) ∧ U(D,A) on small random-ish data.
        let dict = SharedDictionary::new();
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % 5) as f64
        };
        for _ in 0..30 {
            let rows = |n: usize, next: &mut dyn FnMut() -> f64| {
                (0..n).map(|_| vec![next(), next()]).collect::<Vec<_>>()
            };
            let r = rel(&dict, "R", rows(5, &mut next));
            let s = rel(&dict, "S", rows(5, &mut next));
            let t = rel(&dict, "T", rows(5, &mut next));
            let u = rel(&dict, "U", rows(5, &mut next));
            let atoms = vec![
                BoundAtom::new(&r, vec![A, B]),
                BoundAtom::new(&s, vec![B, C]),
                BoundAtom::new(&t, vec![C, D]),
                BoundAtom::new(&u, vec![D, A]),
            ];
            let expected = generic(&atoms);
            assert_eq!(decomposition(&atoms), expected);
            assert_eq!(auto(&atoms), expected);
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(auto(&[]));
        assert!(decomposition(&[]));
        let empty = Relation::new("R", 1, &SharedDictionary::new());
        let atoms = vec![BoundAtom::new(&empty, vec![A])];
        assert!(!auto(&atoms));
        assert!(!decomposition(&atoms));
    }
}
