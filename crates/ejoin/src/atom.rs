//! Atoms bound to relations.
//!
//! The equality-join engine is independent of the query AST: callers pass a
//! list of [`BoundAtom`]s, each binding the columns of a relation to global
//! variable identifiers.  The same variable may occur in several atoms (that
//! is the join) and several times within one atom (a filter).

use ij_hypergraph::{Hypergraph, VarId};
use ij_relation::Relation;
use std::collections::BTreeSet;

/// A relation whose columns are bound to global variables.
#[derive(Debug, Clone)]
pub struct BoundAtom<'a> {
    /// The relation holding the data.
    pub relation: &'a Relation,
    /// For every column of the relation, the global variable it binds.
    pub vars: Vec<VarId>,
}

impl<'a> BoundAtom<'a> {
    /// Creates a bound atom.
    ///
    /// # Panics
    ///
    /// Panics if the number of variables differs from the relation arity.
    pub fn new(relation: &'a Relation, vars: Vec<VarId>) -> Self {
        assert_eq!(
            relation.arity(),
            vars.len(),
            "column/variable count mismatch"
        );
        BoundAtom { relation, vars }
    }

    /// The distinct variables of the atom (sorted).
    pub fn var_set(&self) -> BTreeSet<VarId> {
        self.vars.iter().copied().collect()
    }
}

/// The set of distinct variables across all atoms (sorted).
pub fn all_vars(atoms: &[BoundAtom<'_>]) -> Vec<VarId> {
    let mut vars: BTreeSet<VarId> = BTreeSet::new();
    for a in atoms {
        vars.extend(a.vars.iter().copied());
    }
    vars.into_iter().collect()
}

/// Builds the (EJ) hypergraph of a set of bound atoms.  Variables are
/// renumbered densely; the returned vector maps dense vertex identifiers back
/// to the caller's variable identifiers.
pub fn hypergraph_of(atoms: &[BoundAtom<'_>]) -> (Hypergraph, Vec<VarId>) {
    let vars = all_vars(atoms);
    let mut h = Hypergraph::new();
    for &v in &vars {
        h.add_point_var(format!("v{v}"));
    }
    let index_of = |v: VarId| vars.binary_search(&v).expect("variable present");
    for (i, a) in atoms.iter().enumerate() {
        let vs: Vec<usize> = a.var_set().iter().map(|&v| index_of(v)).collect();
        h.add_edge(format!("{}#{i}", a.relation.name()), vs);
    }
    (h, vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_relation::{Relation, SharedDictionary, Value};

    fn rel(dict: &SharedDictionary, name: &str, arity: usize, rows: Vec<Vec<f64>>) -> Relation {
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
    fn bound_atom_tracks_vars() {
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", 2, vec![vec![1.0, 2.0]]);
        let atom = BoundAtom::new(&r, vec![7, 3]);
        assert_eq!(atom.var_set(), [3, 7].into_iter().collect());
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn arity_mismatch_panics() {
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", 2, vec![]);
        let _ = BoundAtom::new(&r, vec![0]);
    }

    #[test]
    fn hypergraph_of_atoms_renumbers_densely() {
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", 2, vec![]);
        let s = rel(&dict, "S", 2, vec![]);
        let atoms = vec![
            BoundAtom::new(&r, vec![10, 20]),
            BoundAtom::new(&s, vec![20, 30]),
        ];
        assert_eq!(all_vars(&atoms), vec![10, 20, 30]);
        let (h, back) = hypergraph_of(&atoms);
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 2);
        assert_eq!(back, vec![10, 20, 30]);
    }
}
