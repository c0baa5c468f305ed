//! What every [`FlatTrie`](crate::FlatTrie) build starts from: the level
//! order and the repeated-variable filter.
//!
//! The generic worst-case-optimal join processes one variable at a time; each
//! atom is indexed as a trie whose levels are the atom's variables sorted by
//! the global variable order ([`trie_level_vars`]).  Repeated variables
//! within an atom are checked before the build (tuples whose repeated columns
//! disagree are filtered out, [`repeated_variable_rows`]) so the trie has one
//! level per *distinct* variable.
//!
//! Both work entirely on the dense `u32` [`ValueId`](ij_relation::ValueId)s
//! read straight out of the columnar relation storage — the join never hashes
//! or compares a full `Value`.

use crate::BoundAtom;
use ij_hypergraph::VarId;
use ij_relation::ValueId;

/// The distinct variables of `atom` sorted by their position in
/// `global_order` — the trie levels.  Shared by the build and the trie
/// cache's key computation, so a key always describes the level order the
/// build actually uses.
///
/// # Panics
///
/// Panics if one of the atom's variables is missing from `global_order`.
pub(crate) fn trie_level_vars(atom: &BoundAtom<'_>, global_order: &[VarId]) -> Vec<VarId> {
    let position = |v: VarId| {
        global_order
            .iter()
            .position(|&u| u == v)
            .expect("variable missing from global order")
    };
    let mut level_vars: Vec<VarId> = atom.var_set().into_iter().collect();
    level_vars.sort_by_key(|&v| position(v));
    level_vars
}

/// The rows of `atom`, ascending, on which every column bound to a repeated
/// variable agrees with the variable's first column (id equality coincides
/// with value equality).  `None` when no variable repeats, i.e. every row
/// passes.  Every evaluator that keeps one column per variable — a trie
/// level, a semijoin key — applies it first.
pub(crate) fn repeated_variable_rows(atom: &BoundAtom<'_>) -> Option<Vec<u32>> {
    let pairs: Vec<(&[ValueId], &[ValueId])> = (0..atom.vars.len())
        .filter_map(|i| {
            let first = atom.vars.iter().position(|&u| u == atom.vars[i])?;
            (first != i).then(|| (atom.relation.column_ids(first), atom.relation.column_ids(i)))
        })
        .collect();
    if pairs.is_empty() {
        return None;
    }
    let rows = atom.relation.len() as u32;
    Some(
        (0..rows)
            .filter(|&row| {
                pairs
                    .iter()
                    .all(|(a, b)| a[row as usize] == b[row as usize])
            })
            .collect(),
    )
}
