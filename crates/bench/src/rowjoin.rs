//! A row-oriented, `Value`-keyed re-implementation of the Boolean generic
//! join — the evaluation strategy of the engine *before* the interned
//! columnar refactor, preserved here as an ablation baseline.
//!
//! The substrates benchmark compares this path (hash and compare full
//! [`Value`]s at every trie level) against the production id-keyed path to
//! quantify what interning buys on the E1 cyclic workload.  To keep the
//! ablation fair, rows are materialised **once** via [`materialise_rows`]
//! outside the timed region — the pre-refactor engine stored rows directly,
//! so row access was free for it and must not be billed to this baseline.

use ij_reduction::ForwardReduction;
use ij_relation::Value;
use std::collections::{BTreeMap, HashMap};

/// Materialised row storage, as the pre-refactor engine kept it: relation
/// name → rows of values.
pub type RowDb = BTreeMap<String, Vec<Vec<Value>>>;

/// Resolves every transformed relation of `reduction` into plain rows (do
/// this outside any timed region; see the module docs).
pub fn materialise_rows(reduction: &ForwardReduction) -> RowDb {
    reduction
        .relations()
        .map(|rel| (rel.name().to_string(), rel.tuples()))
        .collect()
}

/// A trie node keyed by full values (SipHash on `Value`).
#[derive(Debug, Default)]
pub struct RowTrieNode {
    children: HashMap<Value, RowTrieNode>,
}

impl RowTrieNode {
    fn insert_path(&mut self, values: &[Value]) {
        if let Some((first, rest)) = values.split_first() {
            self.children.entry(*first).or_default().insert_path(rest);
        }
    }

    fn fanout(&self) -> usize {
        self.children.len()
    }
}

/// A row-oriented atom trie: levels are the atom's distinct variables in
/// global order, built from `Vec<Value>` rows.
pub struct RowTrie {
    level_vars: Vec<usize>,
    root: RowTrieNode,
}

impl RowTrie {
    /// Builds the trie from rows (the pre-refactor build path).
    pub fn build(rows: &[Vec<Value>], vars: &[usize], global_order: &[usize]) -> Self {
        let mut level_vars: Vec<usize> = vars.to_vec();
        level_vars.sort_unstable();
        level_vars.dedup();
        level_vars.sort_by_key(|v| global_order.iter().position(|u| u == v).unwrap());
        let first_col: Vec<usize> = level_vars
            .iter()
            .map(|&v| vars.iter().position(|&u| u == v).unwrap())
            .collect();
        let mut equal_pairs: Vec<(usize, usize)> = Vec::new();
        for (i, &v) in vars.iter().enumerate() {
            let first = vars.iter().position(|&u| u == v).unwrap();
            if first != i {
                equal_pairs.push((first, i));
            }
        }
        let mut root = RowTrieNode::default();
        'rows: for t in rows {
            for &(a, b) in &equal_pairs {
                if t[a] != t[b] {
                    continue 'rows;
                }
            }
            let path: Vec<Value> = first_col.iter().map(|&c| t[c]).collect();
            root.insert_path(&path);
        }
        RowTrie { level_vars, root }
    }
}

/// Boolean generic join over row-oriented tries (mirrors the id-keyed search
/// of `ij_ejoin` value-for-value).
pub fn row_generic_join_boolean(atoms: &[(&[Vec<Value>], Vec<usize>)]) -> bool {
    if atoms.iter().any(|(rows, _)| rows.is_empty()) {
        return false;
    }
    if atoms.is_empty() {
        return true;
    }
    let mut order: Vec<usize> = atoms
        .iter()
        .flat_map(|(_, vars)| vars.iter().copied())
        .collect();
    order.sort_unstable();
    order.dedup();
    let tries: Vec<RowTrie> = atoms
        .iter()
        .map(|(rows, vars)| RowTrie::build(rows, vars, &order))
        .collect();
    let level_of: Vec<Vec<Option<usize>>> = tries
        .iter()
        .map(|t| {
            order
                .iter()
                .map(|v| t.level_vars.iter().position(|u| u == v))
                .collect()
        })
        .collect();
    let mut positions: Vec<&RowTrieNode> = tries.iter().map(|t| &t.root).collect();
    row_search(&order, &level_of, 0, &mut positions)
}

fn row_search(
    order: &[usize],
    level_of: &[Vec<Option<usize>>],
    depth: usize,
    positions: &mut Vec<&RowTrieNode>,
) -> bool {
    if depth == order.len() {
        return true;
    }
    let participating: Vec<usize> = (0..positions.len())
        .filter(|&i| level_of[i][depth].is_some())
        .collect();
    if participating.is_empty() {
        return row_search(order, level_of, depth + 1, positions);
    }
    let smallest = *participating
        .iter()
        .min_by_key(|&&i| positions[i].fanout())
        .expect("participating atoms exist");
    let candidates: Vec<Value> = positions[smallest].children.keys().copied().collect();
    for value in candidates {
        let saved = positions.clone();
        let mut ok = true;
        for &i in &participating {
            match positions[i].children.get(&value) {
                Some(next) => positions[i] = next,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && row_search(order, level_of, depth + 1, positions) {
            return true;
        }
        *positions = saved;
    }
    false
}

/// Row-oriented counterpart of
/// [`evaluate_all_disjuncts`](crate::evaluate_all_disjuncts): every deduped
/// EJ disjunct of the reduction is evaluated with the `Value`-keyed generic
/// join over the pre-materialised `rows`.
pub fn evaluate_all_disjuncts_rows(reduction: &ForwardReduction, rows: &RowDb) -> bool {
    let mut answer = false;
    for i in reduction.deduped_query_indices() {
        let rq = &reduction.queries[i];
        let var_ids = rq.dense_var_ids();
        let atoms: Vec<(&[Vec<Value>], Vec<usize>)> = rq
            .atoms
            .iter()
            .map(|a| {
                let rel_rows = rows.get(&a.relation).expect("relation exists");
                (
                    rel_rows.as_slice(),
                    a.vars.iter().map(|v| var_ids[v.as_str()]).collect(),
                )
            })
            .collect();
        if row_generic_join_boolean(&atoms) {
            answer = true;
        }
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dense_workload, evaluate_all_disjuncts};
    use ij_ejoin::EjStrategy;
    use ij_reduction::forward_reduction;
    use ij_relation::Query;

    #[test]
    fn row_baseline_agrees_with_the_interned_engine() {
        let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        for seed in 0..8 {
            let db = dense_workload(&query, 14, seed);
            let reduction = forward_reduction(&query, &db).unwrap();
            let rows = materialise_rows(&reduction);
            let row_answer = evaluate_all_disjuncts_rows(&reduction, &rows);
            let interned = evaluate_all_disjuncts(&reduction, EjStrategy::GenericJoin);
            assert_eq!(row_answer, interned, "seed {seed}");
        }
    }
}
