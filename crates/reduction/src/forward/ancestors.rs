//! The seeds of an `Ancestors` column taken from the tree instead of a sort.

use super::{bits_id, id_bits};
use ij_relation::{CancelTicker, EvalError, Relation, ValueId, MAX_INLINE_BITS};
use std::ops::Range;

/// The distinct seeds of a plan whose column `a` is an `Ancestors` column,
/// ascending, from `leaves` — the same plan's distinct seeds with column `a`
/// collapsed to the row's leaf, ascending ([`tree_column`]) — with no
/// sort.  An inline node id is the node's implicit-heap index under a tag
/// bit (`1 << len | bits`, the segment tree's numbering): ids ascend level
/// by level, and the parent of heap index `h` is `h >> 1`.  Per *group* — a
/// run of rows with equal columns before `a`, in order:
///
/// * the group's nodes are every ancestor-or-self of its leaves, ascending
///   ([`AncestorClosure::close`]);
/// * when `a` is the last column, they are the group's seeds;
/// * otherwise a node's seeds pair it with each entry of its *list*: the
///   columns after `a` of the rows whose leaf is that node, merged with its
///   two children's lists ([`AncestorClosure::merge_lists`]).
///
/// Groups in order, each group's nodes ascending and each node's list in
/// order: the seeds come out exactly as [`sorted_seeds`] of the plan would
/// sort them, column for column.  One unit of `ticker` per seed
/// listed.
pub(super) fn close_over_ancestors(
    leaves: &Relation,
    a: usize,
    ticker: &mut CancelTicker<'_>,
) -> Result<Relation, EvalError> {
    let cols: Vec<&[ValueId]> = (0..leaves.arity()).map(|c| leaves.column_ids(c)).collect();
    let (prefix, suffix) = (&cols[..a], &cols[a + 1..]);
    let mut out: Vec<Vec<ValueId>> = vec![Vec::new(); cols.len()];
    let mut closure = AncestorClosure::default();
    let mut start = 0;
    while start < leaves.len() {
        let end = (start + 1..leaves.len())
            .find(|&row| prefix.iter().any(|col| col[row] != col[start]))
            .unwrap_or(leaves.len());
        let group = start..end;
        closure.close(&cols[a][group.clone()]);
        if suffix.is_empty() {
            ticker.advance(closure.nodes.len())?;
            for (c, col) in prefix.iter().enumerate() {
                out[c].extend(std::iter::repeat_n(col[start], closure.nodes.len()));
            }
            out[a].extend(closure.nodes.iter().map(|&(_, id)| id));
            start = end;
            continue;
        }
        closure.encode(suffix, group.clone());
        closure.merge_lists(&cols[a][group], ticker)?;
        for (&(_, node), list) in closure.nodes.iter().zip(&closure.lists) {
            for (c, col) in prefix.iter().enumerate() {
                out[c].extend(std::iter::repeat_n(col[start], list.len()));
            }
            out[a].extend(std::iter::repeat_n(node, list.len()));
            let codes = &closure.codes[list.clone()];
            for (j, column) in out[a + 1..].iter_mut().enumerate() {
                column.extend(codes.iter().map(|&code| closure.decode(suffix, code, j)));
            }
        }
        start = end;
    }
    let (name, dict) = (leaves.name(), leaves.dictionary());
    Ok(Relation::from_id_columns(name, out[a].len(), out, dict))
}

/// The ancestors of one group's leaves and, per node, its list of suffixes
/// (the columns after the tree column), for [`close_over_ancestors`]; the
/// buffers are reused from group to group.
#[derive(Debug, Default)]
struct AncestorClosure {
    /// Per distinct leaf: its heap index shifted up to depth
    /// [`MAX_INLINE_BITS`], so keys compare as left-aligned bits, above 8
    /// bits holding its depth.
    keys: Vec<u64>,
    /// Every ancestor-or-self of the leaves, ascending: heap index and id.
    nodes: Vec<(u32, ValueId)>,
    /// The nodes at depth `d` are `nodes[levels[d]..levels[d + 1]]`.
    levels: Vec<usize>,
    /// Per group row, then per merged list entry: a suffix as one `u32`
    /// that orders suffixes as the columns do (the suffix's one raw id, or
    /// its rank among the group's suffixes).
    codes: Vec<u32>,
    /// Per rank, a group row with that suffix (suffixes of two or more
    /// columns only).
    ranked: Vec<usize>,
    /// Per node, its list: a range of `codes`, ascending, each code once.
    lists: Vec<Range<usize>>,
}

impl AncestorClosure {
    /// Every ancestor-or-self of `leaves` (ascending, repeats allowed) into
    /// `nodes`, ascending, level by level.  Sorted by left-aligned bits, the
    /// leaves' depth-`d` prefixes ascend, equal ones side by side, so each
    /// level is one pass with no comparison sort.  Leaves of one depth —
    /// every leaf of a complete tree — are in that order already.
    fn close(&mut self, leaves: &[ValueId]) {
        self.keys.clear();
        for (i, leaf) in leaves.iter().enumerate() {
            if i > 0 && leaves[i - 1] == *leaf {
                continue;
            }
            let node = id_bits(*leaf);
            let heap = 1 << node.len() | node.bits();
            let aligned = heap << (MAX_INLINE_BITS - node.len());
            self.keys.push(aligned << 8 | u64::from(node.len()));
        }
        if !self.keys.is_sorted() {
            self.keys.sort_unstable();
        }
        let depth = |key: u64| (key & 0xff) as u8;
        let deepest = self.keys.iter().map(|&key| depth(key)).max().unwrap_or(0);
        self.nodes.clear();
        self.levels.clear();
        for d in 0..=deepest {
            self.levels.push(self.nodes.len());
            for &key in self.keys.iter().filter(|&&key| depth(key) >= d) {
                let heap = (key >> 8 >> (MAX_INLINE_BITS - d)) as u32;
                if self.nodes.last().map(|&(last, _)| last) != Some(heap) {
                    let id = bits_id(u64::from(heap ^ 1 << d), d);
                    self.nodes.push((heap, id));
                }
            }
        }
        self.levels.push(self.nodes.len());
    }

    /// Fills `codes` with one code per row of `group`: the raw id of a
    /// one-column suffix, else the rank of the row's suffix among the
    /// group's distinct suffixes.
    fn encode(&mut self, suffix: &[&[ValueId]], group: Range<usize>) {
        self.codes.clear();
        self.ranked.clear();
        if let [column] = suffix {
            self.codes.extend(column[group].iter().map(|id| id.raw()));
            return;
        }
        let row_of = |row: usize| suffix.iter().map(move |col| col[row]);
        let mut order: Vec<usize> = group.clone().collect();
        order.sort_unstable_by(|&x, &y| row_of(x).cmp(row_of(y)));
        self.codes.resize(group.len(), 0);
        for row in order {
            let last = self.ranked.last().copied();
            if last.is_none_or(|last| row_of(last).ne(row_of(row))) {
                self.ranked.push(row);
            }
            self.codes[row - group.start] = (self.ranked.len() - 1) as u32;
        }
    }

    /// The suffix id of column `j` that `code` stands for.
    fn decode(&self, suffix: &[&[ValueId]], code: u32, j: usize) -> ValueId {
        match suffix.len() {
            1 => ValueId::from_raw(code),
            _ => suffix[j][self.ranked[code as usize]],
        }
    }

    /// Each node's list, deepest level first: the codes of the group's rows
    /// whose leaf is the node (`leaves`, one per row: a run of the group,
    /// whose codes ascend) merged with its children's lists.
    fn merge_lists(
        &mut self,
        leaves: &[ValueId],
        ticker: &mut CancelTicker<'_>,
    ) -> Result<(), EvalError> {
        self.lists.clear();
        let mut row = 0;
        for &(_, node) in &self.nodes {
            let own = row;
            while row < leaves.len() && leaves[row] == node {
                row += 1;
            }
            self.lists.push(own..row);
        }
        for d in (0..self.levels.len() - 1).rev() {
            let below = self.levels[d + 1]
                ..self
                    .levels
                    .get(d + 2)
                    .map_or(self.levels[d + 1], |&end| end);
            let mut child = below.start;
            for i in self.levels[d]..self.levels[d + 1] {
                let mut runs = [self.lists[i].clone(), 0..0, 0..0];
                for run in &mut runs[1..] {
                    if below.contains(&child) && self.nodes[child].0 >> 1 == self.nodes[i].0 {
                        *run = self.lists[child].clone();
                        child += 1;
                    }
                }
                self.lists[i] = merge_runs(&mut self.codes, &mut runs);
                ticker.advance(self.lists[i].len())?;
            }
        }
        Ok(())
    }
}

/// The union of the ascending runs `runs` of `codes`: the one non-empty run
/// itself, or else their merge appended to `codes`, ascending, each code
/// once.
fn merge_runs(codes: &mut Vec<u32>, runs: &mut [Range<usize>]) -> Range<usize> {
    let mut live = runs.iter().filter(|run| !run.is_empty());
    if let (Some(run), None) = (live.next(), live.next()) {
        return run.clone();
    }
    let start = codes.len();
    loop {
        let heads = runs.iter().filter(|run| !run.is_empty());
        let Some(min) = heads.map(|run| codes[run.start]).min() else {
            break;
        };
        codes.push(min);
        for run in runs.iter_mut() {
            if run.start < run.end && codes[run.start] == min {
                run.start += 1;
            }
        }
    }
    start..codes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::build::{build_relation, sorted_seeds, tree_column, PlanColumn};
    use crate::forward::plan::NodeLists;
    use crate::forward::tests::*;
    use crate::forward::*;
    use ij_relation::{CancellationToken, Value};
    use ij_segtree::{Interval, SegmentTree};
    use proptest::prelude::*;

    #[test]
    fn a_token_cancelled_mid_ancestor_closure_interrupts() {
        // Nine rows, each with its own leaf in a tree over nine intervals.
        // Collecting the seeds with the ancestors collapsed to the leaf is 9
        // units, below the interval of 12; the seeds listed under the
        // tree's nodes are more than 3, so the poll comes while the build
        // closes them over the tree — at the last column, after a carried
        // one, and before one (a node's list merged from its children's).
        let intervals: Vec<Interval> = (0..9).map(|i| Interval::new(i as f64, 9.0)).collect();
        let dict = SharedDictionary::new();
        let tree = SegmentTree::build(&intervals);
        let nodes = NodeLists::build(&tree, &intervals, None).unwrap();
        let ancestors = PlanColumn::Ancestors(&nodes.leaves);
        let ids: Vec<ValueId> = (0..9)
            .map(|i| dict.intern(Value::point(i as f64)))
            .collect();
        let carried = PlanColumn::Carried(&ids);
        let token = CancellationToken::new().with_check_interval(12);
        token.cancel();
        for plan in [
            vec![ancestors],
            vec![carried, ancestors],
            vec![ancestors, carried],
        ] {
            let (a, collapsed) = tree_column(&plan).unwrap();
            let mut ticker = CancelTicker::new(Some(&token));
            let leaves = sorted_seeds("R", &dict, &collapsed, 9, &mut ticker).unwrap();
            assert_eq!(leaves.len(), 9);
            assert_eq!(
                close_over_ancestors(&leaves, a, &mut ticker).unwrap_err(),
                EvalError::Cancelled
            );
            assert_eq!(
                build_relation("R", &dict, &plan, 9, Some(&token)).unwrap_err(),
                EvalError::Cancelled
            );
            // The same build, not cancelled, lists more seeds than that.
            assert!(build_relation("R", &dict, &plan, 9, None).unwrap().len() > 12);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// At up to 256 rows over a wide domain, under both encodings: every
        /// relation of the live plan with an `Ancestors` column takes from
        /// the tree exactly the seeds the sort of all of them gives.
        #[test]
        fn seeds_closed_over_the_tree_are_the_sorted_seeds(raw in arb_large_instance()) {
            let (q, db) = instance(&raw, &SharedDictionary::new(), |_| ());
            let degree_2 = (q.atoms().iter().flat_map(|atom| &atom.vars))
                .any(|v| dead(&q, &format!("{v}#2")));
            for config in [ReductionConfig::default(), DECOMPOSED] {
                let live = plan_forward_reduction(&q, &db, config, None).unwrap();
                let closed = (live.relations.iter())
                    .filter(|planned| assert_seeds_from_the_tree(&live, planned))
                    .count();
                prop_assert_eq!(closed > 0, degree_2, "{:?}", config);
            }
        }
    }
}
