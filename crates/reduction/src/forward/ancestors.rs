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
/// * the group's nodes are every ancestor-or-self of its leaves, ascending,
///   each leaf adding only the ancestors it does not share with the leaf
///   before it ([`AncestorClosure::close`]);
/// * when `a` is the last column, they are the group's seeds;
/// * otherwise a node's seeds pair it with each entry of its *list*: the
///   columns after `a` of the rows whose leaf is that node, merged with its
///   children's lists one two-way merge at a time
///   ([`AncestorClosure::merge_lists`]), and written out node by node into
///   columns grown once per group — a one-column suffix copied as it is,
///   its codes being its ids ([`AncestorClosure::emit`]).
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
        let at = out[a].len();
        if suffix.is_empty() {
            ticker.advance(closure.nodes.len())?;
            out[a].extend(closure.nodes.iter().map(|&(_, id)| id));
        } else {
            closure.encode(suffix, group.clone());
            closure.merge_lists(&cols[a][group], ticker)?;
            closure.emit(suffix, &mut out[a..]);
        }
        // The group's rows share its prefix.
        let rows = out[a].len() - at;
        for (column, col) in out.iter_mut().zip(prefix) {
            column.extend(std::iter::repeat_n(col[start], rows));
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
    /// Per depth, the group's nodes at that depth, ascending, as
    /// [`close`](Self::close) finds them; buffers reused from group to group.
    by_depth: Vec<Vec<(u32, ValueId)>>,
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
    /// `nodes`, ascending, level by level, in one pass over the leaves with
    /// no comparison sort.  Sorted by left-aligned bits (a tie by depth), a
    /// node sorts before its descendants and the leaves' depth-`d` prefixes
    /// ascend, equal ones side by side, so the ancestors a leaf does not
    /// share with its predecessor — those below the depth where the two
    /// part — are new, and each comes after every node of its depth found
    /// so far: it is appended to its depth's list, and the lists, joined in
    /// depth order, are the nodes.  Leaves of one depth — every leaf of a
    /// complete tree — are in that order already.
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
        self.nodes.clear();
        self.levels.clear();
        if let [key] = self.keys[..] {
            // One leaf: its ancestors, one per depth.
            self.levels.extend(0..=depth(key) + 1);
            self.nodes.extend((0..=depth(key)).map(|d| node_at(key, d)));
            return;
        }
        let deepest = self.keys.iter().map(|&key| depth(key)).max().unwrap_or(0);
        if self.by_depth.len() <= deepest {
            self.by_depth.resize_with(deepest + 1, Vec::new);
        }
        self.by_depth[..=deepest].iter_mut().for_each(Vec::clear);
        let mut prev = None;
        for &key in &self.keys {
            let from = first_new(prev, key);
            for (d, nodes) in (from..=depth(key)).zip(&mut self.by_depth[from..]) {
                nodes.push(node_at(key, d));
            }
            prev = Some(key);
        }
        for nodes in &self.by_depth[..=deepest] {
            self.levels.push(self.nodes.len());
            self.nodes.extend_from_slice(nodes);
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

    /// Each node's list, deepest level first: the codes of the group's rows
    /// whose leaf is the node (`leaves`, one per row: a run of the group,
    /// whose codes ascend) merged with each child's list in turn — no merge
    /// for a node with one list among the three, one for two, and two for
    /// the node with rows of its own and two children.
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
                // The node's own rows, then each child's list merged in.
                let mut list = self.lists[i].clone();
                while below.contains(&child) && self.nodes[child].0 >> 1 == self.nodes[i].0 {
                    list = merge_runs(&mut self.codes, list, self.lists[child].clone());
                    child += 1;
                }
                ticker.advance(list.len())?;
                self.lists[i] = list;
            }
        }
        Ok(())
    }

    /// Appends the group's rows to `out`, the tree column and the suffix
    /// columns: per node, in order, the node beside each entry of its list.
    /// The code of a one-column suffix is its id.
    fn emit(&self, suffix: &[&[ValueId]], out: &mut [Vec<ValueId>]) {
        let at = out[0].len();
        let rows = self.lists.iter().map(Range::len).sum::<usize>();
        for column in out.iter_mut() {
            column.resize(at + rows, ValueId::dummy());
        }
        let (tree, suffix_out) = out.split_at_mut(1);
        let mut row = at;
        for (&(_, node), list) in self.nodes.iter().zip(&self.lists) {
            let (rows, codes) = (row..row + list.len(), &self.codes[list.clone()]);
            tree[0][rows.clone()].fill(node);
            match &mut *suffix_out {
                [column] => {
                    for (id, &code) in column[rows.clone()].iter_mut().zip(codes) {
                        *id = ValueId::from_raw(code);
                    }
                }
                columns => {
                    for (column, ids) in columns.iter_mut().zip(suffix) {
                        for (id, &code) in column[rows.clone()].iter_mut().zip(codes) {
                            *id = ids[self.ranked[code as usize]];
                        }
                    }
                }
            }
            row = rows.end;
        }
    }
}

/// The depth of a key of [`AncestorClosure::keys`].
fn depth(key: u64) -> usize {
    usize::from(key as u8)
}

/// The ancestor-or-self at depth `d` of a key's leaf: heap index and id.
fn node_at(key: u64, d: usize) -> (u32, ValueId) {
    let heap = (key >> 8 >> (usize::from(MAX_INLINE_BITS) - d)) as u32;
    (heap, bits_id(u64::from(heap ^ 1 << d), d as u8))
}

/// The least depth at which the ancestor-or-self of `key` is not that of
/// `prev`, the key before it (`0` for the first key): past the bits the two
/// aligned keys share, or past either's depth, their ancestors differ.
fn first_new(prev: Option<u64>, key: u64) -> usize {
    prev.map_or(0, |prev| {
        let unaligned = u64::BITS - u32::from(MAX_INLINE_BITS);
        let shared = ((prev ^ key) >> 8).leading_zeros() - unaligned;
        (shared as usize).min(depth(prev)).min(depth(key)) + 1
    })
}

/// The union of the ascending runs `x` and `y` of `codes`, each code once:
/// one of them itself when the other is empty, else their two-way merge
/// appended to `codes` — one pass that takes the smaller head, or both
/// heads when they are equal, with no allocation but the growth of `codes`.
fn merge_runs(codes: &mut Vec<u32>, x: Range<usize>, y: Range<usize>) -> Range<usize> {
    if x.is_empty() || y.is_empty() {
        return if x.is_empty() { y } else { x };
    }
    let start = codes.len();
    codes.resize(start + x.len() + y.len(), 0);
    let (runs, out) = codes.split_at_mut(start);
    let (x, y) = (&runs[x], &runs[y]);
    let (mut i, mut j, mut len) = (0, 0, 0);
    for slot in out.iter_mut() {
        let (Some(&a), Some(&b)) = (x.get(i), y.get(j)) else {
            break;
        };
        *slot = a.min(b);
        len += 1;
        i += usize::from(a <= b);
        j += usize::from(b <= a);
    }
    for rest in [&x[i..], &y[j..]] {
        out[len..len + rest.len()].copy_from_slice(rest);
        len += rest.len();
    }
    codes.truncate(start + len);
    start..start + len
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
    use std::collections::BTreeSet;

    /// The closure by its definition: every row once per ancestor-or-self
    /// of its node in column `a`, as a sorted set of raw rows.
    fn closure_by_definition(leaves: &Relation, a: usize) -> Vec<Vec<u32>> {
        let mut set = BTreeSet::new();
        for row in id_rows(leaves) {
            let node = id_bits(row[a]);
            for depth in 0..=node.len() {
                let mut closed: Vec<u32> = row.iter().map(|id| id.raw()).collect();
                let ancestor = node.prefix(depth);
                closed[a] = bits_id(ancestor.bits(), ancestor.len()).raw();
                set.insert(closed);
            }
        }
        set.into_iter().collect()
    }

    /// Sorted, distinct rows of raw `columns` — seeds as `sorted_seeds`
    /// leaves them.
    fn seeds(columns: Vec<Vec<u32>>) -> Relation {
        let rows = columns.first().map_or(0, Vec::len);
        let ids = (columns.into_iter())
            .map(|col| col.into_iter().map(ValueId::from_raw).collect())
            .collect();
        let mut seeds = Relation::from_id_columns("R", rows, ids, &SharedDictionary::new());
        seeds.dedup();
        seeds
    }

    fn closed_rows(leaves: &Relation, a: usize) -> Vec<Vec<u32>> {
        let closed = close_over_ancestors(leaves, a, &mut CancelTicker::new(None)).unwrap();
        id_rows(&closed)
            .into_iter()
            .map(|row| row.iter().map(|id| id.raw()).collect())
            .collect()
    }

    #[test]
    fn a_node_with_its_own_rows_and_two_children_lists_their_union() {
        // The node `0` holds rows of its own, and so do both its children;
        // the codes 1 and 3 are in all three lists.
        let node = |text: &str| {
            let node = ij_segtree::BitString::parse(text).unwrap();
            bits_id(node.bits(), node.len()).raw()
        };
        let rows = [
            ("0", 1),
            ("0", 3),
            ("00", 1),
            ("00", 2),
            ("00", 3),
            ("01", 3),
            ("01", 4),
            ("01", 1),
        ];
        let leaves = seeds(vec![
            rows.iter().map(|&(text, _)| node(text)).collect(),
            rows.iter().map(|&(_, code)| code).collect(),
        ]);
        let closed = closed_rows(&leaves, 0);
        assert_eq!(closed, closure_by_definition(&leaves, 0));
        let union: BTreeSet<u32> = rows.iter().map(|&(_, code)| code).collect();
        for ancestor in ["", "0"] {
            let list: Vec<u32> = (closed.iter())
                .filter(|row| row[0] == node(ancestor))
                .map(|row| row[1])
                .collect();
            assert_eq!(
                list,
                union.iter().copied().collect::<Vec<_>>(),
                "{ancestor:?}"
            );
        }
    }

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
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Nodes anywhere in a tree four levels deep — nested ones too, and
        /// some with rows of their own beside both children's — under a
        /// prefix column or none, with no suffix, a one-column suffix (codes
        /// that are ids) and a two-column one (codes that are ranks), over
        /// small domains so codes repeat across nodes: the closure is its
        /// definition, row for row and in order.
        #[test]
        fn the_closure_of_any_nodes_is_its_definition(
            raw in proptest::collection::vec((0u32..3, 0u8..=4, 0u64..16, 0u32..4, 0u32..3), 1..40),
        ) {
            let node = |&(_, len, bits, _, _): &(u32, u8, u64, u32, u32)| {
                bits_id(bits & ((1 << len) - 1), len).raw()
            };
            let prefix: Vec<u32> = raw.iter().map(|r| r.0).collect();
            let nodes: Vec<u32> = raw.iter().map(node).collect();
            let codes: Vec<u32> = raw.iter().map(|r| r.3).collect();
            let more: Vec<u32> = raw.iter().map(|r| r.4).collect();
            for (a, columns) in [
                (0, vec![nodes.clone()]),
                (1, vec![prefix.clone(), nodes.clone()]),
                (0, vec![nodes.clone(), codes.clone()]),
                (1, vec![prefix.clone(), nodes.clone(), codes.clone()]),
                (0, vec![nodes.clone(), codes.clone(), more.clone()]),
                (1, vec![prefix.clone(), nodes.clone(), more.clone(), codes.clone()]),
            ] {
                let leaves = seeds(columns);
                prop_assert_eq!(
                    closed_rows(&leaves, a),
                    closure_by_definition(&leaves, a),
                    "a = {}, arity {}", a, leaves.arity()
                );
            }
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
