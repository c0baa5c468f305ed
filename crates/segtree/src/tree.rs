//! The segment tree of Section 3.
//!
//! Given a set `I` of intervals, let `p_1 < ... < p_m` be their distinct
//! endpoints.  The *elementary segments* `(-inf, p_1), [p_1, p_1], (p_1, p_2),
//! [p_2, p_2], ..., (p_m, +inf)` partition the real line.  The segment tree is
//! a balanced binary tree whose leaves are the elementary segments in order
//! and whose internal nodes correspond to the union of the elementary segments
//! below them.  Every node is identified by the [`BitString`] of its
//! root-to-node path.
//!
//! The two operations the reduction relies on are:
//!
//! * [`SegmentTree::canonical_partition`]: the set of *maximal* nodes whose
//!   segments are contained in a given interval (`CP_I(x)`, Definition 3.1) —
//!   it has `O(log |I|)` nodes (Property 3.2(3));
//! * [`SegmentTree::leaf_of_interval`]: the leaf containing the left endpoint
//!   of an interval (`leaf(x)`).
//!
//! A tree built with [`SegmentTree::build_with_storage`] also stores every
//! interval at its canonical-partition nodes (Algorithm 2) and answers the
//! classic stabbing query (Algorithm 3) and overlap queries, which is what
//! the baselines run on.
//!
//! # Layout
//!
//! No node is ever allocated.  The tree keeps the sorted distinct endpoints
//! and nothing else about its shape, because the shape is a function of `m`
//! alone: the leaves carry the *leaf coordinates* `0..=2m` — the odd
//! coordinate `2j + 1` is the point segment `[p_{j+1}, p_{j+1}]`, the even
//! coordinate `2j` the open gap below it (unbounded at both ends of the line),
//! so closed-interval semantics are exact — and the node over the coordinates
//! `lo..=hi` splits at `lo + (hi - lo) / 2`.  Nodes are numbered like an
//! implicit binary heap (the root is slot `0`, the children of slot `i` are
//! `2i + 1` and `2i + 2`), so a slot and the node's [`BitString`] are the same
//! number: `slot + 1 == 1 << len | bits`.  Every walk is therefore index
//! arithmetic over one endpoint array; the reduction, which asks only for node
//! identities, pays for no node it does not name, and the canonical subsets of
//! all nodes share one CSR slab indexed by slot.

use crate::{BitString, Interval, OrdF64};

/// A segment tree over a set of intervals.
///
/// [`SegmentTree::build`] indexes the endpoints only — all the reduction
/// reads; [`SegmentTree::build_with_storage`] also stores the intervals for
/// stabbing and overlap queries, which report positions in the input slice.
/// The structure is immutable once built.
///
/// ```
/// use ij_segtree::{Interval, SegmentTree};
///
/// let intervals = [
///     Interval::new(0.0, 4.0),
///     Interval::new(3.0, 9.0),
///     Interval::point(7.0),
/// ];
/// let tree = SegmentTree::build_with_storage(&intervals);
/// assert_eq!(tree.stab(3.5), vec![0, 1]);
/// assert_eq!(tree.overlapping(Interval::new(6.0, 8.0)), vec![1, 2]);
/// assert!(!tree.intersects_any(Interval::new(10.0, 11.0)));
/// // [3, 9] contains 7: a node of its canonical partition is an ancestor of
/// // (a prefix of) the leaf of 7.
/// let leaf = tree.leaf_of_point(7.0);
/// let cp = tree.canonical_partition(intervals[1]);
/// assert!(cp.iter().any(|node| node.is_prefix_of(leaf)));
/// ```
#[derive(Debug, Clone)]
pub struct SegmentTree {
    /// Sorted distinct endpoints of the input intervals.
    endpoints: Box<[OrdF64]>,
    /// CSR offsets: the canonical subset of slot `i` is
    /// `canonical[offsets[i]..offsets[i + 1]]`.  Empty without storage.
    offsets: Box<[u32]>,
    /// All canonical subsets, concatenated in slot order.
    canonical: Box<[u32]>,
    /// The stored intervals, in input order.
    intervals: Box<[Interval]>,
    /// Stored interval indices sorted by `(lo, index)` — drives overlap queries.
    by_lo: Box<[u32]>,
}

/// The subtree rooted at heap slot `slot`, covering the leaf coordinates
/// `lo..=hi`.  A value computed during a walk, never stored.
#[derive(Debug, Clone, Copy)]
struct Subtree {
    slot: usize,
    lo: u32,
    hi: u32,
}

impl Subtree {
    /// The two halves of a node, or `None` at a leaf — the one place that
    /// fixes the shape and the numbering of the tree.
    #[inline]
    fn children(self) -> Option<(Subtree, Subtree)> {
        if self.lo == self.hi {
            return None;
        }
        let mid = self.lo + (self.hi - self.lo) / 2;
        let left = Subtree {
            slot: 2 * self.slot + 1,
            lo: self.lo,
            hi: mid,
        };
        let right = Subtree {
            slot: 2 * self.slot + 2,
            lo: mid + 1,
            hi: self.hi,
        };
        Some((left, right))
    }

    /// The slot of the leaf at `coord`, one of this subtree's coordinates.
    #[inline]
    fn leaf_at(mut self, coord: u32) -> usize {
        while self.lo != self.hi {
            self = self.child_toward(coord);
        }
        self.slot
    }

    /// The half of a node whose coordinates hold `coord` (the node itself
    /// at a leaf), picked field by field so that a descent does not branch
    /// on the side it takes.
    #[inline]
    fn child_toward(self, coord: u32) -> Subtree {
        let Some((left, right)) = self.children() else {
            return self;
        };
        let toward_right = coord > left.hi;
        Subtree {
            slot: if toward_right { right.slot } else { left.slot },
            lo: if toward_right { right.lo } else { left.lo },
            hi: if toward_right { right.hi } else { left.hi },
        }
    }

    /// True if `coord` is one of the subtree's coordinates.
    #[inline]
    fn covers(self, coord: u32) -> bool {
        self.lo <= coord && coord <= self.hi
    }

    /// True if every coordinate of the subtree lies in `lo..=hi`.
    #[inline]
    fn within(self, lo: u32, hi: u32) -> bool {
        lo <= self.lo && self.hi <= hi
    }

    /// Visits, left to right, the maximal nodes of this subtree whose
    /// coordinates all lie in `lo..=hi`, by recursion into both halves — the
    /// oracle of [`SegmentTree::canonical_partition_recursive`].
    fn for_each_maximal_within(self, lo: u32, hi: u32, f: &mut impl FnMut(usize)) {
        if self.hi < lo || hi < self.lo {
            return;
        }
        if self.within(lo, hi) {
            f(self.slot);
            return;
        }
        // A leaf is either disjoint from the range or inside it.
        if let Some((left, right)) = self.children() {
            left.for_each_maximal_within(lo, hi, f);
            right.for_each_maximal_within(lo, hi, f);
        }
    }
}

/// The slots on the path from `root` to its leaf at `coord`, root first.
fn path(root: Subtree, coord: u32) -> impl Iterator<Item = usize> {
    let toward =
        move |(left, right): (Subtree, Subtree)| if coord <= left.hi { left } else { right };
    std::iter::successors(Some(root), move |node| node.children().map(toward)).map(|node| node.slot)
}

/// The node at a heap slot: `slot + 1` written in binary is a leading one
/// followed by the root-to-node path.
#[inline]
fn id_of_slot(slot: usize) -> BitString {
    let marked = slot as u64 + 1;
    let len = u64::BITS - 1 - marked.leading_zeros();
    BitString::from_bits(marked ^ (1 << len), len as u8)
}

impl SegmentTree {
    /// Builds the segment tree over the endpoints of `intervals` without
    /// storing the intervals themselves: canonical partitions and leaves are
    /// computed on demand, stabbing and overlap queries report nothing.
    pub fn build(intervals: &[Interval]) -> Self {
        let mut endpoints: Vec<OrdF64> = Vec::with_capacity(intervals.len() * 2);
        for iv in intervals {
            endpoints.push(iv.lo_ord());
            endpoints.push(iv.hi_ord());
        }
        endpoints.sort_unstable();
        endpoints.dedup();
        SegmentTree {
            endpoints: endpoints.into_boxed_slice(),
            offsets: Box::default(),
            canonical: Box::default(),
            intervals: Box::default(),
            by_lo: Box::default(),
        }
    }

    /// Builds the segment tree and stores every interval in the canonical
    /// subsets of its canonical-partition nodes (Algorithm 2, as two passes —
    /// count, then fill — so no node allocates), enabling
    /// [`SegmentTree::stab`] and [`SegmentTree::overlapping`] queries.
    pub fn build_with_storage(intervals: &[Interval]) -> Self {
        let mut tree = Self::build(intervals);
        // Slots of a complete heap of the tree's height; the slots of absent
        // nodes stay empty and no walk reaches them.
        let num_slots = (1usize << (tree.height() + 1)) - 1;

        // Pass 1: count how many intervals each slot stores.
        let mut cursors = vec![0u32; num_slots];
        for &iv in intervals {
            tree.for_each_canonical_slot(iv, |slot| cursors[slot] += 1);
        }
        let mut offsets = vec![0u32; num_slots + 1];
        for (slot, count) in cursors.iter().enumerate() {
            offsets[slot + 1] = offsets[slot] + count;
        }

        // Pass 2: fill the shared slab, reusing the counts as write cursors.
        let mut canonical = vec![0u32; offsets[num_slots] as usize];
        cursors.copy_from_slice(&offsets[..num_slots]);
        for (idx, &iv) in intervals.iter().enumerate() {
            tree.for_each_canonical_slot(iv, |slot| {
                canonical[cursors[slot] as usize] = idx as u32;
                cursors[slot] += 1;
            });
        }

        let mut by_lo: Vec<u32> = (0..intervals.len() as u32).collect();
        by_lo.sort_unstable_by_key(|&i| (intervals[i as usize].lo_ord(), i));

        tree.offsets = offsets.into_boxed_slice();
        tree.canonical = canonical.into_boxed_slice();
        tree.intervals = intervals.into();
        tree.by_lo = by_lo.into_boxed_slice();
        tree
    }

    /// Number of distinct endpoints.
    #[inline]
    pub fn num_endpoints(&self) -> usize {
        self.endpoints.len()
    }

    /// Number of leaves (elementary segments).
    #[inline]
    pub fn num_leaves(&self) -> usize {
        2 * self.endpoints.len() + 1
    }

    /// Number of tree nodes: every internal node has two children.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        2 * self.num_leaves() - 1
    }

    /// Height of the tree (number of edges on the longest root-to-leaf path):
    /// halving `n` leaves into `⌈n/2⌉` and `⌊n/2⌋` bottoms out after
    /// `⌈log2 n⌉` steps.
    #[inline]
    pub fn height(&self) -> u8 {
        self.num_leaves().next_power_of_two().trailing_zeros() as u8
    }

    /// Number of stored intervals (zero unless built with storage).
    #[inline]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Returns true if no intervals are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The stored interval at `idx` (input order).
    #[inline]
    pub fn interval(&self, idx: usize) -> Interval {
        self.intervals[idx]
    }

    /// Total size of all canonical subsets (the `O(|I| log |I|)` storage of
    /// Property 3.2).
    #[inline]
    pub fn canonical_storage(&self) -> usize {
        self.canonical.len()
    }

    /// The canonical partition `CP_I(x)` of Definition 3.1: the maximal nodes
    /// whose segments are contained in `x`, as bitstrings ordered from left to
    /// right.
    ///
    /// For intervals whose endpoints belong to the endpoint set of the tree
    /// (the only case exercised by the reduction) the segments of the returned
    /// nodes partition `x`.
    pub fn canonical_partition(&self, x: Interval) -> Vec<BitString> {
        let mut out = Vec::new();
        self.for_each_canonical_node(x, |node| out.push(node));
        out
    }

    /// Calls `f` on every node of [`SegmentTree::canonical_partition`]`(x)`,
    /// left to right, without collecting them: the walk is index arithmetic
    /// and allocates nothing, so a caller visiting many intervals appends to
    /// one list of its own.
    pub fn for_each_canonical_node(&self, x: Interval, mut f: impl FnMut(BitString)) {
        self.for_each_canonical_slot(x, |slot| f(id_of_slot(slot)));
    }

    /// [`SegmentTree::for_each_canonical_node`] and
    /// [`SegmentTree::leaf_of_interval`] in one call: visits `CP(x)` left to
    /// right and returns `leaf(x)` — what the forward reduction asks once
    /// per source cell.  One binary search for `x`'s left end serves both,
    /// and one descent: where `x` starts at an endpoint of the tree, as
    /// every interval the tree was built over does, its leaf is the
    /// leftmost below the first node of `CP(x)`, a few levels further down
    /// the walk.
    pub fn for_each_canonical_node_with_leaf(
        &self,
        x: Interval,
        mut f: impl FnMut(BitString),
    ) -> BitString {
        let below = self.rank(x.lo_ord());
        let coord = self.coord_of_ranked(x.lo_ord(), below);
        let walked = (self.covered_coord_range_from(x, below))
            .map(|(lo, hi)| self.for_each_maximal_slot(lo, hi, &mut |slot| f(id_of_slot(slot))));
        let from = walked.filter(|node| node.covers(coord));
        id_of_slot(from.unwrap_or(self.root()).leaf_at(coord))
    }

    /// [`SegmentTree::canonical_partition`] by the recursive walk that
    /// descends into both halves of every node the interval straddles: the
    /// definition read literally, kept as the oracle of the iterative walk's
    /// property tests.
    pub fn canonical_partition_recursive(&self, x: Interval) -> Vec<BitString> {
        let mut out = Vec::new();
        let mut visit = |slot| out.push(id_of_slot(slot));
        if let Some((lo, hi)) = self.covered_coord_range(x) {
            self.root().for_each_maximal_within(lo, hi, &mut visit);
        }
        out
    }

    /// The leaf containing the point `p` (`leaf(p)` of Section 3).
    pub fn leaf_of_point(&self, p: f64) -> BitString {
        self.leaf_at(self.coord_of_point(p))
    }

    /// The leaf at a leaf coordinate.
    fn leaf_at(&self, coord: u32) -> BitString {
        id_of_slot(self.root().leaf_at(coord))
    }

    /// The leaf containing the left endpoint of `x` (`leaf(x)` of Section 3).
    #[inline]
    pub fn leaf_of_interval(&self, x: Interval) -> BitString {
        self.leaf_of_point(x.lo())
    }

    /// A human-readable description of the segment of a node, e.g. `"(1, 3]"`,
    /// or `None` if the tree has no such node.  Used when rendering Figure 3.
    pub fn describe_node(&self, id: BitString) -> Option<String> {
        let (lo, hi) = self.coord_range_of(id)?;
        // Coordinates `2j` and `2j + 1` are the gap below `p_{j+1}` (open) and
        // the point itself (closed); past `p_m` there is no endpoint.
        let endpoint = |coord: u32| self.endpoints.get((coord / 2) as usize);
        let left = match (lo % 2, lo.checked_sub(1).and_then(endpoint)) {
            (1, Some(at)) => format!("[{at}"),
            (_, Some(below)) => format!("({below}"),
            (_, None) => "(-inf".to_string(),
        };
        let right = match (hi % 2, endpoint(hi)) {
            (1, Some(at)) => format!("{at}]"),
            (_, Some(above)) => format!("{above})"),
            (_, None) => "+inf)".to_string(),
        };
        Some(format!("{left}, {right}"))
    }

    /// All node bitstrings in breadth-first order (used for diagnostics and
    /// for rendering the tree).
    pub fn node_ids(&self) -> Vec<BitString> {
        let mut queue = vec![self.root()];
        let mut visited = 0;
        while let Some(node) = queue.get(visited) {
            visited += 1;
            if let Some((left, right)) = node.children() {
                queue.extend([left, right]);
            }
        }
        queue.iter().map(|node| id_of_slot(node.slot)).collect()
    }

    /// Indices of all stored intervals containing the point `p`, sorted
    /// (Algorithm 3).
    pub fn stab(&self, p: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_stabbed(p, |i| out.push(i));
        out.sort_unstable();
        out
    }

    /// Calls `f` once for every stored interval containing `p` (unordered).
    /// The walk visits one node per level — `O(log n)` array reads plus one
    /// call per reported interval, with no allocation; canonical-partition
    /// nodes are pairwise incomparable, so no interval is met twice.
    pub fn for_each_stabbed(&self, p: f64, mut f: impl FnMut(usize)) {
        for slot in self.path_to(p) {
            for &idx in self.stored_at(slot) {
                f(idx as usize);
            }
        }
    }

    /// Indices of all stored intervals intersecting the closed query interval
    /// `q`, sorted.  `O(log n + k)` for `k` reported intervals: an interval
    /// overlapping `q` either contains `q.lo` (found by the stabbing walk) or
    /// starts inside `(q.lo, q.hi]` (found by binary search on the
    /// left-endpoint order) — the two cases are disjoint, so no
    /// deduplication pass is needed.
    pub fn overlapping(&self, q: Interval) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_stabbed(q.lo(), |i| out.push(i));
        let (start, end) = self.started_within(q);
        out.extend(self.by_lo[start..end].iter().map(|&i| i as usize));
        out.sort_unstable();
        out
    }

    /// Returns true if any stored interval intersects `q`, without
    /// materialising the matches.
    pub fn intersects_any(&self, q: Interval) -> bool {
        let (start, end) = self.started_within(q);
        // Otherwise a match must contain q.lo: walk the stabbing path and
        // stop at the first non-empty canonical subset.
        start < end
            || self
                .path_to(q.lo())
                .any(|slot| !self.stored_at(slot).is_empty())
    }

    /// The `by_lo` range of intervals whose left endpoint lies in
    /// `(q.lo, q.hi]` — the overlap candidates not containing `q.lo`.
    fn started_within(&self, q: Interval) -> (usize, usize) {
        let start = self
            .by_lo
            .partition_point(|&i| self.intervals[i as usize].lo_ord() <= q.lo_ord());
        let end = self
            .by_lo
            .partition_point(|&i| self.intervals[i as usize].lo_ord() <= q.hi_ord());
        (start, end)
    }

    /// The canonical subset of a slot (empty for every slot without storage).
    #[inline]
    fn stored_at(&self, slot: usize) -> &[u32] {
        if self.offsets.is_empty() {
            return &[];
        }
        &self.canonical[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    // --- walks ---------------------------------------------------------------

    fn root(&self) -> Subtree {
        Subtree {
            slot: 0,
            lo: 0,
            hi: 2 * self.endpoints.len() as u32,
        }
    }

    fn path_to(&self, p: f64) -> impl Iterator<Item = usize> {
        path(self.root(), self.coord_of_point(p))
    }

    /// Visits the slots of the canonical partition of `x`, left to right.
    fn for_each_canonical_slot(&self, x: Interval, mut f: impl FnMut(usize)) {
        if let Some((lo, hi)) = self.covered_coord_range(x) {
            self.for_each_maximal_slot(lo, hi, &mut f);
        }
    }

    /// Visits, left to right, the maximal nodes whose coordinates all lie in
    /// `lo..=hi` (a range inside the root's): one descent to the *split*
    /// node, below which `lo` and `hi` part, then one path toward each end.
    /// No recursion, and at most one node per level on each path.
    ///
    /// On the path toward `lo`, every right child passed over is covered but
    /// lies right of all that is below the path, so those children are
    /// visited on the way back up, deepest first — by slot arithmetic, a
    /// left child having an odd slot.  On the path toward `hi`, every left
    /// child passed over is covered and is visited at once.
    ///
    /// Returns the first node visited, the maximal one that starts at `lo`.
    fn for_each_maximal_slot(&self, lo: u32, hi: u32, f: &mut impl FnMut(usize)) -> Subtree {
        let mut node = self.root();
        let (left, right) = loop {
            if node.within(lo, hi) {
                f(node.slot);
                return node;
            }
            // A leaf inside the range is covered, so `node` has children.
            let Some((left, right)) = node.children() else {
                return node;
            };
            if hi <= left.hi {
                node = left;
            } else if right.lo <= lo {
                node = right;
            } else {
                break (left, right);
            }
        };

        // Toward `lo`: everything in `left` ends at or before `hi`.
        let mut node = left;
        while lo > node.lo {
            node = node.child_toward(lo);
        }
        f(node.slot);
        let first = node;
        let mut slot = node.slot;
        while slot != left.slot {
            if slot % 2 == 1 {
                f(slot + 1);
            }
            slot = (slot - 1) / 2;
        }

        // Toward `hi`: everything in `right` starts after `lo`.
        let mut node = right;
        while node.hi > hi {
            let Some((l, r)) = node.children() else {
                break;
            };
            if hi <= l.hi {
                node = l;
            } else {
                f(l.slot);
                node = r;
            }
        }
        f(node.slot);
        first
    }

    /// The leaf coordinates below the node `id`, or `None` if the tree has no
    /// such node.
    fn coord_range_of(&self, id: BitString) -> Option<(u32, u32)> {
        let mut node = self.root();
        for i in 0..id.len() {
            let (left, right) = node.children()?;
            node = if id.bit(i) { right } else { left };
        }
        Some((node.lo, node.hi))
    }

    // --- coordinate helpers -------------------------------------------------

    /// Number of endpoints strictly smaller than `p`.
    fn rank(&self, p: OrdF64) -> usize {
        self.endpoints.partition_point(|&e| e < p)
    }

    /// Leaf coordinate of a point: the elementary segment containing it.
    fn coord_of_point(&self, p: f64) -> u32 {
        let p = OrdF64::new(p);
        self.coord_of_ranked(p, self.rank(p))
    }

    /// [`coord_of_point`](Self::coord_of_point) of `p`, whose
    /// [`rank`](Self::rank) is `below`.
    fn coord_of_ranked(&self, p: OrdF64, below: usize) -> u32 {
        let is_endpoint = self.endpoints.get(below) == Some(&p);
        2 * below as u32 + u32::from(is_endpoint)
    }

    /// The range of leaf coordinates whose elementary segments are fully
    /// contained in the closed interval `x`, or `None` if there is none.
    fn covered_coord_range(&self, x: Interval) -> Option<(u32, u32)> {
        self.covered_coord_range_from(x, self.rank(x.lo_ord()))
    }

    /// [`covered_coord_range`](Self::covered_coord_range) of `x`, whose left
    /// end has [`rank`](Self::rank) `below`.
    fn covered_coord_range_from(&self, x: Interval, below: usize) -> Option<(u32, u32)> {
        let m = self.endpoints.len() as u32;
        let lo = if x.lo() == f64::NEG_INFINITY {
            0
        } else {
            // Smallest endpoint >= x.lo determines the first fully covered leaf.
            let j = below as u32;
            if j >= m {
                return None;
            }
            2 * j + 1
        };
        let hi = if x.hi() == f64::INFINITY {
            2 * m
        } else {
            // Largest endpoint <= x.hi determines the last fully covered leaf.
            let j = self.endpoints.partition_point(|&e| e <= x.hi_ord()) as u32;
            if j == 0 {
                return None;
            }
            2 * (j - 1) + 1
        };
        if lo > hi {
            None
        } else {
            Some((lo, hi))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn bs(text: &str) -> BitString {
        BitString::parse(text).unwrap()
    }

    /// The running example of Figure 3 / Figure 6: I = { [1,4], [3,4] }.
    fn figure3_tree() -> (SegmentTree, Interval, Interval) {
        let a = Interval::new(1.0, 4.0);
        let b = Interval::new(3.0, 4.0);
        (SegmentTree::build(&[a, b]), a, b)
    }

    /// Overlaps, a gap, a point interval and shared endpoints.
    fn sample_intervals() -> Vec<Interval> {
        vec![
            Interval::new(0.0, 4.0),
            Interval::new(2.0, 9.0),
            Interval::new(5.0, 6.0),
            Interval::new(10.0, 12.0),
            Interval::point(6.0),
            Interval::new(6.0, 6.5),
        ]
    }

    fn brute_stab(intervals: &[Interval], p: f64) -> Vec<usize> {
        intervals
            .iter()
            .enumerate()
            .filter(|(_, iv)| iv.contains_point(p))
            .map(|(i, _)| i)
            .collect()
    }

    fn brute_overlap(intervals: &[Interval], q: Interval) -> Vec<usize> {
        intervals
            .iter()
            .enumerate()
            .filter(|(_, iv)| iv.intersects(q))
            .map(|(i, _)| i)
            .collect()
    }

    fn probe_points(intervals: &[Interval]) -> Vec<f64> {
        let mut points = vec![-1e9, 0.0, 1e9];
        for iv in intervals {
            for e in [iv.lo(), iv.hi()] {
                points.push(e);
                points.push(e - 0.25);
                points.push(e + 0.25);
            }
        }
        points
    }

    #[test]
    fn figure3_structure() {
        let (tree, _, _) = figure3_tree();
        // Endpoints {1, 3, 4} → 7 elementary segments → 13 nodes.
        assert_eq!(tree.num_endpoints(), 3);
        assert_eq!(tree.num_leaves(), 7);
        assert_eq!(tree.num_nodes(), 13);
    }

    #[test]
    fn figure3_canonical_partitions() {
        // The paper states: [1,4] is stored at the nodes 001, 01 and 10;
        // [3,4] is stored at the nodes 011 and 10 (Figure 3 caption).
        let (tree, a, b) = figure3_tree();
        let cp_a: HashSet<BitString> = tree.canonical_partition(a).into_iter().collect();
        let cp_b: HashSet<BitString> = tree.canonical_partition(b).into_iter().collect();
        assert_eq!(cp_a, [bs("001"), bs("01"), bs("10")].into_iter().collect());
        assert_eq!(cp_b, [bs("011"), bs("10")].into_iter().collect());
    }

    #[test]
    fn canonical_partition_nodes_are_maximal_and_disjoint() {
        let intervals: Vec<Interval> = (0..20)
            .map(|i| Interval::new(i as f64, (i + 7) as f64 * 1.5))
            .collect();
        let tree = SegmentTree::build(&intervals);
        for iv in &intervals {
            let cp = tree.canonical_partition(*iv);
            assert!(!cp.is_empty());
            // Property 3.2(2): no node in CP is an ancestor of another.
            for (i, u) in cp.iter().enumerate() {
                for (j, v) in cp.iter().enumerate() {
                    if i != j {
                        assert!(!u.is_prefix_of(*v), "{u} is an ancestor of {v}");
                    }
                }
            }
            // Every CP node's segment is contained in the interval.
            let (lo, hi) = tree.covered_coord_range(*iv).unwrap();
            for u in &cp {
                let (nlo, nhi) = tree.coord_range_of(*u).unwrap();
                assert!(lo <= nlo && nhi <= hi, "{u} is not inside {iv}");
            }
        }
    }

    #[test]
    fn canonical_partition_size_is_logarithmic() {
        let n = 512;
        let intervals: Vec<Interval> = (0..n)
            .map(|i| Interval::new(i as f64, (i + n / 3) as f64))
            .collect();
        let tree = SegmentTree::build(&intervals);
        let height = tree.height() as usize;
        for iv in &intervals {
            let cp = tree.canonical_partition(*iv);
            // At most ~2 nodes per level (proof of Property 3.2(3)).
            assert!(
                cp.len() <= 2 * height + 2,
                "CP too large: {} vs height {}",
                cp.len(),
                height
            );
        }
    }

    #[test]
    fn leaf_of_point_contains_the_point() {
        let intervals = vec![Interval::new(0.0, 10.0), Interval::new(5.0, 20.0)];
        let tree = SegmentTree::build(&intervals);
        // Points at endpoints map to point leaves; others to gap leaves.
        for p in [0.0, 2.5, 5.0, 10.0, 15.0, 20.0, 99.0, -3.0] {
            let leaf = tree.leaf_of_point(p);
            // The leaf must exist in the tree and cover exactly p's segment.
            let coord = tree.coord_of_point(p);
            assert_eq!(tree.coord_range_of(leaf), Some((coord, coord)));
        }
        // Distinct endpoints map to distinct leaves.
        assert_ne!(tree.leaf_of_point(0.0), tree.leaf_of_point(5.0));
        // A point strictly inside a gap maps to a different leaf than the endpoints.
        assert_ne!(tree.leaf_of_point(2.5), tree.leaf_of_point(0.0));
        assert_ne!(tree.leaf_of_point(2.5), tree.leaf_of_point(5.0));
    }

    #[test]
    fn intersection_iff_cp_node_is_ancestor_of_leaf() {
        // Lemma 4.1 specialised to two intervals: x and y intersect iff
        // CP(y) contains an ancestor of leaf(x.lo) or CP(x) contains an
        // ancestor of leaf(y.lo).
        let intervals: Vec<Interval> = vec![
            Interval::new(0.0, 4.0),
            Interval::new(2.0, 9.0),
            Interval::new(5.0, 6.0),
            Interval::new(10.0, 12.0),
            Interval::new(4.0, 5.0),
            Interval::point(6.0),
        ];
        let tree = SegmentTree::build(&intervals);
        for &x in &intervals {
            for &y in &intervals {
                let leaf_x = tree.leaf_of_interval(x);
                let leaf_y = tree.leaf_of_interval(y);
                let via_tree = tree
                    .canonical_partition(y)
                    .iter()
                    .any(|v| v.is_prefix_of(leaf_x))
                    || tree
                        .canonical_partition(x)
                        .iter()
                        .any(|v| v.is_prefix_of(leaf_y));
                assert_eq!(via_tree, x.intersects(y), "x={x:?} y={y:?}");
            }
        }
    }

    #[test]
    fn stabbing_query_reports_exactly_the_covering_intervals() {
        let intervals = sample_intervals();
        let tree = SegmentTree::build_with_storage(&intervals);
        let mut probes = probe_points(&intervals);
        probes.extend([1.0, 3.5, 8.0, 9.5, 11.0, 13.0]);
        for p in probes {
            assert_eq!(tree.stab(p), brute_stab(&intervals, p), "stabbing at {p}");
        }
        // Without storage the same tree reports nothing.
        let bare = SegmentTree::build(&intervals);
        assert!(bare.is_empty());
        assert!(bare.stab(6.0).is_empty());
        assert!(!bare.intersects_any(Interval::new(0.0, 12.0)));
    }

    #[test]
    fn overlapping_matches_brute_force() {
        let intervals = sample_intervals();
        let tree = SegmentTree::build_with_storage(&intervals);
        let queries = [
            Interval::new(-5.0, -1.0),
            Interval::new(-1.0, 0.0),
            Interval::new(3.0, 5.0),
            Interval::point(6.0),
            Interval::new(9.0, 10.0),
            Interval::new(12.0, 20.0),
            Interval::new(-100.0, 100.0),
            Interval::new(6.75, 9.5),
        ];
        for q in queries {
            assert_eq!(tree.overlapping(q), brute_overlap(&intervals, q), "{q}");
            assert_eq!(
                tree.intersects_any(q),
                !brute_overlap(&intervals, q).is_empty(),
                "{q}"
            );
        }
    }

    #[test]
    fn stabbed_intervals_are_reported_exactly_once() {
        // Canonical-partition nodes are pairwise incomparable, so a
        // root-to-leaf walk meets each interval at most once — the reporting
        // loop relies on this to skip deduplication.
        let intervals: Vec<Interval> = (0..40)
            .map(|i| Interval::new((i % 7) as f64, (i % 7 + i % 5 + 1) as f64))
            .collect();
        let tree = SegmentTree::build_with_storage(&intervals);
        for p in probe_points(&intervals) {
            let mut seen = vec![0u32; intervals.len()];
            tree.for_each_stabbed(p, |i| seen[i] += 1);
            assert!(seen.iter().all(|&c| c <= 1), "duplicate report at {p}");
        }
    }

    #[test]
    fn duplicate_intervals_and_shared_endpoints() {
        let intervals = vec![
            Interval::new(1.0, 3.0),
            Interval::new(1.0, 3.0),
            Interval::new(3.0, 5.0),
            Interval::point(3.0),
            Interval::point(3.0),
        ];
        let tree = SegmentTree::build_with_storage(&intervals);
        assert_eq!(tree.stab(3.0), vec![0, 1, 2, 3, 4]);
        assert_eq!(tree.stab(2.0), vec![0, 1]);
        assert_eq!(tree.overlapping(Interval::point(3.0)), vec![0, 1, 2, 3, 4]);
        // The five intervals share only three distinct endpoints.
        assert_eq!(tree.num_endpoints(), 3);
        assert_eq!(tree.interval(3), Interval::point(3.0));
    }

    #[test]
    fn randomised_agreement_with_brute_force() {
        // Deterministic xorshift so the test needs no RNG dependency.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 10.0
        };
        for n in [1usize, 2, 3, 17, 64, 257] {
            let intervals: Vec<Interval> = (0..n)
                .map(|_| {
                    let lo = next();
                    Interval::new(lo, lo + next() / 4.0)
                })
                .collect();
            let tree = SegmentTree::build_with_storage(&intervals);
            for _ in 0..50 {
                let p = next();
                assert_eq!(tree.stab(p), brute_stab(&intervals, p), "n={n} p={p}");
                let q_lo = next();
                let q = Interval::new(q_lo, q_lo + next() / 2.0);
                assert_eq!(tree.overlapping(q), brute_overlap(&intervals, q));
            }
        }
    }

    #[test]
    fn canonical_storage_is_near_linear() {
        let n = 256;
        let intervals: Vec<Interval> = (0..n)
            .map(|i| Interval::new(i as f64 * 0.5, i as f64 * 0.5 + 40.0))
            .collect();
        let tree = SegmentTree::build_with_storage(&intervals);
        let bound = n * (2 * tree.height() as usize + 2);
        assert!(tree.canonical_storage() <= bound);
        assert_eq!(tree.len(), n);
        // The slab holds exactly the canonical partitions.
        let cp_total: usize = (intervals.iter())
            .map(|&iv| tree.canonical_partition(iv).len())
            .sum();
        assert_eq!(tree.canonical_storage(), cp_total);
    }

    #[test]
    fn the_canonical_node_visitor_appends_to_one_list_across_intervals() {
        // What the reduction does: one list for a whole column, a boundary
        // per interval — also for an interval outside the tree (no node).
        let intervals = sample_intervals();
        let tree = SegmentTree::build(&intervals);
        let queries: Vec<Interval> = (intervals.iter().copied())
            .chain([Interval::new(100.0, 101.0), Interval::all()])
            .collect();
        let (mut nodes, mut starts) = (Vec::new(), vec![0]);
        for &x in &queries {
            tree.for_each_canonical_node(x, |node| nodes.push(node));
            starts.push(nodes.len());
        }
        for (i, &x) in queries.iter().enumerate() {
            assert_eq!(
                nodes[starts[i]..starts[i + 1]],
                tree.canonical_partition(x),
                "{x:?}"
            );
        }
        assert_eq!(starts[intervals.len()], starts[intervals.len() + 1]);
        // The whole line is the root alone.
        assert_eq!(nodes[starts[queries.len() - 1]..], [BitString::empty()]);
    }

    #[test]
    fn empty_and_singleton_trees() {
        let tree = SegmentTree::build(&[]);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.leaf_of_point(42.0), BitString::empty());
        assert!(tree.canonical_partition(Interval::new(0.0, 1.0)).is_empty());
        // The unbounded interval covers the single leaf (the whole line).
        assert_eq!(
            tree.canonical_partition(Interval::all()),
            vec![BitString::empty()]
        );

        let tree = SegmentTree::build(&[Interval::point(7.0)]);
        assert_eq!(tree.num_endpoints(), 1);
        assert_eq!(tree.num_leaves(), 3);
        let cp = tree.canonical_partition(Interval::point(7.0));
        assert_eq!(cp.len(), 1);
    }

    #[test]
    fn empty_and_singleton_storage() {
        let empty = SegmentTree::build_with_storage(&[]);
        assert!(empty.is_empty());
        assert!(empty.stab(3.0).is_empty());
        assert!(empty.overlapping(Interval::new(0.0, 1.0)).is_empty());
        assert!(!empty.intersects_any(Interval::new(0.0, 1.0)));

        let one = SegmentTree::build_with_storage(&[Interval::point(7.0)]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.stab(7.0), vec![0]);
        assert!(one.stab(6.9999).is_empty());
        assert_eq!(one.overlapping(Interval::new(0.0, 7.0)), vec![0]);
        assert!(one.overlapping(Interval::new(7.1, 8.0)).is_empty());
    }

    #[test]
    fn describe_node_matches_figure3() {
        let (tree, _, _) = figure3_tree();
        assert_eq!(
            tree.describe_node(BitString::empty()).unwrap(),
            "(-inf, +inf)"
        );
        // Node "011" is the point segment [3,3] in Figure 3.
        assert_eq!(tree.describe_node(bs("011")).unwrap(), "[3, 3]");
        // Node "10" is (3, 4] in Figure 3.
        assert_eq!(tree.describe_node(bs("10")).unwrap(), "(3, 4]");
        assert!(tree.describe_node(bs("11111111")).is_none());
    }

    #[test]
    fn node_lookup_by_bitstring() {
        let (tree, _, _) = figure3_tree();
        let ids = tree.node_ids();
        assert_eq!(ids.len(), tree.num_nodes());
        // Breadth-first: by length, then left to right — distinct throughout.
        assert!(ids
            .windows(2)
            .all(|w| (w[0].len(), w[0].bits()) < (w[1].len(), w[1].bits())));
        assert!(ids.iter().all(|&id| tree.coord_range_of(id).is_some()));
        // "110" would hang below the leaf "11" = (4, +inf).
        assert!(tree.coord_range_of(bs("110")).is_none());
        assert!(tree.coord_range_of(bs("000000000")).is_none());
    }

    #[test]
    fn height_is_logarithmic() {
        for n in [1usize, 2, 7, 64, 500] {
            let intervals: Vec<Interval> = (0..n)
                .map(|i| Interval::new(i as f64, i as f64 + 1.0))
                .collect();
            let tree = SegmentTree::build(&intervals);
            let leaves = tree.num_leaves() as f64;
            assert!((tree.height() as f64) <= leaves.log2().ceil() + 1.0);
        }
    }

    #[test]
    fn heap_slots_cover_all_reachable_nodes() {
        // `build_with_storage` sizes its CSR offsets for a complete heap of
        // the tree's height; every leaf's slot must fall inside it, for even
        // leaf counts too (which no endpoint set produces).
        for num_leaves in 1u32..200 {
            let height = num_leaves.next_power_of_two().trailing_zeros();
            let num_slots = (1usize << (height + 1)) - 1;
            for coord in 0..num_leaves {
                let root = Subtree {
                    slot: 0,
                    lo: 0,
                    hi: num_leaves - 1,
                };
                let leaf = path(root, coord).last().unwrap();
                // The field-by-field descent takes the path's halves.
                assert_eq!(
                    root.leaf_at(coord),
                    leaf,
                    "leaves={num_leaves} coord={coord}"
                );
                assert!(
                    leaf < num_slots,
                    "leaves={num_leaves} slot={leaf} slots={num_slots}"
                );
                assert!(id_of_slot(leaf).len() as u32 <= height);
            }
        }
    }

    #[test]
    fn heap_slots_and_bitstrings_are_one_numbering() {
        // Every slot of a complete heap of height 12.
        let num_slots = (1usize << 13) - 1;
        let mut seen = HashSet::new();
        for slot in 0..num_slots {
            let id = id_of_slot(slot);
            assert!(id.len() <= 12);
            // The inverse: injective because it recovers the slot, surjective
            // because 2^13 - 1 distinct ids are all bitstrings of <= 12 bits.
            assert_eq!(slot as u64 + 1, 1 << id.len() | id.bits());
            assert!(seen.insert(id));
            // The heap's child arithmetic is `BitString::child`.
            assert_eq!(id_of_slot(2 * slot + 1), id.child(false));
            assert_eq!(id_of_slot(2 * slot + 2), id.child(true));
        }
    }
}
