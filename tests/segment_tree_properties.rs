//! Property-based tests for the segment-tree substrate (Section 3,
//! Property 3.2 and the intersection-predicate rewritings of Section 4.1).

use ij_segtree::{BitString, Interval, SegmentTree};
use proptest::prelude::*;
use proptest::TestCaseError;

/// A random set of closed intervals with small integer-ish endpoints (ties
/// and containments are likely, which is what we want to stress).
fn arb_intervals(max_len: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec((0i32..60, 0i32..20), 1..=max_len).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(lo, len)| Interval::new(lo as f64, (lo + len) as f64))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Property 3.2(2)/(3): canonical partitions are antichains of bounded size.
    #[test]
    fn canonical_partitions_are_small_antichains(intervals in arb_intervals(24)) {
        let tree = SegmentTree::build(&intervals);
        let height = tree.height() as usize;
        for &iv in &intervals {
            let cp = tree.canonical_partition(iv);
            prop_assert!(!cp.is_empty());
            prop_assert!(cp.len() <= 2 * height + 2);
            for (i, a) in cp.iter().enumerate() {
                for (j, b) in cp.iter().enumerate() {
                    if i != j {
                        prop_assert!(!a.is_prefix_of(*b));
                    }
                }
            }
        }
    }

    /// Lemma 4.1 specialised to two intervals: x ∩ y ≠ ∅ iff some node of
    /// CP(y) is an ancestor of leaf(x) or some node of CP(x) is an ancestor
    /// of leaf(y).
    #[test]
    fn pairwise_intersection_predicate(intervals in arb_intervals(12)) {
        let tree = SegmentTree::build(&intervals);
        for &x in &intervals {
            for &y in &intervals {
                let leaf_x = tree.leaf_of_interval(x);
                let leaf_y = tree.leaf_of_interval(y);
                let rewritten = tree.canonical_partition(y).iter().any(|v| v.is_prefix_of(leaf_x))
                    || tree.canonical_partition(x).iter().any(|v| v.is_prefix_of(leaf_y));
                prop_assert_eq!(rewritten, x.intersects(y));
            }
        }
    }

    /// Lemma 4.4 for three intervals: the intersection is non-empty iff there
    /// is a permutation (σ1, σ2, σ3) and bitstrings (b1, b2, b3) such that
    /// b1 ∈ CP(σ1), b1◦b2 ∈ CP(σ2) and b1◦b2◦b3 = leaf(σ3).
    #[test]
    fn three_way_intersection_predicate(intervals in arb_intervals(6)) {
        let tree = SegmentTree::build(&intervals);
        let n = intervals.len();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let (x, y, z) = (intervals[i], intervals[j], intervals[k]);
                    let truth = Interval::intersect_all([x, y, z]).is_some();
                    // Evaluate the rewriting: try all 6 permutations.
                    let perms =
                        [[x, y, z], [x, z, y], [y, x, z], [y, z, x], [z, x, y], [z, y, x]];
                    let mut rewritten = false;
                    'perm: for p in perms {
                        let leaf = tree.leaf_of_interval(p[2]);
                        let cp0 = tree.canonical_partition(p[0]);
                        let cp1 = tree.canonical_partition(p[1]);
                        // u1 must be an ancestor of u2, both ancestors of leaf.
                        for u1 in cp0.iter().filter(|u| u.is_prefix_of(leaf)) {
                            for u2 in cp1.iter().filter(|u| u.is_prefix_of(leaf)) {
                                if u1.is_prefix_of(*u2) {
                                    rewritten = true;
                                    break 'perm;
                                }
                            }
                        }
                    }
                    prop_assert_eq!(rewritten, truth, "x={:?} y={:?} z={:?}", x, y, z);
                }
            }
        }
    }

    /// Stabbing queries report exactly the stored intervals containing the
    /// probe point.
    #[test]
    fn stabbing_queries_are_exact(intervals in arb_intervals(20), probes in proptest::collection::vec(0i32..80, 1..10)) {
        let tree = SegmentTree::build_with_storage(&intervals);
        for p in probes {
            let p = p as f64;
            prop_assert_eq!(tree.stab(p), brute_stab(&intervals, p));
        }
    }

    /// Compositions of leaf bitstrings concatenate back to the original
    /// (Claim C.1 bookkeeping used by the reduction).
    #[test]
    fn compositions_concatenate_back(intervals in arb_intervals(10), parts in 1usize..4) {
        let tree = SegmentTree::build(&intervals);
        for &iv in &intervals {
            let leaf = tree.leaf_of_interval(iv);
            let mut count = 0usize;
            for composition in leaf.compositions(parts) {
                prop_assert_eq!(BitString::concat_all(composition.iter().copied()), leaf);
                prop_assert_eq!(composition.len(), parts);
                count += 1;
            }
            prop_assert_eq!(count as u64, leaf.composition_count(parts));
        }
    }
}

/// Degenerate point intervals (`lo == hi`): stabbing and overlap reduce to
/// equality joins (Section 1), a corner the tree's odd/even leaf-coordinate
/// convention must survive.
fn arb_point_intervals(max_len: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec(0i32..20, 1..=max_len).prop_map(|points| {
        points
            .into_iter()
            .map(|p| Interval::point(p as f64))
            .collect()
    })
}

/// Intervals drawn from a tiny endpoint domain so duplicate endpoints (and
/// entire duplicate intervals) are the common case rather than the exception.
fn arb_duplicate_heavy_intervals(max_len: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec((0i32..6, 0i32..4), 1..=max_len).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(lo, len)| Interval::new(lo as f64, (lo + len) as f64))
            .collect()
    })
}

/// A fully-nested chain I_0 ⊋ I_1 ⊋ ... (Russian-doll shape): every interval
/// shares stabbing structure with every outer one, so the canonical subsets
/// stack along one root-to-leaf path.
fn arb_nested_intervals(max_len: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec((1i32..4, 1i32..4), 1..=max_len).prop_map(|steps| {
        let total: i32 = steps.iter().map(|(l, r)| l + r).sum();
        let mut lo = 0i32;
        let mut hi = 2 * total + 1;
        let mut out = Vec::with_capacity(steps.len());
        for (dl, dr) in steps {
            out.push(Interval::new(lo as f64, hi as f64));
            lo += dl;
            hi -= dr;
        }
        out
    })
}

/// Brute-force oracle for overlap queries.
fn brute_overlapping(intervals: &[Interval], query: Interval) -> Vec<usize> {
    intervals
        .iter()
        .enumerate()
        .filter(|(_, iv)| iv.intersects(query))
        .map(|(i, _)| i)
        .collect()
}

/// Brute-force oracle for stabbing queries.
fn brute_stab(intervals: &[Interval], p: f64) -> Vec<usize> {
    intervals
        .iter()
        .enumerate()
        .filter(|(_, iv)| iv.contains_point(p))
        .map(|(i, _)| i)
        .collect()
}

/// Checks the tree's stabbing and overlap queries against the brute-force
/// oracle on a probe set derived from the data itself (endpoints, midpoints,
/// gaps).
fn assert_indexes_match_brute_force(intervals: &[Interval]) -> Result<(), TestCaseError> {
    let tree = SegmentTree::build_with_storage(intervals);
    prop_assert_eq!(tree.len(), intervals.len());

    let mut probes: Vec<f64> = Vec::new();
    for iv in intervals {
        probes.extend([iv.lo(), iv.hi(), (iv.lo() + iv.hi()) / 2.0]);
        probes.extend([iv.lo() - 0.5, iv.hi() + 0.5]);
    }
    for &p in &probes {
        prop_assert_eq!(tree.stab(p), brute_stab(intervals, p), "stab({})", p);
    }

    let mut queries: Vec<Interval> = intervals.to_vec();
    for (i, a) in probes.iter().enumerate() {
        let b = probes[(i + 3) % probes.len()];
        queries.push(Interval::new(a.min(b), a.max(b)));
    }
    for &q in &queries {
        let expected = brute_overlapping(intervals, q);
        prop_assert_eq!(tree.intersects_any(q), !expected.is_empty());
        prop_assert_eq!(tree.overlapping(q), expected, "overlapping({:?})", q);
    }
    Ok(())
}

/// Section 3 on the segment tree over the sorted distinct endpoints `points`,
/// for one interval `x` and one point `p`: an explicit recursion over every
/// node (its leaf-coordinate range `lo..=hi` and its bitstring) with no index
/// arithmetic, reading off what [`Defined`] lists.
struct Definition<'a> {
    points: &'a [f64],
    x: Interval,
    p: f64,
}

/// The tree's size, `CP(x)` and `leaf(p)` (as a list: exactly one leaf).
#[derive(Default)]
struct Defined {
    nodes: usize,
    height: u8,
    cp: Vec<BitString>,
    leaf: Vec<BitString>,
}

impl Definition<'_> {
    /// The elementary segment at leaf coordinate `c`, as its two ends: a
    /// point segment `[p, p]` at an odd coordinate, the open gap between two
    /// neighbouring endpoints at an even one.
    fn elementary_segment(&self, c: u32) -> (f64, f64) {
        let i = (c / 2) as usize;
        if c % 2 == 1 {
            return (self.points[i], self.points[i]);
        }
        let below = i
            .checked_sub(1)
            .map_or(f64::NEG_INFINITY, |j| self.points[j]);
        (below, self.points.get(i).copied().unwrap_or(f64::INFINITY))
    }

    /// Definition 3.1 verbatim: a node is in `CP(x)` iff its segment is
    /// contained in `x` and its parent's is not.
    fn visit(&self, lo: u32, hi: u32, id: BitString, parent_in_x: bool, out: &mut Defined) {
        out.nodes += 1;
        out.height = out.height.max(id.len());
        let in_x = (lo..=hi).all(|c| {
            let (left, right) = self.elementary_segment(c);
            self.x.lo() <= left && right <= self.x.hi()
        });
        if in_x && !parent_in_x {
            out.cp.push(id);
        }
        if lo == hi {
            let (left, right) = self.elementary_segment(lo);
            if (left < self.p && self.p < right) || (lo % 2 == 1 && self.p == left) {
                out.leaf.push(id);
            }
            return;
        }
        let mid = lo + (hi - lo) / 2;
        self.visit(lo, mid, id.child(false), in_x, out);
        self.visit(mid + 1, hi, id.child(true), in_x, out);
    }
}

/// Holds [`SegmentTree`] to [`Definition`].  The engine and `SegtreeBaseline`
/// share the one tree, so they can no longer arbitrate each other's view of
/// it: `scenario_differential`'s tree-free naive oracle and this file do.
fn assert_tree_matches_definition(intervals: &[Interval]) -> Result<(), TestCaseError> {
    let mut endpoints: Vec<f64> = intervals.iter().flat_map(|iv| [iv.lo(), iv.hi()]).collect();
    endpoints.sort_by(f64::total_cmp);
    endpoints.dedup();
    let (points, max_coord) = (&endpoints[..], 2 * endpoints.len() as u32);
    let tree = SegmentTree::build(intervals);
    // Stored intervals, the whole line, one beyond every endpoint (empty CP),
    // and ones whose ends fall strictly inside gaps.
    let outside = Interval::new(1e6, 2e6);
    prop_assert!(tree.canonical_partition(outside).is_empty());
    let mut queries = vec![Interval::all(), outside];
    for &iv in intervals {
        queries.extend([iv, Interval::new(iv.lo() - 0.5, iv.hi() + 0.25)]);
        queries.push(Interval::new(iv.lo() + 0.25, iv.lo() + 0.5));
    }
    for x in queries {
        // `leaf(p)` is defined for points of the line: the whole line's
        // infinite ends are probed at the origin.
        let mid = 0.5 * x.lo() + 0.5 * x.hi();
        for p in [x.lo(), x.hi(), mid].map(|p| if p.is_finite() { p } else { 0.0 }) {
            let mut def = Defined::default();
            let definition = Definition { points, x, p };
            definition.visit(0, max_coord, BitString::empty(), false, &mut def);
            prop_assert_eq!(tree.canonical_partition(x), def.cp, "CP({:?})", x);
            prop_assert_eq!(vec![tree.leaf_of_point(p)], def.leaf, "leaf({})", p);
            prop_assert_eq!(tree.height(), def.height);
            prop_assert_eq!(tree.num_nodes(), def.nodes);
            prop_assert_eq!(tree.num_nodes(), 2 * tree.num_leaves() - 1);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Point intervals: the tree agrees with brute force when every stored
    /// interval is degenerate.
    #[test]
    fn interval_indexes_handle_point_intervals(intervals in arb_point_intervals(20)) {
        assert_indexes_match_brute_force(&intervals)?;
    }

    /// Duplicate endpoints (and duplicate whole intervals) don't confuse the
    /// endpoint deduplication.
    #[test]
    fn interval_indexes_handle_duplicate_endpoints(intervals in arb_duplicate_heavy_intervals(20)) {
        assert_indexes_match_brute_force(&intervals)?;
    }

    /// Fully-nested chains: the canonical subsets stack along one path and
    /// must stay exact.
    #[test]
    fn interval_indexes_handle_fully_nested_chains(intervals in arb_nested_intervals(16)) {
        assert_indexes_match_brute_force(&intervals)?;
    }

    /// General mixed workloads (same distribution the segment-tree properties
    /// above use) against brute force.
    #[test]
    fn interval_indexes_match_brute_force(intervals in arb_intervals(24)) {
        assert_indexes_match_brute_force(&intervals)?;
    }

    /// The canonical partition (as an ordered list), the leaf lookup, the
    /// height and the node count are the ones Section 3 defines, on every
    /// input shape above and on the empty tree.
    #[test]
    fn tree_matches_definition_3_1(
        sets in (
            arb_intervals(24),
            arb_point_intervals(20),
            arb_duplicate_heavy_intervals(20),
            arb_nested_intervals(16),
        ),
    ) {
        let (mixed, points, duplicates, nested) = sets;
        for set in [&mixed[..], &points, &duplicates, &nested, &[]] {
            assert_tree_matches_definition(set)?;
        }
    }
}

/// A random interval set mixing points, shared endpoints and unbounded
/// ends: each cell is a point, a bounded interval over a small domain, or a
/// ray to −∞ or +∞ (the whole line included).
fn arb_mixed_intervals(max_len: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec((0i32..12, 0i32..6, 0u8..6), 1..=max_len).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(lo, len, kind)| {
                let (lo, hi) = (lo as f64, (lo + len) as f64);
                match kind {
                    0 => Interval::point(lo),
                    1 => Interval::new(f64::NEG_INFINITY, hi),
                    2 => Interval::new(lo, f64::INFINITY),
                    3 if len == 0 => Interval::all(),
                    _ => Interval::new(lo, hi),
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The iterative canonical-partition walk (one descent to the split node,
    /// then one path toward each end) visits exactly the nodes of the
    /// recursive walk, left to right; the leaf it returns is
    /// `leaf_of_interval`.  Queried with the tree's own intervals and with
    /// intervals the tree was not built over.
    #[test]
    fn the_iterative_walk_equals_the_recursive_one(
        intervals in arb_mixed_intervals(16),
        others in arb_mixed_intervals(6),
    ) {
        let tree = SegmentTree::build(&intervals);
        for &x in intervals.iter().chain(&others) {
            let oracle = tree.canonical_partition_recursive(x);
            prop_assert_eq!(tree.canonical_partition(x), oracle.clone(), "{:?}", x);
            let mut visited = Vec::new();
            let leaf = tree.for_each_canonical_node_with_leaf(x, |node| visited.push(node));
            prop_assert_eq!(visited, oracle, "{:?}", x);
            prop_assert_eq!(leaf, tree.leaf_of_interval(x), "{:?}", x);
        }
    }
}
