//! Tree decompositions and the fractional hypertree width (Appendix A.2.1).
//!
//! The fractional hypertree width `fhtw(H)` is the minimum over tree
//! decompositions of the maximum fractional edge cover number of a bag
//! (Definition A.15).  Every tree decomposition can be turned into one whose
//! bags are induced by a vertex elimination order without enlarging any bag,
//! so for any bag-monotone cost function
//!
//! ```text
//! min over decompositions of max over bags  =  min over orders of max over elimination bags,
//! ```
//!
//! which we compute exactly by dynamic programming over vertex subsets
//! (exponential in the number of vertices — the hypergraphs of queries and of
//! their reductions are tiny).

use crate::cover::fractional_edge_cover_number;
use ij_hypergraph::{Hypergraph, VarId};
use std::collections::{BTreeSet, HashMap};

/// Maximum number of vertices supported by the exact subset DP.
pub const MAX_DP_VERTICES: usize = 20;

/// A tree decomposition of a hypergraph.
///
/// The decompositions this crate builds are **reduced**: no bag is a subset
/// of another.  A bag contained in some other bag is contained in its
/// neighbour on the tree path between them (running intersection), so
/// merging every such bag into a neighbour leaves a decomposition of the
/// same width with only maximal bags — the ones worth materialising.
#[derive(Debug, Clone)]
pub struct TreeDecomposition {
    /// The bags.
    pub bags: Vec<BTreeSet<VarId>>,
    /// Tree edges between bag indices.
    pub edges: Vec<(usize, usize)>,
    /// `max_t ρ*(χ(t))` for this decomposition.
    pub width: f64,
}

impl TreeDecomposition {
    /// Checks the two tree-decomposition properties of Definition A.12:
    /// every hyperedge is covered by some bag, and for every vertex the bags
    /// containing it form a connected subtree.
    pub fn is_valid(&self, h: &Hypergraph) -> bool {
        // Property 1: edge coverage.
        for e in h.edges() {
            if !self
                .bags
                .iter()
                .any(|bag| e.vertices.iter().all(|v| bag.contains(v)))
            {
                return false;
            }
        }
        // Property 2: connectivity, checked per vertex with a union-find over
        // the bags containing it.
        let n = self.bags.len();
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        // The tree must be connected and have n - 1 edges (unless n <= 1).
        if n > 1 && self.edges.len() != n - 1 {
            return false;
        }
        for v in 0..h.num_vertices() {
            let containing: Vec<usize> = (0..n).filter(|&i| self.bags[i].contains(&v)).collect();
            if containing.len() <= 1 {
                continue;
            }
            // BFS within the subgraph induced by `containing`.
            let allowed: BTreeSet<usize> = containing.iter().copied().collect();
            let mut seen = BTreeSet::new();
            let mut stack = vec![containing[0]];
            while let Some(b) = stack.pop() {
                if !seen.insert(b) {
                    continue;
                }
                for &next in &adjacency[b] {
                    if allowed.contains(&next) && !seen.contains(&next) {
                        stack.push(next);
                    }
                }
            }
            if seen.len() != containing.len() {
                return false;
            }
        }
        true
    }
}

/// `min` over elimination orders of `max` over elimination bags of `cost(bag)`
/// for an arbitrary bag cost function, together with an optimal elimination
/// order.  This is the work-horse behind [`fractional_hypertree_width`] and
/// the modular lower bounds on the submodular width.
pub fn elimination_width<F>(h: &Hypergraph, mut cost: F) -> (f64, Vec<VarId>)
where
    F: FnMut(&BTreeSet<VarId>) -> f64,
{
    let n = h.num_vertices();
    assert!(
        n <= MAX_DP_VERTICES,
        "exact width DP supports at most {MAX_DP_VERTICES} vertices"
    );
    if n == 0 {
        return (0.0, Vec::new());
    }
    let adj = h.primal_graph();
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };

    // Cache bag costs by bag bitmask.
    let mut bag_cost: HashMap<u32, f64> = HashMap::new();
    let mut cost_of = |bag_mask: u32, bag: &BTreeSet<VarId>| -> f64 {
        *bag_cost.entry(bag_mask).or_insert_with(|| cost(bag))
    };

    // best[mask] = minimal achievable max-cost when the vertices of `mask`
    // are eliminated first (in some order); choice[mask] = last vertex of
    // that prefix in an optimal order.
    let mut best: Vec<f64> = vec![f64::INFINITY; (full as usize) + 1];
    let mut choice: Vec<usize> = vec![usize::MAX; (full as usize) + 1];
    best[0] = 0.0;

    for mask in 1..=full {
        let mut best_here = f64::INFINITY;
        let mut best_v = usize::MAX;
        for v in 0..n {
            if mask & (1 << v) == 0 {
                continue;
            }
            let prev = mask & !(1 << v);
            if best[prev as usize].is_infinite() {
                continue;
            }
            let (bag_mask, bag) = elimination_bag(&adj, n, v, prev);
            let c = cost_of(bag_mask, &bag);
            let value = best[prev as usize].max(c);
            // `best_v == usize::MAX` keeps the choice well defined even when
            // every candidate cost is infinite (e.g. an uncovered vertex).
            if value < best_here || best_v == usize::MAX {
                best_here = value;
                best_v = v;
            }
        }
        best[mask as usize] = best_here;
        choice[mask as usize] = best_v;
    }

    // Reconstruct an optimal order (first eliminated first).
    let mut order_rev = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let v = choice[mask as usize];
        order_rev.push(v);
        mask &= !(1 << v);
    }
    order_rev.reverse();
    (best[full as usize], order_rev)
}

/// The elimination bag of `v` when the vertices of `eliminated` have already
/// been eliminated: `{v}` plus every non-eliminated vertex reachable from `v`
/// through eliminated vertices in the primal graph.
fn elimination_bag(
    adj: &[Vec<bool>],
    n: usize,
    v: usize,
    eliminated: u32,
) -> (u32, BTreeSet<VarId>) {
    let mut bag_mask: u32 = 1 << v;
    let mut visited: u32 = 1 << v;
    let mut stack = vec![v];
    while let Some(u) = stack.pop() {
        #[allow(clippy::needless_range_loop)]
        for w in 0..n {
            if !adj[u][w] || visited & (1 << w) != 0 {
                continue;
            }
            visited |= 1 << w;
            if eliminated & (1 << w) != 0 {
                // Traverse through already-eliminated vertices.
                stack.push(w);
            } else {
                bag_mask |= 1 << w;
            }
        }
    }
    let bag: BTreeSet<VarId> = (0..n).filter(|&i| bag_mask & (1 << i) != 0).collect();
    (bag_mask, bag)
}

/// The fractional hypertree width `fhtw(H)`.
///
/// Returns `f64::INFINITY` when some vertex is not covered by any hyperedge.
pub fn fractional_hypertree_width(h: &Hypergraph) -> f64 {
    elimination_width(h, |bag| fractional_edge_cover_number(h, bag)).0
}

/// Builds a tree decomposition realising the fractional hypertree width.
pub fn optimal_tree_decomposition(h: &Hypergraph) -> TreeDecomposition {
    let (_, order) = elimination_width(h, |bag| fractional_edge_cover_number(h, bag));
    decomposition_from_order(h, &order)
}

/// Builds the reduced tree decomposition induced by a vertex elimination
/// order: the elimination bags, each joined to the bag of its first
/// neighbour eliminated after it, then every bag contained in a neighbouring
/// bag merged into that neighbour.  The surviving bags keep their order of
/// elimination.
pub fn decomposition_from_order(h: &Hypergraph, order: &[VarId]) -> TreeDecomposition {
    let n = h.num_vertices();
    assert_eq!(order.len(), n, "the order must cover every vertex");
    if n == 0 {
        return TreeDecomposition {
            bags: vec![BTreeSet::new()],
            edges: Vec::new(),
            width: 0.0,
        };
    }
    let adj = h.primal_graph();
    let position: HashMap<VarId, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();

    let mut bags: Vec<BTreeSet<VarId>> = Vec::with_capacity(n);
    let mut eliminated: u32 = 0;
    for &v in order {
        let (_, bag) = elimination_bag(&adj, n, v, eliminated);
        bags.push(bag);
        eliminated |= 1 << v;
    }
    // Connect bag i to the bag of the first vertex of bag_i \ {v_i}
    // eliminated after v_i; bags without later neighbours attach to the next
    // bag in the order (keeps the structure a tree).
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (i, &v) in order.iter().enumerate() {
        if i + 1 == n {
            break;
        }
        let successor = bags[i]
            .iter()
            .filter(|&&u| u != v)
            .map(|&u| position[&u])
            .filter(|&p| p > i)
            .min()
            .unwrap_or(i + 1);
        edges.push((i, successor));
    }
    let (bags, edges) = merge_subset_bags(bags, edges);
    // Every dropped bag lies inside a kept one and ρ* is monotone, so this
    // is the width of the unreduced decomposition too.
    let width = bags
        .iter()
        .map(|bag| fractional_edge_cover_number(h, bag))
        .fold(0.0_f64, f64::max);
    TreeDecomposition { bags, edges, width }
}

/// Contracts every tree edge one of whose bags contains the other, keeping
/// the larger bag, until no bag is a subset of a neighbour — and hence, by
/// running intersection, of any other bag.  Contracting an edge keeps each
/// vertex's bags connected, and the kept bag covers whatever the dropped one
/// did.  The surviving bags keep their relative order.
fn merge_subset_bags(
    bags: Vec<BTreeSet<VarId>>,
    mut edges: Vec<(usize, usize)>,
) -> (Vec<BTreeSet<VarId>>, Vec<(usize, usize)>) {
    let mut alive = vec![true; bags.len()];
    while let Some(k) = edges
        .iter()
        .position(|&(a, b)| bags[a].is_subset(&bags[b]) || bags[b].is_subset(&bags[a]))
    {
        let (a, b) = edges.swap_remove(k);
        let (gone, kept) = if bags[a].is_subset(&bags[b]) {
            (a, b)
        } else {
            (b, a)
        };
        for edge in &mut edges {
            for end in [&mut edge.0, &mut edge.1] {
                if *end == gone {
                    *end = kept;
                }
            }
        }
        alive[gone] = false;
    }
    let mut renumbered = vec![usize::MAX; bags.len()];
    let mut next = 0;
    for (i, &live) in alive.iter().enumerate() {
        if live {
            renumbered[i] = next;
            next += 1;
        }
    }
    let bags = bags
        .into_iter()
        .zip(&alive)
        .filter_map(|(bag, &live)| live.then_some(bag))
        .collect();
    let mut edges: Vec<(usize, usize)> = edges
        .into_iter()
        .map(|(a, b)| {
            let (a, b) = (renumbered[a], renumbered[b]);
            (a.min(b), a.max(b))
        })
        .collect();
    edges.sort_unstable();
    (bags, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_hypergraph::{four_clique_ej, k_cycle_ej, loomis_whitney_4_ej, triangle_ej, Hypergraph};
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn triangle_fhtw_is_three_halves() {
        let h = triangle_ej();
        assert!(close(fractional_hypertree_width(&h), 1.5));
        let td = optimal_tree_decomposition(&h);
        assert!(td.is_valid(&h));
        assert!(close(td.width, 1.5));
        // Reduced: every elimination bag lies inside the one bag {A, B, C}.
        assert_eq!(td.bags, vec![(0..3).collect::<BTreeSet<VarId>>()]);
    }

    #[test]
    fn acyclic_queries_have_fhtw_one() {
        // A path R(A,B) ∧ S(B,C) ∧ T(C,D).
        let mut h = Hypergraph::new();
        let a = h.add_point_var("A");
        let b = h.add_point_var("B");
        let c = h.add_point_var("C");
        let d = h.add_point_var("D");
        h.add_edge("R", vec![a, b]);
        h.add_edge("S", vec![b, c]);
        h.add_edge("T", vec![c, d]);
        assert!(close(fractional_hypertree_width(&h), 1.0));
        let td = optimal_tree_decomposition(&h);
        assert!(td.is_valid(&h));
        assert!(close(td.width, 1.0));
    }

    #[test]
    fn lw4_fhtw_is_four_thirds() {
        // The EJ Loomis-Whitney query has fhtw = AGM exponent = 4/3.
        let h = loomis_whitney_4_ej();
        assert!(close(fractional_hypertree_width(&h), 4.0 / 3.0));
    }

    #[test]
    fn four_clique_fhtw_is_two() {
        let h = four_clique_ej();
        assert!(close(fractional_hypertree_width(&h), 2.0));
    }

    #[test]
    fn four_cycle_fhtw_is_two() {
        // The 4-cycle is the classic separation example: its fractional
        // hypertree width is 2 (every tree decomposition has a bag whose
        // fractional edge cover number is 2) although its submodular width is
        // only 3/2 — exactly the situation of LW4 class 1 in Appendix F.2.1.
        assert!(close(fractional_hypertree_width(&k_cycle_ej(4)), 2.0));
        // Longer cycles stay at most 2 (a single bag covers everything with
        // alternating edges) and at least 3/2.
        let w6 = fractional_hypertree_width(&k_cycle_ej(6));
        assert!((1.5 - 1e-9..=2.0 + 1e-9).contains(&w6));
    }

    #[test]
    fn decompositions_from_arbitrary_orders_are_valid() {
        let h = four_clique_ej();
        let n = h.num_vertices();
        let order: Vec<VarId> = (0..n).collect();
        let td = decomposition_from_order(&h, &order);
        assert!(td.is_valid(&h));
        assert!(td.width >= fractional_hypertree_width(&h) - 1e-9);
        let reversed: Vec<VarId> = (0..n).rev().collect();
        let td2 = decomposition_from_order(&h, &reversed);
        assert!(td2.is_valid(&h));
    }

    #[test]
    fn elimination_width_with_cardinality_cost_is_treewidth_plus_one() {
        // Using |bag| as the cost gives treewidth + 1: triangle → 3,
        // 4-cycle → 3, path → 2.
        let (w, order) = elimination_width(&triangle_ej(), |bag| bag.len() as f64);
        assert!(close(w, 3.0));
        assert_eq!(order.len(), 3);
        let (w4, _) = elimination_width(&k_cycle_ej(4), |bag| bag.len() as f64);
        assert!(close(w4, 3.0));
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::new();
        assert!(close(fractional_hypertree_width(&h), 0.0));
    }

    #[test]
    fn isolated_vertex_makes_width_infinite() {
        let mut h = Hypergraph::new();
        let a = h.add_point_var("A");
        let b = h.add_point_var("B");
        h.add_edge("R", vec![a]);
        let _ = b;
        assert!(fractional_hypertree_width(&h).is_infinite());
    }

    #[test]
    fn single_edge_decomposition_is_one_bag_wide() {
        let mut h = Hypergraph::new();
        let vars: Vec<VarId> = (0..4).map(|i| h.add_point_var(format!("X{i}"))).collect();
        h.add_edge("R", vars.clone());
        let td = optimal_tree_decomposition(&h);
        assert!(td.is_valid(&h));
        assert!(close(td.width, 1.0));
        assert_eq!(td.bags, vec![vars.iter().copied().collect()]);
    }

    /// The reduced decomposition of `order` against the unreduced one: valid,
    /// no bag inside another, every elimination bag inside a returned bag,
    /// and the width of the elimination bags.
    fn check_reduced(h: &Hypergraph, order: &[VarId]) -> Result<TreeDecomposition, String> {
        let td = decomposition_from_order(h, order);
        prop_assert!(td.is_valid(h), "invalid decomposition {td:?}");
        for (i, a) in td.bags.iter().enumerate() {
            for (j, b) in td.bags.iter().enumerate() {
                prop_assert!(i == j || !a.is_subset(b), "bag {i} ⊆ bag {j} in {td:?}");
            }
        }
        let (adj, n) = (h.primal_graph(), h.num_vertices());
        let mut eliminated = 0u32;
        let mut unreduced_width = 0.0_f64;
        for &v in order {
            let (_, bag) = elimination_bag(&adj, n, v, eliminated);
            prop_assert!(
                td.bags.iter().any(|kept| bag.is_subset(kept)),
                "elimination bag {bag:?} lost from {td:?}"
            );
            unreduced_width = unreduced_width.max(fractional_edge_cover_number(h, &bag));
            eliminated |= 1 << v;
        }
        prop_assert!(
            close(td.width, unreduced_width),
            "{} vs {unreduced_width}",
            td.width
        );
        Ok(td)
    }

    /// A hypergraph on `n` vertices with one edge per non-zero mask, plus a
    /// singleton edge for every vertex no mask covers (so every width is
    /// finite).
    fn hypergraph_of_masks(n: usize, masks: &[u32]) -> Hypergraph {
        let mut h = Hypergraph::new();
        let vars: Vec<VarId> = (0..n).map(|i| h.add_point_var(format!("X{i}"))).collect();
        let mut covered = 0u32;
        for (k, &mask) in masks.iter().enumerate() {
            let edge: Vec<VarId> = vars
                .iter()
                .copied()
                .filter(|&v| mask & (1 << v) != 0)
                .collect();
            h.add_edge(format!("R{k}"), edge);
            covered |= mask;
        }
        for &v in vars.iter().filter(|&&v| covered & (1 << v) == 0) {
            h.add_edge(format!("U{v}"), vec![v]);
        }
        h
    }

    #[test]
    fn catalog_decompositions_are_reduced() {
        let catalog = [
            triangle_ej(),
            k_cycle_ej(4),
            k_cycle_ej(5),
            four_clique_ej(),
            loomis_whitney_4_ej(),
        ];
        for h in &catalog {
            let n = h.num_vertices();
            let optimal = optimal_tree_decomposition(h);
            let (_, order) = elimination_width(h, |bag| fractional_edge_cover_number(h, bag));
            let td = check_reduced(h, &order).unwrap();
            assert_eq!((&td.bags, &td.edges), (&optimal.bags, &optimal.edges));
            assert!(close(optimal.width, fractional_hypertree_width(h)));
            for order in [(0..n).collect::<Vec<_>>(), (0..n).rev().collect()] {
                check_reduced(h, &order).unwrap();
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        /// Random hypergraphs of up to 8 vertices under a random order and
        /// under the optimal one.
        #[test]
        fn decompositions_are_reduced_on_random_hypergraphs(
            case in (1usize..=8).prop_flat_map(|n| {
                let edges = proptest::collection::vec(1u32..(1 << n), 1..=8);
                (Just(n), edges, proptest::collection::vec(0u32..1_000, n))
            })
        ) {
            let (n, masks, keys) = case;
            let h = hypergraph_of_masks(n, &masks);
            let mut order: Vec<VarId> = (0..n).collect();
            order.sort_by_key(|&v| keys[v]);
            check_reduced(&h, &order)?;
            let (fhtw, optimal) =
                elimination_width(&h, |bag| fractional_edge_cover_number(&h, bag));
            let td = check_reduced(&h, &optimal)?;
            prop_assert!(close(td.width, fhtw), "{} vs fhtw {fhtw}", td.width);
            let direct = optimal_tree_decomposition(&h);
            prop_assert_eq!(direct.bags, td.bags);
        }
    }
}
