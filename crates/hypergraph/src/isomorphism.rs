//! Hypergraph isomorphism and isomorphism-class grouping.
//!
//! Appendix E.4 and Appendix F group the (many) EJ queries produced by the
//! forward reduction into a handful of isomorphism classes and analyse one
//! representative per class, because widths are invariant under renaming of
//! variables and relations.  Two hypergraphs are isomorphic if there is a
//! bijection between their vertex sets under which the multisets of hyperedge
//! vertex sets coincide (labels are ignored).

use crate::{Hypergraph, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// A cheap isomorphism invariant: hypergraphs with different keys are never
/// isomorphic.  Used to pre-partition before running the exact test.
pub fn invariant_key(h: &Hypergraph) -> Vec<u64> {
    let mut key = vec![h.num_vertices() as u64, h.num_edges() as u64];
    // Sorted edge sizes.
    let mut sizes: Vec<u64> = h.edges().iter().map(|e| e.vertices.len() as u64).collect();
    sizes.sort_unstable();
    key.push(u64::MAX); // separator
    key.extend(sizes);
    // Sorted vertex signatures: (degree, sorted multiset of incident edge sizes).
    let mut signatures: Vec<Vec<u64>> = (0..h.num_vertices())
        .map(|v| vertex_signature(h, v))
        .collect();
    signatures.sort();
    for s in signatures {
        key.push(u64::MAX);
        key.extend(s);
    }
    key
}

fn vertex_signature(h: &Hypergraph, v: VarId) -> Vec<u64> {
    let mut incident_sizes: Vec<u64> = h
        .edges()
        .iter()
        .filter(|e| e.vertices.contains(&v))
        .map(|e| e.vertices.len() as u64)
        .collect();
    incident_sizes.sort_unstable();
    let mut sig = vec![incident_sizes.len() as u64];
    sig.extend(incident_sizes);
    sig
}

/// Exact isomorphism test (backtracking over vertex bijections with
/// signature-based pruning).  Suitable for query-sized hypergraphs.
pub fn are_isomorphic(a: &Hypergraph, b: &Hypergraph) -> bool {
    if a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges() {
        return false;
    }
    if invariant_key(a) != invariant_key(b) {
        return false;
    }
    let n = a.num_vertices();
    if n == 0 {
        return edge_multiset(a, &[]) == edge_multiset(b, &[]);
    }

    let sig_a: Vec<Vec<u64>> = (0..n).map(|v| vertex_signature(a, v)).collect();
    let sig_b: Vec<Vec<u64>> = (0..n).map(|v| vertex_signature(b, v)).collect();

    // Order the vertices of `a` by decreasing constraint (rarest signature
    // first) to prune early.
    let mut order: Vec<VarId> = (0..n).collect();
    let mut sig_count: BTreeMap<&Vec<u64>, usize> = BTreeMap::new();
    for s in &sig_b {
        *sig_count.entry(s).or_insert(0) += 1;
    }
    order.sort_by_key(|&v| sig_count.get(&sig_a[v]).copied().unwrap_or(0));

    let mut mapping: Vec<Option<VarId>> = vec![None; n];
    let mut used: Vec<bool> = vec![false; n];
    assign(a, b, &sig_a, &sig_b, &order, 0, &mut mapping, &mut used)
}

#[allow(clippy::too_many_arguments)]
fn assign(
    a: &Hypergraph,
    b: &Hypergraph,
    sig_a: &[Vec<u64>],
    sig_b: &[Vec<u64>],
    order: &[VarId],
    pos: usize,
    mapping: &mut Vec<Option<VarId>>,
    used: &mut Vec<bool>,
) -> bool {
    if pos == order.len() {
        let perm: Vec<VarId> = (0..mapping.len()).map(|v| mapping[v].unwrap()).collect();
        return edge_multiset(a, &perm) == edge_multiset(b, &identity(b.num_vertices()));
    }
    let v = order[pos];
    for w in 0..b.num_vertices() {
        if used[w] || sig_a[v] != sig_b[w] {
            continue;
        }
        mapping[v] = Some(w);
        used[w] = true;
        if partial_consistent(a, b, mapping)
            && assign(a, b, sig_a, sig_b, order, pos + 1, mapping, used)
        {
            return true;
        }
        mapping[v] = None;
        used[w] = false;
    }
    false
}

fn identity(n: usize) -> Vec<VarId> {
    (0..n).collect()
}

/// Multiset of hyperedge vertex sets after renaming vertex `v` to `perm[v]`.
fn edge_multiset(h: &Hypergraph, perm: &[VarId]) -> Vec<BTreeSet<VarId>> {
    let mut edges: Vec<BTreeSet<VarId>> = h
        .edges()
        .iter()
        .map(|e| {
            e.vertices
                .iter()
                .map(|&v| if perm.is_empty() { v } else { perm[v] })
                .collect()
        })
        .collect();
    edges.sort();
    edges
}

/// Cheap partial-consistency check: for every pair of mapped vertices, the
/// number of edges containing both must agree in `a` and `b`.
fn partial_consistent(a: &Hypergraph, b: &Hypergraph, mapping: &[Option<VarId>]) -> bool {
    let mapped: Vec<(VarId, VarId)> = mapping
        .iter()
        .enumerate()
        .filter_map(|(v, m)| m.map(|w| (v, w)))
        .collect();
    for i in 0..mapped.len() {
        for j in i + 1..mapped.len() {
            let (v1, w1) = mapped[i];
            let (v2, w2) = mapped[j];
            let count_a = a
                .edges()
                .iter()
                .filter(|e| e.vertices.contains(&v1) && e.vertices.contains(&v2))
                .count();
            let count_b = b
                .edges()
                .iter()
                .filter(|e| e.vertices.contains(&w1) && e.vertices.contains(&w2))
                .count();
            if count_a != count_b {
                return false;
            }
        }
    }
    true
}

/// Groups hypergraphs into isomorphism classes; returns, for every class, the
/// indices of its members (classes ordered by their smallest member).
pub fn group_into_isomorphism_classes(graphs: &[Hypergraph]) -> Vec<Vec<usize>> {
    // Pre-partition by invariant key, then refine with the exact test.
    let mut by_key: BTreeMap<Vec<u64>, Vec<usize>> = BTreeMap::new();
    for (i, g) in graphs.iter().enumerate() {
        by_key.entry(invariant_key(g)).or_default().push(i);
    }
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for bucket in by_key.values() {
        let mut representatives: Vec<usize> = Vec::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        for &i in bucket {
            match representatives
                .iter()
                .position(|&r| are_isomorphic(&graphs[r], &graphs[i]))
            {
                Some(pos) => members[pos].push(i),
                None => {
                    representatives.push(i);
                    members.push(vec![i]);
                }
            }
        }
        classes.extend(members);
    }
    classes.sort_by_key(|c| c[0]);
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{figure_9a, figure_9b, triangle_ej, triangle_ij};
    use crate::hgraph::ej_from_atoms;

    #[test]
    fn relabelled_hypergraphs_are_isomorphic() {
        let a = ej_from_atoms(&[("R", &["A", "B"]), ("S", &["B", "C"]), ("T", &["A", "C"])]);
        let b = ej_from_atoms(&[("X", &["P", "Q"]), ("Y", &["Q", "Z"]), ("Z", &["Z", "P"])]);
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn kind_is_ignored_but_structure_is_not() {
        // Isomorphism is purely structural: the IJ and EJ triangles are
        // isomorphic as hypergraphs.
        assert!(are_isomorphic(&triangle_ij(), &triangle_ej()));
        // A path of three atoms is not isomorphic to a triangle.
        let path = ej_from_atoms(&[("R", &["A", "B"]), ("S", &["B", "C"]), ("T", &["C", "D"])]);
        assert!(!are_isomorphic(&triangle_ej(), &path));
    }

    #[test]
    fn different_multiplicities_are_distinguished() {
        let two = ej_from_atoms(&[("R", &["A", "B"]), ("S", &["A", "B"])]);
        let three = ej_from_atoms(&[("R", &["A", "B"]), ("S", &["A", "B"]), ("T", &["A", "B"])]);
        assert!(!are_isomorphic(&two, &three));
        let other_two = ej_from_atoms(&[("X", &["U", "V"]), ("Y", &["U", "V"])]);
        assert!(are_isomorphic(&two, &other_two));
    }

    #[test]
    fn figure_9a_and_9b_are_not_isomorphic() {
        assert!(!are_isomorphic(&figure_9a(), &figure_9b()));
    }

    #[test]
    fn grouping_collapses_renamings() {
        let graphs = vec![
            triangle_ej(),
            ej_from_atoms(&[
                ("A1", &["X", "Y"]),
                ("A2", &["Y", "Z"]),
                ("A3", &["X", "Z"]),
            ]),
            ej_from_atoms(&[("R", &["A", "B"]), ("S", &["B", "C"]), ("T", &["C", "D"])]),
            figure_9a(),
        ];
        let classes = group_into_isomorphism_classes(&graphs);
        assert_eq!(classes.len(), 3);
        // The two triangles end up in the same class.
        let triangle_class = classes.iter().find(|c| c.contains(&0)).unwrap();
        assert!(triangle_class.contains(&1));
    }

    #[test]
    fn invariant_key_differs_for_structurally_different_graphs() {
        assert_ne!(invariant_key(&triangle_ej()), invariant_key(&figure_9a()));
        assert_eq!(invariant_key(&triangle_ej()), invariant_key(&triangle_ij()));
    }

    #[test]
    fn empty_hypergraphs_are_isomorphic() {
        assert!(are_isomorphic(&Hypergraph::new(), &Hypergraph::new()));
    }

    #[test]
    fn isomorphism_respects_edge_vertex_sets_not_labels() {
        let a = ej_from_atoms(&[("R", &["A", "B", "C"]), ("S", &["A", "B"])]);
        let b = ej_from_atoms(&[("S", &["X", "Y"]), ("R", &["X", "Y", "Z"])]);
        assert!(are_isomorphic(&a, &b));
    }
}
