//! Cross-crate regression tests for the paper's headline analytic results.
//!
//! * Table 1 / Table 2: ij-widths of the triangle (3/2), Loomis–Whitney-4
//!   (5/3) and 4-clique (2) IJ queries;
//! * Section 1.1 / Figure 2: the 8 EJ queries of the triangle reduction and
//!   their star decomposition with central bag {A1, B1, C1};
//! * Figure 3: the segment tree over I = {[1,4], [3,4]};
//! * Figure 5: the strict inclusions between the acyclicity classes;
//! * Example 6.5 / Figure 9 / Appendix E.4: classification and widths;
//! * Appendix F: the number of isomorphism classes of the reduced queries.

use ij_hypergraph::*;
use ij_segtree::{BitString, Interval, SegmentTree};
use ij_widths::*;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-6
}

#[test]
fn table_1_ij_widths() {
    assert!(close(ij_width(&triangle_ij()).value, 1.5));
    assert!(close(ij_width(&loomis_whitney_4_ij()).value, 5.0 / 3.0));
    assert!(close(ij_width(&four_clique_ij()).value, 2.0));
}

#[test]
fn table_1_ej_counterparts_are_cheaper_or_equal() {
    // The submodular widths of the EJ counterparts: triangle 3/2 (equal),
    // LW4 4/3 (< 5/3), 4-clique 2 (equal) — the comparison discussed in the
    // introduction.
    assert!(close(submodular_width_estimate(&triangle_ej()).value, 1.5));
    assert!(close(
        submodular_width_estimate(&loomis_whitney_4_ej()).upper,
        4.0 / 3.0
    ));
    assert!(close(
        submodular_width_estimate(&four_clique_ej()).value,
        2.0
    ));
}

#[test]
fn section_1_1_triangle_reduction_structure() {
    // Eight EJ queries; after dropping singleton variables each collapses to
    // the EJ triangle {A1,B1,C1}, whose fhtw is 3/2 — the star decomposition
    // with central bag {A1,B1,C1} of Figure 2.
    let reduced = full_reduction(&triangle_ij());
    assert_eq!(reduced.len(), 8);
    for r in &reduced {
        let dropped = r.hypergraph.drop_singleton_vertices();
        assert!(are_isomorphic(&dropped, &triangle_ej()));
        assert!(close(fractional_hypertree_width(&dropped), 1.5));
        // The full reduced query admits a decomposition of width 3/2 as well.
        assert!(close(fractional_hypertree_width(&r.hypergraph), 1.5));
    }
}

#[test]
fn figure_2_star_decomposition() {
    // Q̃1's optimal decomposition is reduced to Figure 2's star: the central
    // bag {A#1, B#1, C#1} adjacent to the two other bags.
    let q1 = &full_reduction(&triangle_ij())[0].hypergraph;
    let td = optimal_tree_decomposition(q1);
    assert!(td.is_valid(q1));
    assert!(close(td.width, 1.5));
    let names = |bag: &std::collections::BTreeSet<VarId>| -> Vec<String> {
        bag.iter().map(|&v| q1.vertex(v).name.clone()).collect()
    };
    assert_eq!(td.bags.len(), 3, "{:?}", td.bags);
    let centre = (td.bags.iter())
        .position(|bag| names(bag) == ["A#1", "B#1", "C#1"])
        .expect("central bag {A#1, B#1, C#1}");
    assert_eq!(td.edges.len(), 2);
    for &(a, b) in &td.edges {
        assert!(a == centre || b == centre, "{:?} is not a star", td.edges);
    }
}

#[test]
fn figure_3_segment_tree() {
    let tree = SegmentTree::build(&[Interval::new(1.0, 4.0), Interval::new(3.0, 4.0)]);
    let bs = |s: &str| BitString::parse(s).unwrap();
    let cp1: Vec<BitString> = tree.canonical_partition(Interval::new(1.0, 4.0));
    let cp2: Vec<BitString> = tree.canonical_partition(Interval::new(3.0, 4.0));
    assert_eq!(cp1.len(), 3);
    assert!(cp1.contains(&bs("001")) && cp1.contains(&bs("01")) && cp1.contains(&bs("10")));
    assert_eq!(cp2.len(), 2);
    assert!(cp2.contains(&bs("011")) && cp2.contains(&bs("10")));
}

#[test]
fn figure_5_acyclicity_inclusions_are_strict() {
    // Berge ⊂ iota: Figure 9f is iota- but not Berge-acyclic.
    assert!(is_iota_acyclic(&figure_9f()) && !is_berge_acyclic(&figure_9f()));
    // iota ⊂ gamma: the triple edge {x,y,z} x3 (proof of Corollary 6.4).
    let mut triple = Hypergraph::new();
    let x = triple.add_interval_var("X");
    let y = triple.add_interval_var("Y");
    let z = triple.add_interval_var("Z");
    for label in ["R", "S", "T"] {
        triple.add_edge(label, vec![x, y, z]);
    }
    assert!(is_gamma_acyclic(&triple) && !is_iota_acyclic(&triple));
    // gamma ⊂ alpha: the pattern {{x,y},{x,z},{x,y,z}}.
    let mut g = Hypergraph::new();
    let x = g.add_interval_var("X");
    let y = g.add_interval_var("Y");
    let z = g.add_interval_var("Z");
    g.add_edge("R", vec![x, y]);
    g.add_edge("S", vec![x, z]);
    g.add_edge("T", vec![x, y, z]);
    assert!(is_alpha_acyclic(&g) && !is_gamma_acyclic(&g));
    // alpha ⊂ all: the triangle.
    assert!(!is_alpha_acyclic(&triangle_ij()));
}

#[test]
fn example_6_5_and_figure_9() {
    // Figure 9a-9c: alpha-acyclic, not iota-acyclic, ijw = 3/2.
    for h in [figure_9a(), figure_9b(), figure_9c()] {
        assert!(is_alpha_acyclic(&h));
        assert!(!is_iota_acyclic(&h));
        assert!(close(ij_width(&h).value, 1.5));
    }
    // Figure 9d-9f: iota-acyclic, ijw = 1 (near-linear time).
    for h in [figure_9d(), figure_9e(), figure_9f()] {
        assert!(is_iota_acyclic(&h));
        assert!(ij_width(&h).is_linear_time());
    }
    // Example 6.5: number of reduced hypergraphs for Figures 4a/4b.
    assert_eq!(full_reduction(&figure_4a()).len(), 24);
    assert_eq!(full_reduction(&figure_4b()).len(), 12);
}

#[test]
fn appendix_e4_class_counts() {
    let r9a = ij_width(&figure_9a());
    assert_eq!(r9a.num_reduced_queries, 216);
    assert_eq!(r9a.num_distinct_after_dropping_singletons, 27);
    assert_eq!(r9a.classes.len(), 3);

    let r9b = ij_width(&figure_9b());
    assert_eq!(r9b.num_reduced_queries, 72);
    assert_eq!(r9b.num_distinct_after_dropping_singletons, 9);

    let r9c = ij_width(&figure_9c());
    assert_eq!(r9c.num_reduced_queries, 24);
    assert_eq!(r9c.num_distinct_after_dropping_singletons, 3);
}

#[test]
fn appendix_f_class_counts_and_widths() {
    // LW4: 1296 reduced queries, 81 distinct, 6 classes, widths
    // {1.5, 5/3, 1.5, 1.5, 1.5, 1.5}; the bottleneck class has width 5/3.
    let lw4 = ij_width(&loomis_whitney_4_ij());
    assert_eq!(lw4.num_distinct_after_dropping_singletons, 81);
    assert_eq!(lw4.classes.len(), 6);
    let mut widths: Vec<f64> = lw4.classes.iter().map(|c| c.subw.value).collect();
    widths.sort_by(f64::total_cmp);
    assert!(close(widths[5], 5.0 / 3.0));
    assert!(widths[..5].iter().all(|&w| close(w, 1.5)));

    // 4-clique: 1296 reduced queries, 81 distinct, 6 classes, all width 2.
    let clique = ij_width(&four_clique_ij());
    assert_eq!(clique.num_distinct_after_dropping_singletons, 81);
    assert_eq!(clique.classes.len(), 6);
    assert!(clique.classes.iter().all(|c| close(c.subw.value, 2.0)));
}

#[test]
fn appendix_f_lw4_class_1_separates_fhtw_and_subw() {
    // The class isomorphic to the 4-cycle-like query (27) has fhtw 2 but
    // submodular width 3/2 — the separation the paper highlights.
    let lw4 = ij_width(&loomis_whitney_4_ij());
    let separated = lw4
        .classes
        .iter()
        .find(|c| close(c.fhtw, 2.0) && close(c.subw.value, 1.5))
        .expect("LW4 class 1 present");
    assert!(separated.subw.is_exact());
}

#[test]
fn theorem_6_6_dichotomy_classification() {
    // iota-acyclic ⟺ ijw = 1 on the catalog of IJ queries.
    for entry in named_catalog() {
        let h = &entry.hypergraph;
        if !h.is_ij() {
            continue;
        }
        let report = ij_width(h);
        assert_eq!(
            is_iota_acyclic(h),
            report.is_linear_time(),
            "{}: iota-acyclicity and linear-time ij-width disagree",
            entry.name
        );
    }
}
