//! The ij-width of an IJ query (Definition 4.14).
//!
//! `ijw(H) = max over H̃ ∈ τ(H) of subw(H̃)`: the complexity of an IJ query is
//! that of the most expensive EJ query produced by the forward reduction
//! (Theorem 4.15 gives the matching `O(N^{ijw} polylog N)` upper bound,
//! Theorem 5.2 the matching lower bound).
//!
//! The report groups the reduced hypergraphs into isomorphism classes (after
//! dropping singleton variables, which affects neither fhtw nor subw) exactly
//! like Appendix E.4 and Appendix F, and reports per-class widths.

use crate::decomposition::fractional_hypertree_width;
use crate::subw::{submodular_width_estimate, SubmodularWidthEstimate};
use ij_hypergraph::{full_reduction, group_into_isomorphism_classes, Hypergraph};

/// Width analysis of one isomorphism class of reduced EJ queries.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// A representative hypergraph (singleton variables dropped).
    pub representative: Hypergraph,
    /// Number of reduced EJ queries in this class.
    pub size: usize,
    /// Fractional hypertree width of the representative.
    pub fhtw: f64,
    /// Submodular width estimate of the representative.
    pub subw: SubmodularWidthEstimate,
}

/// The ij-width report of an IJ (or mixed EIJ) query hypergraph.
#[derive(Debug, Clone)]
pub struct IjWidthReport {
    /// Total number of EJ queries produced by the full reduction
    /// (`∏_[X] |E_[X]|!`).
    pub num_reduced_queries: usize,
    /// Number of distinct reduced queries after dropping singleton variables.
    pub num_distinct_after_dropping_singletons: usize,
    /// Isomorphism classes of the reduced queries with per-class widths.
    pub classes: Vec<ClassReport>,
    /// Lower bound on the ij-width.
    pub lower: f64,
    /// Upper bound on the ij-width (max fhtw over the classes).
    pub upper: f64,
    /// The best point estimate (max of the per-class point estimates).
    pub value: f64,
    /// Whether every class width is known exactly (making `value` exact).
    pub exact: bool,
}

impl IjWidthReport {
    /// True if the query is computable in near-linear time through the
    /// reduction (every reduced class has width 1) — by Theorem 6.6 this
    /// coincides with ι-acyclicity of the input hypergraph.
    pub fn is_linear_time(&self) -> bool {
        self.exact && (self.value - 1.0).abs() < 1e-9
    }
}

/// Computes the ij-width report of a hypergraph.
///
/// The full reduction is exponential in the query size (never in the data),
/// exactly as in the paper; queries with many high-degree interval variables
/// therefore take a while (the 4-clique produces 1296 reduced hypergraphs,
/// which group into 6 classes).
pub fn ij_width(h: &Hypergraph) -> IjWidthReport {
    let reduced = full_reduction(h);
    let num_reduced_queries = reduced.len();

    // Drop singleton variables and deduplicate identical hypergraphs before
    // the (more expensive) isomorphism grouping.
    let mut dropped: Vec<Hypergraph> = Vec::new();
    for r in &reduced {
        let g = r.hypergraph.drop_singleton_vertices();
        if !dropped.contains(&g) {
            dropped.push(g);
        }
    }
    let num_distinct = dropped.len();

    let classes_idx = group_into_isomorphism_classes(&dropped);
    let mut classes: Vec<ClassReport> = Vec::new();
    for members in &classes_idx {
        let representative = dropped[members[0]].clone();
        let fhtw = fractional_hypertree_width(&representative);
        let subw = submodular_width_estimate(&representative);
        classes.push(ClassReport {
            representative,
            size: members.len(),
            fhtw,
            subw,
        });
    }

    let lower = classes.iter().map(|c| c.subw.lower).fold(0.0_f64, f64::max);
    let upper = classes.iter().map(|c| c.fhtw).fold(0.0_f64, f64::max);
    let value = classes.iter().map(|c| c.subw.value).fold(0.0_f64, f64::max);
    let exact = classes.iter().all(|c| c.subw.is_exact());
    IjWidthReport {
        num_reduced_queries,
        num_distinct_after_dropping_singletons: num_distinct,
        classes,
        lower,
        upper,
        value,
        exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_hypergraph::{
        figure_9a, figure_9b, figure_9c, figure_9d, figure_9e, figure_9f, four_clique_ij,
        loomis_whitney_4_ij, triangle_ij,
    };

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn triangle_ij_width_is_three_halves() {
        // Section 1.1: ijw(Q△) = 3/2.
        let report = ij_width(&triangle_ij());
        assert_eq!(report.num_reduced_queries, 8);
        assert!(report.exact, "triangle ij-width should be exact");
        assert!(close(report.value, 1.5), "got {}", report.value);
        // After dropping singleton variables every reduced query collapses to
        // the EJ triangle, so there is a single isomorphism class.
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.classes[0].size, 1);
    }

    #[test]
    fn figure_9_widths_match_appendix_e4() {
        // Appendix E.4: ijw = 3/2 for Figures 9a-9c and 1 for Figures 9d-9f.
        for (h, expected, name) in [
            (figure_9a(), 1.5, "9a"),
            (figure_9b(), 1.5, "9b"),
            (figure_9c(), 1.5, "9c"),
            (figure_9d(), 1.0, "9d"),
            (figure_9e(), 1.0, "9e"),
            (figure_9f(), 1.0, "9f"),
        ] {
            let report = ij_width(&h);
            assert!(
                close(report.value, expected),
                "figure {name}: got {}",
                report.value
            );
            assert!(report.exact, "figure {name} should have an exact ij-width");
            assert_eq!(report.is_linear_time(), expected == 1.0, "figure {name}");
        }
    }

    #[test]
    fn figure_9c_has_three_distinct_reduced_queries() {
        // Appendix E.4.3: 24 reduced queries, 3 distinct after dropping
        // singleton variables (the paper's cases 1-3), with widths 1.5, 1.0
        // and 1.0.  Cases 2 and 3 are isomorphic to each other (swap A1 and
        // C1), so there are two isomorphism classes.
        let report = ij_width(&figure_9c());
        assert_eq!(report.num_reduced_queries, 24);
        assert_eq!(report.num_distinct_after_dropping_singletons, 3);
        assert_eq!(report.classes.len(), 2);
        let mut widths: Vec<f64> = report.classes.iter().map(|c| c.subw.value).collect();
        widths.sort_by(f64::total_cmp);
        assert!(close(widths[0], 1.0));
        assert!(close(widths[1], 1.5));
        // The class of width 1.0 contains the two isomorphic cases.
        let sizes: Vec<usize> = report.classes.iter().map(|c| c.size).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 3);
    }

    #[test]
    fn figure_9a_has_27_distinct_reduced_queries() {
        // Appendix E.4.1: 216 reduced queries, 27 distinct after dropping
        // singleton variables, 3 isomorphism classes.
        let report = ij_width(&figure_9a());
        assert_eq!(report.num_reduced_queries, 216);
        assert_eq!(report.num_distinct_after_dropping_singletons, 27);
        assert_eq!(report.classes.len(), 3);
    }

    #[test]
    fn figure_9b_has_9_distinct_reduced_queries() {
        // Appendix E.4.2: 72 reduced queries, 9 distinct, 3 classes.
        let report = ij_width(&figure_9b());
        assert_eq!(report.num_reduced_queries, 72);
        assert_eq!(report.num_distinct_after_dropping_singletons, 9);
        assert_eq!(report.classes.len(), 3);
    }

    #[test]
    fn loomis_whitney_4_ij_width_is_five_thirds() {
        // Table 1 / Appendix F.2: ijw = 5/3 with 81 distinct reduced queries
        // in 6 isomorphism classes.
        let report = ij_width(&loomis_whitney_4_ij());
        assert_eq!(report.num_reduced_queries, 1296);
        assert_eq!(report.num_distinct_after_dropping_singletons, 81);
        assert_eq!(report.classes.len(), 6);
        assert!(close(report.value, 5.0 / 3.0), "got {}", report.value);
        assert!(report.exact);
    }

    #[test]
    fn four_clique_ij_width_is_two() {
        // Table 1 / Appendix F.3: ijw = 2 with 81 distinct reduced queries in
        // 6 isomorphism classes.
        let report = ij_width(&four_clique_ij());
        assert_eq!(report.num_reduced_queries, 1296);
        assert_eq!(report.num_distinct_after_dropping_singletons, 81);
        assert_eq!(report.classes.len(), 6);
        assert!(close(report.value, 2.0), "got {}", report.value);
        assert!(report.exact);
    }
}
