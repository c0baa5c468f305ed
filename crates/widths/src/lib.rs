//! Width measures for Boolean conjunctive queries.
//!
//! This crate implements the width machinery the paper builds on
//! (Appendix A.2) and its new ij-width (Definition 4.14):
//!
//! * [`fractional_edge_cover`] / [`fractional_edge_cover_number`] — the
//!   fractional edge cover number ρ* of a vertex set (the AGM exponent when
//!   applied to all variables), solved with a small built-in simplex;
//! * [`fractional_hypertree_width`] and [`optimal_tree_decomposition`] —
//!   exact fhtw via dynamic programming over vertex elimination orders, and
//!   a reduced decomposition (no bag inside another) that realises it;
//! * [`submodular_width_estimate`] — lower/upper bounds for the submodular
//!   width with the published values for the paper's query classes;
//! * [`ij_width`] — the ij-width report: the maximum submodular width over
//!   the hypergraphs produced by the forward reduction, grouped into
//!   isomorphism classes as in Appendix E.4/F.
//!
//! # Example
//!
//! ```
//! use ij_hypergraph::triangle_ij;
//! use ij_widths::ij_width;
//!
//! let report = ij_width(&triangle_ij());
//! assert!((report.value - 1.5).abs() < 1e-9); // Section 1.1: ijw(Q△) = 3/2
//! ```

#![forbid(unsafe_code)]

mod cover;
mod decomposition;
mod ijw;
mod lp;
mod subw;

pub use cover::{
    agm_exponent, fractional_edge_cover, fractional_edge_cover_number, vertex_degrees,
    FractionalEdgeCover,
};
pub use decomposition::{
    decomposition_from_order, elimination_width, fractional_hypertree_width,
    optimal_tree_decomposition, TreeDecomposition, MAX_DP_VERTICES,
};
pub use ijw::{ij_width, ClassReport, IjWidthReport};
pub use lp::{solve_packing_lp, LpOutcome, LpSolution};
pub use subw::{
    modular_lower_bound, paper_catalog, paper_catalog_subw, submodular_width_estimate,
    SubmodularWidthEstimate, SubwSource,
};
