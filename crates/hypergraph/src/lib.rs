//! Hypergraphs, acyclicity notions and the structural IJ-to-EJ transformation.
//!
//! Boolean conjunctive queries are identified with their (multi-)hypergraphs:
//! vertices are variables (point variables for equality joins, interval
//! variables for intersection joins) and hyperedges are relation atoms
//! (Definition 3.3).  This crate provides:
//!
//! * [`Hypergraph`] — labelled multi-hypergraphs with point and interval
//!   vertices;
//! * [`acyclicity`](crate::is_iota_acyclic) — α-, γ-, Berge- and ι-acyclicity
//!   (Section 6 and Appendix A.1), GYO reduction and join-tree construction;
//! * [`transform`](crate::full_reduction) — the structural part of the
//!   forward reduction (Definitions 4.5 and 4.7): the one-step hypergraph
//!   transformation and the full transformation `τ(H)` of Section 4.3;
//! * [`isomorphism`](crate::are_isomorphic) — hypergraph isomorphism and
//!   grouping of reduced queries into isomorphism classes (used throughout
//!   Appendix E.4/F);
//! * [`catalog`](crate::triangle_ij) — the named queries analysed in the
//!   paper (triangle, Loomis–Whitney-4, 4-clique, Figures 4 and 9, the
//!   running examples).

mod acyclicity;
mod catalog;
mod hgraph;
mod isomorphism;
mod transform;

pub use acyclicity::{
    find_berge_cycle_of_length_at_least, is_alpha_acyclic, is_berge_acyclic, is_conformal,
    is_cycle_free, is_gamma_acyclic, is_iota_acyclic, is_iota_acyclic_via_reduction, join_tree,
    AcyclicityClass, AcyclicityReport, BergeCycle, JoinTree,
};
pub use catalog::{
    example_4_6, figure_4a, figure_4b, figure_9a, figure_9b, figure_9c, figure_9d, figure_9e,
    figure_9f, four_clique_ej, four_clique_ij, k_cycle_ej, k_path_ij, loomis_whitney_4_ej,
    loomis_whitney_4_ij, named_catalog, star_ij, triangle_ej, triangle_ij, CatalogEntry,
};
pub use hgraph::{EdgeId, Hyperedge, Hypergraph, VarId, VarKind, Vertex};
pub use isomorphism::{are_isomorphic, group_into_isomorphism_classes, invariant_key};
pub use transform::{full_reduction, one_step_reduction, PermutationChoice, ReducedHypergraph};
