//! # intersection-joins
//!
//! A reproduction of *"The Complexity of Boolean Conjunctive Queries with
//! Intersection Joins"* (Abo Khamis, Chichirim, Kormpa, Olteanu — PODS 2022)
//! as a Rust workspace.  This umbrella crate re-exports the public API of
//! the member crates; `README.md` at the workspace root has the quickstart,
//! the crate map and the benchmark index.
//!
//! The most convenient entry point is the engine prelude:
//!
//! ```
//! use intersection_joins::prelude::*;
//!
//! let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
//! let engine = IntersectionJoinEngine::with_defaults();
//! let analysis = engine.analyze(&q);
//! assert!((analysis.ij_width.value - 1.5).abs() < 1e-9); // ijw(Q△) = 3/2
//! ```
//!
//! # Architecture
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`segtree`] | Intervals, bitstrings, the segment tree — one implicit-heap index-arithmetic layout (Section 3, Appendix B) |
//! | [`hypergraph`] | Hypergraphs, acyclicity, the structural reduction τ(H) (Sections 4, 6) |
//! | [`widths`] | ρ*, fhtw, subw bounds, ij-width (Definition 4.14) |
//! | [`relation`] | Values, the **value dictionary** behind owned `SharedDictionary` handles, interned columnar relations, query AST |
//! | [`ejoin`] | EJ engine: id-keyed WCOJ tries (flat CSR, galloping leapfrog intersection), tries memoised on the relation they index, Yannakakis, width-guided evaluation |
//! | [`reduction`] | Forward (IJ→EJ) and backward (EJ→IJ) data reductions (Sections 4, 5) |
//! | [`engine`] | End-to-end engine with `Workspace`-owned state, parallel disjunct evaluation, cooperative cancellation/deadlines and panic-isolated workers |
//! | [`faqai`] | The FAQ-AI comparator (Appendix F) |
//! | [`baselines`] | Plane sweep, binary-join cascades, index nested loops, the segment-tree baseline evaluator |
//! | [`workloads`] | Synthetic workload generators + the interval-native scenario suite |
//!
//! ## Data flow of the interned pipeline
//!
//! Every point and interval `Value` is interned exactly once into a
//! dictionary of [`relation`] (a segment-tree bitstring needs no entry: its
//! id is computed from its bits); relations store dense `u32` id columns and
//! every downstream layer operates on ids.  The dictionary is owned by a
//! `SharedDictionary` handle carried by each relation: `Database::new`
//! creates one of its own, and a `Workspace` ([`engine`]) owns one that all
//! its databases share, so that dropping the workspace reclaims its
//! interned values:
//!
//! ```text
//!  Workspace { SharedDictionary }
//!        │
//!        ▼
//!  Query + Database (columnar: Vec<ValueId> per column, workspace dictionary)
//!        │
//!        ▼
//!  ij_reduction::plan_forward_reduction     Segment trees per interval var,
//!        │   (forward_reduction_with =      tree nodes per source cell, ⋁ Q̃ᵢ
//!        │    the paper's plan + build      and one build spec per relation
//!        │    every relation)               of D̃ — no transformed tuple yet;
//!        │                                  live columns only (no X#2 of a
//!        ▼                                  variable shared by two atoms)
//!  ForwardReduction { ⋁ Q̃ᵢ, D̃: one write-once cell per relation }
//!        │   .relation(name) builds on      sort the distinct seeds (node ids
//!        │   first use: carried columns     + carried ids), write each seed's
//!        │   pass ids through, bitstring    compositions into exact-size id
//!        │   ids are computed, not stored   columns (no tuple sort, no Value
//!        │                                  rows); a second asker waits, a
//!        │                                  failed build leaves the cell empty
//!        ▼
//!  engine.evaluate_reduction_cancellable    worker pool: each worker takes
//!        │   (EngineConfig::parallelism     the next disjunct index off one
//!        │    workers pull one disjunct     atomic counter; binding it
//!        │    at a time and build the       (disjunct_atoms) builds its
//!        │    relations it reads)           unbuilt relations; AtomicBool
//!        │                                  early exit cancels the siblings.
//!        │                                  Help first: the first helper
//!        │                                  builds disjunct 0's relations
//!        │                                  last atom first, then pulls;
//!        ▼                                  the other helpers pull at once
//!  ij_ejoin per disjunct:
//!     · α-acyclic   → Yannakakis semijoins over the relations of D̃ as
//!       they are — nothing is copied; rooted at the largest atom, the
//!       cheapest ready edge first, fixed-width integer keys
//!     · cyclic      → bag materialisation (id tries) + Yannakakis,
//!       maximal bags only (the decomposition is reduced);
//!       an atom without a singleton variable bound as it is, others
//!       projected once per reduction (Relation::projection); a bag
//!       binds those relations, or memoised projections of them, and
//!       copies nothing; presorted rows build a trie without a sort
//!     · fallback    → generic WCOJ over per-atom tries: flat CSR
//!       sorted-id arrays intersected by a galloping leapfrog
//!     each trie memoised on the relation it indexes (keyed by column
//!     binding and level order, freed with the reduction), built and
//!     searched on the disjunct's own worker — the workers are the
//!     evaluation's only threads
//!        │
//!        ▼
//!  EvaluationStats { answer (identical for every parallelism, cold or
//!                    warm), what was built, found memoised and planned }
//! ```
//!
//! Values are resolved back out of the dictionary only at API boundaries
//! (`Relation::tuples`, CSV export, error messages); the join hot paths
//! hash and compare nothing wider than a `u32`.

pub use ij_engine::prelude;

/// Segment trees, intervals and bitstrings (paper Section 3, Appendix B).
pub use ij_segtree as segtree;

/// Hypergraphs, acyclicity notions and the structural reduction (Sections 4 and 6).
pub use ij_hypergraph as hypergraph;

/// Width measures: ρ*, fhtw, subw bounds and the ij-width (Definition 4.14).
pub use ij_widths as widths;

/// Values, the value dictionary, interned columnar relations, databases and
/// the query AST (Definition 3.3).
pub use ij_relation as relation;

/// The equality-join engine (generic WCOJ over id-keyed tries, Yannakakis,
/// width-guided evaluation).
pub use ij_ejoin as ejoin;

/// The FAQ-AI comparator: inequality joins, relaxed decompositions and
/// relaxed widths (Appendix F).
pub use ij_faqai as faqai;

/// The forward and backward reductions (Sections 4 and 5).
pub use ij_reduction as reduction;

/// The end-to-end intersection-join engine with parallel disjunct evaluation.
pub use ij_engine as engine;

/// Classical baselines: plane sweep, binary-join cascades, index nested loops and
/// the segment-tree baseline evaluator.
pub use ij_baselines as baselines;

/// Synthetic workload generators and the interval-native scenario suite.
pub use ij_workloads as workloads;
