//! End-to-end engine for Boolean conjunctive queries with intersection joins.
//!
//! This crate exposes the public API of the reproduction of *"The Complexity
//! of Boolean Conjunctive Queries with Intersection Joins"* (PODS 2022):
//!
//! * [`IntersectionJoinEngine::analyze`] — static analysis: acyclicity class
//!   (ι-acyclicity, Section 6) and the ij-width report (Definition 4.14),
//!   i.e. the guaranteed runtime exponent;
//! * [`IntersectionJoinEngine::evaluate`] — Boolean evaluation through the
//!   forward reduction to equality joins (Section 4) and the width-guided
//!   equality-join engine;
//! * [`naive_boolean`] / [`naive_count`] — an exhaustive reference evaluator
//!   used as a differential-testing oracle and baseline.
//!
//! The engine chooses each disjunct's join algorithm from its hypergraph
//! (Theorem 4.15).  [`EngineConfig`] sets only the worker
//! [parallelism](EngineConfig::parallelism) across the disjuncts of the
//! reduction — the engine's only threads; the encoding is the reduction's
//! (see [`EngineConfig`]).  Every setting is answer-preserving.
//!
//! Long-running services own their cross-evaluation state through a
//! [`Workspace`]: a value dictionary (dropping the workspace reclaims
//! its interned values; [`Workspace::dictionary_bytes`] meters its size)
//! shared by every engine built from it ([`Workspace::engine`]).  The tries
//! an evaluation builds are memoised on the transformed relations they
//! index, so the disjuncts of one reduction, and every later evaluation of
//! a kept reduction ([`IntersectionJoinEngine::evaluate_reduction`]), reuse
//! them, and they are freed with the reduction.
//!
//! Evaluations are **cancellable and deadline-bounded**: the
//! `*_cancellable` entry points accept a [`CancellationToken`], a token
//! [with a budget](CancellationToken::with_budget) bounds that one call, and
//! failures surface as the typed
//! [`EvalError`] taxonomy (`Cancelled`, `DeadlineExceeded`,
//! `WorkerPanicked`) — never as a hung call or a poisoned engine.  The
//! [`faults`] registry (behind the `failpoints` cargo feature) injects
//! deterministic panics and delays at named pipeline sites for testing.
//!
//! # Quickstart
//!
//! ```
//! use ij_engine::prelude::*;
//!
//! // The triangle query of Section 1.1.
//! let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
//!
//! let mut db = Database::new();
//! let iv = |lo, hi| Value::interval(lo, hi);
//! db.insert_tuples("R", 2, vec![vec![iv(0.0, 4.0), iv(10.0, 14.0)]]);
//! db.insert_tuples("S", 2, vec![vec![iv(12.0, 13.0), iv(20.0, 25.0)]]);
//! db.insert_tuples("T", 2, vec![vec![iv(3.0, 5.0), iv(24.0, 26.0)]]);
//!
//! let engine = IntersectionJoinEngine::with_defaults();
//! let analysis = engine.analyze(&q);
//! assert!((analysis.ij_width.value - 1.5).abs() < 1e-9);
//! assert!(engine.evaluate(&q, &db).unwrap());
//! ```

#![warn(missing_docs)]

mod engine;
mod naive;
mod workspace;

pub use engine::{
    disjunct_atoms, kernel_arm, EngineConfig, EngineError, EvaluationStats, IntersectionJoinEngine,
    QueryAnalysis, TrieCacheStats,
};
pub use ij_relation::faults;
pub use ij_relation::{CancellationToken, EvalError, DEFAULT_CHECK_INTERVAL};
pub use naive::{naive_boolean, naive_count, NaiveError};
pub use workspace::{Workspace, WorkspaceStats};

/// Convenient re-exports of the most frequently used types from the whole
/// workspace.
pub mod prelude {
    pub use crate::{
        naive_boolean, naive_count, CancellationToken, EngineConfig, EngineError, EvalError,
        EvaluationStats, IntersectionJoinEngine, QueryAnalysis, TrieCacheStats, Workspace,
        WorkspaceStats,
    };
    pub use ij_hypergraph::{AcyclicityClass, AcyclicityReport, Hypergraph};
    pub use ij_reduction::{
        backward_reduction, forward_reduction, forward_reduction_with, plan_forward_reduction,
        EncodingStrategy, ReductionConfig,
    };
    pub use ij_relation::{Atom, Database, Query, Relation, SharedDictionary, Value};
    pub use ij_segtree::{BitString, Interval, SegmentTree};
    pub use ij_widths::{fractional_hypertree_width, ij_width, IjWidthReport};
}
