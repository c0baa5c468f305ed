//! The forward (IJ-to-EJ) and backward (EJ-to-IJ) reductions.
//!
//! * [`forward_reduction`] implements Section 4 / Algorithm 1: an IJ (or
//!   mixed EIJ) query and an interval database become a disjunction of EJ
//!   queries over a database of segment-tree bitstrings, with a
//!   poly-logarithmic blow-up in size (Lemma 4.10) and equivalence of the
//!   Boolean answers (Theorem 4.13).  It plans the EJ queries and a build
//!   spec per transformed relation, then builds every relation.  An
//!   evaluator that may stop early runs [`plan_forward_reduction`] instead,
//!   which plans only, and lets [`ForwardReduction::relation`] build what
//!   it reads; that plan leaves out the `X#2` column of a variable shared
//!   by two atoms, which no join reads.
//! * [`backward_reduction`] implements Section 5 / Definition D.2: a database
//!   over the schema of one of the reduced EJ queries is embedded back into
//!   an interval database for the original query via the dyadic mapping of
//!   Example 5.1, showing the reduction is tight (Theorem 5.2).
//! * [`ordered_witnesses`] / [`unique_ordered_witness`] implement the
//!   disjoint rewriting of the intersection predicate (Appendix G /
//!   Lemma G.2), which makes every satisfied intersection predicate
//!   attributable to exactly one permutation and node tuple — the property
//!   needed to lift the reduction from Boolean evaluation to counting and
//!   enumeration.
//!
//! # Example
//!
//! ```
//! use ij_relation::{Database, Query, Value};
//! use ij_reduction::forward_reduction;
//!
//! let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
//! let mut db = Database::new();
//! let iv = |lo, hi| Value::interval(lo, hi);
//! db.insert_tuples("R", 2, vec![vec![iv(0.0, 4.0), iv(0.0, 2.0)]]);
//! db.insert_tuples("S", 2, vec![vec![iv(1.0, 3.0), iv(5.0, 6.0)]]);
//! db.insert_tuples("T", 2, vec![vec![iv(2.0, 8.0), iv(5.5, 7.0)]]);
//! let reduction = forward_reduction(&q, &db).unwrap();
//! assert_eq!(reduction.queries.len(), 8); // Section 1.1: eight EJ queries
//! ```

mod backward;
mod disjoint;
mod forward;

pub use backward::{backward_reduction, BackwardError};
pub use disjoint::{
    ordered_witnesses, unique_ordered_witness, unrestricted_witness_count, OrderedWitness,
};
pub use forward::{
    forward_reduction, forward_reduction_with, plan_forward_reduction, EncodingStrategy,
    ForwardReduction, ReducedAtom, ReducedQuery, ReductionConfig, ReductionError, ReductionStats,
};
