//! Interval primitives and the segment tree for intersection-join evaluation.
//!
//! This crate provides the data-structure substrate of the paper
//! *"The Complexity of Boolean Conjunctive Queries with Intersection Joins"*
//! (PODS 2022):
//!
//! * [`Interval`] — closed intervals with totally ordered `f64` endpoints,
//! * [`BitString`] — compact identifiers for segment-tree nodes (the root is
//!   the empty string, `0`/`1` select the left/right child),
//! * [`SegmentTree`] — the segment tree of Section 3, in one layout (sorted
//!   endpoints, implicit-heap index arithmetic, CSR canonical subsets) that
//!   serves both sides: canonical partitions
//!   ([`SegmentTree::canonical_partition`]) and leaf lookup
//!   ([`SegmentTree::leaf_of_point`]) for the reduction, stabbing and overlap
//!   queries ([`SegmentTree::stab`], [`SegmentTree::overlapping`]) for the
//!   baselines,
//! * [`DyadicEmbedding`] — the dyadic embedding `F` of bitstrings into intervals used
//!   by the backward reduction (Section 5).
//!
//! # Example
//!
//! ```
//! use ij_segtree::{Interval, SegmentTree};
//!
//! // Figure 3 of the paper: I = { [1,4], [3,4] }.
//! let intervals = vec![Interval::new(1.0, 4.0), Interval::new(3.0, 4.0)];
//! let tree = SegmentTree::build(&intervals);
//! let cp = tree.canonical_partition(Interval::new(1.0, 4.0));
//! // The canonical partition consists of maximal nodes whose segments are
//! // contained in [1,4]; it has O(log |I|) nodes.
//! assert!(!cp.is_empty());
//! ```

#![forbid(unsafe_code)]

mod bitstring;
mod dyadic;
mod interval;
mod ordf64;
mod tree;

pub use bitstring::{BitString, Compositions, MAX_BITS};
pub use dyadic::{dyadic_interval, DyadicEmbedding, MAX_DEPTH as DYADIC_MAX_DEPTH};
pub use interval::{Interval, IntervalError};
pub use ordf64::OrdF64;
pub use tree::SegmentTree;
