//! The equality-join engine.
//!
//! The forward reduction turns an intersection-join query into a disjunction
//! of Boolean conjunctive queries with equality joins; this crate evaluates
//! those queries:
//!
//! * [`generic_join_boolean`] / [`generic_join_enumerate`] — the generic
//!   worst-case-optimal join (attribute-at-a-time over per-atom tries),
//!   following Ngo–Porat–Ré–Rudra \[27\] and Leapfrog Triejoin \[34\].  Each
//!   atom's trie is a flat CSR structure of sorted arrays ([`FlatTrie`])
//!   whose candidate intersection is a galloping leapfrog over sorted runs;
//! * [`yannakakis_boolean`] — Yannakakis' linear-time algorithm for
//!   α-acyclic Boolean queries \[35\];
//! * [`evaluate_ej_boolean`] — the algorithm of Theorem 4.15, chosen from
//!   the query's hypergraph: Yannakakis when α-acyclic, otherwise the
//!   width-guided evaluation of Appendix A.2.1 (materialise the maximal bags
//!   of an optimal fractional hypertree decomposition with the generic join,
//!   then run Yannakakis over the bag tree; runtime
//!   `O(N^{fhtw} · polylog N)`).
//!
//! Relations are bound to query variables through [`BoundAtom`]; the engine
//! is agnostic to whether the values are numbers or the bitstrings produced
//! by the reduction.
//!
//! # Shared tries
//!
//! Every join memoises the trie of each atom on the atom's relation, keyed
//! by the column binding and the level order, so the disjuncts of one
//! reduction — and repeated evaluations of it — share built tries instead
//! of rebuilding them, for as long as the reduction's relations live.
//! Every join builds and searches its tries on the calling thread;
//! parallelism is the caller's, across joins (the engine runs one disjunct
//! per worker).
//!
//! Every evaluation function takes an [`EvalContext`] carrying an optional
//! [`DecompositionMemo`], which decomposes each cyclic disjunct's shape
//! once (an engine owns one); nothing in this crate is process-global.  The
//! context further carries an optional [`EvalActivity`], the one
//! per-evaluation ledger, giving the evaluation **exact** local hit/miss
//! and planning counts under any concurrency.
//!
//! # Cancellation and fault isolation
//!
//! The context finally carries an optional
//! [`CancellationToken`](ij_relation::CancellationToken): trie builds and
//! the candidate-intersection loops poll it at a bounded interval, and the
//! Yannakakis pass before each semijoin, so an evaluation returns
//! [`EvalError`](ij_relation::EvalError)`::Cancelled` / `DeadlineExceeded`
//! promptly instead of running to completion; a tokenless context never
//! fails.  Nothing in this crate catches a panic: the engine isolates each
//! disjunct (`catch_unwind`, surfacing `EvalError::WorkerPanicked`), and the
//! memos mutate under panic-atomic critical sections, so an unwinding build
//! never leaves one poisoned or half-updated (see `ij_relation::sync`).

#![warn(missing_docs)]

mod atom;
mod cache;
mod evaluate;
mod flat;
mod generic;
pub mod plan;
mod trie;
mod yannakakis;

pub use atom::{all_vars, hypergraph_of, BoundAtom};
pub use cache::{DecompositionMemo, EvalActivity, EvalContext, TrieCacheStats};
pub use evaluate::evaluate_ej_boolean;
pub use flat::FlatTrie;
pub use generic::{generic_join_boolean, generic_join_enumerate};
pub use plan::plan_var_order;
pub use yannakakis::yannakakis_boolean;
