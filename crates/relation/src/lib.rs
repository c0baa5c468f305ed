//! The data model: values, the value dictionary, interned columnar relations,
//! databases and the query AST.
//!
//! * [`Value`] — points, intervals and segment-tree bitstrings;
//! * [`SharedDictionary`] / [`ValueId`] — interning of
//!   values into dense `u32` ids; every layer of the pipeline joins on ids,
//!   never on full values.  Dictionaries are owned by cheap-to-clone
//!   [`SharedDictionary`] handles: every database creates its own, a
//!   workspace shares one among the databases it imports, and dropping the
//!   last handle reclaims its interned values;
//! * [`Relation`] / [`Database`] — named multisets of tuples stored as
//!   columnar id vectors, with a row-oriented compatibility
//!   layer and the distinct-left-endpoint transformation of Appendix G.1;
//! * [`kernels`] — scan primitives over id slices (the semijoin probe and
//!   its row lists, gathers, key packing, galloping seeks)
//!   shared by the trie builds, semijoins and leapfrog intersections of the
//!   join engine;
//! * [`Query`] — Boolean conjunctive queries with equality joins, intersection
//!   joins, or both (Definition 3.3), convertible to the hypergraph
//!   representation used by the structural machinery;
//! * [`CancellationToken`] / [`EvalError`] — cooperative cancellation and
//!   deadlines polled by every long-running loop of the pipeline, plus the
//!   typed taxonomy of evaluation failures;
//! * [`sync`] — poison-recovering lock helpers for the state concurrent
//!   evaluations share, and [`faults`] — the feature-gated failpoint registry driving
//!   the fault-injection test harness.
//!
//! # Example
//!
//! ```
//! use ij_relation::{Database, Query, Value};
//!
//! let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
//! assert!(q.is_ij());
//!
//! let mut db = Database::new();
//! db.insert_tuples("R", 2, vec![vec![Value::interval(0.0, 2.0), Value::interval(1.0, 3.0)]]);
//! assert_eq!(db.total_tuples(), 1);
//! ```

mod cancel;
mod csv;
mod dictionary;
pub mod faults;
pub mod kernels;
mod query;
mod relation;
pub mod sync;
mod value;

pub use cancel::{
    panic_payload_string, CancelTicker, CancellationToken, EvalError, DEFAULT_CHECK_INTERVAL,
};
pub use csv::{field_to_value, value_to_field, CsvError};
pub use dictionary::{
    DictReader, IdBuildHasher, IdHashMap, IdHashSet, IdHasher, SharedDictionary, ValueId,
    MAX_INLINE_BITS,
};
pub use query::{Atom, Query, QueryParseError};
pub use relation::{Database, Relation};
pub use value::Value;

/// Random text for the reject-never-panic properties of the two parsers
/// ([`Query::parse`], the CSV readers): every character either parser gives
/// a meaning to, enough of `NaN`, `inf` and exponents to spell the floats
/// `f64::from_str` accepts, and a few longer fragments so that a useful share
/// of the draws is accepted and reaches the round-trip half.
#[cfg(test)]
fn arb_parser_text(max_len: usize) -> impl proptest::Strategy<Value = String> {
    use proptest::Strategy as _;
    const ALPHABET: [&str; 30] = [
        "R", "S", "A", "(", ")", "[", "]", ",", "&", "∧", "#", "b", ":", "0", "1", ".", "-", "e",
        "N", "a", "n", "i", "f", " ", "\n", "..", "## R 1\n", "R(", "[A]", "S(A)",
    ];
    proptest::collection::vec(0..ALPHABET.len(), 0..=max_len)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}
