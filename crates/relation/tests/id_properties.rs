//! Property tests for the id domain: inline bitstring ids (computed, never
//! stored) and the id-keyed [`Relation::dedup`].

use ij_relation::{Relation, SharedDictionary, Value, ValueId, MAX_INLINE_BITS, MAX_STRIPE_VALUES};
use ij_segtree::{BitString, Interval, SegmentTree};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A bitstring of exactly `len` bits, from arbitrary `raw` bits.
fn bitstring(raw: u64, len: u8) -> BitString {
    BitString::from_bits(raw & ((1u64 << len) - 1), len)
}

/// Values over a small domain, so duplicates are likely: points, intervals,
/// inline bitstrings and bitstrings too long to inline.
fn arb_value() -> impl Strategy<Value = Value> {
    (0u32..4, 0u64..6, 0u8..4).prop_map(|(kind, a, len)| match kind {
        0 => Value::point(a as f64),
        1 => Value::interval(a as f64, (a + len as u64) as f64),
        2 => Value::Bits(bitstring(a, len)),
        _ => Value::Bits(bitstring(a, 40 + len)),
    })
}

/// Rows of one arity in `0..=6`: the packed-key paths (up to four columns)
/// and the wide path of `dedup`.
fn arb_rows() -> impl Strategy<Value = (usize, Vec<Vec<Value>>)> {
    (0usize..=6).prop_flat_map(|arity| {
        let row = proptest::collection::vec(arb_value(), arity);
        (Just(arity), proptest::collection::vec(row, 0..40))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Bitstrings of at most 29 bits get a computed id: it resolves back,
    /// `lookup` agrees with `intern` (before and after interning), it is
    /// never the dummy sentinel, and the dictionary stores nothing for it.
    #[test]
    fn short_bitstrings_are_inline(raw in 0u64..u64::MAX, len in 0u8..=MAX_INLINE_BITS) {
        let value = Value::Bits(bitstring(raw, len));
        let dict = SharedDictionary::new();
        let bytes = dict.heap_bytes();
        prop_assert_eq!(dict.lookup(&value), Some(dict.intern(value)));
        let id = dict.intern(value);
        prop_assert_eq!(dict.resolve(id), value);
        let reader = dict.reader();
        prop_assert_eq!(reader.lookup(&value), Some(id));
        prop_assert_eq!(reader.resolve(id), value);
        drop(reader);
        prop_assert_ne!(id, ValueId::dummy());
        prop_assert_eq!(dict.len(), 0);
        prop_assert_eq!(dict.heap_bytes(), bytes);
        // The id is the same in every dictionary.
        prop_assert_eq!(SharedDictionary::new().intern(value), id);
    }

    /// Longer bitstrings fall back to the dictionary like any other value.
    #[test]
    fn long_bitstrings_are_stored(raw in 0u64..u64::MAX, len in (MAX_INLINE_BITS + 1)..=63) {
        let value = Value::Bits(bitstring(raw, len));
        let dict = SharedDictionary::new();
        prop_assert_eq!(dict.lookup(&value), None);
        let id = dict.intern(value);
        prop_assert_eq!(dict.len(), 1);
        prop_assert_eq!(dict.lookup(&value), Some(id));
        prop_assert_eq!(dict.resolve(id), value);
        prop_assert_eq!(dict.reader().resolve(id), value);
        prop_assert_ne!(id, ValueId::dummy());
    }

    /// Inline and dictionary-assigned ids never collide: over one
    /// dictionary, ids are equal exactly when the values are.
    #[test]
    fn inline_and_stored_ids_never_collide(values in proptest::collection::vec(arb_value(), 1..40)) {
        let dict = SharedDictionary::new();
        let ids: Vec<ValueId> = values.iter().map(|&v| dict.intern(v)).collect();
        for (i, &a) in values.iter().enumerate() {
            let inline = matches!(a, Value::Bits(b) if b.len() <= MAX_INLINE_BITS);
            prop_assert_eq!(ids[i].raw() >> 31 == 1, inline, "{:?}", a);
            for (j, &b) in values.iter().enumerate() {
                prop_assert_eq!(a == b, ids[i] == ids[j], "values {:?} / {:?}", a, b);
            }
        }
    }

    /// `dedup` keeps exactly the row *set*, on the packed-key paths and the
    /// wide one, with duplicates within one input and across two.
    #[test]
    fn dedup_matches_a_set_oracle(input in arb_rows(), split in 0usize..40) {
        let (arity, rows) = input;
        let dict = SharedDictionary::new();
        let (first, second) = rows.split_at(split.min(rows.len()));
        let mut relation = Relation::from_tuples("R", arity, first.to_vec(), &dict);
        // The second batch repeats the first on top of its own rows.
        for row in second.iter().chain(first) {
            relation.push(row.clone());
        }
        relation.dedup();
        let oracle: BTreeSet<Vec<Value>> = rows.iter().cloned().collect();
        let tuples = relation.tuples();
        prop_assert_eq!(tuples.len(), oracle.len());
        prop_assert_eq!(tuples.iter().cloned().collect::<BTreeSet<_>>(), oracle);
        // The documented order: ascending raw ids, column by column.
        let ids = |row: usize| (0..arity).map(|c| relation.id_at(row, c).raw()).collect::<Vec<_>>();
        for row in 1..relation.len() {
            prop_assert!(ids(row - 1) < ids(row));
        }
    }
}

#[test]
fn every_inline_length_round_trips_at_its_extremes() {
    let dict = SharedDictionary::new();
    let mut seen = BTreeSet::new();
    for len in 0..=MAX_INLINE_BITS {
        for raw in [0, 1, u64::MAX >> 1, u64::MAX] {
            let b = bitstring(raw, len);
            let id = dict.intern(Value::Bits(b));
            assert_eq!(dict.resolve(id), Value::Bits(b));
            assert_eq!(id.raw(), 1 << 31 | 1 << len | b.bits() as u32);
            assert!(id.raw() >> 4 >= MAX_STRIPE_VALUES, "above every stored id");
            seen.insert((b, id));
        }
    }
    // The segment tree's node numbering is the id layout: on a tree of
    // height 12, every node's id is its 1-based heap index under the tag bit.
    let points: Vec<Interval> = (0..2047).map(|i| Interval::point(i as f64)).collect();
    let tree = SegmentTree::build(&points);
    assert_eq!(tree.height(), 12);
    for node in tree.node_ids() {
        let id = dict.intern(Value::Bits(node));
        assert_eq!(dict.resolve(id), Value::Bits(node));
        assert_eq!(id.raw(), 1 << 31 | 1 << node.len() | node.bits() as u32);
        seen.insert((node, id));
    }
    // Distinct bitstrings, distinct ids.
    let ids: BTreeSet<ValueId> = seen.iter().map(|&(_, id)| id).collect();
    assert_eq!(ids.len(), seen.len());
    assert!(dict.is_empty());
}
