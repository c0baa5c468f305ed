//! The value dictionary: interning of [`Value`]s into dense 32-bit ids.
//!
//! Every value stored in a [`Relation`](crate::Relation) is interned exactly
//! once into an interning dictionary and represented as a [`ValueId`] from
//! then on.  All layers of the pipeline — the forward reduction, the hash
//! tries of the equality-join engine and the Yannakakis semijoins — operate
//! on these dense `u32` ids instead of full [`Value`] structs: equality of
//! ids coincides with equality of values, so join processing never needs to
//! hash or compare a `Value` again after ingestion.
//!
//! # Scoping: [`SharedDictionary`] handles
//!
//! Dictionaries are owned by [`SharedDictionary`] handles — cheap `Arc`
//! clones of one store.  Every [`Relation`](crate::Relation) carries
//! the handle its ids point into; ids are join-compatible exactly between
//! relations sharing a handle.  There is no process-wide store: every
//! `Database::new` creates its own dictionary, a `Workspace` (see the
//! `ij-engine` crate) owns one for the databases it imports, and the forward
//! reduction interns the transformed database into the dictionary of its
//! *input* database.  Dropping the last handle (together with the relations
//! built in it) frees every value it interned.
//!
//! Within one handle ids are never re-assigned: an id stays valid for as long
//! as its dictionary is alive.  Ids from *different* handles are meaningless
//! to each other; never mix relations from different dictionaries in one
//! join.
//!
//! # Concurrency: one lock
//!
//! A dictionary is one store behind one [`RwLock`].  Ingestion is its only
//! writer — building relations from values, importing a database into a
//! workspace, interning a plan's tuple ids — and no caller ingests on more
//! than one thread, so there is no write traffic to spread over several
//! locks (concurrent interning is still correct; it serializes).  Evaluation
//! only *reads* ids already stored in relations, so the parallel disjunct
//! evaluation of the engine takes no dictionary lock on its hot path.
//! Interning takes the read lock (the already-interned fast path) and the
//! write lock only on a genuine miss; bulk materialisation
//! ([`Relation::tuples`](crate::Relation::tuples)) pins the store once via
//! [`SharedDictionary::reader`] instead of locking per value.
//!
//! # Id-space layout: inline bitstring ids
//!
//! The top bit of a [`ValueId`] is a **tag**:
//!
//! ```text
//! 0 iiiiiiiiiiiiiiiiiiiiiiiiiiiiiii     dictionary id: the value's index in first-interning order
//! 1 0…0 1 bbbbbbbbbbbbbbbbbbbbbbbbb     inline bitstring: marker bit at position len, the bits below it
//! 1 1111111111111111111111111111111     ValueId::dummy(), never assigned
//! ```
//!
//! A [`Value::Bits`] of at most [`MAX_INLINE_BITS`] bits is never stored: its
//! id is `1 << 31 | 1 << len | bits` — the 1-based implicit heap index of the
//! segment-tree node the bitstring names, under the tag — and
//! [`SharedDictionary::intern`], [`lookup`](SharedDictionary::lookup) and
//! [`resolve`](SharedDictionary::resolve) (and the [`DictReader`] twins) map
//! between the two arithmetically: no hash, no lock, no dictionary
//! bytes, and the same id in every dictionary.  The columns the forward
//! reduction introduces hold only such values, so
//! [`SharedDictionary::len`] and [`heap_bytes`](SharedDictionary::heap_bytes)
//! do not count them.  Longer bitstrings (30 to 63 bits) are interned like
//! any other value.  Dictionary-assigned ids keep the tag clear, which caps a
//! dictionary at 2³¹ values; the marker bit sits at position 29 at most, so
//! no id of either kind ever equals the all-ones [`ValueId::dummy`] sentinel.

use crate::sync::{read_recover, write_recover, ReadGuard};
use crate::Value;
use ij_segtree::BitString;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, RwLock};

/// Lock class of every dictionary (for the `sync::lock_order` detector).
const DICTIONARY: &str = "dictionary";

/// Tag bit of an inline bitstring id (see the module docs).
const INLINE_TAG: u32 = 1 << 31;

/// Longest bitstring whose id is computed instead of stored: the marker bit
/// at position `len` must stay below the tag, and position 30 is left clear
/// so that an inline id never reads all-ones.
pub const MAX_INLINE_BITS: u8 = 29;

/// The inline id of a value: `Some` for bitstrings of at most
/// [`MAX_INLINE_BITS`] bits, `None` for everything the dictionary stores.
#[inline]
fn inline_id(value: &Value) -> Option<ValueId> {
    match value {
        Value::Bits(b) => ValueId::inline_bits(b.bits(), b.len()),
        _ => None,
    }
}

/// The bitstring behind an inline id; `None` for dictionary-assigned ids.
#[inline]
fn inline_value(id: ValueId) -> Option<Value> {
    id.as_inline_bits().map(Value::Bits)
}

/// A dense identifier of an interned [`Value`].
///
/// Ids are only meaningful relative to the [`SharedDictionary`] that assigned
/// them; two ids of one dictionary are equal if and only if the values they
/// intern are equal.  The `Ord` on ids is an arbitrary stable order
/// (dictionary-assigned ids `0, 1, 2, …` in first-interning order; inline
/// bitstrings after them, by length, then bits), not the value order — sort
/// by resolved values when value order matters.
///
/// The representation is `#[repr(transparent)]` over the raw `u32`, and the
/// `Ord` above is exactly the unsigned order of the raw ids, so comparing
/// raw words agrees with comparing ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct ValueId(u32);

impl ValueId {
    /// The id of the bitstring of `len` bits held in the low bits of `bits`,
    /// when it is short enough to be computed rather than stored (at most
    /// [`MAX_INLINE_BITS`] bits): `1 << 31 | 1 << len | bits`, the same id
    /// [`SharedDictionary::intern`]`(Value::Bits(..))` returns in every
    /// dictionary.  `None` for a longer bitstring, which callers intern.
    ///
    /// This is the one definition of the inline encoding (module docs): the
    /// dictionary and the forward reduction's id columns both go through it.
    #[inline]
    pub fn inline_bits(bits: u64, len: u8) -> Option<ValueId> {
        debug_assert!(len >= 64 || bits >> len == 0, "bits above the length");
        (len <= MAX_INLINE_BITS).then(|| ValueId(INLINE_TAG | 1 << len | bits as u32))
    }

    /// The bitstring behind an id made by [`ValueId::inline_bits`]; `None`
    /// for a dictionary-assigned id.
    ///
    /// # Panics
    ///
    /// Panics on [`ValueId::dummy`], which no value has.
    #[inline]
    pub fn as_inline_bits(self) -> Option<BitString> {
        if self.0 & INLINE_TAG == 0 {
            return None;
        }
        let heap_index = self.0 & !INLINE_TAG;
        assert!(
            (1..1 << (MAX_INLINE_BITS + 1)).contains(&heap_index),
            "{self:?} is not an interned id (ValueId::dummy placeholder?)"
        );
        let len = (31 - heap_index.leading_zeros()) as u8;
        Some(BitString::from_bits(
            u64::from(heap_index ^ (1 << len)),
            len,
        ))
    }

    /// The raw index.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs an id from a raw index (the inverse of [`ValueId::raw`];
    /// the caller is responsible for the index having come from the
    /// dictionary it is resolved against).
    pub fn from_raw(raw: u32) -> ValueId {
        ValueId(raw)
    }

    /// A placeholder id used to pre-size buffers.  The sentinel is
    /// **unrepresentable**: dictionary-assigned ids keep the top bit clear
    /// and inline bitstring ids keep bit 30 clear, so no interned value is
    /// ever assigned `u32::MAX` and the placeholder can never alias a real
    /// id.  Resolving it always panics.
    pub fn dummy() -> ValueId {
        ValueId(u32::MAX)
    }
}

/// The id of the `index`-th value a store holds: the index itself, which
/// must keep the inline tag clear — one more bit would alias an inline
/// bitstring id or, at `u32::MAX`, the [`ValueId::dummy`] sentinel.
///
/// # Panics
///
/// Panics once a dictionary would hold more than 2³¹ values.
fn stored_id(index: usize) -> ValueId {
    match u32::try_from(index) {
        Ok(raw) if raw & INLINE_TAG == 0 => ValueId(raw),
        _ => panic!(
            "dictionary overflow: more than 2^31 distinct values (ids with the top bit set \
             are reserved for inline bitstrings and the ValueId::dummy sentinel)"
        ),
    }
}

/// An owning handle to an interning dictionary.
///
/// Cloning is cheap (an `Arc` bump) and yields a handle to the *same* store:
/// ids are join-compatible exactly between holders of clones of one handle.
/// [`SharedDictionary::new`] creates a fresh store, whose values are
/// reclaimed when the last clone (including the clones carried by the
/// relations built in it) drops — see the module docs.
#[derive(Clone)]
pub struct SharedDictionary {
    store: Arc<RwLock<Dictionary>>,
}

impl std::fmt::Debug for SharedDictionary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The store can hold millions of values; print the size only.
        f.debug_struct("SharedDictionary")
            .field("len", &self.len())
            .finish()
    }
}

impl Default for SharedDictionary {
    fn default() -> Self {
        SharedDictionary::new()
    }
}

impl PartialEq for SharedDictionary {
    /// Handles are equal iff they name the same store (ids interchangeable).
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.store, &other.store)
    }
}

impl Eq for SharedDictionary {}

impl SharedDictionary {
    /// A fresh, empty dictionary.
    pub fn new() -> Self {
        SharedDictionary {
            store: Arc::new(RwLock::new(Dictionary::default())),
        }
    }

    /// Interns `value`: returns the existing id when the value was seen
    /// before (taking only the *read* lock), otherwise assigns the next id
    /// under the write lock.  Short bitstrings get their inline id and take
    /// no lock at all.
    pub fn intern(&self, value: Value) -> ValueId {
        if let Some(id) = inline_id(&value) {
            return id;
        }
        if let Some(id) = read_recover(&self.store, DICTIONARY).lookup(&value) {
            return id;
        }
        write_recover(&self.store, DICTIONARY).intern(value)
    }

    /// Resolves an id interned through this handle (one read lock; bulk
    /// resolves should use [`SharedDictionary::reader`]).
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this dictionary.
    pub fn resolve(&self, id: ValueId) -> Value {
        if let Some(value) = inline_value(id) {
            return value;
        }
        read_recover(&self.store, DICTIONARY).resolve(id)
    }

    /// The id of a value, if it has been interned through this handle.  A
    /// short bitstring always has its inline id, interned or not.
    pub fn lookup(&self, value: &Value) -> Option<ValueId> {
        if let Some(id) = inline_id(value) {
            return Some(id);
        }
        read_recover(&self.store, DICTIONARY).lookup(value)
    }

    /// Number of distinct values **stored** through this handle (a snapshot
    /// under concurrent interning).  Inline bitstrings are not stored and
    /// not counted.
    pub fn len(&self) -> usize {
        read_recover(&self.store, DICTIONARY).values.len()
    }

    /// True if nothing has been interned through this handle.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated heap bytes of the interned values **and** their index map
    /// (one read lock — a snapshot under concurrent interning), from
    /// container capacities: the map's bucket array at capacity with one
    /// byte of control metadata per bucket — the same fidelity as
    /// `FlatTrie::heap_bytes`.  Surfaced as `Workspace::dictionary_bytes` so
    /// an operator can meter a workspace's interned residency in bytes, not
    /// just distinct-value counts.
    pub fn heap_bytes(&self) -> usize {
        let store = read_recover(&self.store, DICTIONARY);
        store.values.capacity() * std::mem::size_of::<Value>()
            + store.index.capacity()
                * (std::mem::size_of::<(Value, u32)>() + std::mem::size_of::<u8>())
    }

    /// Pins the store under one read lock, for bulk resolves and lookups:
    /// one lock acquisition instead of one per value.  While the reader is
    /// held, resolve ids through **it** (see [`DictReader`]).
    pub fn reader(&self) -> DictReader<'_> {
        DictReader {
            store: read_recover(&self.store, DICTIONARY),
        }
    }
}

/// The store behind a [`SharedDictionary`]: the values in first-interning
/// order, and the map back from a value to its index.
#[derive(Debug, Default)]
struct Dictionary {
    values: Vec<Value>,
    index: HashMap<Value, u32>,
}

impl Dictionary {
    /// Interns a value: returns the existing id if the value was seen before,
    /// otherwise assigns the next dense id.
    fn intern(&mut self, value: Value) -> ValueId {
        if let Some(id) = self.lookup(&value) {
            return id;
        }
        let id = stored_id(self.values.len());
        self.values.push(value);
        self.index.insert(value, id.0);
        id
    }

    /// The id of a value, if it has been interned.
    fn lookup(&self, value: &Value) -> Option<ValueId> {
        self.index.get(value).copied().map(ValueId)
    }

    /// The value behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this dictionary.
    fn resolve(&self, id: ValueId) -> Value {
        self.values[id.0 as usize]
    }
}

/// A read pin over one dictionary (see [`SharedDictionary::reader`]).
/// Holding one blocks interning of *new* values into that dictionary.
///
/// While a reader is held, resolve ids through **it** ([`DictReader::resolve`])
/// — not through [`SharedDictionary::resolve`] on the same store, which
/// acquires a second read lock on the lock this reader already holds:
/// `std`'s `RwLock` may deadlock on such recursive read acquisition when a
/// writer is queued in between, and the `sync::lock_order` detector panics
/// on it.
pub struct DictReader<'d> {
    store: ReadGuard<'d, Dictionary>,
}

impl DictReader<'_> {
    /// The value behind an id of the pinned dictionary.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by the pinned dictionary.
    pub fn resolve(&self, id: ValueId) -> Value {
        if let Some(value) = inline_value(id) {
            return value;
        }
        self.store.resolve(id)
    }

    /// The pinned dictionary's id of a value, if it has been interned (short
    /// bitstrings always have their inline id).
    pub fn lookup(&self, value: &Value) -> Option<ValueId> {
        if let Some(id) = inline_id(value) {
            return Some(id);
        }
        self.store.lookup(value)
    }
}

/// A multiply-mix hasher for [`ValueId`] keys (FxHash-style): the hot join
/// loops key hash maps by `u32` ids and id tuples packed into `u64`s, where
/// SipHash's preimage resistance buys nothing and costs measurably.
///
/// `finish` rotates the well-mixed high half of the product into the low
/// bits: the low bits of `v · K` depend only on the low bits of `v`, and the
/// standard hash tables take their bucket index from the low end, so a bare
/// product would bucket a packed `(a << 32) | b` key by `b` alone.
#[derive(Debug, Default, Clone)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (used when hashing compound keys of ids).
        for &b in bytes {
            self.write_u8(b);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.write_u64(b as u64)
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64)
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64)
    }
}

/// Hasher state for id-keyed maps.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A hash map keyed by interned ids (or tuples thereof).
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A hash set of interned ids (or tuples thereof).
pub type IdHashSet<K> = std::collections::HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_hasher_buckets_packed_pairs_by_both_halves() {
        // 4 096 keys `(a << 32) | b` whose low half takes only 4 values: a
        // table with 4 096 buckets indexes by the low 12 bits of the hash.
        // A bare multiply puts every key into one of 4 buckets.
        let buckets: std::collections::BTreeSet<u64> = (0..1024u64)
            .flat_map(|a| (0..4u64).map(move |b| (a << 32) | b))
            .map(|key| {
                let mut h = IdHasher::default();
                h.write_u64(key);
                h.finish() & 0xFFF
            })
            .collect();
        assert!(buckets.len() >= 1024, "{} buckets", buckets.len());
    }

    #[test]
    fn intern_resolve_round_trip() {
        let mut dict = Dictionary::default();
        let values = [
            Value::point(1.0),
            Value::interval(0.0, 2.0),
            Value::point(-3.5),
            Value::point(1.0),
        ];
        let ids: Vec<ValueId> = values.iter().map(|&v| dict.intern(v)).collect();
        for (&v, &id) in values.iter().zip(&ids) {
            assert_eq!(dict.resolve(id), v);
        }
        // Duplicates dedup to the same id.
        assert_eq!(ids[0], ids[3]);
        assert_eq!(dict.values.len(), 3);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut dict = Dictionary::default();
        let a = dict.intern(Value::point(1.0));
        let b = dict.intern(Value::point(2.0));
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
        // Interning more values never changes existing assignments.
        for i in 0..100 {
            dict.intern(Value::point(i as f64));
        }
        assert_eq!(dict.intern(Value::point(1.0)), a);
        assert_eq!(dict.intern(Value::point(2.0)), b);
        assert_eq!(dict.lookup(&Value::point(2.0)), Some(b));
        assert_eq!(dict.lookup(&Value::point(-9.0)), None);
    }

    #[test]
    fn shared_ids_are_a_standalone_stores_ids() {
        // Points, intervals and bitstrings too long to inline, with repeats:
        // a shared dictionary numbers them 0, 1, 2, … in first-interning
        // order, exactly as a standalone store fed the same sequence does.
        let values: Vec<Value> = (0..120)
            .map(|i| match i % 3 {
                0 => Value::point(7000.0 + (i % 50) as f64),
                1 => Value::interval(i as f64, i as f64 + 0.5),
                _ => Value::Bits(BitString::from_bits(i, 40)),
            })
            .collect();
        let dict = SharedDictionary::new();
        let mut standalone = Dictionary::default();
        let ids: Vec<ValueId> = values.iter().map(|&v| dict.intern(v)).collect();
        let expected: Vec<ValueId> = values.iter().map(|&v| standalone.intern(v)).collect();
        assert_eq!(ids, expected);
        assert_eq!(
            ids[..3].iter().map(|id| id.raw()).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(dict.len(), standalone.values.len());
        // Lock-per-id resolves, *before* pinning the store: a per-id resolve
        // must never run under a held DictReader (recursive read locks can
        // deadlock against a queued writer).
        for (&v, &id) in values.iter().zip(&ids) {
            assert_eq!(dict.resolve(id), v);
        }
        let reader = dict.reader();
        for (&v, &id) in values.iter().zip(&ids) {
            assert_eq!(reader.resolve(id), v);
            assert_eq!(reader.lookup(&v), Some(id));
        }
    }

    #[test]
    fn dictionaries_are_independent_of_each_other() {
        let dict = SharedDictionary::new();
        assert!(dict.is_empty());
        let values: Vec<Value> = (0..50).map(|i| Value::point(9_000.5 + i as f64)).collect();
        let ids: Vec<ValueId> = values.iter().map(|&v| dict.intern(v)).collect();
        assert_eq!(dict.len(), values.len());
        for (&v, &id) in values.iter().zip(&ids) {
            assert_eq!(dict.resolve(id), v);
            assert_eq!(dict.lookup(&v), Some(id));
        }
        let reader = dict.reader();
        for (&v, &id) in values.iter().zip(&ids) {
            assert_eq!(reader.resolve(id), v);
        }
        drop(reader);
        // Clones name the same store; fresh dictionaries do not.
        let clone = dict.clone();
        assert_eq!(clone, dict);
        assert_eq!(clone.lookup(&values[0]), Some(ids[0]));
        assert_ne!(SharedDictionary::new(), dict);
        // A second dictionary starts from an empty id space.
        let second = SharedDictionary::new();
        let re_interned = second.intern(values[0]);
        assert_eq!(second.resolve(re_interned), values[0]);
        assert_eq!(second.len(), 1);
    }

    #[test]
    fn the_dummy_sentinel_is_unrepresentable() {
        // The largest id a store assigns keeps the inline tag clear, so a
        // full store never hands out the sentinel.
        let max_legal = stored_id(INLINE_TAG as usize - 1);
        assert_eq!(max_legal.raw(), INLINE_TAG - 1);
        assert_eq!(inline_value(max_legal), None);
        // The largest inline id (29 ones) stays below the sentinel too.
        let longest = BitString::from_bits((1 << MAX_INLINE_BITS) - 1, MAX_INLINE_BITS);
        let id = inline_id(&Value::Bits(longest)).unwrap();
        assert!(id.raw() < u32::MAX);
        assert_eq!(inline_value(id), Some(Value::Bits(longest)));
    }

    #[test]
    #[should_panic(expected = "reserved for inline bitstrings")]
    fn the_first_tagged_local_index_is_rejected() {
        // The first index that would set the inline tag trips the overflow
        // check instead of aliasing a bitstring.
        let _ = stored_id(INLINE_TAG as usize);
    }

    #[test]
    #[should_panic(expected = "not an interned id")]
    fn resolving_the_dummy_sentinel_panics() {
        let _ = SharedDictionary::new().resolve(ValueId::dummy());
    }

    #[test]
    fn heap_bytes_grow_with_interned_values() {
        let shared = SharedDictionary::new();
        let baseline = shared.heap_bytes();
        for i in 0..1000 {
            shared.intern(Value::point(i as f64));
        }
        assert!(
            shared.heap_bytes() >= baseline + 1000 * std::mem::size_of::<Value>(),
            "1000 values must account at least their own storage"
        );
    }

    #[test]
    fn shared_dictionary_is_consistent_across_threads() {
        let dict = SharedDictionary::new();
        let values: Vec<Value> = (0..64).map(|i| Value::point(1000.0 + i as f64)).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let values = values.clone();
                let dict = dict.clone();
                std::thread::spawn(move || {
                    values.iter().map(|&v| dict.intern(v)).collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<ValueId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ids in &results[1..] {
            assert_eq!(ids, &results[0]);
        }
        for (&v, &id) in values.iter().zip(&results[0]) {
            assert_eq!(dict.resolve(id), v);
        }
    }
}
