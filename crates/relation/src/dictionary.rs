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
//! clones of one striped store.  Every [`Relation`](crate::Relation) carries
//! the handle its ids point into; ids are join-compatible exactly between
//! relations sharing a handle.  Two handles exist in practice:
//!
//! * [`SharedDictionary::global`] — the process-wide default, used by every
//!   `Relation::new`-style constructor for backwards compatibility.  It lives
//!   for the process, so its interned values are never reclaimed.
//! * [`SharedDictionary::new`] — a **scoped** dictionary, owned by a
//!   `Workspace` (see the `ij-engine` crate).  The forward reduction interns
//!   the transformed database into the dictionary of its *input* database, so
//!   a workspace's evaluations never touch the global store, and dropping the
//!   workspace (together with the relations built in it) frees every value it
//!   interned — the scoping/eviction story for a long-running service.
//!
//! Within one handle ids are never re-assigned: an id stays valid for as long
//! as its dictionary is alive.  Ids from *different* handles are meaningless
//! to each other; never mix relations from different workspaces in one join.
//!
//! # Concurrency: hash-striped locks
//!
//! Every dictionary is **striped**: [`STRIPE_COUNT`] independent
//! [`Dictionary`] stores, each behind its own [`RwLock`], with a value's
//! stripe chosen by a deterministic hash of the value.  Interning takes a
//! read lock on one stripe (the already-interned fast path) and upgrades to
//! that stripe's write lock only on a genuine miss, so parallel ingestion
//! threads serialize only when two values collide on a stripe instead of on
//! one dictionary-wide lock.  Evaluation-time code only *reads* ids already
//! stored in relations, so the parallel disjunct evaluation of the engine
//! runs lock-free on the hot path; bulk materialisation
//! ([`Relation::tuples`](crate::Relation::tuples)) pins all stripes once via
//! [`SharedDictionary::reader`] instead of locking per value.
//!
//! Ids stay **globally unique** across stripes by construction: the stripe
//! index lives in the low [`STRIPE_BITS`] bits of the id and the
//! stripe-local dense index in the bits above them, so each stripe owns a
//! disjoint id subspace.
//!
//! # Id-space layout: inline bitstring ids
//!
//! The top bit of a [`ValueId`] is a **tag**:
//!
//! ```text
//! 0 lllllllllllllllllllllllllll ssss    dictionary id: stripe-local index l (27 bits), stripe s
//! 1 0…0 1 bbbbbbbbbbbbbbbbbbbbbbbbb     inline bitstring: marker bit at position len, the bits below it
//! 1 1111111111111111111111111111111     ValueId::dummy(), never assigned
//! ```
//!
//! A [`Value::Bits`] of at most [`MAX_INLINE_BITS`] bits is never stored: its
//! id is `1 << 31 | 1 << len | bits` — the 1-based implicit heap index of the
//! segment-tree node the bitstring names, under the tag — and
//! [`SharedDictionary::intern`], [`lookup`](SharedDictionary::lookup) and
//! [`resolve`](SharedDictionary::resolve) (and the [`DictReader`] twins) map
//! between the two arithmetically: no hash, no stripe lock, no dictionary
//! bytes, and the same id in every dictionary.  The columns the forward
//! reduction introduces hold only such values, so
//! [`SharedDictionary::len`] and [`heap_bytes`](SharedDictionary::heap_bytes)
//! do not count them.  Longer bitstrings (30 to 63 bits) are interned like
//! any other value.  Dictionary-assigned ids keep the tag clear, which halves
//! a stripe's capacity to 2²⁷ values ([`MAX_STRIPE_VALUES`]); the marker bit
//! sits at position 29 at most, so no id of either kind ever equals the
//! all-ones [`ValueId::dummy`] sentinel.

use crate::sync::{read_recover, write_recover, ReadGuard};

/// Lock class of every dictionary stripe (for the `sync::lock_order`
/// detector).  One class for all 16 stripes: intra-class nesting is
/// exempt from cycle detection, and `DictReader` — the only multi-stripe
/// holder — pins read guards in index order with writers never holding
/// more than one stripe.
const DICT_STRIPE: &str = "dict-stripe";
use crate::Value;
use ij_segtree::BitString;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, OnceLock, RwLock};

/// Number of independent stripes of the shared dictionary (a power of two).
pub const STRIPE_COUNT: usize = 16;

/// Bits of a [`ValueId`] reserved for the stripe index (`log2(STRIPE_COUNT)`).
pub const STRIPE_BITS: u32 = STRIPE_COUNT.trailing_zeros();

/// Maximum number of distinct values one stripe may hold: stripe-local
/// indices stay below `2^27`, so a dictionary-assigned id never has the
/// inline tag (bit 31) set — it can neither alias an inline bitstring id nor
/// the [`ValueId::dummy`] sentinel (`u32::MAX`).
pub const MAX_STRIPE_VALUES: u32 = 1 << (31 - STRIPE_BITS);

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
        Value::Bits(b) if b.len() <= MAX_INLINE_BITS => {
            Some(ValueId(INLINE_TAG | 1 << b.len() | b.bits() as u32))
        }
        _ => None,
    }
}

/// The bitstring behind an inline id; `None` for dictionary-assigned ids.
#[inline]
fn inline_value(id: ValueId) -> Option<Value> {
    if id.0 & INLINE_TAG == 0 {
        return None;
    }
    let heap_index = id.0 & !INLINE_TAG;
    assert!(
        (1..1 << (MAX_INLINE_BITS + 1)).contains(&heap_index),
        "{id:?} is not an interned id (ValueId::dummy placeholder?)"
    );
    let len = (31 - heap_index.leading_zeros()) as u8;
    Some(Value::Bits(BitString::from_bits(
        u64::from(heap_index ^ (1 << len)),
        len,
    )))
}

/// A dense identifier of an interned [`Value`].
///
/// Ids are only meaningful relative to the shared dictionary; two ids are
/// equal if and only if the values they intern are equal.  The `Ord` on ids
/// is an arbitrary stable order (dictionary-assigned ids by interning order
/// within the stripe, then stripe; inline bitstrings after them, by length,
/// then bits), not the value order — sort by resolved values when value
/// order matters.
///
/// The representation is `#[repr(transparent)]` over the raw `u32`, and the
/// `Ord` above is exactly the unsigned order of the raw ids, so comparing
/// raw words agrees with comparing ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct ValueId(u32);

impl ValueId {
    /// Interns `value` in the process-global dictionary
    /// ([`SharedDictionary::global`]).  Scoped callers should intern through
    /// their own handle ([`SharedDictionary::intern`]) instead.
    pub fn intern(value: Value) -> ValueId {
        SharedDictionary::global().intern(value)
    }

    /// Resolves the id against the process-global dictionary
    /// ([`SharedDictionary::global`]; one stripe read lock — bulk resolves
    /// should use [`SharedDictionary::reader`] instead of calling this per
    /// id).  Ids interned into a scoped dictionary must be resolved through
    /// that handle, not here.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by the global dictionary.
    pub fn resolve(self) -> Value {
        SharedDictionary::global().resolve(self)
    }

    /// The raw index.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs an id from a raw index (the inverse of [`ValueId::raw`];
    /// the caller is responsible for the index having come from the shared
    /// dictionary).
    pub fn from_raw(raw: u32) -> ValueId {
        ValueId(raw)
    }

    /// A placeholder id used to pre-size buffers.  The sentinel is
    /// **unrepresentable**: striped dictionaries keep the top bit of the ids
    /// they assign clear ([`MAX_STRIPE_VALUES`]), inline bitstring ids keep
    /// bit 30 clear, and standalone [`Dictionary`] stores reserve the top
    /// dense id, so no interned value is ever assigned `u32::MAX` and the
    /// placeholder can never alias a real id.  Resolving it always panics.
    pub fn dummy() -> ValueId {
        ValueId(u32::MAX)
    }
}

/// The stripe a value hashes to.  The hash is deterministic within a process
/// (`DefaultHasher` with fixed keys), so a value's stripe — and hence its id
/// — does not depend on which thread interns it first.
fn stripe_of(value: &Value) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    (hasher.finish() as usize) & (STRIPE_COUNT - 1)
}

/// Combines a stripe-local dense id with its stripe index into a global id.
///
/// Local indices are capped ([`MAX_STRIPE_VALUES`]): one more bit would set
/// the inline tag, silently aliasing an inline bitstring id or — in a full
/// last stripe — the [`ValueId::dummy`] sentinel.
fn encode(local: ValueId, stripe: usize) -> ValueId {
    assert!(
        local.0 < MAX_STRIPE_VALUES,
        "dictionary stripe overflow: more than {MAX_STRIPE_VALUES} distinct values in one \
         stripe (ids with the top bit set are reserved for inline bitstrings and the \
         ValueId::dummy sentinel)"
    );
    ValueId((local.0 << STRIPE_BITS) | stripe as u32)
}

/// Splits a global id back into (stripe index, stripe-local id).
fn decode(id: ValueId) -> (usize, ValueId) {
    (
        (id.0 & (STRIPE_COUNT as u32 - 1)) as usize,
        ValueId(id.0 >> STRIPE_BITS),
    )
}

/// An owning handle to a striped interning dictionary.
///
/// Cloning is cheap (an `Arc` bump) and yields a handle to the *same* store:
/// ids are join-compatible exactly between holders of clones of one handle.
/// [`SharedDictionary::global`] is the process-wide default every
/// `Relation::new`-style constructor uses; [`SharedDictionary::new`] creates
/// a **scoped** dictionary whose values are reclaimed when the last clone
/// (including the clones carried by the relations built in it) drops — see
/// the module docs.
#[derive(Clone)]
pub struct SharedDictionary {
    stripes: Arc<[RwLock<Dictionary>; STRIPE_COUNT]>,
}

impl std::fmt::Debug for SharedDictionary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The stores can hold millions of values; print identity + size only.
        f.debug_struct("SharedDictionary")
            .field("global", &self.is_global())
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
        Arc::ptr_eq(&self.stripes, &other.stripes)
    }
}

impl Eq for SharedDictionary {}

impl SharedDictionary {
    /// A fresh, empty scoped dictionary.
    pub fn new() -> Self {
        SharedDictionary {
            stripes: Arc::new(std::array::from_fn(|_| RwLock::new(Dictionary::new()))),
        }
    }

    /// The process-wide dictionary ([`ValueId::intern`] /
    /// [`ValueId::resolve`] delegate here).  Clone the returned handle to own
    /// a reference to it.
    pub fn global() -> &'static SharedDictionary {
        static GLOBAL: OnceLock<SharedDictionary> = OnceLock::new();
        GLOBAL.get_or_init(SharedDictionary::new)
    }

    /// True if this handle names the process-wide dictionary.
    pub fn is_global(&self) -> bool {
        self == SharedDictionary::global()
    }

    /// Interns `value`: returns the existing id when the value was seen
    /// before (taking only a stripe *read* lock), otherwise assigns the next
    /// id of the value's stripe under that stripe's write lock.  Short
    /// bitstrings get their inline id and touch no stripe at all.
    pub fn intern(&self, value: Value) -> ValueId {
        if let Some(id) = inline_id(&value) {
            return id;
        }
        let stripe = stripe_of(&value);
        let lock = &self.stripes[stripe];
        if let Some(local) = read_recover(lock, DICT_STRIPE).lookup(&value) {
            return encode(local, stripe);
        }
        let local = write_recover(lock, DICT_STRIPE).intern(value);
        encode(local, stripe)
    }

    /// Resolves an id interned through this handle (one stripe read lock;
    /// bulk resolves should use [`SharedDictionary::reader`]).
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this dictionary.
    pub fn resolve(&self, id: ValueId) -> Value {
        if let Some(value) = inline_value(id) {
            return value;
        }
        let (stripe, local) = decode(id);
        read_recover(&self.stripes[stripe], DICT_STRIPE).resolve(local)
    }

    /// The id of a value, if it has been interned through this handle.  A
    /// short bitstring always has its inline id, interned or not.
    pub fn lookup(&self, value: &Value) -> Option<ValueId> {
        if let Some(id) = inline_id(value) {
            return Some(id);
        }
        let stripe = stripe_of(value);
        read_recover(&self.stripes[stripe], DICT_STRIPE)
            .lookup(value)
            .map(|local| encode(local, stripe))
    }

    /// Total number of distinct values **stored** through this handle (sums
    /// the stripes; a snapshot under concurrent interning).  Inline
    /// bitstrings are not stored and not counted.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|lock| read_recover(lock, DICT_STRIPE).len())
            .sum()
    }

    /// True if nothing has been interned through this handle.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated heap bytes of the interned values **and** their index maps,
    /// summed over every stripe ([`Dictionary::heap_bytes`]; one stripe read
    /// lock each — a snapshot under concurrent interning).  Surfaced as
    /// `Workspace::dictionary_bytes` so an operator can meter a workspace's
    /// interned residency in bytes, not just distinct-value counts.
    pub fn heap_bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|lock| read_recover(lock, DICT_STRIPE).heap_bytes())
            .sum()
    }

    /// Pins every stripe under a read lock at once, for bulk resolves and
    /// lookups: one lock acquisition per stripe instead of one per value.
    ///
    /// Writers never hold more than one stripe lock at a time, so acquiring
    /// all stripes here cannot deadlock against concurrent interning.  While
    /// the reader is held, resolve ids through **it** — a concurrent
    /// per-value resolve on the same handle may deadlock against a queued
    /// writer (see [`DictReader`]).
    pub fn reader(&self) -> DictReader<'_> {
        DictReader {
            guards: self
                .stripes
                .iter()
                .map(|lock| read_recover(lock, DICT_STRIPE))
                .collect(),
        }
    }
}

/// An interning dictionary mapping [`Value`]s to dense [`ValueId`]s and back.
///
/// This is the single-store building block: a [`SharedDictionary`] is
/// [`STRIPE_COUNT`] of these behind per-stripe locks (see the module docs),
/// and tests / tools can use standalone instances directly.  Standalone
/// instances assign plain dense ids `0, 1, 2, …` with no stripe encoding.
#[derive(Debug, Default)]
pub struct Dictionary {
    values: Vec<Value>,
    index: HashMap<Value, u32>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Interns a value: returns the existing id if the value was seen before,
    /// otherwise assigns the next dense id.
    pub fn intern(&mut self, value: Value) -> ValueId {
        if let Some(&id) = self.index.get(&value) {
            return ValueId(id);
        }
        // The top dense id is reserved: assigning `u32::MAX` would alias the
        // `ValueId::dummy()` buffer-placeholder sentinel.
        let id = u32::try_from(self.values.len())
            .ok()
            .filter(|&id| id != u32::MAX)
            .expect(
                "dictionary overflow: the dense id space is exhausted (the top id is \
                     reserved for the ValueId::dummy sentinel)",
            );
        self.values.push(value);
        self.index.insert(value, id);
        ValueId(id)
    }

    /// The id of a value, if it has been interned.
    pub fn lookup(&self, value: &Value) -> Option<ValueId> {
        self.index.get(value).copied().map(ValueId)
    }

    /// Estimated heap bytes held by this store: the interned values vector
    /// plus the value→id index map (bucket array accounted at capacity, with
    /// one byte of control metadata per bucket).  An estimate from container
    /// capacities, not an allocator measurement — the same fidelity as
    /// `FlatTrie::heap_bytes`, and good enough for an operator to alert on a
    /// growing workspace before it OOMs.
    pub fn heap_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<Value>()
            + self.index.capacity()
                * (std::mem::size_of::<(Value, u32)>() + std::mem::size_of::<u8>())
    }

    /// The value behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this dictionary.
    pub fn resolve(&self, id: ValueId) -> Value {
        self.values[id.0 as usize]
    }

    /// Pins every stripe of the **process-global** dictionary under a read
    /// lock at once (see [`SharedDictionary::reader`], which this delegates
    /// to; scoped dictionaries use their handle's method).
    pub fn reader() -> DictReader<'static> {
        SharedDictionary::global().reader()
    }

    /// Total number of distinct values interned in the process-global
    /// dictionary (sums the stripes; a snapshot under concurrent interning).
    pub fn shared_len() -> usize {
        SharedDictionary::global().len()
    }
}

/// A read pin over every stripe of one dictionary (see
/// [`SharedDictionary::reader`]).  Holding one blocks interning of *new*
/// values into that dictionary.
///
/// While a reader is held, resolve ids through **it** ([`DictReader::resolve`])
/// — not through [`ValueId::resolve`] or [`SharedDictionary::resolve`] on the
/// same store, which acquire a second read lock on a stripe this reader
/// already holds: `std`'s `RwLock` may deadlock on such recursive read
/// acquisition when a writer is queued in between.
pub struct DictReader<'d> {
    guards: Vec<ReadGuard<'d, Dictionary>>,
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
        let (stripe, local) = decode(id);
        self.guards[stripe].resolve(local)
    }

    /// The pinned dictionary's id of a value, if it has been interned (short
    /// bitstrings always have their inline id).
    pub fn lookup(&self, value: &Value) -> Option<ValueId> {
        if let Some(id) = inline_id(value) {
            return Some(id);
        }
        let stripe = stripe_of(value);
        self.guards[stripe].lookup(value).map(|l| encode(l, stripe))
    }
}

/// A multiply-mix hasher for [`ValueId`] keys (FxHash-style): the hot join
/// loops key hash maps by `u32` ids, where SipHash's preimage resistance buys
/// nothing and costs measurably.
#[derive(Debug, Default, Clone)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
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
    fn intern_resolve_round_trip() {
        let mut dict = Dictionary::new();
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
        assert_eq!(dict.len(), 3);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut dict = Dictionary::new();
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
    fn shared_ids_encode_their_stripe() {
        let values: Vec<Value> = (0..100).map(|i| Value::point(7000.0 + i as f64)).collect();
        let ids: Vec<ValueId> = values.iter().map(|&v| ValueId::intern(v)).collect();
        // Lock-per-id resolves, *before* pinning the stripes: ValueId::resolve
        // must never run under a held DictReader (recursive read locks can
        // deadlock against a queued writer).
        for (&v, &id) in values.iter().zip(&ids) {
            assert_eq!(id.resolve(), v);
        }
        let reader = Dictionary::reader();
        for (&v, &id) in values.iter().zip(&ids) {
            let (stripe, _) = decode(id);
            assert_eq!(stripe, stripe_of(&v));
            assert_eq!(reader.resolve(id), v);
            assert_eq!(reader.lookup(&v), Some(id));
        }
        drop(reader);
        // Distinct values get distinct ids even across stripes.
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
        assert!(Dictionary::shared_len() >= ids.len());
    }

    #[test]
    fn scoped_dictionaries_are_independent_of_the_global_store() {
        let scoped = SharedDictionary::new();
        assert!(!scoped.is_global());
        assert!(scoped.is_empty());
        let values: Vec<Value> = (0..50).map(|i| Value::point(9_000.5 + i as f64)).collect();
        let ids: Vec<ValueId> = values.iter().map(|&v| scoped.intern(v)).collect();
        // Scoped interning never touches the global store (checked per value:
        // concurrently running tests intern into it, so its length moves).
        for v in &values {
            assert_eq!(SharedDictionary::global().lookup(v), None);
        }
        assert_eq!(scoped.len(), values.len());
        for (&v, &id) in values.iter().zip(&ids) {
            assert_eq!(scoped.resolve(id), v);
            assert_eq!(scoped.lookup(&v), Some(id));
        }
        let reader = scoped.reader();
        for (&v, &id) in values.iter().zip(&ids) {
            assert_eq!(reader.resolve(id), v);
        }
        drop(reader);
        // Clones name the same store; fresh dictionaries do not.
        let clone = scoped.clone();
        assert_eq!(clone, scoped);
        assert_eq!(clone.lookup(&values[0]), Some(ids[0]));
        assert_ne!(SharedDictionary::new(), scoped);
        // A second scoped dictionary starts from an empty id space.
        let second = SharedDictionary::new();
        let re_interned = second.intern(values[0]);
        assert_eq!(second.resolve(re_interned), values[0]);
        assert_eq!(second.len(), 1);
    }

    #[test]
    fn the_dummy_sentinel_is_unrepresentable() {
        // Regression: `encode(local = 2^28 - 1, stripe = 15)` used to equal
        // `u32::MAX` — exactly `ValueId::dummy()` — so a full last stripe
        // would hand the sentinel out as a real id.  Dictionary-assigned ids
        // now stay below the inline tag, far below the sentinel.
        for stripe in 0..STRIPE_COUNT {
            let max_legal = encode(ValueId(MAX_STRIPE_VALUES - 1), stripe);
            assert_eq!(max_legal.raw() & INLINE_TAG, 0, "stripe {stripe}");
            assert_eq!(inline_value(max_legal), None, "stripe {stripe}");
            // The encoding still round-trips at the boundary.
            assert_eq!(decode(max_legal), (stripe, ValueId(MAX_STRIPE_VALUES - 1)));
        }
        // The largest inline id (29 ones) stays below the sentinel too.
        let longest = BitString::from_bits((1 << MAX_INLINE_BITS) - 1, MAX_INLINE_BITS);
        let id = inline_id(&Value::Bits(longest)).unwrap();
        assert!(id.raw() < u32::MAX);
        assert_eq!(inline_value(id), Some(Value::Bits(longest)));
    }

    #[test]
    #[should_panic(expected = "reserved for inline bitstrings")]
    fn the_first_tagged_local_index_is_rejected() {
        // The first local index that would set the inline tag trips the
        // overflow assert in every stripe instead of aliasing a bitstring.
        let _ = encode(ValueId(MAX_STRIPE_VALUES), 0);
    }

    #[test]
    #[should_panic(expected = "not an interned id")]
    fn resolving_the_dummy_sentinel_panics() {
        let _ = SharedDictionary::new().resolve(ValueId::dummy());
    }

    #[test]
    fn heap_bytes_grow_with_interned_values() {
        let mut dict = Dictionary::new();
        let empty = dict.heap_bytes();
        for i in 0..1000 {
            dict.intern(Value::point(i as f64));
        }
        let filled = dict.heap_bytes();
        assert!(
            filled >= empty + 1000 * std::mem::size_of::<Value>(),
            "1000 values must account at least their own storage: {empty} -> {filled}"
        );

        let scoped = SharedDictionary::new();
        let baseline = scoped.heap_bytes();
        for i in 0..1000 {
            scoped.intern(Value::point(i as f64));
        }
        assert!(
            scoped.heap_bytes() >= baseline + 1000 * std::mem::size_of::<Value>(),
            "striped accounting must cover every stripe"
        );
    }

    #[test]
    fn shared_dictionary_is_consistent_across_threads() {
        let values: Vec<Value> = (0..64).map(|i| Value::point(1000.0 + i as f64)).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let values = values.clone();
                std::thread::spawn(move || {
                    values
                        .iter()
                        .map(|&v| ValueId::intern(v))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<ValueId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ids in &results[1..] {
            assert_eq!(ids, &results[0]);
        }
        for (&v, &id) in values.iter().zip(&results[0]) {
            assert_eq!(id.resolve(), v);
        }
    }
}
