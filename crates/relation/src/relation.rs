//! Relations and databases.
//!
//! Relations are stored **columnar and interned**: each column is a dense
//! `Vec<ValueId>` into an interning dictionary, so join processing works on
//! `u32` ids and never touches a full [`Value`] after ingestion.  The
//! row-oriented API ([`Relation::push`], [`Relation::tuples`]) is kept as a
//! thin compatibility layer that interns / resolves at the boundary; hot
//! paths use the id-level API ([`Relation::column_ids`],
//! [`Relation::push_ids`], [`Relation::projection`], ...).
//!
//! Every relation (and database) carries the [`SharedDictionary`] handle its
//! ids point into.  A relation is built against an explicit handle
//! ([`Relation::new`], [`Relation::from_tuples`], ...), usually its
//! database's ([`Database::dictionary`]); [`Database::new`] creates a fresh
//! dictionary of its own and [`Database::new_in`] shares an existing one.
//! Ids are join-compatible exactly between relations that share a
//! dictionary; derived relations (projections, renames) inherit their
//! source's handle.

use crate::sync::lock_recover;
use crate::{faults, kernels, SharedDictionary, Value, ValueId};
use ij_segtree::Interval;
use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Lock class of a relation's memos (`sync::lock_order`); a leaf: held for
/// one map probe or insert, never around another lock — what is memoised
/// is computed before the lock is taken.  (The `trie-memo` failpoint fires
/// under it; the failpoint registry takes no lock of the pipeline.)
const MEMOS: &str = "relation-memos";

/// Panics, naming the relation, the row and both arities, unless a row of
/// `found` values fits a relation of arity `expected`.
fn check_arity(relation: &str, row: usize, found: usize, expected: usize) {
    assert!(
        found == expected,
        "tuple arity mismatch for relation {relation}: row {row} has {found} values, \
         expected {expected}"
    );
}

/// A relation: a named multiset of tuples of fixed arity, stored as interned
/// id columns.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    arity: usize,
    columns: Columns,
    /// The dictionary the id columns point into; derived relations inherit
    /// it, so ids stay resolvable wherever the rows travel.
    dict: SharedDictionary,
    /// What was derived from the columns so far; reset by every mutating
    /// method, excluded from equality.
    memos: Memos,
}

/// The derived state a [`Relation`] memoises about its columns.
#[derive(Debug, Default)]
struct Memos {
    maps: Mutex<MemoMaps>,
}

/// The maps behind a relation's one memo lock.
#[derive(Debug, Default)]
struct MemoMaps {
    /// The deduplicated projections handed out so far, by column list (see
    /// [`Relation::projection`]).
    projections: BTreeMap<Vec<usize>, Arc<Relation>>,
    /// What [`Relation::memoised`] built so far, by its type and key.
    derived: BTreeMap<(TypeId, MemoKey), Arc<dyn Any + Send + Sync>>,
}

/// The key of a value [`Relation::memoised`] keeps: two column lists (for a
/// trie, the column binding and the level order).
type MemoKey = (Vec<usize>, Vec<usize>);

impl Memos {
    /// Forgets everything; every mutator of the columns calls it.  A caller
    /// of `push_ids` pays it per row, so while nothing is memoised it costs
    /// two loads and two branches, not maps dropped and rebuilt.
    fn clear(&mut self) {
        let maps = self
            .maps
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if !maps.projections.is_empty() {
            maps.projections.clear();
        }
        if !maps.derived.is_empty() {
            maps.derived.clear();
        }
    }
}

impl Clone for Memos {
    /// A copy starts with nothing memoised: the projections are relations
    /// of their own, under the original's name, and what was derived is the
    /// original's, freed with it.
    fn clone(&self) -> Self {
        Memos::default()
    }
}

impl PartialEq for Relation {
    /// Same name, arity and rows in the same order.  Over one dictionary the
    /// id columns decide; over two, equal ids may denote different values,
    /// so the rows are compared resolved.  The memos are derived state and
    /// play no part.
    fn eq(&self, other: &Self) -> bool {
        if self.name != other.name || self.arity != other.arity {
            return false;
        }
        if self.dict == other.dict {
            return self.columns == other.columns;
        }
        self.len() == other.len() && self.tuples() == other.tuples()
    }
}

impl Eq for Relation {}

/// Columnar tuple storage: one dense [`ValueId`] vector per column.
///
/// The row count is tracked explicitly so zero-arity relations (which appear
/// as non-emptiness guards after projecting all columns away) still carry a
/// multiplicity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Columns {
    len: usize,
    cols: Vec<Vec<ValueId>>,
}

impl Columns {
    /// Empty storage with `arity` columns.
    pub fn new(arity: usize) -> Self {
        Columns {
            len: 0,
            cols: vec![Vec::new(); arity],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ids of one column.
    pub fn column(&self, index: usize) -> &[ValueId] {
        &self.cols[index]
    }

    /// Appends a row of ids.  Callers must have checked the arity.
    fn push_row(&mut self, row: &[ValueId]) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (col, &id) in self.cols.iter_mut().zip(row) {
            col.push(id);
        }
        self.len += 1;
    }

    /// The id at (`row`, `col`).
    pub fn id_at(&self, row: usize, col: usize) -> ValueId {
        self.cols[col][row]
    }
}

impl Relation {
    /// Creates an empty relation with the given name and arity whose values
    /// intern into `dict`.
    pub fn new(name: impl Into<String>, arity: usize, dict: &SharedDictionary) -> Self {
        Relation {
            name: name.into(),
            arity,
            columns: Columns::new(arity),
            dict: dict.clone(),
            memos: Memos::default(),
        }
    }

    /// Creates a relation from a list of tuples, validating that every row
    /// matches `arity`.  Values intern into `dict`.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the relation, the offending row index and
    /// both arities if a row does not have exactly `arity` values.
    pub fn from_tuples(
        name: impl Into<String>,
        arity: usize,
        tuples: Vec<Vec<Value>>,
        dict: &SharedDictionary,
    ) -> Self {
        let mut r = Relation::new(name, arity, dict);
        // Validate the whole batch before interning anything, so a ragged
        // row interns no value of the batch.
        for (row, t) in tuples.iter().enumerate() {
            check_arity(&r.name, row, t.len(), arity);
        }
        // Interning takes the dictionary's lock per value: the read lock for
        // a value seen before, the write lock for a new one.
        for t in &tuples {
            let ids: Vec<ValueId> = t.iter().map(|&v| r.dict.intern(v)).collect();
            r.columns.push_row(&ids);
        }
        r
    }

    /// Builds a relation directly from already-interned id columns, all
    /// pointing into `dict` — the column-wise fast ingestion path used by
    /// `Workspace::import_database`, which re-interns a database one column
    /// at a time instead of materialising `Value` rows, and by the forward
    /// reduction, which fills a transformed relation's columns at their
    /// final length.
    ///
    /// `len` is the row count; it is explicit (rather than derived from the
    /// columns) so zero-arity relations keep their multiplicity.
    ///
    /// # Panics
    ///
    /// Panics if any column's length differs from `len`.
    pub fn from_id_columns(
        name: impl Into<String>,
        len: usize,
        cols: Vec<Vec<ValueId>>,
        dict: &SharedDictionary,
    ) -> Self {
        let name = name.into();
        for (i, col) in cols.iter().enumerate() {
            assert_eq!(
                col.len(),
                len,
                "column {i} of relation {name} has {} rows, expected {len}",
                col.len()
            );
        }
        Relation {
            name,
            arity: cols.len(),
            columns: Columns { len, cols },
            dict: dict.clone(),
            memos: Memos::default(),
        }
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dictionary this relation's id columns point into.
    pub fn dictionary(&self) -> &SharedDictionary {
        &self.dict
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The tuples, materialised as rows of [`Value`]s.
    ///
    /// This is the row-compatibility layer over the columnar storage: it
    /// resolves every id against the relation's dictionary and allocates
    /// fresh rows, so hot paths should use [`Relation::column_ids`] /
    /// [`Relation::id_at`] instead and callers looping over the result should
    /// hoist the call out of the loop.
    pub fn tuples(&self) -> Vec<Vec<Value>> {
        let dict = self.dict.reader();
        (0..self.len())
            .map(|row| {
                self.columns
                    .cols
                    .iter()
                    .map(|col| dict.resolve(col[row]))
                    .collect()
            })
            .collect()
    }

    /// One tuple, materialised.
    pub fn row(&self, row: usize) -> Vec<Value> {
        let dict = self.dict.reader();
        self.columns
            .cols
            .iter()
            .map(|col| dict.resolve(col[row]))
            .collect()
    }

    /// The value at (`row`, `col`).
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.dict.resolve(self.columns.id_at(row, col))
    }

    /// The interned ids of one column.
    pub fn column_ids(&self, index: usize) -> &[ValueId] {
        self.columns.column(index)
    }

    /// The id at (`row`, `col`).
    pub fn id_at(&self, row: usize, col: usize) -> ValueId {
        self.columns.id_at(row, col)
    }

    /// Appends a tuple of values (interning each one).
    ///
    /// # Panics
    ///
    /// Panics if the tuple arity does not match the relation arity.
    pub fn push(&mut self, tuple: Vec<Value>) {
        check_arity(&self.name, self.len(), tuple.len(), self.arity);
        let ids: Vec<ValueId> = tuple.iter().map(|&v| self.dict.intern(v)).collect();
        self.columns.push_row(&ids);
        self.memos.clear();
    }

    /// Appends a row of already-interned ids (how the join engine's bag
    /// enumeration emits a row; whole columns go through
    /// [`Relation::from_id_columns`]).
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the relation arity.
    pub fn push_ids(&mut self, row: &[ValueId]) {
        assert_eq!(
            row.len(),
            self.arity,
            "tuple arity mismatch for relation {}: id row has {} values, expected {}",
            self.name,
            row.len(),
            self.arity
        );
        self.columns.push_row(row);
        self.memos.clear();
    }

    /// Sorts the tuples and removes duplicates (set semantics).
    ///
    /// The order is **ascending raw id order**, compared column by column —
    /// not value order: the rows never leave the id domain.  It is
    /// deterministic for one dictionary and interning sequence (equal row
    /// sets over one dictionary end up as equal columns); callers that want
    /// value order sort [`Relation::tuples`] themselves.
    ///
    /// One pass first checks whether the rows already strictly ascend; such
    /// a relation is already a set in this order, and its columns are left
    /// as they are.  Only otherwise does a comparison sort run over every
    /// row.  Either way it takes no cancellation token.  Its callers are
    /// [`Relation::projection`] (once per projection, when it is first
    /// derived) and the forward reduction, which sorts a relation's *seeds*
    /// with it, not the transformed relation: a relation is a set without
    /// having been through here.
    pub fn dedup(&mut self) {
        if self.len() <= 1 {
            return;
        }
        self.memos.clear();
        let cols: Vec<&[ValueId]> = self.columns.cols.iter().map(Vec::as_slice).collect();
        if kernels::strictly_ascending(&cols) {
            return;
        }
        let cols = &mut self.columns.cols;
        let arity = cols.len();
        // Column `c` sits `shift(c)` bits up in a packed key, so comparing
        // keys compares rows column by column.
        let shift = |c: usize| 32 * (arity - 1 - c) as u32;
        self.columns.len = match arity {
            // All zero-arity rows are identical.
            0 => 1,
            1..=2 => dedup_packed(
                cols,
                |k: u64, id| k << 32 | u64::from(id),
                |k, c| (k >> shift(c)) as u32,
            ),
            3..=4 => dedup_packed(
                cols,
                |k: u128, id| k << 32 | u128::from(id),
                |k, c| (k >> shift(c)) as u32,
            ),
            _ => dedup_wide(cols),
        };
    }

    /// Projects the relation onto the given column indices (keeping
    /// duplicates; call [`Relation::dedup`] afterwards for set semantics).
    /// Callers outside this module get the memoised, deduplicated
    /// [`Relation::projection`].
    fn project(&self, columns: &[usize], name: impl Into<String>) -> Relation {
        let cols: Vec<Vec<ValueId>> = columns
            .iter()
            .map(|&c| self.columns.cols[c].clone())
            .collect();
        Relation {
            name: name.into(),
            arity: columns.len(),
            columns: Columns {
                len: self.len(),
                cols,
            },
            dict: self.dict.clone(),
            memos: Memos::default(),
        }
    }

    /// The set of distinct rows of the relation projected onto `columns`
    /// (in that order), in [`Relation::dedup`]'s order, under this
    /// relation's name — computed the first time this column list is asked
    /// of this relation and shared ever after: every later call returns the
    /// same `Arc`, so whatever the projection memoises in turn (its tries,
    /// its own projections) is found again too.  That is what lets the
    /// disjuncts of one reduction, and repeated evaluations of it, derive
    /// each projected atom, each bag's cut of one, and the trie of each,
    /// once.
    ///
    /// The memo is owned by this relation: a projection stays resident — a
    /// copy of the projected id columns, 4 bytes per row and column — until
    /// the relation is mutated (`push*`, `dedup`) or dropped, and goes with
    /// it.  Nothing bounds it but the number of distinct column lists asked.
    /// [`Relation::renamed`] and `Clone` start with an empty memo.
    ///
    /// Threads asking a fresh relation for the same list may each compute
    /// the projection; the first to finish publishes it and the others adopt
    /// it, so all callers end up with one `Arc`.  The computation runs
    /// outside the memo's lock, and only a finished projection is published.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    pub fn projection(&self, columns: &[usize]) -> Arc<Relation> {
        if let Some(shared) = lock_recover(&self.memos.maps, MEMOS)
            .projections
            .get(columns)
        {
            return Arc::clone(shared);
        }
        let mut projected = self.project(columns, self.name.clone());
        projected.dedup();
        Arc::clone(
            (lock_recover(&self.memos.maps, MEMOS).projections)
                .entry(columns.to_vec())
                .or_insert(Arc::new(projected)),
        )
    }

    /// The `T` derived from this relation under `key`, built by `build` the
    /// first time this type and key are asked of this relation and shared
    /// ever after: every later call returns the same `Arc` without calling
    /// `build`.  The join engine keeps the tries it indexes a relation with
    /// here, keyed by the column binding and the level order, so a trie
    /// lives exactly as long as its relation's columns.
    ///
    /// The memo behaves as [`Relation::projection`]'s does: it is cleared
    /// by every mutation (`push*`, `dedup`), [`Relation::renamed`] and
    /// `Clone` start with it empty, and nothing bounds it but the number of
    /// distinct keys asked.  Threads asking a fresh relation for the same
    /// key may each build; `build` runs outside the memo's lock, the first
    /// finished result is published (the `trie-memo` failpoint fires under
    /// the lock just before), and the others adopt it, so all callers end
    /// up with one `Arc`.
    ///
    /// # Errors
    ///
    /// The error of `build`, which publishes nothing: a later call builds
    /// again.
    pub fn memoised<T: Any + Send + Sync, E>(
        &self,
        key: MemoKey,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        let key = (TypeId::of::<T>(), key);
        let found = lock_recover(&self.memos.maps, MEMOS)
            .derived
            .get(&key)
            .map(Arc::clone);
        let shared = match found {
            Some(shared) => shared,
            None => {
                let built: Arc<dyn Any + Send + Sync> = Arc::new(build()?);
                let mut maps = lock_recover(&self.memos.maps, MEMOS);
                // Before the insert: an injected panic leaves the map as it
                // was, which is what recovering the poisoned lock relies on.
                faults::point(faults::Site::TrieMemo);
                Arc::clone(maps.derived.entry(key).or_insert(built))
            }
        };
        Ok(Arc::downcast(shared).unwrap_or_else(|_| unreachable!("keyed by its type")))
    }

    /// A copy of the relation under a new name (columns are cloned wholesale,
    /// no per-row work).
    pub fn renamed(&self, name: impl Into<String>) -> Relation {
        Relation {
            name: name.into(),
            arity: self.arity,
            columns: self.columns.clone(),
            dict: self.dict.clone(),
            memos: Memos::default(),
        }
    }

    /// An iterator over the values of a single column.
    ///
    /// Resolves the whole column eagerly (one dictionary read lock, one
    /// `Vec` allocation) before yielding — cheap relative to any per-element
    /// resolve loop, but not free: hoist out of loops and prefer
    /// [`Relation::column_ids`] when ids suffice.
    pub fn column(&self, index: usize) -> impl Iterator<Item = Value> + '_ {
        let dict = self.dict.reader();
        let values: Vec<Value> = self.columns.cols[index]
            .iter()
            .map(|&id| dict.resolve(id))
            .collect();
        values.into_iter()
    }
}

/// [`Relation::dedup`] for rows that fit one integer: packs each row into a
/// key (`push` appends one column's raw id), sorts and deduplicates the keys
/// in place, and unpacks them (`column(key, c)` reads column `c` back).
/// Returns the new row count.
fn dedup_packed<K: Ord + Copy + Default>(
    cols: &mut [Vec<ValueId>],
    push: impl Fn(K, u32) -> K,
    column: impl Fn(K, usize) -> u32,
) -> usize {
    let mut keys: Vec<K> = (0..cols[0].len())
        .map(|row| {
            cols.iter()
                .fold(K::default(), |key, col| push(key, col[row].raw()))
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    for (c, col) in cols.iter_mut().enumerate() {
        col.clear();
        col.extend(keys.iter().map(|&key| ValueId::from_raw(column(key, c))));
    }
    keys.len()
}

/// [`Relation::dedup`] above four columns: the first four pack into a key
/// as in [`dedup_packed`] and decide most comparisons; ties fall through to
/// the remaining columns, transposed to row-major so a row's remainder is
/// one contiguous slice behind its index.  Returns the new row count.
fn dedup_wide(cols: &mut [Vec<ValueId>]) -> usize {
    let (head, tail) = cols.split_at(4);
    let mut rest: Vec<u32> = Vec::with_capacity(tail[0].len() * tail.len());
    let mut keys: Vec<(u128, usize)> = Vec::with_capacity(tail[0].len());
    for row in 0..tail[0].len() {
        let key = head
            .iter()
            .fold(0, |key, col| key << 32 | u128::from(col[row].raw()));
        keys.push((key, row));
        rest.extend(tail.iter().map(|col| col[row].raw()));
    }
    let width = tail.len();
    let rest_of = |row: usize| &rest[row * width..][..width];
    keys.sort_unstable_by(|a, b| (a.0.cmp(&b.0)).then_with(|| rest_of(a.1).cmp(rest_of(b.1))));
    keys.dedup_by(|a, b| a.0 == b.0 && rest_of(a.1) == rest_of(b.1));
    for (c, col) in cols.iter_mut().enumerate() {
        col.clear();
        col.extend(keys.iter().map(|&(key, row)| {
            ValueId::from_raw(match c {
                0..=3 => (key >> (32 * (3 - c))) as u32,
                _ => rest_of(row)[c - 4],
            })
        }));
    }
    keys.len()
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}({} tuples, arity {})",
            self.name,
            self.len(),
            self.arity
        )
    }
}

/// A database: a collection of named relations, plus the dictionary handle
/// relations added through [`Database::insert_tuples`] intern into.
#[derive(Debug, Clone)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
    dict: SharedDictionary,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl PartialEq for Database {
    /// Content equality: the relations, by name, compared as [`Relation`]'s
    /// equality does (resolved rows when the dictionaries differ).
    fn eq(&self, other: &Self) -> bool {
        self.relations == other.relations
    }
}

impl Database {
    /// Creates an empty database with a fresh dictionary of its own.
    pub fn new() -> Self {
        Database::new_in(SharedDictionary::new())
    }

    /// Creates an empty database interning into an existing dictionary: a
    /// workspace's databases share its dictionary, and the forward reduction
    /// writes its transformed database into the dictionary of its input.
    pub fn new_in(dict: SharedDictionary) -> Self {
        Database {
            relations: BTreeMap::new(),
            dict,
        }
    }

    /// The dictionary relations of this database intern into.
    pub fn dictionary(&self) -> &SharedDictionary {
        &self.dict
    }

    /// Inserts (or replaces) a relation.  The relation keeps its own
    /// dictionary handle; for the ids to be join-compatible with the rest of
    /// the database it must be the database's dictionary.
    ///
    /// # Panics
    ///
    /// Panics if the relation interns into a different dictionary than this
    /// database: equal ids from unrelated dictionaries denote unrelated
    /// values, so letting the mix through would silently corrupt every join
    /// touching the relation.  The check is one pointer comparison, so it is
    /// enforced in release builds too.
    pub fn insert(&mut self, relation: Relation) {
        assert!(
            relation.dictionary() == self.dictionary(),
            "relation `{}` interns into a different dictionary than its database \
             (build it against the database's dictionary, or re-intern it via import)",
            relation.name()
        );
        self.relations.insert(relation.name().to_string(), relation);
    }

    /// Adds a relation built from tuples, interned into the database's
    /// dictionary.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the relation and the offending row if the
    /// tuples do not all have exactly `arity` values.
    pub fn insert_tuples(&mut self, name: &str, arity: usize, tuples: Vec<Vec<Value>>) {
        self.insert(Relation::from_tuples(name, arity, tuples, &self.dict));
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Mutable lookup.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    /// All relations (sorted by name).
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// Relation names.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across all relations (the database size `N`).
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// The distinct-left-endpoint transformation of Appendix G.1: shifts the
    /// intervals of the `i`-th relation (in the supplied order, 1-based) by
    /// `+i·ε` on the left endpoint and `+n·ε` on the right endpoint, where
    /// `ε` is small enough not to change any intersection relationship.
    /// After the transformation any two intervals from *different* relations
    /// have distinct left endpoints while every intersection join result is
    /// preserved.
    ///
    /// Relations named in `order` must exist; relations not named are left
    /// untouched.
    pub fn shift_left_endpoints(&mut self, order: &[&str]) {
        let n = order.len();
        if n == 0 {
            return;
        }
        // ε must satisfy n·ε < the smallest positive distance between any two
        // distinct endpoint values.
        let mut endpoints: Vec<f64> = Vec::new();
        for name in order {
            if let Some(rel) = self.relations.get(*name) {
                for t in rel.tuples() {
                    for v in t {
                        if let Some(iv) = v.as_interval() {
                            endpoints.push(iv.lo());
                            endpoints.push(iv.hi());
                        }
                    }
                }
            }
        }
        endpoints.sort_by(f64::total_cmp);
        endpoints.dedup();
        let mut min_gap = f64::INFINITY;
        for w in endpoints.windows(2) {
            let gap = w[1] - w[0];
            if gap > 0.0 && gap < min_gap {
                min_gap = gap;
            }
        }
        if !min_gap.is_finite() {
            min_gap = 1.0;
        }
        let eps = min_gap / (2.0 * (n as f64 + 1.0));

        for (i, name) in order.iter().enumerate() {
            let index = (i + 1) as f64;
            if let Some(rel) = self.relations.get_mut(*name) {
                let arity = rel.arity();
                let tuples: Vec<Vec<Value>> = rel
                    .tuples()
                    .iter()
                    .map(|t| {
                        t.iter()
                            .map(|v| match v.as_interval() {
                                Some(iv) => Value::Interval(iv.shift(index * eps, n as f64 * eps)),
                                None => *v,
                            })
                            .collect()
                    })
                    .collect();
                *rel =
                    Relation::from_tuples(rel.name().to_string(), arity, tuples, rel.dictionary());
            }
        }
    }

    /// Collects every interval value appearing in the given column of the
    /// given relations — the interval set `I` over which the forward
    /// reduction builds a segment tree for one interval variable.
    pub fn collect_intervals(&self, sources: &[(&str, usize)]) -> Vec<Interval> {
        let mut out = Vec::new();
        for (name, column) in sources {
            if let Some(rel) = self.relations.get(*name) {
                for v in rel.column(*column) {
                    if let Some(iv) = v.as_interval() {
                        out.push(iv);
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.relations.values() {
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Value {
        Value::interval(lo, hi)
    }

    #[test]
    fn relation_basics() {
        let mut r = Relation::new("R", 2, &SharedDictionary::new());
        r.push(vec![iv(0.0, 1.0), iv(2.0, 3.0)]);
        r.push(vec![iv(0.0, 1.0), iv(2.0, 3.0)]);
        assert_eq!(r.len(), 2);
        r.dedup();
        assert_eq!(r.len(), 1);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.column(0).count(), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_is_rejected() {
        let mut r = Relation::new("R", 2, &SharedDictionary::new());
        r.push(vec![iv(0.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "relation R: row 1 has 1 values, expected 2")]
    fn ragged_from_tuples_is_rejected() {
        let _ = Relation::from_tuples(
            "R",
            2,
            vec![vec![iv(0.0, 1.0), iv(2.0, 3.0)], vec![iv(0.0, 1.0)], vec![]],
            &SharedDictionary::new(),
        );
    }

    #[test]
    fn interned_columns_expose_ids() {
        let dict = SharedDictionary::new();
        let r = Relation::from_tuples(
            "R",
            2,
            vec![
                vec![Value::point(1.0), Value::point(2.0)],
                vec![Value::point(1.0), Value::point(3.0)],
            ],
            &dict,
        );
        // The repeated value 1.0 gets the same id in both rows.
        assert_eq!(r.column_ids(0)[0], r.column_ids(0)[1]);
        assert_ne!(r.column_ids(1)[0], r.column_ids(1)[1]);
        assert_eq!(dict.resolve(r.id_at(1, 1)), Value::point(3.0));
        assert_eq!(r.value_at(0, 1), Value::point(2.0));
    }

    /// A stand-in for a trie: the relation's rows as a set, with the number
    /// of builds so far.
    fn row_index(r: &Relation, builds: &mut usize) -> Result<Vec<Vec<ValueId>>, ()> {
        *builds += 1;
        let mut rows: Vec<Vec<ValueId>> = (0..r.len())
            .map(|row| (0..r.arity()).map(|c| r.id_at(row, c)).collect())
            .collect();
        rows.sort();
        rows.dedup();
        Ok(rows)
    }

    #[test]
    fn the_memo_is_invalidated_by_every_mutation() {
        let dict = SharedDictionary::new();
        let p = Value::point;
        let mut r = Relation::from_tuples("R", 2, vec![vec![p(1.0), p(2.0)]], &dict);
        let key = || (vec![0, 1], vec![0, 1]);
        let mut builds = 0;
        // "Join" R with the probe row (1, 3): no witness yet.
        let witness = (dict.intern(p(1.0)), dict.intern(p(3.0)));
        let joins = |index: &[Vec<ValueId>]| index.contains(&vec![witness.0, witness.1]);
        let first = r.memoised(key(), || row_index(&r, &mut builds)).unwrap();
        assert!(!joins(&first));
        // Memoised: a second call neither builds nor sees another index.
        let again = r.memoised(key(), || row_index(&r, &mut builds)).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(builds, 1);
        // Another key, or another type under the same key, is its own entry.
        r.memoised((vec![1, 0], vec![0, 1]), || row_index(&r, &mut builds))
            .unwrap();
        let count = r.memoised(key(), || Ok::<_, ()>(r.len())).unwrap();
        assert_eq!((*count, builds), (1, 2));
        // A push that creates the witness: the next join sees it.
        r.push(vec![p(1.0), p(3.0)]);
        let pushed = r.memoised(key(), || row_index(&r, &mut builds)).unwrap();
        assert!(joins(&pushed));
        assert_eq!(builds, 3);
        // `dedup` clears the memo too, even where the rows stay as they are.
        r.push(vec![p(1.0), p(3.0)]);
        r.dedup();
        let rebuilt = r.memoised(key(), || row_index(&r, &mut builds)).unwrap();
        assert!(!Arc::ptr_eq(&pushed, &rebuilt));
        assert_eq!((builds, *rebuilt == *pushed), (4, true));
        // A failed build publishes nothing.
        assert_eq!(
            r.memoised((vec![0], vec![0]), || Err::<usize, _>("no")),
            Err("no")
        );
        assert_eq!(
            *r.memoised((vec![0], vec![0]), || Ok::<_, ()>(7)).unwrap(),
            7
        );
        // The memo plays no part in equality.
        assert_eq!(r, r.clone());
    }

    #[test]
    fn copies_start_with_an_empty_memo() {
        let r = small_domain_relation(&[(1, 2, 0), (1, 3, 0)]);
        let key = || (vec![0, 1, 2], vec![0, 1, 2]);
        let mut builds = 0;
        let of_r = r.memoised(key(), || row_index(&r, &mut builds)).unwrap();
        let s = r.renamed("S");
        let of_s = s.memoised(key(), || row_index(&s, &mut builds)).unwrap();
        let copy = r.clone();
        let of_copy = copy
            .memoised(key(), || row_index(&copy, &mut builds))
            .unwrap();
        assert_eq!(builds, 3);
        assert!(!Arc::ptr_eq(&of_r, &of_s) && !Arc::ptr_eq(&of_r, &of_copy));
        assert_eq!((*of_s == *of_r, *of_copy == *of_r), (true, true));
    }

    #[test]
    fn racing_threads_end_up_with_one_memoised_value() {
        let cells: Vec<(u8, u8, u8)> = (0..600u32)
            .map(|i| ((i % 7) as u8, (i % 11) as u8, (i % 13) as u8))
            .collect();
        for _ in 0..20 {
            let r = small_domain_relation(&cells);
            let start = std::sync::Barrier::new(2);
            let key = || (vec![2, 0, 1], vec![0, 1, 2]);
            let seen: Vec<Arc<Vec<Vec<ValueId>>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            r.memoised(key(), || row_index(&r, &mut 0)).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(Arc::ptr_eq(&seen[0], &seen[1]));
            let published = r.memoised(key(), || row_index(&r, &mut 0)).unwrap();
            assert!(Arc::ptr_eq(&seen[0], &published));
            assert_eq!(published.len(), cells.len());
        }
    }

    /// Three point columns over a small domain, so projections collapse rows.
    fn small_domain_relation(cells: &[(u8, u8, u8)]) -> Relation {
        let p = |v: u8| Value::point(f64::from(v));
        Relation::from_tuples(
            "R",
            3,
            cells
                .iter()
                .map(|&(a, b, c)| vec![p(a), p(b), p(c)])
                .collect(),
            &SharedDictionary::new(),
        )
    }

    proptest::proptest! {
        /// A projection is `project` + `dedup` under the source's name, for
        /// any column list — repeats, permutations and the empty list
        /// included — and asking again hands out the same `Arc`.
        #[test]
        fn a_projection_is_project_then_dedup_computed_once(
            cells in proptest::collection::vec((0u8..3, 0u8..3, 0u8..3), 0..24),
            columns in proptest::collection::vec(0usize..3, 0..5),
        ) {
            let r = small_domain_relation(&cells);
            let mut expected = r.project(&columns, "R");
            expected.dedup();
            let first = r.projection(&columns);
            proptest::prop_assert_eq!(&*first, &expected);
            proptest::prop_assert!(Arc::ptr_eq(&first, &r.projection(&columns)));
            // Another list is another entry, and evicts nothing.
            let other = r.projection(&[2]);
            proptest::prop_assert_eq!(other.arity(), 1);
            proptest::prop_assert!(Arc::ptr_eq(&first, &r.projection(&columns)));
        }
    }

    #[test]
    fn every_mutator_resets_the_projection_memo() {
        let p = Value::point;
        let mut r = small_domain_relation(&[(1, 2, 0), (1, 3, 0)]);
        let stale = r.projection(&[0]);
        assert_eq!(stale.len(), 1);
        r.push(vec![p(5.0), p(2.0), p(0.0)]);
        let pushed = r.projection(&[0]);
        assert!(!Arc::ptr_eq(&stale, &pushed));
        assert_eq!(pushed.len(), 2);
        let row: Vec<ValueId> = (0..3).map(|c| r.id_at(0, c)).collect();
        r.push_ids(&row);
        // (1, 2, 0) is there twice now, and stays one row of the projection.
        let wider = r.projection(&[0, 1]);
        assert_eq!(wider.len(), 3);
        assert!(!Arc::ptr_eq(&pushed, &r.projection(&[0])));
        r.dedup();
        assert_eq!(r.len(), 3);
        assert!(!Arc::ptr_eq(&wider, &r.projection(&[0, 1])));
        assert_eq!(*wider, *r.projection(&[0, 1]));
    }

    #[test]
    fn copies_never_serve_a_projection_of_other_content() {
        let r = small_domain_relation(&[(1, 2, 0), (1, 3, 0)]);
        let of_r = r.projection(&[1]);
        // A clone diverges from its original; neither may see the other's
        // projections afterwards.
        let mut copy = r.clone();
        copy.push(vec![Value::point(9.0); 3]);
        assert_eq!(copy.projection(&[1]).len(), 3);
        assert!(Arc::ptr_eq(&of_r, &r.projection(&[1])));
        // A renamed copy has the same rows under its own name.
        let s = r.renamed("S");
        let of_s = s.projection(&[1]);
        assert_eq!(of_s.name(), "S");
        assert_eq!(of_s.tuples(), of_r.tuples());
        // The memo plays no part in equality.
        assert_eq!(r, r.clone());
    }

    #[test]
    fn racing_threads_end_up_with_one_projection() {
        let cells: Vec<(u8, u8, u8)> = (0..600u32)
            .map(|i| ((i % 7) as u8, (i % 11) as u8, (i % 13) as u8))
            .collect();
        for _ in 0..20 {
            let r = small_domain_relation(&cells);
            let start = std::sync::Barrier::new(8);
            let seen: Vec<Arc<Relation>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            r.projection(&[2, 0])
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let published = r.projection(&[2, 0]);
            assert_eq!(published.len(), 7 * 13);
            assert!(seen.iter().all(|p| Arc::ptr_eq(p, &published)));
        }
    }

    #[test]
    fn from_id_columns_builds_without_re_interning() {
        let dict = SharedDictionary::new();
        let a = dict.intern(Value::point(1.0));
        let b = dict.intern(Value::point(2.0));
        let r = Relation::from_id_columns("R", 2, vec![vec![a, a], vec![b, a]], &dict);
        assert_eq!(r.len(), 2);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.dictionary(), &dict);
        assert_eq!(r.tuples()[1], vec![Value::point(1.0), Value::point(1.0)]);
        // Zero-arity relations keep their explicit multiplicity.
        let guard = Relation::from_id_columns("E", 3, vec![], &dict);
        assert_eq!(guard.len(), 3);
        assert_eq!(guard.arity(), 0);
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn from_id_columns_rejects_ragged_columns() {
        let dict = SharedDictionary::new();
        let a = dict.intern(Value::point(1.0));
        let _ = Relation::from_id_columns("R", 2, vec![vec![a], vec![a, a]], &dict);
    }

    #[test]
    fn zero_arity_relations_track_multiplicity() {
        let mut r = Relation::new("E", 0, &SharedDictionary::new());
        assert!(r.is_empty());
        r.push(vec![]);
        r.push(vec![]);
        assert_eq!(r.len(), 2);
        r.dedup();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples(), vec![Vec::<Value>::new()]);
    }

    #[test]
    fn project_keeps_selected_columns() {
        let r = Relation::from_tuples(
            "R",
            3,
            vec![
                vec![Value::point(1.0), Value::point(2.0), Value::point(3.0)],
                vec![Value::point(4.0), Value::point(5.0), Value::point(6.0)],
            ],
            &SharedDictionary::new(),
        );
        let p = r.project(&[2, 0], "P");
        assert_eq!(p.arity(), 2);
        assert_eq!(p.tuples()[0], vec![Value::point(3.0), Value::point(1.0)]);
        assert_eq!(p.tuples()[1], vec![Value::point(6.0), Value::point(4.0)]);
    }

    #[test]
    fn equality_across_dictionaries_compares_values() {
        let p = Value::point;
        let rows =
            |values: &[f64]| -> Vec<Vec<Value>> { values.iter().map(|&v| vec![p(v)]).collect() };
        let a = SharedDictionary::new();
        let one = Relation::from_tuples("R", 1, rows(&[1.0, 2.0]), &a);
        // A fresh dictionary gives its first value id 0, so 3.0 in a fresh
        // `b` gets 1.0's id in `a`.
        let b = SharedDictionary::new();
        let same_ids = Relation::from_tuples("R", 1, rows(&[3.0]), &b);
        let first = Relation::from_tuples("R", 1, rows(&[1.0]), &a);
        assert_eq!(first.column_ids(0), same_ids.column_ids(0));
        assert_ne!(first, same_ids);
        // The same rows with other ids: `c` numbered 64 values first.
        let c = SharedDictionary::new();
        for v in 100..164 {
            c.intern(p(f64::from(v)));
        }
        let same_rows = Relation::from_tuples("R", 1, rows(&[1.0, 2.0]), &c);
        assert_ne!(one.column_ids(0), same_rows.column_ids(0));
        assert_eq!(one, same_rows);
        // Rows compare in order, and databases compare their relations so.
        let swapped = Relation::from_tuples("R", 1, rows(&[2.0, 1.0]), &c);
        assert_ne!(one, swapped);
        let mut db_a = Database::new_in(a);
        db_a.insert(one);
        let mut db_c = Database::new_in(c);
        db_c.insert(same_rows);
        assert_eq!(db_a, db_c);
        db_c.insert(swapped);
        assert_ne!(db_a, db_c);
    }

    #[test]
    #[should_panic(expected = "different dictionary")]
    fn inserting_a_relation_of_another_dictionary_panics() {
        let foreign = Relation::new("R", 1, &SharedDictionary::new());
        Database::new().insert(foreign);
    }

    #[test]
    fn database_insert_and_lookup() {
        let mut db = Database::new();
        db.insert_tuples("R", 2, vec![vec![iv(0.0, 1.0), iv(0.0, 2.0)]]);
        db.insert_tuples("S", 1, vec![vec![iv(0.0, 1.0)], vec![iv(5.0, 6.0)]]);
        assert_eq!(db.num_relations(), 2);
        assert_eq!(db.total_tuples(), 3);
        assert_eq!(db.relation("R").unwrap().arity(), 2);
        assert!(db.relation("T").is_none());
        assert_eq!(db.relation_names(), vec!["R".to_string(), "S".to_string()]);
    }

    #[test]
    fn collect_intervals_gathers_the_right_columns() {
        let mut db = Database::new();
        db.insert_tuples("R", 2, vec![vec![iv(0.0, 1.0), iv(10.0, 11.0)]]);
        db.insert_tuples("S", 1, vec![vec![iv(5.0, 6.0)]]);
        let intervals = db.collect_intervals(&[("R", 0), ("S", 0)]);
        assert_eq!(intervals.len(), 2);
        assert!(intervals.contains(&Interval::new(0.0, 1.0)));
        assert!(intervals.contains(&Interval::new(5.0, 6.0)));
    }

    #[test]
    fn shift_left_endpoints_preserves_intersections() {
        // R and S each hold one interval per tuple; verify that intersection
        // relationships across relations are unchanged and that left
        // endpoints become pairwise distinct across relations.
        let r_ivs = [
            Interval::new(0.0, 2.0),
            Interval::new(3.0, 5.0),
            Interval::new(2.0, 3.0),
        ];
        let s_ivs = [
            Interval::new(2.0, 4.0),
            Interval::new(0.0, 0.5),
            Interval::new(5.0, 7.0),
        ];
        let mut db = Database::new();
        db.insert_tuples(
            "R",
            1,
            r_ivs.iter().map(|&i| vec![Value::Interval(i)]).collect(),
        );
        db.insert_tuples(
            "S",
            1,
            s_ivs.iter().map(|&i| vec![Value::Interval(i)]).collect(),
        );
        db.shift_left_endpoints(&["R", "S"]);

        let r_new: Vec<Interval> = db
            .relation("R")
            .unwrap()
            .column(0)
            .map(|v| v.as_interval().unwrap())
            .collect();
        let s_new: Vec<Interval> = db
            .relation("S")
            .unwrap()
            .column(0)
            .map(|v| v.as_interval().unwrap())
            .collect();
        for (i, &r_old) in r_ivs.iter().enumerate() {
            for (j, &s_old) in s_ivs.iter().enumerate() {
                assert_eq!(
                    r_old.intersects(s_old),
                    r_new[i].intersects(s_new[j]),
                    "intersection changed for R[{i}], S[{j}]"
                );
            }
        }
        // Left endpoints are now distinct across the two relations.
        for r in &r_new {
            for s in &s_new {
                assert_ne!(r.lo(), s.lo());
            }
        }
    }

    #[test]
    fn shift_left_endpoints_handles_empty_order_and_missing_relations() {
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![iv(0.0, 1.0)]]);
        let before = db.clone();
        db.shift_left_endpoints(&[]);
        assert_eq!(db, before);
        db.shift_left_endpoints(&["Missing"]);
        assert_eq!(db.relation("R").unwrap().len(), 1);
    }
}
