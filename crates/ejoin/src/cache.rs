//! A shared cache of built atom tries ([`FlatTrie`]s), keyed by content
//! fingerprints.
//!
//! The forward reduction turns one intersection-join query into a disjunction
//! of equality-join queries whose atoms overwhelmingly *share* transformed
//! relations: the relation materialised for an atom depends only on the level
//! assigned to each of its interval variables, not on the full permutation
//! that produced the disjunct.  Without a cache, every disjunct rebuilds the
//! same tries from scratch; with one, the first disjunct to need a trie
//! builds it and every later disjunct (on any worker thread) reuses it.
//!
//! # Keying
//!
//! A trie's content is fully determined by
//!
//! 1. the relation's **data** — captured as a 128-bit fingerprint of the id
//!    columns ([`relation_fingerprint`]), so caching is sound for any
//!    relation with the same content regardless of name or provenance
//!    (top-level transformed relations and the projections derived from
//!    them alike).  Hashing the columns is per-row work, memoised on the
//!    relation — which pays off where the relation outlives the lookup: a
//!    transformed relation of the reduction, or the singleton-variable
//!    projection of one ([`Relation::projection`], a memoised link that
//!    every disjunct, and every evaluation of the reduction, binding the
//!    same source columns gets as the *same* relation, fingerprint already
//!    known).  The bag inputs of the width-guided evaluation are such
//!    relations too — a memoised projection the bag keeps whole, or the
//!    memoised projection of one onto the bag's columns — so each is hashed
//!    once per reduction, at one multiply per id in eight independent
//!    chains ([`kernels::fingerprint`]; `cargo bench -p ij-bench --bench
//!    kernels` times it on the benchmark triangle's two bag-input shapes),
//!    and a warm lookup hashes nothing;
//! 2. the **column→variable binding** of the atom — this encodes both the
//!    column permutation and the repeated-variable filters;
//! 3. the induced **level order** (the atom's distinct variables sorted by
//!    the global join order).
//!
//! This is exactly the (relation identity, column permutation, filter)
//! fingerprint that the engine's disjunct deduplication reasons about at the
//! query level, pushed down to the data level.
//!
//! # Lifetime and eviction
//!
//! A cache may outlive a single evaluation: the engine owns one **persistent**
//! cache per engine instance (and a `Workspace` shares one across every
//! engine built from it), shared by every `evaluate_reduction` call — sound
//! because the key starts from the relation *content* fingerprint, so a
//! different database can never alias a cached trie.  Boundedness across
//! that open-ended lifetime comes from **LRU eviction** against one **byte
//! budget** ([`TrieCache::with_byte_budget`]): every entry carries the
//! estimated heap size of its trie ([`FlatTrie::heap_bytes`]) and a
//! last-used stamp from a relaxed global clock, the cache tracks the resident
//! total ([`TrieCacheStats::resident_bytes`]), and inserting past the budget
//! evicts least-recently-used entries (counted in
//! [`TrieCacheStats::evictions`]) until the new entry fits.  A single build
//! larger than the whole budget is handed to the caller *uncached* — the
//! budget is an upper bound on resident bytes, never exceeded to accommodate
//! an oversized entry.  Eviction only ever drops *reuse*, never correctness:
//! a future lookup of an evicted key rebuilds the trie from the relation.
//!
//! # Concurrency
//!
//! The cache is a read-mostly `RwLock<HashMap<_, _>>`: lookups take the read
//! lock (bumping the recency stamp with a relaxed atomic store), a miss
//! builds the trie *outside* any lock and then races to insert (the first
//! insertion wins; a losing builder adopts the winner's trie, so all workers
//! always probe structurally identical tries).  Hit, miss and eviction
//! counters are relaxed atomics exposed through [`TrieCache::stats`].
//!
//! # The decomposition memo
//!
//! Beside the tries, the cache keeps the optimal tree decomposition of each
//! cyclic hypergraph shape a disjunct is evaluated over
//! ([`TrieCache::decomposition`]).  The reduction of one intersection-join
//! query yields many disjuncts of a handful of shapes, so the subset DP and
//! its LPs run once per shape and cache rather than once per disjunct.  The
//! key is the dense edge list of the disjunct's hypergraph; a decomposition
//! is computed outside the lock (the lock class `td-memo` is a leaf), and a
//! losing computer of an insert race adopts the winner's, like a trie.  The
//! memo is purely structural (a few bags per shape, no relation data), so it
//! is neither evicted nor counted against the byte budget; it lives exactly
//! as long as the cache, and an evaluation without a cache computes each
//! decomposition afresh.
//!
//! # Exact attribution
//!
//! Attribution of per-evaluation statistics is **exact under any
//! concurrency**: an evaluation passes its own [`EvalActivity`] ledger down
//! through [`EvalContext::activity`] and every lookup and plan it performs
//! bumps those local counters — no before/after snapshots of the shared
//! counters, so concurrent evaluations on one cache can never steal each
//! other's hits, misses, evictions or plans.

use crate::flat::FlatTrie;
use crate::BoundAtom;
use ij_hypergraph::{Hypergraph, VarId};
use ij_relation::sync::{read_recover, write_recover};
use ij_relation::{faults, kernels, CancellationToken, EvalError, Relation, ValueId};
use ij_widths::{optimal_tree_decomposition, TreeDecomposition};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Lock class of the cache's key → slot map (`sync::lock_order`); a leaf:
/// nothing is acquired while it is held.
const CACHE_MAP: &str = "trie-cache-map";

/// Lock class of the decomposition memo (`sync::lock_order`); a leaf: held
/// for one map probe or insert, never around another lock — a decomposition
/// is computed before the lock is taken.
const TD_MEMO: &str = "td-memo";

/// A 128-bit content fingerprint of a relation's id columns.
///
/// Two relations with equal arity, row count and column ids (in order) get
/// the same fingerprint ([`kernels::fingerprint`] of the id columns); its
/// two independent 64-bit halves make an accidental collision between
/// *different* contents astronomically unlikely (~2⁻¹²⁸), which is what lets
/// the trie cache treat the fingerprint as identity.  Names are deliberately
/// ignored: a projection recomputed by two disjuncts under different names
/// still shares one trie.  Values are compared within one process only and
/// are no stable format.
///
/// The value is memoized per relation ([`Relation::fingerprint_with`]), so
/// repeated cache lookups against the same relation — a transformed relation
/// of the reduction, or a [`Relation::projection`] hanging off one — hash its
/// columns once.
pub fn relation_fingerprint(relation: &Relation) -> (u64, u64) {
    relation.fingerprint_with(compute_fingerprint)
}

fn compute_fingerprint(relation: &Relation) -> (u64, u64) {
    let cols: Vec<&[ValueId]> = (0..relation.arity())
        .map(|col| relation.column_ids(col))
        .collect();
    kernels::fingerprint(relation.len(), &cols)
}

/// The one per-evaluation ledger: an evaluation passes it down via
/// [`EvalContext::activity`] and every trie lookup and every join plan the
/// evaluation itself performs is counted here, so its statistics are
/// **exact** rather than inferred from racy before/after snapshots of the
/// shared cache's counters (which would attribute a concurrent evaluation's
/// activity to whichever windows overlap it).
///
/// The counters are relaxed atomics because one evaluation's disjunct
/// workers share the ledger across threads; no other memory depends on
/// their order.
#[derive(Debug, Default)]
pub struct EvalActivity {
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    plans: AtomicUsize,
    planning_nanos: AtomicU64,
}

impl EvalActivity {
    /// A fresh all-zero ledger.
    pub fn new() -> Self {
        EvalActivity::default()
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Evictions *triggered by* this evaluation's inserts (whoever inserted
    /// the evicted entries).
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Join orders planned (one per generic join: a cyclic disjunct plans
    /// one per materialised bag).
    pub fn plans(&self) -> usize {
        self.plans.load(Ordering::Relaxed)
    }

    /// Total time spent planning, in nanoseconds.
    pub fn planning_nanos(&self) -> u64 {
        self.planning_nanos.load(Ordering::Relaxed)
    }

    /// Records one planned join order and the time it took.
    pub(crate) fn record_plan(&self, nanos: u64) {
        self.plans.fetch_add(1, Ordering::Relaxed);
        self.planning_nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// The cache key: everything a trie's content depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TrieKey {
    fingerprint: (u64, u64),
    /// Column→variable binding (permutation + repeated-variable filters).
    vars: Vec<VarId>,
    /// The atom's distinct variables in global join order (the trie levels).
    levels: Vec<VarId>,
}

/// A point-in-time snapshot of a [`TrieCache`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrieCacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that had to build (includes both builders of an insert race).
    pub misses: usize,
    /// Entries dropped by LRU eviction to stay within the byte budget.
    pub evictions: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated heap bytes of the resident entries
    /// ([`FlatTrie::heap_bytes`] summed over every cached trie).  Never
    /// exceeds the cache's byte budget ([`TrieCache::with_byte_budget`]).
    pub resident_bytes: usize,
}

impl TrieCacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident cache entry: the built trie, its estimated heap size
/// (fixed at insert time), and a last-used stamp for the LRU policy (bumped
/// with a relaxed store on every hit, so recency tracking never needs the
/// write lock).
#[derive(Debug)]
struct CacheSlot {
    trie: Arc<FlatTrie>,
    bytes: usize,
    last_used: AtomicU64,
}

/// A thread-safe cache of built tries, shared across the disjuncts of one
/// evaluation *and* — because keys start from content fingerprints — across
/// any number of evaluations (see the module docs for keying, lifetime and
/// concurrency).
///
/// The engine owns one cache per engine instance and hands it to every
/// disjunct worker of every evaluation it runs (`ij_engine`'s
/// `IntersectionJoinEngine::evaluate_reduction_cancellable`); standalone
/// users of the ejoin crate can share one across any sequence of
/// [`evaluate_ej_boolean`](crate::evaluate_ej_boolean) calls (the cache
/// stores owned tries, so there is no borrow coupling to the source
/// relations).
#[derive(Debug)]
pub struct TrieCache {
    /// Maximum resident heap bytes (estimated).
    byte_budget: usize,
    map: RwLock<HashMap<TrieKey, CacheSlot>>,
    /// Estimated heap bytes of the resident entries; mutated only under the
    /// map's write lock, read relaxed by [`TrieCache::stats`].
    resident_bytes: AtomicUsize,
    /// Monotonic recency clock; every lookup draws a fresh stamp.
    clock: AtomicU64,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    /// The optimal tree decomposition of each cyclic shape looked up, keyed
    /// by its dense edge list (see the module docs).
    decompositions: RwLock<HashMap<Vec<Vec<VarId>>, Arc<TreeDecomposition>>>,
}

impl Default for TrieCache {
    fn default() -> Self {
        TrieCache::new()
    }
}

impl TrieCache {
    /// An unbounded cache (a byte budget of `usize::MAX`).
    pub fn new() -> Self {
        TrieCache::with_byte_budget(usize::MAX)
    }

    /// A cache whose *estimated* resident heap bytes
    /// ([`FlatTrie::heap_bytes`] summed over the cached tries) never exceed
    /// `bytes`: inserting past the budget evicts least-recently-used entries
    /// first, and a single build larger than the whole budget is returned to
    /// the caller uncached.  The budget is just a number of bytes — `0`
    /// caches nothing, `usize::MAX` is unbounded.
    pub fn with_byte_budget(bytes: usize) -> Self {
        TrieCache {
            byte_budget: bytes,
            map: RwLock::default(),
            resident_bytes: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            decompositions: RwLock::default(),
        }
    }

    /// Snapshot of the hit/miss/eviction counters and the resident entry /
    /// byte state.
    ///
    /// All fields are read under one acquisition of the map's read lock.
    /// `entries`, `resident_bytes` and `evictions` are only mutated under
    /// the map's *write* lock, so the snapshot is internally consistent: a
    /// caller can never observe a torn pair such as `entries == 0` with
    /// `resident_bytes > 0`.  Debug builds audit the byte accounting here:
    /// the resident total is exactly the sum of the slots' insert-time sizes
    /// and within the budget, whatever builds were abandoned on the way.
    pub fn stats(&self) -> TrieCacheStats {
        let map = read_recover(&self.map, CACHE_MAP);
        let resident_bytes = self.resident_bytes.load(Ordering::Relaxed);
        debug_assert_eq!(
            resident_bytes,
            map.values().map(|slot| slot.bytes).sum::<usize>(),
            "resident bytes must equal the sum of the resident slots"
        );
        debug_assert!(resident_bytes <= self.byte_budget);
        TrieCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: map.len(),
            resident_bytes,
        }
    }

    /// The trie of `atom` under `global_order` — served from the cache when
    /// an identical build was already done, built and retained (evicting LRU
    /// entries if the budget is exceeded) otherwise; `activity` (if any)
    /// accumulates the caller's exact per-evaluation statistics.
    ///
    /// A miss builds cooperatively under `token` (if any) and surfaces
    /// cancellation / deadline failures as [`EvalError`].  A failed build
    /// mutates nothing: the `cache-insert` failpoint and every fallible step
    /// sit **before** the first accounting mutation under the write lock, so
    /// the resident-byte total always describes exactly the resident entries
    /// (see `ij_relation::sync`).
    pub(crate) fn tries_for(
        &self,
        atom: &BoundAtom<'_>,
        global_order: &[VarId],
        activity: Option<&EvalActivity>,
        token: Option<&CancellationToken>,
    ) -> Result<Arc<FlatTrie>, EvalError> {
        let key = TrieKey {
            fingerprint: relation_fingerprint(atom.relation),
            vars: atom.vars.clone(),
            levels: crate::trie::trie_level_vars(atom, global_order),
        };
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(slot) = read_recover(&self.map, CACHE_MAP).get(&key) {
            slot.last_used.store(now, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(a) = activity {
                a.hits.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(Arc::clone(&slot.trie));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(a) = activity {
            a.misses.fetch_add(1, Ordering::Relaxed);
        }
        let built = Arc::new(FlatTrie::build(atom, global_order, token)?);
        let new_bytes: usize = built.heap_bytes();
        if new_bytes > self.byte_budget {
            // An entry that alone exceeds the whole byte budget can never be
            // resident within it; hand it to the caller uncached.
            return Ok(built);
        }
        let mut map = write_recover(&self.map, CACHE_MAP);
        // Failpoint before any accounting mutation: an injected panic here
        // poisons the lock but leaves the guarded state untouched, which is
        // exactly the consistency contract the poison-recovering helpers
        // rely on.
        faults::point(faults::Site::CacheInsert);
        if let Some(existing) = map.get(&key) {
            // Lost an insert race; adopt the winner so all workers share.
            existing.last_used.store(now, Ordering::Relaxed);
            return Ok(Arc::clone(&existing.trie));
        }
        // Over budget: collect every entry's recency stamp in one pass, sort
        // once, and evict in LRU order until the insert fits.
        let room = self.byte_budget - new_bytes;
        if self.resident_bytes.load(Ordering::Relaxed) > room {
            let mut victims: Vec<(u64, TrieKey)> = map
                .iter()
                .map(|(k, slot)| (slot.last_used.load(Ordering::Relaxed), k.clone()))
                .collect();
            victims.sort_unstable_by_key(|&(stamp, _)| stamp);
            let mut evicted = 0usize;
            for (_, victim) in victims {
                if self.resident_bytes.load(Ordering::Relaxed) <= room {
                    break;
                }
                self.remove_slot(&mut map, &victim);
                evicted += 1;
            }
            if let Some(a) = activity {
                a.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        self.resident_bytes.fetch_add(new_bytes, Ordering::Relaxed);
        map.insert(
            key,
            CacheSlot {
                trie: Arc::clone(&built),
                bytes: new_bytes,
                last_used: AtomicU64::new(now),
            },
        );
        Ok(built)
    }

    /// Removes one entry and settles the resident bytes and the eviction
    /// counter.  Must be called with the map's write lock held.
    fn remove_slot(&self, map: &mut HashMap<TrieKey, CacheSlot>, key: &TrieKey) {
        if let Some(slot) = map.remove(key) {
            self.resident_bytes.fetch_sub(slot.bytes, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The optimal tree decomposition of `h` (`optimal_tree_decomposition`),
    /// computed on the first lookup of its shape and shared by every later
    /// one on this cache.
    pub(crate) fn decomposition(&self, h: &Hypergraph) -> Arc<TreeDecomposition> {
        let key: Vec<Vec<VarId>> = (h.edges().iter())
            .map(|e| e.vertices.iter().copied().collect())
            .collect();
        if let Some(td) = read_recover(&self.decompositions, TD_MEMO).get(&key) {
            return Arc::clone(td);
        }
        let td = Arc::new(optimal_tree_decomposition(h));
        // A losing computer of an insert race adopts the winner's.
        let mut memo = write_recover(&self.decompositions, TD_MEMO);
        Arc::clone(memo.entry(key).or_insert(td))
    }
}

/// Shared runtime options for one equality-join evaluation: the trie cache
/// (if any), the evaluation's ledger, and the cancellation token.
///
/// Every evaluation function ([`evaluate_ej_boolean`],
/// [`generic_join_boolean`], [`generic_join_enumerate`]) takes an
/// `EvalContext` and threads it down to every trie build and every plan of
/// the evaluation — including the per-bag joins of the width-guided
/// evaluation.  `EvalContext::default()` is no cache, no ledger and no token.
///
/// [`evaluate_ej_boolean`]: crate::evaluate_ej_boolean
/// [`generic_join_boolean`]: crate::generic_join_boolean
/// [`generic_join_enumerate`]: crate::generic_join_enumerate
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalContext<'c> {
    /// Trie cache (and decomposition memo) shared across calls; `None`
    /// rebuilds tries and recomputes decompositions every time.
    pub cache: Option<&'c TrieCache>,
    /// Evaluation-local ledger for exact per-evaluation cache and planning
    /// statistics; `None` skips local accounting and never reads the clock
    /// (the shared cache counters are always maintained).
    pub activity: Option<&'c EvalActivity>,
    /// Cooperative cancellation / deadline token polled by the evaluation's
    /// long-running loops (trie builds, candidate intersection, reduction
    /// transforms) every [`CancellationToken::check_interval`] units of
    /// work; `None` runs to completion.
    pub token: Option<&'c CancellationToken>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_relation::{Relation, SharedDictionary, Value};

    fn rel(dict: &SharedDictionary, name: &str, rows: Vec<Vec<f64>>) -> Relation {
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        Relation::from_tuples(
            name,
            arity,
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::point).collect())
                .collect(),
            dict,
        )
    }

    /// The footprint of a one-level trie over `rows` distinct values,
    /// measured from a real build: budgets below are sized from it.
    fn trie_bytes(rows: usize) -> usize {
        let dict = SharedDictionary::new();
        let probe = rel(
            &dict,
            "P",
            (0..rows).map(|i| vec![0.5 + i as f64]).collect(),
        );
        let bytes = TrieCache::new()
            .tries_for(&BoundAtom::new(&probe, vec![0]), &[0], None, None)
            .unwrap()
            .heap_bytes();
        assert!(bytes > 0);
        bytes
    }

    #[test]
    fn fingerprint_ignores_names_but_not_content() {
        let dict = SharedDictionary::new();
        let a = rel(&dict, "A", vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = rel(&dict, "B", vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let c = rel(&dict, "C", vec![vec![1.0, 2.0], vec![3.0, 5.0]]);
        assert_eq!(relation_fingerprint(&a), relation_fingerprint(&b));
        assert_ne!(relation_fingerprint(&a), relation_fingerprint(&c));
        // Row order matters (tries collapse duplicates, but a multiset
        // difference must never collide).
        let d = rel(&dict, "D", vec![vec![3.0, 4.0], vec![1.0, 2.0]]);
        assert_ne!(relation_fingerprint(&a), relation_fingerprint(&d));
    }

    #[test]
    fn identical_builds_hit_distinct_builds_miss() {
        let dict = SharedDictionary::new();
        let cache = TrieCache::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0], vec![1.0, 3.0]]);
        let s = rel(&dict, "S", vec![vec![1.0, 2.0], vec![1.0, 3.0]]);
        let atom_r = BoundAtom::new(&r, vec![0, 1]);
        let first = cache.tries_for(&atom_r, &[0, 1], None, None).unwrap();
        // Same content under a different name: a hit, sharing the same trie.
        let atom_s = BoundAtom::new(&s, vec![0, 1]);
        let second = cache.tries_for(&atom_s, &[0, 1], None, None).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        // Different binding or level order: separate entries.
        cache
            .tries_for(&BoundAtom::new(&r, vec![1, 0]), &[0, 1], None, None)
            .unwrap();
        cache.tries_for(&atom_r, &[1, 0], None, None).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn full_cache_evicts_least_recently_used() {
        // Room for exactly one single-row trie.
        let dict = SharedDictionary::new();
        let cache = TrieCache::with_byte_budget(trie_bytes(1));
        let r = rel(&dict, "R", vec![vec![1.0]]);
        let s = rel(&dict, "S", vec![vec![2.0]]);
        cache
            .tries_for(&BoundAtom::new(&r, vec![0]), &[0], None, None)
            .unwrap();
        // Inserting S evicts R (the only, hence least-recent, entry).
        cache
            .tries_for(&BoundAtom::new(&s, vec![0]), &[0], None, None)
            .unwrap();
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 1);
        // The resident entry hits; the evicted one rebuilds (a miss).
        cache
            .tries_for(&BoundAtom::new(&s, vec![0]), &[0], None, None)
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        cache
            .tries_for(&BoundAtom::new(&r, vec![0]), &[0], None, None)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn byte_budget_evicts_to_stay_within_the_budget() {
        // Size the budget from a real build: room for ~3 single-row tries,
        // nowhere near room for 6.
        let dict = SharedDictionary::new();
        let per_trie = trie_bytes(1);
        let budget = 3 * per_trie + per_trie / 2;
        let cache = TrieCache::with_byte_budget(budget);
        let relations: Vec<Relation> = (0..6)
            .map(|i| rel(&dict, &format!("R{i}"), vec![vec![100.0 + i as f64]]))
            .collect();
        for r in &relations {
            cache
                .tries_for(&BoundAtom::new(r, vec![0]), &[0], None, None)
                .unwrap();
            let stats = cache.stats();
            assert!(
                stats.resident_bytes <= budget,
                "resident {} exceeds budget {budget}",
                stats.resident_bytes
            );
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "expected evictions, got {stats:?}");
        assert_eq!(stats.entries + stats.evictions, 6);
        // The survivors are the most recently used; re-requesting the last
        // insert hits without growing the resident total.
        let before = cache.stats().resident_bytes;
        cache
            .tries_for(&BoundAtom::new(&relations[5], vec![0]), &[0], None, None)
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().resident_bytes, before);
    }

    #[test]
    fn oversized_builds_bypass_the_cache_entirely() {
        // A budget smaller than any single trie: nothing is ever resident,
        // nothing is ever evicted, and lookups still return working tries.
        let dict = SharedDictionary::new();
        let cache = TrieCache::with_byte_budget(1);
        let r = rel(&dict, "R", vec![vec![1.0], vec![2.0]]);
        let first = cache
            .tries_for(&BoundAtom::new(&r, vec![0]), &[0], None, None)
            .unwrap();
        assert_eq!(first.level_len(0), 2);
        cache
            .tries_for(&BoundAtom::new(&r, vec![0]), &[0], None, None)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.misses, 2, "uncached lookups rebuild every time");
    }

    #[test]
    fn many_eviction_insert_keeps_byte_accounting_exact() {
        // Regression/perf companion: one insert that evicts *many* small
        // entries (the single-pass victim collection) must leave the byte
        // accounting exact — resident bytes equal the sum of the surviving
        // entries' insert-time sizes.
        let dict = SharedDictionary::new();
        let per_trie = trie_bytes(1);
        // Room for ~8 single-row tries.
        let budget = 8 * per_trie + per_trie / 2;
        let cache = TrieCache::with_byte_budget(budget);
        let small: Vec<Relation> = (0..8)
            .map(|i| rel(&dict, &format!("S{i}"), vec![vec![10.0 + i as f64]]))
            .collect();
        for r in &small {
            cache
                .tries_for(&BoundAtom::new(r, vec![0]), &[0], None, None)
                .unwrap();
        }
        let before = cache.stats();
        assert_eq!(before.entries, 8);
        assert_eq!(before.evictions, 0);
        // A single large insert (~6 single-row tries' worth: a one-level
        // trie grows by one 4-byte id per distinct value) must evict several
        // small entries at once.
        let big_rows = 5 * per_trie / 4;
        let big = rel(
            &dict,
            "BIG",
            (0..big_rows).map(|i| vec![500.0 + i as f64]).collect(),
        );
        cache
            .tries_for(&BoundAtom::new(&big, vec![0]), &[0], None, None)
            .unwrap();
        let after = cache.stats();
        assert!(
            after.evictions >= 2,
            "one oversized insert should evict several small entries, got {after:?}"
        );
        assert!(after.resident_bytes <= budget);
        // Exactness: `stats()` audits the resident total against the sum of
        // the surviving slots' insert-time sizes in debug builds, so a leak
        // in the multi-victim subtraction above would have failed there;
        // what remains is the survivors plus the big entry, nothing else.
        assert_eq!(after.entries, 8 - after.evictions + 1);
        assert_eq!(
            after.resident_bytes,
            (8 - after.evictions) * per_trie + trie_bytes(big_rows)
        );
    }

    #[test]
    fn the_ledger_counts_only_its_own_lookups_and_plans() {
        let dict = SharedDictionary::new();
        let cache = TrieCache::with_byte_budget(trie_bytes(1));
        let r = rel(&dict, "R", vec![vec![1.0]]);
        let s = rel(&dict, "S", vec![vec![2.0]]);
        // Another caller's activity (no accumulator attached).
        cache
            .tries_for(&BoundAtom::new(&r, vec![0]), &[0], None, None)
            .unwrap();
        let mine = EvalActivity::new();
        // My lookups: one miss that evicts R, then one hit.
        cache
            .tries_for(&BoundAtom::new(&s, vec![0]), &[0], Some(&mine), None)
            .unwrap();
        cache
            .tries_for(&BoundAtom::new(&s, vec![0]), &[0], Some(&mine), None)
            .unwrap();
        assert_eq!(mine.hits(), 1);
        assert_eq!(mine.misses(), 1);
        assert_eq!(mine.evictions(), 1, "my insert evicted the resident entry");
        // The shared counters saw everyone; my ledger saw only me.
        let total = cache.stats();
        assert_eq!(total.misses, 2);
        assert_eq!(total.hits, 1);
        // Plans and their time add up beside the lookups.
        mine.record_plan(10);
        mine.record_plan(5);
        assert_eq!(mine.plans(), 2);
        assert_eq!(mine.planning_nanos(), 15);
    }

    #[test]
    fn a_cache_computes_each_decomposition_once() {
        // The triangle R(A, B) ∧ S(B, C) ∧ T(A, C).
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0]]);
        let atoms = [
            BoundAtom::new(&r, vec![0, 1]),
            BoundAtom::new(&r, vec![1, 2]),
            BoundAtom::new(&r, vec![0, 2]),
        ];
        let h = crate::hypergraph_of(&atoms).0;
        let cache = TrieCache::new();
        let first = cache.decomposition(&h);
        assert_eq!(first.bags.len(), 1, "one bag {{A, B, C}}");
        assert!(Arc::ptr_eq(&first, &cache.decomposition(&h)));
        // Another cache owns another memo: it computes its own.
        let other = TrieCache::new().decomposition(&h);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(other.bags, first.bags);
    }

    #[test]
    fn eviction_keeps_byte_accounting_consistent() {
        // Room for S (two rows) alone, so inserting it must evict R.
        let dict = SharedDictionary::new();
        let s_bytes = trie_bytes(2);
        let cache = TrieCache::with_byte_budget(s_bytes);
        let r = rel(&dict, "R", vec![vec![1.0]]);
        let s = rel(&dict, "S", vec![vec![2.0], vec![3.0]]);
        cache
            .tries_for(&BoundAtom::new(&r, vec![0]), &[0], None, None)
            .unwrap();
        assert_eq!(cache.stats().resident_bytes, trie_bytes(1));
        // The resident bytes must now describe S only.
        cache
            .tries_for(&BoundAtom::new(&s, vec![0]), &[0], None, None)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_bytes, s_bytes);
    }
}
