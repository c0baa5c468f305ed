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
//!    known).  The per-bag projections of
//!    [`materialise_bag_with`](crate::materialise_bag_with) are still fresh
//!    copies, hashed on every lookup;
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
//! that open-ended lifetime comes from **LRU eviction** against two
//! independent budgets ([`TrieCache::with_limits`]):
//!
//! * an **entry budget** — at most `capacity` resident entries;
//! * a **byte budget** — every entry carries the estimated heap size of its
//!   trie ([`FlatTrie::heap_bytes`]), the cache tracks
//!   the resident total ([`TrieCacheStats::resident_bytes`]), and inserting
//!   past the budget evicts least-recently-used entries until the new entry
//!   fits.  A single build larger than the whole byte budget is handed to
//!   the caller *uncached* — the budget is an upper bound on resident
//!   bytes, never exceeded to accommodate an oversized entry.
//!
//! Every entry carries a last-used stamp from a relaxed global clock; an
//! insert over either budget evicts the least-recently-used entries first
//! (counted in [`TrieCacheStats::evictions`]).  Eviction only ever drops
//! *reuse*, never correctness: a future lookup of an evicted key rebuilds
//! the trie from the relation.
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
//! # Ownership: tenants, quotas and exact attribution
//!
//! Every lookup carries an **owner** ([`TenantId`], threaded down through
//! [`EvalContext::tenant`]).  The cache keeps a per-tenant ledger —
//! hit/miss/eviction counters plus the resident bytes of the entries that
//! tenant inserted ([`TrieCache::tenant_stats`]) — and enforces an optional
//! **per-tenant byte quota** ([`TrieCache::set_tenant_quota`]): an insert
//! that would push its owner over quota first evicts that owner's *own*
//! least-recently-used entries, so a noisy tenant sheds its own warmth
//! instead of everyone else's.  The pooled entry/byte budgets stay the hard
//! ceiling, enforced by the shared LRU across all owners.
//!
//! Attribution of per-evaluation statistics is **exact under any
//! concurrency**: an evaluation passes its own [`CacheActivity`] accumulator
//! down through [`EvalContext::activity`] and every lookup it performs bumps
//! those local counters — no before/after snapshots of the shared counters,
//! so concurrent evaluations on one cache can never steal each other's hits,
//! misses or evictions.

use crate::flat::FlatTrie;
use crate::BoundAtom;
use ij_hypergraph::VarId;
use ij_relation::sync::{read_recover, write_recover};

/// Lock class of the cache's key → slot map (`sync::lock_order`).  The
/// recorded nesting is `trie-cache-map` → `trie-cache-tenants`
/// (`remove_slot` settles the evicted owner's ledger under the map's
/// write lock); the reverse never occurs — `ledger()` drops the tenants
/// lock before returning.
const CACHE_MAP: &str = "trie-cache-map";
/// Lock class of the tenant-ledger registry (see [`CACHE_MAP`]).
const CACHE_TENANTS: &str = "trie-cache-tenants";
use ij_relation::{faults, CancellationToken, EvalError, Relation};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// A 128-bit content fingerprint of a relation's id columns.
///
/// Two relations with equal arity, row count and column ids (in order) get
/// the same fingerprint; the two independent 64-bit mixing lanes make an
/// accidental collision between *different* contents astronomically unlikely
/// (~2⁻¹²⁸), which is what lets the trie cache treat the fingerprint as
/// identity.  Names are deliberately ignored: a projection recomputed by two
/// disjuncts under different names still shares one trie.
///
/// The value is memoized per relation ([`Relation::fingerprint_with`]), so
/// repeated cache lookups against the same relation — a transformed relation
/// of the reduction, or a [`Relation::projection`] hanging off one — hash its
/// columns once.
pub fn relation_fingerprint(relation: &Relation) -> (u64, u64) {
    relation.fingerprint_with(compute_fingerprint)
}

fn compute_fingerprint(relation: &Relation) -> (u64, u64) {
    const M1: u64 = 0x9E37_79B9_7F4A_7C15;
    const M2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let mix = |state: u64, v: u64, m: u64| ((state ^ v).wrapping_mul(m)).rotate_left(29);
    let mut a = 0x243F_6A88_85A3_08D3u64;
    let mut b = 0x4528_21E6_38D0_1377u64;
    a = mix(a, relation.arity() as u64, M1);
    b = mix(b, relation.arity() as u64, M2);
    a = mix(a, relation.len() as u64, M1);
    b = mix(b, relation.len() as u64, M2);
    for col in 0..relation.arity() {
        a = mix(a, 0xFEED_C01D, M1);
        b = mix(b, 0xFEED_C01D, M2);
        for &id in relation.column_ids(col) {
            a = mix(a, id.raw() as u64, M1);
            b = mix(b, id.raw() as u64, M2);
        }
    }
    (a, b)
}

/// The owner of cache activity: a small dense identifier tagging every
/// lookup (and every resident entry) with the tenant that performed it.
///
/// Tenants are an *accounting* concept, not an isolation one: tenants of one
/// cache share entries (a hit is a hit no matter who inserted the entry), but
/// hits, misses, evictions and resident bytes are metered per tenant
/// ([`TrieCache::tenant_stats`]) and a per-tenant byte quota caps what one
/// tenant may keep resident ([`TrieCache::set_tenant_quota`]).  Engines
/// default to [`TenantId::DEFAULT`]; a multi-tenant service assigns one id
/// per tenant (`Workspace::tenant(name)` in the engine crate hands out
/// registered sub-handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(u32);

impl TenantId {
    /// The anonymous default owner used when no tenant is configured.
    pub const DEFAULT: TenantId = TenantId(0);

    /// Reconstructs a tenant id from its raw index.
    pub fn from_raw(raw: u32) -> TenantId {
        TenantId(raw)
    }

    /// The raw index.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// A point-in-time snapshot of one tenant's ledger in a [`TrieCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCacheStats {
    /// This tenant's lookups answered from the cache (entries inserted by
    /// *any* tenant count — sharing is the point of one cache).
    pub hits: usize,
    /// This tenant's lookups that had to build.
    pub misses: usize,
    /// Entries **owned by** this tenant dropped by LRU eviction — whether
    /// forced by the tenant's own quota or by the pooled budgets.
    pub evictions: usize,
    /// Resident entries this tenant inserted.
    pub entries: usize,
    /// Estimated heap bytes of this tenant's resident entries; never exceeds
    /// [`TenantCacheStats::quota_bytes`] when a quota is set.
    pub resident_bytes: usize,
    /// The tenant's byte quota (`0` = none).
    pub quota_bytes: usize,
}

/// Evaluation-local cache counters: the accumulator an evaluation passes
/// down via [`EvalContext::activity`] so its per-evaluation statistics are
/// **exact** — counted by the lookups the evaluation itself performs —
/// rather than inferred from racy before/after snapshots of the shared
/// cache's counters (which would attribute a concurrent evaluation's
/// activity to whichever windows overlap it).
///
/// The counters are relaxed atomics because one evaluation's disjunct
/// workers share the accumulator across threads.
#[derive(Debug, Default)]
pub struct CacheActivity {
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl CacheActivity {
    /// A fresh all-zero accumulator.
    pub fn new() -> Self {
        CacheActivity::default()
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Evictions *triggered by* this evaluation's inserts (the evicted
    /// entries may belong to any tenant).
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// A resolved per-tenant accounting identity on one [`TrieCache`]: the
/// tenant id plus a direct reference to its ledger.
///
/// Obtained from [`TrieCache::tenant_handle`] and carried through
/// [`EvalContext::tenant`]: resolving the ledger once per evaluation keeps
/// the per-lookup hit path free of the tenant-registry lock.  The handle is
/// only meaningful on the cache that produced it.
#[derive(Debug, Clone)]
pub struct TenantHandle {
    id: TenantId,
    ledger: Arc<TenantLedger>,
}

impl TenantHandle {
    /// The tenant this handle meters as.
    pub fn id(&self) -> TenantId {
        self.id
    }
}

/// One tenant's mutable ledger inside the cache: activity counters (relaxed
/// atomics, bumped on the lookup paths) plus resident-byte accounting and
/// the byte quota.  `resident_bytes` is only mutated under the map's write
/// lock, exactly like the cache-wide total.
#[derive(Debug, Default)]
struct TenantLedger {
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    resident_bytes: AtomicUsize,
    /// Byte quota (`0` = none); enforced against `resident_bytes` on every
    /// insert, and immediately when (re)set lower than the current residency.
    quota: AtomicUsize,
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
    /// Entries dropped by LRU eviction to stay within the entry or byte
    /// budget.
    pub evictions: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated heap bytes of the resident entries
    /// ([`FlatTrie::heap_bytes`] summed over every cached trie).  Never
    /// exceeds a configured byte budget ([`TrieCache::with_limits`]).
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
/// (fixed at insert time), the tenant that inserted it (for per-tenant
/// byte accounting and quota eviction), and a last-used stamp for the LRU
/// policy (bumped with a relaxed store on every hit, so recency tracking
/// never needs the write lock).
#[derive(Debug)]
struct CacheSlot {
    trie: Arc<FlatTrie>,
    bytes: usize,
    owner: TenantId,
    last_used: AtomicU64,
}

/// A thread-safe cache of built tries, shared across the disjuncts of one
/// evaluation *and* — because keys start from content fingerprints — across
/// any number of evaluations (see the module docs for keying, lifetime and
/// concurrency).
///
/// The engine owns one cache per engine instance and hands it to every
/// disjunct worker of every [`evaluate_reduction`] call; standalone users of
/// the ejoin crate can share one across any sequence of
/// [`evaluate_ej_boolean_with`] calls (the cache stores owned tries, so
/// there is no borrow coupling to the source relations).
///
/// [`evaluate_reduction`]: https://docs.rs/ij-engine
/// [`evaluate_ej_boolean_with`]: crate::evaluate_ej_boolean_with
#[derive(Debug, Default)]
pub struct TrieCache {
    /// Maximum resident entries; `0` means unbounded.  When full, inserting
    /// a new entry evicts the least-recently-used one.
    capacity: usize,
    /// Maximum resident heap bytes (estimated); `0` means unbounded.
    byte_budget: usize,
    map: RwLock<HashMap<TrieKey, CacheSlot>>,
    /// Per-tenant ledgers, registered lazily on first use.  Lock order: the
    /// ledger map is only ever acquired *after* (or without) `map`'s lock,
    /// never before it.
    tenants: RwLock<HashMap<TenantId, Arc<TenantLedger>>>,
    /// Estimated heap bytes of the resident entries; mutated only under the
    /// map's write lock, read relaxed by [`TrieCache::stats`].
    resident_bytes: AtomicUsize,
    /// Monotonic recency clock; every lookup draws a fresh stamp.
    clock: AtomicU64,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl TrieCache {
    /// An unbounded cache.
    pub fn new() -> Self {
        TrieCache::default()
    }

    /// A cache holding at most `capacity` entries (`0` = unbounded), evicting
    /// least-recently-used entries once full.
    pub fn with_capacity(capacity: usize) -> Self {
        TrieCache::with_limits(capacity, 0)
    }

    /// A cache bounded by both an entry budget and a byte budget (either may
    /// be `0` = unbounded).  `bytes` caps the *estimated* resident heap size
    /// ([`FlatTrie::heap_bytes`]); inserting past either budget evicts
    /// least-recently-used entries first, and a single build larger than the
    /// whole byte budget is returned to the caller uncached.  This is the
    /// knob a service operator actually wants: a memory budget instead of an
    /// entry count whose per-entry size depends on the workload.
    pub fn with_limits(capacity: usize, bytes: usize) -> Self {
        TrieCache {
            capacity,
            byte_budget: bytes,
            ..TrieCache::default()
        }
    }

    /// Snapshot of the hit/miss/eviction counters and the resident entry /
    /// byte state.
    ///
    /// All fields are read under one acquisition of the map's read lock.
    /// `entries`, `resident_bytes` and `evictions` are only mutated under
    /// the map's *write* lock, so the snapshot is internally consistent: a
    /// caller can never observe a torn pair such as `entries == 0` with
    /// `resident_bytes > 0` (which the previous independent relaxed loads
    /// allowed, breaking invariant-checking tests and operators).
    pub fn stats(&self) -> TrieCacheStats {
        let map = read_recover(&self.map, CACHE_MAP);
        TrieCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: map.len(),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of one tenant's ledger: its activity counters, its resident
    /// entries/bytes, and its quota.  Like [`TrieCache::stats`], the
    /// resident state is read under one acquisition of the map's read lock,
    /// so `entries` and `resident_bytes` are never torn.
    pub fn tenant_stats(&self, tenant: TenantId) -> TenantCacheStats {
        let map = read_recover(&self.map, CACHE_MAP);
        let entries = map.values().filter(|slot| slot.owner == tenant).count();
        let ledger = self.ledger(tenant);
        TenantCacheStats {
            hits: ledger.hits.load(Ordering::Relaxed),
            misses: ledger.misses.load(Ordering::Relaxed),
            evictions: ledger.evictions.load(Ordering::Relaxed),
            entries,
            resident_bytes: ledger.resident_bytes.load(Ordering::Relaxed),
            quota_bytes: ledger.quota.load(Ordering::Relaxed),
        }
    }

    /// Sets (or clears, with `0`) `tenant`'s byte quota: the estimated
    /// resident heap bytes of the entries *this tenant inserted* never
    /// exceed it.  An insert that would go over evicts the tenant's **own**
    /// least-recently-used entries first — the pooled byte budget (which
    /// stays the hard ceiling across all tenants) is untouched by a tenant
    /// shedding its own warmth.  Setting a quota below the tenant's current
    /// residency evicts immediately.  Like every budget, quotas bound
    /// memory, never correctness: an over-quota build is handed to the
    /// caller uncached.
    pub fn set_tenant_quota(&self, tenant: TenantId, bytes: usize) {
        let ledger = self.ledger(tenant);
        if bytes == 0 {
            // Clearing a quota only relaxes enforcement; an in-flight insert
            // reading the old (stricter) value is benign.
            ledger.quota.store(0, Ordering::Relaxed);
            return;
        }
        // A nonzero quota is stored — and immediately enforced — under the
        // map's write lock.  That is what synchronizes it with in-flight
        // inserts: `tries_for` re-reads the quota under this same lock, so
        // an insert either committed before we acquired the lock (its bytes
        // are visible to the eviction pass below) or acquires the lock after
        // we release it (and then sees the new quota, never a stale higher
        // one).
        let mut map = write_recover(&self.map, CACHE_MAP);
        ledger.quota.store(bytes, Ordering::Relaxed);
        self.evict_tenant_lru(&mut map, tenant, &ledger, 0, bytes);
    }

    /// The tenant's current byte quota (`0` = none).
    pub fn tenant_quota(&self, tenant: TenantId) -> usize {
        self.ledger(tenant).quota.load(Ordering::Relaxed)
    }

    /// A resolved handle to `tenant`'s ledger.  An evaluation obtains one
    /// handle up front and carries it through [`EvalContext::tenant`], so
    /// its (many) lookups bump the ledger through the handle instead of
    /// re-probing the tenant registry on every cache lookup — the hit
    /// fast-path stays one map read lock plus relaxed atomics.
    pub fn tenant_handle(&self, tenant: TenantId) -> TenantHandle {
        TenantHandle {
            id: tenant,
            ledger: self.ledger(tenant),
        }
    }

    /// The tenant's ledger, registered on first use (read-probe with a write
    /// upgrade on a genuine miss, like the dictionary stripes).
    fn ledger(&self, tenant: TenantId) -> Arc<TenantLedger> {
        if let Some(ledger) = read_recover(&self.tenants, CACHE_TENANTS).get(&tenant) {
            return Arc::clone(ledger);
        }
        Arc::clone(
            write_recover(&self.tenants, CACHE_TENANTS)
                .entry(tenant)
                .or_default(),
        )
    }

    /// The trie of `atom` under `global_order` — served from the cache when
    /// an identical build was already done, built and retained (evicting LRU
    /// entries if a budget is exceeded) otherwise.
    ///
    /// The lookup is performed **as** `tenant`'s owner (the anonymous
    /// [`TenantId::DEFAULT`] when `None`): the owner's ledger is metered
    /// alongside the cache-wide counters, the owner's byte quota (if any) is
    /// enforced on insert — evicting the owner's own LRU entries first — and
    /// `activity` (if any) accumulates the caller's exact per-evaluation
    /// statistics.
    ///
    /// A miss builds cooperatively under `token` (if any) and surfaces
    /// cancellation / deadline failures as [`EvalError`].  A failed build
    /// mutates nothing: the `cache-insert` failpoint and every fallible step
    /// sit **before** the first accounting mutation under the write lock, so
    /// the ledgers and resident-byte totals always describe exactly the
    /// resident entries (see `ij_relation::sync`).
    pub(crate) fn tries_for(
        &self,
        atom: &BoundAtom<'_>,
        global_order: &[VarId],
        tenant: Option<&TenantHandle>,
        activity: Option<&CacheActivity>,
        token: Option<&CancellationToken>,
    ) -> Result<Arc<FlatTrie>, EvalError> {
        let key = TrieKey {
            fingerprint: relation_fingerprint(atom.relation),
            vars: atom.vars.clone(),
            levels: crate::trie::trie_level_vars(atom, global_order),
        };
        let fallback;
        let (owner, ledger): (TenantId, &TenantLedger) = match tenant {
            Some(handle) => (handle.id, &handle.ledger),
            None => {
                fallback = self.ledger(TenantId::DEFAULT);
                (TenantId::DEFAULT, &fallback)
            }
        };
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(slot) = read_recover(&self.map, CACHE_MAP).get(&key) {
            slot.last_used.store(now, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            ledger.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(a) = activity {
                a.hits.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(Arc::clone(&slot.trie));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        ledger.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(a) = activity {
            a.misses.fetch_add(1, Ordering::Relaxed);
        }
        let built = Arc::new(FlatTrie::build(atom, global_order, token)?);
        let new_bytes: usize = built.heap_bytes();
        if self.byte_budget > 0 && new_bytes > self.byte_budget {
            // An entry that alone exceeds the whole byte budget can never be
            // resident within it; hand it to the caller uncached.
            return Ok(built);
        }
        let mut map = write_recover(&self.map, CACHE_MAP);
        // Failpoint before any accounting mutation: an injected panic here
        // poisons the lock but leaves the guarded state untouched, which is
        // exactly the consistency contract the poison-recovering helpers
        // rely on.
        faults::point("cache-insert");
        if let Some(existing) = map.get(&key) {
            // Lost an insert race; adopt the winner so all workers share.
            existing.last_used.store(now, Ordering::Relaxed);
            return Ok(Arc::clone(&existing.trie));
        }
        // The quota is read under the map's write lock, and nonzero quotas
        // are *stored* under the same lock (`set_tenant_quota`): any setter
        // that completed before we acquired the lock is therefore visible
        // here, so a stale read can never override a lowered quota and
        // leave the tenant resident above it.
        let quota = ledger.quota.load(Ordering::Relaxed);
        if quota > 0 && new_bytes > quota {
            // Like the pooled budget: an entry that alone exceeds the
            // owner's quota could only become resident by exceeding it.
            return Ok(built);
        }
        // Quota-aware eviction first: an over-quota owner evicts its *own*
        // least-recently-used entries until the insert fits its quota, so a
        // noisy tenant never pushes its overflow onto its neighbors.
        let mut evicted_now = 0usize;
        if quota > 0 {
            evicted_now += self.evict_tenant_lru(&mut map, owner, ledger, new_bytes, quota);
        }
        // Then the pooled budgets — the hard ceiling across all owners:
        // collect every entry's recency stamp in one pass, sort once, and
        // evict in LRU order until the insert fits.  (The former per-victim
        // `min_by_key` re-scan was O(entries × victims) under the write
        // lock; this is O(entries log entries) regardless of victim count.)
        let over_budget = |map: &HashMap<TrieKey, CacheSlot>| {
            (self.capacity > 0 && map.len() >= self.capacity)
                || (self.byte_budget > 0
                    && self.resident_bytes.load(Ordering::Relaxed) + new_bytes > self.byte_budget)
        };
        if over_budget(&map) {
            let mut victims: Vec<(u64, TrieKey)> = map
                .iter()
                .map(|(k, slot)| (slot.last_used.load(Ordering::Relaxed), k.clone()))
                .collect();
            victims.sort_unstable_by_key(|&(stamp, _)| stamp);
            for (_, victim) in victims {
                if !over_budget(&map) {
                    break;
                }
                self.remove_slot(&mut map, &victim);
                evicted_now += 1;
            }
        }
        if evicted_now > 0 {
            if let Some(a) = activity {
                a.evictions.fetch_add(evicted_now, Ordering::Relaxed);
            }
        }
        self.resident_bytes.fetch_add(new_bytes, Ordering::Relaxed);
        ledger
            .resident_bytes
            .fetch_add(new_bytes, Ordering::Relaxed);
        map.insert(
            key,
            CacheSlot {
                trie: Arc::clone(&built),
                bytes: new_bytes,
                owner,
                last_used: AtomicU64::new(now),
            },
        );
        Ok(built)
    }

    /// Evicts `tenant`'s own entries in LRU order until its resident bytes
    /// plus `headroom` fit within `quota`.  Returns the number of evictions.
    /// Must be called with the map's write lock held (hence the `&mut`).
    fn evict_tenant_lru(
        &self,
        map: &mut HashMap<TrieKey, CacheSlot>,
        tenant: TenantId,
        ledger: &TenantLedger,
        headroom: usize,
        quota: usize,
    ) -> usize {
        if ledger.resident_bytes.load(Ordering::Relaxed) + headroom <= quota {
            return 0;
        }
        let mut own: Vec<(u64, TrieKey)> = map
            .iter()
            .filter(|(_, slot)| slot.owner == tenant)
            .map(|(k, slot)| (slot.last_used.load(Ordering::Relaxed), k.clone()))
            .collect();
        own.sort_unstable_by_key(|&(stamp, _)| stamp);
        let mut evicted = 0usize;
        for (_, victim) in own {
            if ledger.resident_bytes.load(Ordering::Relaxed) + headroom <= quota {
                break;
            }
            self.remove_slot(map, &victim);
            evicted += 1;
        }
        evicted
    }

    /// Removes one entry and settles all accounting: the cache-wide resident
    /// bytes and eviction counter, and the evicted slot's **owner's** ledger
    /// (its bytes shrink and its eviction counter grows — whoever triggered
    /// the eviction).  Must be called with the map's write lock held.
    fn remove_slot(&self, map: &mut HashMap<TrieKey, CacheSlot>, key: &TrieKey) {
        if let Some(slot) = map.remove(key) {
            self.resident_bytes.fetch_sub(slot.bytes, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            let owner = self.ledger(slot.owner);
            owner
                .resident_bytes
                .fetch_sub(slot.bytes, Ordering::Relaxed);
            owner.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Shared runtime options for one equality-join evaluation: the trie cache
/// (if any) and the cache-accounting identity — which tenant the lookups are
/// performed as, and which evaluation-local accumulator they are counted
/// into.
///
/// The `*_with` entry points ([`evaluate_ej_boolean_with`],
/// [`generic_join_boolean_with`], …) take an `EvalContext` and thread it down
/// to every trie build of the evaluation — including the per-bag joins of the
/// decomposition-guided strategy.  The plain entry points use
/// `EvalContext::default()`: no cache, the default tenant, no local
/// accounting, no token, adaptive planning.
///
/// [`evaluate_ej_boolean_with`]: crate::evaluate_ej_boolean_with
/// [`generic_join_boolean_with`]: crate::generic_join_boolean_with
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalContext<'c> {
    /// Trie cache shared across calls; `None` rebuilds tries every time.
    pub cache: Option<&'c TrieCache>,
    /// The owner every cache lookup of this evaluation is metered as (and
    /// whose byte quota, if any, governs this evaluation's inserts).
    /// Resolved once per evaluation via [`TrieCache::tenant_handle`];
    /// `None` meters as [`TenantId::DEFAULT`].
    pub tenant: Option<&'c TenantHandle>,
    /// Evaluation-local accumulator for exact per-evaluation cache
    /// statistics; `None` skips local accounting (the shared and per-tenant
    /// counters are always maintained).
    pub activity: Option<&'c CacheActivity>,
    /// Cooperative cancellation / deadline token polled by the evaluation's
    /// long-running loops (trie builds, candidate intersection, reduction
    /// transforms) every [`CancellationToken::check_interval`] units of
    /// work; `None` runs to completion.
    pub token: Option<&'c CancellationToken>,
    /// How each disjunct's variable order is chosen
    /// ([`PlanMode::Adaptive`](crate::PlanMode) by default; see
    /// [`crate::plan`]).  Answer-preserving.
    pub plan_mode: crate::plan::PlanMode,
    /// Evaluation-local accumulator for planning statistics (time spent,
    /// disjuncts planned, distinct orders chosen); `None` skips the
    /// accounting.
    pub planning: Option<&'c crate::plan::PlanActivity>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_relation::{Relation, Value};

    fn rel(name: &str, rows: Vec<Vec<f64>>) -> Relation {
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        Relation::from_tuples(
            name,
            arity,
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::point).collect())
                .collect(),
        )
    }

    #[test]
    fn fingerprint_ignores_names_but_not_content() {
        let a = rel("A", vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = rel("B", vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let c = rel("C", vec![vec![1.0, 2.0], vec![3.0, 5.0]]);
        assert_eq!(relation_fingerprint(&a), relation_fingerprint(&b));
        assert_ne!(relation_fingerprint(&a), relation_fingerprint(&c));
        // Row order matters (tries collapse duplicates, but a multiset
        // difference must never collide).
        let d = rel("D", vec![vec![3.0, 4.0], vec![1.0, 2.0]]);
        assert_ne!(relation_fingerprint(&a), relation_fingerprint(&d));
    }

    #[test]
    fn identical_builds_hit_distinct_builds_miss() {
        let cache = TrieCache::new();
        let r = rel("R", vec![vec![1.0, 2.0], vec![1.0, 3.0]]);
        let s = rel("S", vec![vec![1.0, 2.0], vec![1.0, 3.0]]);
        let atom_r = BoundAtom::new(&r, vec![0, 1]);
        let first = cache.tries_for(&atom_r, &[0, 1], None, None, None).unwrap();
        // Same content under a different name: a hit, sharing the same trie.
        let atom_s = BoundAtom::new(&s, vec![0, 1]);
        let second = cache.tries_for(&atom_s, &[0, 1], None, None, None).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        // Different binding or level order: separate entries.
        cache
            .tries_for(&BoundAtom::new(&r, vec![1, 0]), &[0, 1], None, None, None)
            .unwrap();
        cache.tries_for(&atom_r, &[1, 0], None, None, None).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn full_cache_evicts_least_recently_used() {
        let cache = TrieCache::with_capacity(1);
        let r = rel("R", vec![vec![1.0]]);
        let s = rel("S", vec![vec![2.0]]);
        cache
            .tries_for(&BoundAtom::new(&r, vec![0]), &[0], None, None, None)
            .unwrap();
        // Inserting S evicts R (the only, hence least-recent, entry).
        cache
            .tries_for(&BoundAtom::new(&s, vec![0]), &[0], None, None, None)
            .unwrap();
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 1);
        // The resident entry hits; the evicted one rebuilds (a miss).
        cache
            .tries_for(&BoundAtom::new(&s, vec![0]), &[0], None, None, None)
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        cache
            .tries_for(&BoundAtom::new(&r, vec![0]), &[0], None, None, None)
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
        let probe = rel("P", vec![vec![0.5]]);
        let per_trie = TrieCache::new()
            .tries_for(&BoundAtom::new(&probe, vec![0]), &[0], None, None, None)
            .unwrap()
            .heap_bytes();
        assert!(per_trie > 0);
        let budget = 3 * per_trie + per_trie / 2;
        let cache = TrieCache::with_limits(0, budget);
        let relations: Vec<Relation> = (0..6)
            .map(|i| rel(&format!("R{i}"), vec![vec![100.0 + i as f64]]))
            .collect();
        for r in &relations {
            cache
                .tries_for(&BoundAtom::new(r, vec![0]), &[0], None, None, None)
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
            .tries_for(
                &BoundAtom::new(&relations[5], vec![0]),
                &[0],
                None,
                None,
                None,
            )
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().resident_bytes, before);
    }

    #[test]
    fn oversized_builds_bypass_the_cache_entirely() {
        // A budget smaller than any single trie: nothing is ever resident,
        // nothing is ever evicted, and lookups still return working tries.
        let cache = TrieCache::with_limits(0, 1);
        let r = rel("R", vec![vec![1.0], vec![2.0]]);
        let first = cache
            .tries_for(&BoundAtom::new(&r, vec![0]), &[0], None, None, None)
            .unwrap();
        assert_eq!(first.level_len(0), 2);
        cache
            .tries_for(&BoundAtom::new(&r, vec![0]), &[0], None, None, None)
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
        // entries' insert-time sizes, cache-wide and per tenant.
        let probe = rel("P", vec![vec![0.5]]);
        let per_trie = TrieCache::new()
            .tries_for(&BoundAtom::new(&probe, vec![0]), &[0], None, None, None)
            .unwrap()
            .heap_bytes();
        assert!(per_trie > 0);
        // Room for ~8 single-row tries.
        let budget = 8 * per_trie + per_trie / 2;
        let cache = TrieCache::with_limits(0, budget);
        let small: Vec<Relation> = (0..8)
            .map(|i| rel(&format!("S{i}"), vec![vec![10.0 + i as f64]]))
            .collect();
        for r in &small {
            cache
                .tries_for(&BoundAtom::new(r, vec![0]), &[0], None, None, None)
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
            "BIG",
            (0..big_rows).map(|i| vec![500.0 + i as f64]).collect(),
        );
        cache
            .tries_for(&BoundAtom::new(&big, vec![0]), &[0], None, None, None)
            .unwrap();
        let after = cache.stats();
        assert!(
            after.evictions >= 2,
            "one oversized insert should evict several small entries, got {after:?}"
        );
        assert!(after.resident_bytes <= budget);
        // The per-tenant ledger agrees with the cache-wide accounting.
        let tenant_view = cache.tenant_stats(TenantId::DEFAULT);
        assert_eq!(tenant_view.resident_bytes, after.resident_bytes);
        assert_eq!(tenant_view.entries, after.entries);
        assert_eq!(tenant_view.evictions, after.evictions);
        // Exactness: drain *this* cache by dropping its only tenant's quota
        // to one byte — every eviction subtracts its slot's insert-time
        // size, so the resident totals must return to exactly zero (any
        // leak in the multi-victim subtraction above would survive here).
        cache.set_tenant_quota(TenantId::DEFAULT, 1);
        let drained = cache.stats();
        assert_eq!(drained.entries, 0, "{drained:?}");
        assert_eq!(drained.resident_bytes, 0, "{drained:?}");
        assert_eq!(cache.tenant_stats(TenantId::DEFAULT).resident_bytes, 0);
    }

    #[test]
    fn tenant_quota_evicts_the_owners_entries_first() {
        let probe = rel("P", vec![vec![0.5]]);
        let per_trie = TrieCache::new()
            .tries_for(&BoundAtom::new(&probe, vec![0]), &[0], None, None, None)
            .unwrap()
            .heap_bytes();
        let victim = TenantId::from_raw(1);
        let noisy = TenantId::from_raw(2);
        let cache = TrieCache::new(); // no pooled budget: quota acts alone
        let victim_h = cache.tenant_handle(victim);
        let noisy_h = cache.tenant_handle(noisy);
        cache.set_tenant_quota(noisy, 2 * per_trie + per_trie / 2);
        assert_eq!(cache.tenant_quota(noisy), 2 * per_trie + per_trie / 2);

        // The victim inserts first (its entries are the LRU of the pool)…
        let vr = rel("V", vec![vec![1.0]]);
        cache
            .tries_for(
                &BoundAtom::new(&vr, vec![0]),
                &[0],
                Some(&victim_h),
                None,
                None,
            )
            .unwrap();
        // …then the noisy tenant floods five distinct entries through a
        // two-entry quota: it must evict only its *own* LRU entries.
        let noisy_rels: Vec<Relation> = (0..5)
            .map(|i| rel(&format!("N{i}"), vec![vec![100.0 + i as f64]]))
            .collect();
        for r in &noisy_rels {
            cache
                .tries_for(
                    &BoundAtom::new(r, vec![0]),
                    &[0],
                    Some(&noisy_h),
                    None,
                    None,
                )
                .unwrap();
            let ns = cache.tenant_stats(noisy);
            assert!(
                ns.resident_bytes <= ns.quota_bytes,
                "noisy resident {} exceeds quota {}",
                ns.resident_bytes,
                ns.quota_bytes
            );
        }
        let ns = cache.tenant_stats(noisy);
        assert_eq!(ns.misses, 5);
        assert_eq!(ns.evictions, 3, "five inserts through a two-entry quota");
        assert_eq!(ns.entries, 2);
        // The victim's entry survived the neighbor's churn: a repeat lookup
        // hits, and its ledger shows no evictions.
        let vs = cache.tenant_stats(victim);
        assert_eq!(vs.evictions, 0);
        assert_eq!(vs.entries, 1);
        cache
            .tries_for(
                &BoundAtom::new(&vr, vec![0]),
                &[0],
                Some(&victim_h),
                None,
                None,
            )
            .unwrap();
        assert_eq!(cache.tenant_stats(victim).hits, 1);
        // A build larger than the quota alone (4 bytes per distinct value,
        // so ~5 single-row tries' worth) stays uncached.
        let big = rel(
            "BIGN",
            (0..per_trie).map(|i| vec![900.0 + i as f64]).collect(),
        );
        cache
            .tries_for(
                &BoundAtom::new(&big, vec![0]),
                &[0],
                Some(&noisy_h),
                None,
                None,
            )
            .unwrap();
        assert_eq!(
            cache.tenant_stats(noisy).entries,
            2,
            "oversized build bypasses"
        );
        // Lowering a quota below current residency evicts immediately.
        cache.set_tenant_quota(noisy, per_trie + per_trie / 2);
        assert_eq!(cache.tenant_stats(noisy).entries, 1);
        assert!(cache.tenant_stats(noisy).resident_bytes <= cache.tenant_quota(noisy));
    }

    #[test]
    fn activity_accumulator_counts_only_its_own_lookups() {
        let cache = TrieCache::with_capacity(1);
        let r = rel("R", vec![vec![1.0]]);
        let s = rel("S", vec![vec![2.0]]);
        // Another caller's activity (no accumulator attached).
        cache
            .tries_for(&BoundAtom::new(&r, vec![0]), &[0], None, None, None)
            .unwrap();
        let mine = CacheActivity::new();
        // My lookups: one miss that evicts R, then one hit.
        cache
            .tries_for(&BoundAtom::new(&s, vec![0]), &[0], None, Some(&mine), None)
            .unwrap();
        cache
            .tries_for(&BoundAtom::new(&s, vec![0]), &[0], None, Some(&mine), None)
            .unwrap();
        assert_eq!(mine.hits(), 1);
        assert_eq!(mine.misses(), 1);
        assert_eq!(mine.evictions(), 1, "my insert evicted the resident entry");
        // The shared counters saw everyone; my accumulator saw only me.
        let total = cache.stats();
        assert_eq!(total.misses, 2);
        assert_eq!(total.hits, 1);
    }

    #[test]
    fn entry_capacity_eviction_keeps_byte_accounting_consistent() {
        let cache = TrieCache::with_limits(1, 0);
        let r = rel("R", vec![vec![1.0]]);
        let s = rel("S", vec![vec![2.0], vec![3.0]]);
        cache
            .tries_for(&BoundAtom::new(&r, vec![0]), &[0], None, None, None)
            .unwrap();
        let with_r = cache.stats().resident_bytes;
        assert!(with_r > 0);
        // Inserting S evicts R; the resident bytes must now describe S only.
        cache
            .tries_for(&BoundAtom::new(&s, vec![0]), &[0], None, None, None)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        assert!(stats.resident_bytes >= with_r, "S is the larger trie");
    }
}
