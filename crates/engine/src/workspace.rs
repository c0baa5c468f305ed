//! Workspaces: the explicit owner of cross-evaluation state.
//!
//! A [`Workspace`] owns the two pieces of state that outlive a single
//! evaluation —
//!
//! 1. a **scoped value dictionary** ([`SharedDictionary`]): every database
//!    built through the workspace interns into it, the forward reduction
//!    writes its transformed database into the same dictionary, and dropping
//!    the workspace (together with the relations built in it) reclaims every
//!    value it interned.  Interned residency is bounded per workspace
//!    instead of accreting in the process-global store;
//! 2. a **shared, bytes-accounted trie cache** ([`TrieCache`]): every engine
//!    built from the workspace ([`Workspace::engine`]) evaluates against the
//!    same cache, so independently constructed engines warm one another —
//!    the per-request-engine server pattern gets warm caches for free, with
//!    eviction fairness handled by the single shared LRU running against the
//!    workspace's entry and byte budgets ([`WorkspaceLimits`]).
//!
//! [`Workspace::global`] is the compatibility shim: a workspace over the
//! process-global dictionary, so existing call sites migrate mechanically
//! (`Workspace::global().engine(config)` behaves like per-engine
//! construction except that the cache is shared process-wide).
//!
//! # Example
//!
//! ```
//! use ij_engine::{EngineConfig, Workspace};
//! use ij_relation::{Query, Value};
//!
//! let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
//! let ws = Workspace::new();
//! let mut db = ws.database();
//! let iv = |lo, hi| Value::interval(lo, hi);
//! db.insert_tuples("R", 2, vec![vec![iv(0.0, 4.0), iv(10.0, 14.0)]]);
//! db.insert_tuples("S", 2, vec![vec![iv(12.0, 13.0), iv(20.0, 25.0)]]);
//! db.insert_tuples("T", 2, vec![vec![iv(3.0, 5.0), iv(24.0, 26.0)]]);
//!
//! // Two independently constructed engines share the workspace's cache:
//! // the second engine's first evaluation is served warm.
//! let first = ws.engine(EngineConfig::new());
//! assert!(first.evaluate(&q, &db).unwrap());
//! let second = ws.engine(EngineConfig::new());
//! assert!(second.evaluate(&q, &db).unwrap());
//! assert!(ws.trie_cache_stats().hits > 0);
//!
//! // The workspace's interning never touched the global dictionary.
//! assert!(ws.dictionary_len() > 0);
//! ```

use crate::engine::{EngineConfig, IntersectionJoinEngine};
use ij_ejoin::{TenantCacheStats, TenantId, TrieCache, TrieCacheStats};
use ij_relation::sync::lock_recover;

/// Lock class of the workspace's tenant name → id registry
/// (`sync::lock_order`); a leaf.
const WORKSPACE_TENANTS: &str = "workspace-tenants";
/// Lock class of the per-tenant default-deadline map (`sync::lock_order`);
/// a leaf.
const TENANT_DEADLINES: &str = "tenant-deadlines";
use ij_relation::{Database, IdHashMap, Relation, SharedDictionary, Value, ValueId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Resource limits of a [`Workspace`]'s shared trie cache.
///
/// The dictionary is not budgeted here: its residency is bounded by the
/// workspace's *lifetime* (drop the workspace, reclaim the values), which is
/// the scoping a per-database / per-tenant service wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkspaceLimits {
    /// Entry capacity of the shared trie cache (`0` = unbounded); the
    /// default matches [`EngineConfig::trie_cache_capacity`]'s default of
    /// 4096.
    pub trie_cache_capacity: usize,
    /// Byte budget of the shared trie cache (`0` = unbounded, the default):
    /// the estimated resident heap bytes of the cached tries never exceed
    /// it (see [`EngineConfig::trie_cache_bytes`] for the semantics).
    pub trie_cache_bytes: usize,
}

impl Default for WorkspaceLimits {
    fn default() -> Self {
        WorkspaceLimits {
            trie_cache_capacity: 4096,
            trie_cache_bytes: 0,
        }
    }
}

impl WorkspaceLimits {
    /// The default limits (4096 cache entries, no byte budget).
    pub fn new() -> Self {
        WorkspaceLimits::default()
    }

    /// These limits with an explicit trie-cache entry capacity.
    pub fn with_trie_cache_capacity(mut self, capacity: usize) -> Self {
        self.trie_cache_capacity = capacity;
        self
    }

    /// These limits with an explicit trie-cache byte budget.
    pub fn with_trie_cache_bytes(mut self, bytes: usize) -> Self {
        self.trie_cache_bytes = bytes;
        self
    }
}

/// The owner of cross-evaluation state: a scoped value dictionary plus a
/// shared, bytes-accounted trie cache (see the module docs).
///
/// Cloning is cheap and shares both: clones of one workspace are one
/// workspace.  The state is freed when the last clone *and* the last
/// relation/database built in the workspace drop.
#[derive(Debug, Clone)]
pub struct Workspace {
    dictionary: SharedDictionary,
    trie_cache: Arc<TrieCache>,
    limits: WorkspaceLimits,
    /// Tenant-name registry: stable name→id assignment shared by all clones
    /// ([`Workspace::tenant`]).  Id `0` is reserved for [`TenantId::DEFAULT`]
    /// (the anonymous owner engines use when no tenant is configured).
    tenants: Arc<Mutex<HashMap<String, TenantId>>>,
    /// Per-tenant default deadline budgets ([`Tenant::set_default_deadline`]):
    /// engines built through a tenant handle inherit the tenant's default
    /// when their config sets none.
    deadlines: Arc<Mutex<HashMap<TenantId, Duration>>>,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

impl Workspace {
    /// A fresh workspace with the default [`WorkspaceLimits`] and an empty
    /// scoped dictionary.
    pub fn new() -> Self {
        Workspace::with_limits(WorkspaceLimits::default())
    }

    /// A fresh workspace with explicit limits.
    pub fn with_limits(limits: WorkspaceLimits) -> Self {
        Workspace {
            dictionary: SharedDictionary::new(),
            trie_cache: Arc::new(TrieCache::with_limits(
                limits.trie_cache_capacity,
                limits.trie_cache_bytes,
            )),
            limits,
            tenants: Arc::new(Mutex::new(HashMap::new())),
            deadlines: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The process-global workspace: the compatibility shim over the global
    /// dictionary, with one process-wide shared trie cache at the default
    /// limits.  Its interned values live for the process — use scoped
    /// workspaces ([`Workspace::new`]) to bound residency.
    pub fn global() -> &'static Workspace {
        static GLOBAL: OnceLock<Workspace> = OnceLock::new();
        GLOBAL.get_or_init(|| Workspace {
            dictionary: SharedDictionary::global().clone(),
            trie_cache: Arc::new(TrieCache::with_limits(
                WorkspaceLimits::default().trie_cache_capacity,
                WorkspaceLimits::default().trie_cache_bytes,
            )),
            limits: WorkspaceLimits::default(),
            tenants: Arc::new(Mutex::new(HashMap::new())),
            deadlines: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// The limits this workspace was created with.
    pub fn limits(&self) -> WorkspaceLimits {
        self.limits
    }

    /// The workspace's value dictionary.
    pub fn dictionary(&self) -> &SharedDictionary {
        &self.dictionary
    }

    /// Number of distinct values currently stored in the workspace's
    /// dictionary (the workspace's interned residency; bounded by the
    /// workspace lifetime, not by a quota).  The bitstrings a reduction
    /// introduces have computed ids and are not stored, so not counted.
    pub fn dictionary_len(&self) -> usize {
        self.dictionary.len()
    }

    /// Estimated heap bytes of the workspace's dictionary — the interned
    /// values plus the value→id index maps, summed over every stripe
    /// ([`SharedDictionary::heap_bytes`]).  The byte-denominated companion
    /// of [`Workspace::dictionary_len`]: an operator can alert on a growing
    /// workspace (tenant) before it OOMs, complementing the trie cache's
    /// byte budget.
    pub fn dictionary_bytes(&self) -> usize {
        self.dictionary.heap_bytes()
    }

    /// Cumulative statistics of the workspace's shared trie cache — the sum
    /// of the activity of every engine built from this workspace.
    pub fn trie_cache_stats(&self) -> TrieCacheStats {
        self.trie_cache.stats()
    }

    /// A point-in-time operator snapshot of the workspace's resource state:
    /// dictionary residency (distinct values and estimated bytes) plus the
    /// shared trie cache's cumulative statistics.  [`WorkspaceStats`]
    /// implements [`std::fmt::Display`] for one-line dashboards.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            dictionary_len: self.dictionary_len(),
            dictionary_bytes: self.dictionary_bytes(),
            trie_cache: self.trie_cache_stats(),
        }
    }

    /// A named tenant sub-handle of this workspace.  The first call with a
    /// given name registers it (ids are assigned densely and shared by every
    /// clone of the workspace); later calls return a handle to the same
    /// tenant.  Tenants share the workspace's dictionary and trie cache —
    /// they are an *accounting* scope, not an isolation scope: per-tenant
    /// cache activity is metered separately ([`Tenant::cache_stats`]) and a
    /// per-tenant byte quota ([`Tenant::set_trie_cache_quota`]) caps what
    /// one tenant may keep resident without touching its neighbors' warmth.
    pub fn tenant(&self, name: &str) -> Tenant {
        let mut registry = lock_recover(&self.tenants, WORKSPACE_TENANTS);
        let next = TenantId::from_raw(registry.len() as u32 + 1);
        let id = *registry.entry(name.to_string()).or_insert(next);
        Tenant {
            workspace: self.clone(),
            id,
            name: name.to_string(),
        }
    }

    /// An empty database interning into the workspace's dictionary.
    pub fn database(&self) -> Database {
        Database::new_in(self.dictionary.clone())
    }

    /// An empty relation interning into the workspace's dictionary.
    pub fn relation(&self, name: impl Into<String>, arity: usize) -> Relation {
        Relation::new_in(name, arity, &self.dictionary)
    }

    /// Re-interns a database (typically built against the global dictionary,
    /// e.g. by a workload generator) into this workspace, so its evaluation
    /// stays scoped.  The source database is untouched.
    ///
    /// The import works on id columns, not materialised `Value` rows: each
    /// source relation's dictionary is pinned **once**
    /// ([`SharedDictionary::reader`]) to bulk-resolve the relation's
    /// *distinct* ids, the pin is dropped, and only then are the resolved
    /// values interned into the workspace — so every distinct value pays
    /// exactly one resolve + one intern no matter how many rows repeat it,
    /// and no lock on the source store is ever held while writing the
    /// destination (two threads importing in opposite directions between two
    /// workspaces can therefore never deadlock).  Relations already interned
    /// into this workspace's dictionary are shared as-is (their ids are
    /// already valid here).
    pub fn import_database(&self, db: &Database) -> Database {
        let mut out = self.database();
        for rel in db.relations() {
            if rel.dictionary() == &self.dictionary {
                out.insert(rel.clone());
                continue;
            }
            // Pass 1: resolve each distinct source id once, under a single
            // pin of the source stripes — then release the pin before any
            // destination interning.
            let mut resolved: IdHashMap<ValueId, Value> = IdHashMap::default();
            {
                let source = rel.dictionary().reader();
                for c in 0..rel.arity() {
                    for &id in rel.column_ids(c) {
                        resolved.entry(id).or_insert_with(|| source.resolve(id));
                    }
                }
            }
            // Pass 2: intern each distinct value into the workspace.
            let translate: IdHashMap<ValueId, ValueId> = resolved
                .into_iter()
                .map(|(id, value)| (id, self.dictionary.intern(value)))
                .collect();
            let cols: Vec<Vec<ValueId>> = (0..rel.arity())
                .map(|c| rel.column_ids(c).iter().map(|id| translate[id]).collect())
                .collect();
            out.insert(Relation::from_id_columns_in(
                rel.name(),
                rel.len(),
                cols,
                &self.dictionary,
            ));
        }
        out
    }

    /// An engine evaluating against the workspace's shared trie cache:
    /// every engine built from one workspace warms every other, which is
    /// what gives a per-request-engine server warm caches by default.
    ///
    /// The cache budgets are the *workspace's* ([`WorkspaceLimits`]) — the
    /// config's [`EngineConfig::trie_cache_capacity`] /
    /// [`EngineConfig::trie_cache_bytes`] do not resize the shared cache.
    /// A zero `trie_cache_capacity` still opts this engine out of caching
    /// entirely (rebuild-per-disjunct), exactly like per-engine
    /// construction.
    pub fn engine(&self, config: EngineConfig) -> IntersectionJoinEngine {
        IntersectionJoinEngine::with_shared_cache(config, Arc::clone(&self.trie_cache))
    }
}

/// A named tenant of a [`Workspace`]: the accounting identity a multi-tenant
/// service hands to each of its tenants sharing one workspace.
///
/// Obtained from [`Workspace::tenant`].  Cloning is cheap and shares the
/// identity; a tenant handle is a workspace handle plus a registered
/// [`TenantId`], so everything built through it (databases, engines) lives
/// in the shared workspace — only the *metering* is per tenant:
///
/// * engines built with [`Tenant::engine`] tag every trie-cache lookup with
///   the tenant's id, so [`Tenant::cache_stats`] reports this tenant's
///   hits/misses/evictions and resident bytes exactly;
/// * [`Tenant::set_trie_cache_quota`] caps the bytes this tenant's inserts
///   may keep resident — an over-quota insert evicts the tenant's **own**
///   least-recently-used entries first, so a noisy tenant cannot strip its
///   neighbors' warmth (the workspace's pooled budgets remain the hard
///   ceiling).  Quotas bound memory, never correctness.
#[derive(Debug, Clone)]
pub struct Tenant {
    workspace: Workspace,
    id: TenantId,
    name: String,
}

impl Tenant {
    /// The registered tenant id (stable across [`Workspace::tenant`] calls
    /// with the same name on any clone of the workspace).
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The tenant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workspace this tenant belongs to.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// An engine whose evaluations run as this tenant: built against the
    /// workspace's shared cache ([`Workspace::engine`]) with
    /// [`EngineConfig::tenant`] filled in.  When the config sets no
    /// [`EngineConfig::deadline`], the tenant's [default
    /// deadline](Tenant::set_default_deadline) (if any) is inherited — an
    /// explicit config deadline always wins.
    pub fn engine(&self, config: EngineConfig) -> IntersectionJoinEngine {
        let mut config = config.with_tenant(self.id);
        if config.deadline.is_none() {
            config.deadline = self.default_deadline();
        }
        self.workspace.engine(config)
    }

    /// An empty database interning into the workspace's dictionary
    /// (tenants share the dictionary; see [`Workspace::database`]).
    pub fn database(&self) -> Database {
        self.workspace.database()
    }

    /// Re-interns a database into the workspace ([`Workspace::import_database`]).
    pub fn import_database(&self, db: &Database) -> Database {
        self.workspace.import_database(db)
    }

    /// Sets (or clears, with `0`) this tenant's byte quota on the
    /// workspace's shared trie cache (see
    /// [`TrieCache::set_tenant_quota`](ij_ejoin::TrieCache::set_tenant_quota)).
    pub fn set_trie_cache_quota(&self, bytes: usize) {
        self.workspace.trie_cache.set_tenant_quota(self.id, bytes);
    }

    /// This tenant with a byte quota set — the builder-style companion of
    /// [`Tenant::set_trie_cache_quota`].
    pub fn with_trie_cache_quota(self, bytes: usize) -> Self {
        self.set_trie_cache_quota(bytes);
        self
    }

    /// This tenant's current byte quota (`0` = none).
    pub fn trie_cache_quota(&self) -> usize {
        self.workspace.trie_cache.tenant_quota(self.id)
    }

    /// This tenant's ledger on the workspace's shared trie cache: its exact
    /// cumulative hits/misses/evictions, its resident entries and bytes, and
    /// its quota.
    pub fn cache_stats(&self) -> TenantCacheStats {
        self.workspace.trie_cache.tenant_stats(self.id)
    }

    /// Sets (or clears, with `None`) this tenant's **default deadline**: the
    /// per-evaluation budget engines built through [`Tenant::engine`]
    /// inherit when their [`EngineConfig::deadline`] is unset.  Shared by
    /// every clone of the workspace, so an operator can bound a tenant's
    /// evaluations service-wide without touching call sites.  Deadlines
    /// bound *latency*, never correctness: an evaluation either returns the
    /// correct answer in budget or fails with
    /// [`EvalError::DeadlineExceeded`](ij_relation::EvalError::DeadlineExceeded).
    pub fn set_default_deadline(&self, budget: Option<Duration>) {
        let mut deadlines = lock_recover(&self.workspace.deadlines, TENANT_DEADLINES);
        match budget {
            Some(budget) => {
                deadlines.insert(self.id, budget);
            }
            None => {
                deadlines.remove(&self.id);
            }
        }
    }

    /// This tenant with a default deadline set — the builder-style companion
    /// of [`Tenant::set_default_deadline`].
    pub fn with_default_deadline(self, budget: Duration) -> Self {
        self.set_default_deadline(Some(budget));
        self
    }

    /// This tenant's default deadline budget, if one is set.
    pub fn default_deadline(&self) -> Option<Duration> {
        lock_recover(&self.workspace.deadlines, TENANT_DEADLINES)
            .get(&self.id)
            .copied()
    }
}

/// An operator snapshot of a [`Workspace`]'s resource state
/// ([`Workspace::stats`]): dictionary residency in distinct values **and
/// estimated bytes** (values plus index maps, per stripe), and the shared
/// trie cache's cumulative statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Distinct values interned in the workspace's dictionary.
    pub dictionary_len: usize,
    /// Estimated heap bytes of the dictionary
    /// ([`Workspace::dictionary_bytes`]).
    pub dictionary_bytes: usize,
    /// Cumulative shared trie-cache statistics
    /// ([`Workspace::trie_cache_stats`]).
    pub trie_cache: TrieCacheStats,
}

impl std::fmt::Display for WorkspaceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dictionary: {} values ({:.1} KiB); trie cache: {} hits / {} misses, \
             {} evictions, {} entries resident ({:.1} KiB)",
            self.dictionary_len,
            self.dictionary_bytes as f64 / 1024.0,
            self.trie_cache.hits,
            self.trie_cache.misses,
            self.trie_cache.evictions,
            self.trie_cache.entries,
            self.trie_cache.resident_bytes as f64 / 1024.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_relation::{Query, Value};

    fn triangle_db(ws: &Workspace) -> (Query, Database) {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let iv = |lo: f64, hi: f64| Value::interval(lo, hi);
        let mut db = ws.database();
        db.insert_tuples(
            "R",
            2,
            vec![
                vec![iv(0.0, 4.0), iv(10.0, 14.0)],
                vec![iv(100.0, 101.0), iv(200.0, 201.0)],
            ],
        );
        db.insert_tuples("S", 2, vec![vec![iv(12.0, 13.0), iv(20.0, 25.0)]]);
        db.insert_tuples("T", 2, vec![vec![iv(3.0, 5.0), iv(30.0, 31.0)]]);
        (q, db)
    }

    #[test]
    fn workspace_scoped_evaluation_never_touches_the_global_dictionary() {
        let ws = Workspace::new();
        assert_eq!(ws.dictionary_len(), 0);
        let (q, mut db) = triangle_db(&ws);
        // A value no other test in this binary interns: probing the global
        // dictionary for it is race-free under concurrent sibling tests
        // (comparing global *lengths* would not be — siblings intern their
        // own values at any time).  tests/workspace_properties.rs covers the
        // stronger length-invariance property under a serializing lock.
        let canary = Value::interval(777_000.25, 777_001.25);
        db.insert_tuples("T", 2, vec![vec![canary, canary]]);
        let after_ingest = ws.dictionary_len();
        assert!(after_ingest > 0);
        let engine = ws.engine(EngineConfig::new().with_parallelism(1));
        assert!(!engine.evaluate(&q, &db).unwrap());
        // The reduction's bitstring ids are computed, not stored: evaluation
        // stores at most the enumerate path's one placeholder value…
        assert!(ws.dictionary_len() <= after_ingest + 1);
        // …and nothing the workspace interned reached the global store.
        assert!(ws.dictionary().lookup(&canary).is_some());
        assert!(ij_relation::SharedDictionary::global()
            .lookup(&canary)
            .is_none());
    }

    #[test]
    fn engines_of_one_workspace_share_cache_warmth() {
        let ws = Workspace::new();
        let (q, db) = triangle_db(&ws);
        let first = ws.engine(EngineConfig::new().with_parallelism(1));
        let cold = first.evaluate_with_stats(&q, &db).unwrap();
        assert!(cold.trie_cache.misses > 0);
        // A *different* engine, same workspace: first evaluation runs warm.
        let second = ws.engine(EngineConfig::new().with_parallelism(1));
        let warm = second.evaluate_with_stats(&q, &db).unwrap();
        assert_eq!(warm.answer, cold.answer);
        assert_eq!(warm.trie_cache.misses, 0, "{:?}", warm.trie_cache);
        assert!(warm.trie_cache.hits > 0);
        // The workspace's cumulative stats see both engines.
        let total = ws.trie_cache_stats();
        assert_eq!(total.hits, cold.trie_cache.hits + warm.trie_cache.hits);
        assert_eq!(total.misses, cold.trie_cache.misses);
    }

    #[test]
    fn distinct_workspaces_do_not_share_cache_or_ids() {
        let a = Workspace::new();
        let b = Workspace::new();
        let (qa, dba) = triangle_db(&a);
        let (qb, dbb) = triangle_db(&b);
        let ea = a.engine(EngineConfig::new().with_parallelism(1));
        let eb = b.engine(EngineConfig::new().with_parallelism(1));
        assert_eq!(
            ea.evaluate(&qa, &dba).unwrap(),
            eb.evaluate(&qb, &dbb).unwrap()
        );
        // Each workspace warmed only its own cache.
        assert_eq!(a.trie_cache_stats().hits, b.trie_cache_stats().hits);
        assert!(a.trie_cache_stats().misses > 0);
        assert!(b.trie_cache_stats().misses > 0);
        assert_eq!(a.dictionary_len(), b.dictionary_len());
    }

    #[test]
    fn zero_capacity_config_opts_out_of_the_shared_cache() {
        let ws = Workspace::new();
        let (q, db) = triangle_db(&ws);
        let engine = ws.engine(
            EngineConfig::new()
                .with_parallelism(1)
                .with_trie_cache_capacity(0),
        );
        let stats = engine.evaluate_with_stats(&q, &db).unwrap();
        assert_eq!(stats.trie_cache, ij_ejoin::TrieCacheStats::default());
        assert_eq!(ws.trie_cache_stats().misses, 0);
    }

    #[test]
    fn workspace_limits_flow_into_the_shared_cache() {
        let ws = Workspace::with_limits(WorkspaceLimits::new().with_trie_cache_capacity(1));
        assert_eq!(ws.limits().trie_cache_capacity, 1);
        let (q, db) = triangle_db(&ws);
        let engine = ws.engine(EngineConfig::new().with_parallelism(1));
        assert!(!engine.evaluate(&q, &db).unwrap());
        let stats = ws.trie_cache_stats();
        assert_eq!(stats.entries, 1, "{stats:?}");
        assert!(stats.evictions > 0, "{stats:?}");
    }

    #[test]
    fn tenant_registration_is_stable_across_clones() {
        let ws = Workspace::new();
        let a = ws.tenant("alice");
        let b = ws.tenant("bob");
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), ij_ejoin::TenantId::DEFAULT, "id 0 stays reserved");
        assert_eq!(a.name(), "alice");
        // Same name → same id, even through a workspace clone.
        let clone = ws.clone();
        assert_eq!(clone.tenant("alice").id(), a.id());
        assert_eq!(ws.tenant("bob").id(), b.id());
        // A different workspace assigns independently.
        let other = Workspace::new();
        assert_eq!(other.tenant("zoe").id(), a.id());
    }

    #[test]
    fn tenant_ledgers_meter_cache_activity_separately() {
        let ws = Workspace::new();
        let (q, db) = triangle_db(&ws);
        let alice = ws.tenant("alice");
        let bob = ws.tenant("bob");
        let cold = alice
            .engine(EngineConfig::new().with_parallelism(1))
            .evaluate_with_stats(&q, &db)
            .unwrap();
        assert!(cold.trie_cache.misses > 0);
        // Bob's first evaluation rides Alice's warmth: all hits — and they
        // land in *Bob's* ledger, not Alice's.
        let warm = bob
            .engine(EngineConfig::new().with_parallelism(1))
            .evaluate_with_stats(&q, &db)
            .unwrap();
        assert_eq!(warm.trie_cache.misses, 0, "{:?}", warm.trie_cache);
        let a = alice.cache_stats();
        let b = bob.cache_stats();
        assert_eq!(a.misses, cold.trie_cache.misses);
        assert_eq!(a.hits, cold.trie_cache.hits);
        assert_eq!(b.misses, 0);
        assert_eq!(b.hits, warm.trie_cache.hits);
        // Alice owns every resident entry; Bob inserted nothing.
        let pool = ws.trie_cache_stats();
        assert_eq!(a.entries, pool.entries);
        assert_eq!(a.resident_bytes, pool.resident_bytes);
        assert_eq!(b.entries, 0);
        assert_eq!(b.resident_bytes, 0);
        // The pooled counters are exactly the sum of the tenant ledgers.
        assert_eq!(pool.hits, a.hits + b.hits);
        assert_eq!(pool.misses, a.misses + b.misses);
    }

    #[test]
    fn workspace_stats_expose_dictionary_bytes() {
        let ws = Workspace::new();
        assert_eq!(ws.dictionary_bytes(), 0, "an empty workspace holds nothing");
        let (q, db) = triangle_db(&ws);
        let engine = ws.engine(EngineConfig::new().with_parallelism(1));
        let _ = engine.evaluate(&q, &db).unwrap();
        let stats = ws.stats();
        assert_eq!(stats.dictionary_len, ws.dictionary_len());
        assert!(stats.dictionary_bytes > 0);
        assert!(
            stats.dictionary_bytes >= stats.dictionary_len * std::mem::size_of::<Value>(),
            "bytes must cover at least the interned values themselves"
        );
        assert_eq!(stats.trie_cache, ws.trie_cache_stats());
        let line = stats.to_string();
        assert!(line.contains("dictionary:"), "{line}");
        assert!(line.contains("trie cache:"), "{line}");
    }

    #[test]
    fn import_database_shares_workspace_scoped_relations_as_is() {
        // Importing a database already scoped to this workspace must not
        // re-intern (and must not grow the dictionary).
        let ws = Workspace::new();
        let (_, db) = triangle_db(&ws);
        let before = ws.dictionary_len();
        let imported = ws.import_database(&db);
        assert_eq!(ws.dictionary_len(), before);
        assert_eq!(imported.total_tuples(), db.total_tuples());
        assert_eq!(imported.dictionary(), ws.dictionary());
    }

    #[test]
    fn concurrent_cross_directional_imports_cannot_deadlock() {
        // Regression: import_database once held the source dictionary's
        // all-stripe read pin while interning into the destination — two
        // threads importing in opposite directions between two workspaces
        // could each pin the other's read locks and block on the other's
        // write lock forever.  The import now drops the pin before any
        // destination interning; this completes (watchdog-bounded so a
        // regression fails loudly instead of hanging the suite).
        let a = Workspace::new();
        let b = Workspace::new();
        let (_, db_a) = triangle_db(&a);
        let (_, db_b) = triangle_db(&b);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (a, b) = (a.clone(), b.clone());
                let (db_a, db_b) = (db_a.clone(), db_b.clone());
                let done = done_tx.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let into_a = a.import_database(&db_b);
                        let into_b = b.import_database(&db_a);
                        assert_eq!(into_a.dictionary(), a.dictionary());
                        assert_eq!(into_b.dictionary(), b.dictionary());
                    }
                    done.send(()).unwrap();
                });
            }
            for _ in 0..2 {
                done_rx
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .expect("cross-directional imports deadlocked");
            }
        });
    }

    #[test]
    fn tenant_default_deadlines_flow_into_engines() {
        let ws = Workspace::new();
        let alice = ws.tenant("alice");
        assert_eq!(alice.default_deadline(), None);
        alice.set_default_deadline(Some(Duration::from_millis(250)));
        assert_eq!(alice.default_deadline(), Some(Duration::from_millis(250)));
        // Engines inherit the default…
        let engine = alice.engine(EngineConfig::new());
        assert_eq!(engine.config().deadline, Some(Duration::from_millis(250)));
        // …an explicit config deadline wins…
        let explicit = alice.engine(EngineConfig::new().with_deadline(Duration::from_secs(5)));
        assert_eq!(explicit.config().deadline, Some(Duration::from_secs(5)));
        // …the default is shared across clones and handles of the tenant…
        assert_eq!(
            ws.clone().tenant("alice").default_deadline(),
            Some(Duration::from_millis(250))
        );
        // …other tenants are untouched, and clearing restores None.
        assert_eq!(ws.tenant("bob").default_deadline(), None);
        alice.set_default_deadline(None);
        assert_eq!(alice.default_deadline(), None);
    }

    #[test]
    fn tenant_deadline_bounds_evaluations_without_poisoning_the_workspace() {
        let ws = Workspace::new();
        let (q, db) = triangle_db(&ws);
        let strict = ws.tenant("strict").with_default_deadline(Duration::ZERO);
        let err = strict
            .engine(EngineConfig::new().with_parallelism(1))
            .evaluate(&q, &db)
            .expect_err("a zero budget must trip");
        assert!(
            matches!(
                err,
                crate::EngineError::Evaluation(ij_relation::EvalError::DeadlineExceeded { .. })
            ),
            "{err:?}"
        );
        // The workspace (cache, dictionary) stays fully usable afterwards.
        strict.set_default_deadline(None);
        assert!(!strict
            .engine(EngineConfig::new().with_parallelism(1))
            .evaluate(&q, &db)
            .unwrap());
    }

    #[test]
    fn import_database_reinterns_into_the_workspace() {
        // Build against the global dictionary, import, evaluate scoped.
        let global_ws = Workspace::global();
        let q = Query::parse("R([A]) & S([A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![Value::interval(0.0, 2.0)]]);
        db.insert_tuples("S", 1, vec![vec![Value::interval(1.0, 3.0)]]);
        assert!(global_ws.dictionary().is_global());

        let ws = Workspace::new();
        let imported = ws.import_database(&db);
        assert_eq!(imported.dictionary(), ws.dictionary());
        assert_eq!(imported.total_tuples(), db.total_tuples());
        assert_eq!(ws.dictionary_len(), 2);
        let engine = ws.engine(EngineConfig::new());
        assert!(engine.evaluate(&q, &imported).unwrap());
    }
}
