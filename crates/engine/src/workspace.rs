//! Workspaces: the explicit owner of cross-evaluation state.
//!
//! A [`Workspace`] owns the two pieces of state that outlive a single
//! evaluation —
//!
//! 1. a **value dictionary** ([`SharedDictionary`]): every database built or
//!    imported through the workspace interns into it, so their ids are
//!    join-compatible; the forward reduction writes its transformed database
//!    into the same dictionary, and dropping the workspace (together with
//!    the relations built in it) reclaims every value it interned;
//! 2. a **shared, byte-budgeted trie cache** ([`TrieCache`]): every engine
//!    built from the workspace ([`Workspace::engine`]) evaluates against the
//!    same cache, so independently constructed engines warm one another —
//!    the per-request-engine server pattern gets warm caches for free, with
//!    one shared LRU running against the workspace's byte budget
//!    ([`Workspace::with_trie_cache_bytes`]).
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
//! // The databases of the workspace intern into its dictionary.
//! assert!(ws.dictionary_len() > 0);
//! ```

use crate::engine::{
    hardware_parallelism, EngineConfig, IntersectionJoinEngine, DEFAULT_TRIE_CACHE_BYTES,
};
use ij_ejoin::{TrieCache, TrieCacheStats};
use ij_relation::{Database, IdHashMap, Relation, SharedDictionary, Value, ValueId};
use std::sync::Arc;

/// The owner of cross-evaluation state: a value dictionary plus a
/// shared, byte-budgeted trie cache (see the module docs).
///
/// Cloning is cheap and shares both: clones of one workspace are one
/// workspace.  The state is freed when the last clone *and* the last
/// relation/database built in the workspace drop.
#[derive(Debug, Clone)]
pub struct Workspace {
    dictionary: SharedDictionary,
    /// `None` when the budget is `0`.
    trie_cache: Option<Arc<TrieCache>>,
    trie_cache_bytes: usize,
    /// The hardware thread count, read once for every engine the
    /// workspace builds.
    hardware_threads: usize,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

impl Workspace {
    /// A fresh workspace with an empty dictionary and a trie cache of
    /// [`DEFAULT_TRIE_CACHE_BYTES`].
    pub fn new() -> Self {
        Workspace::with_trie_cache_bytes(DEFAULT_TRIE_CACHE_BYTES)
    }

    /// A fresh workspace whose shared trie cache keeps at most `bytes`
    /// *estimated* heap bytes resident ([`ij_ejoin::FlatTrie::heap_bytes`],
    /// reported in [`TrieCacheStats::resident_bytes`]): inserting past the
    /// budget evicts least-recently-used entries until the new entry fits,
    /// and a single build larger than the whole budget stays uncached.  It
    /// is just a number of bytes — `0` gives the workspace no cache (its
    /// engines rebuild every trie and report all-zero cache counters),
    /// `usize::MAX` is unbounded.  The Boolean answer is identical for
    /// every budget.  The dictionary is not budgeted: its residency is
    /// bounded by the workspace's *lifetime* (drop the workspace, reclaim
    /// the values).
    ///
    /// ```
    /// use ij_engine::{Workspace, DEFAULT_TRIE_CACHE_BYTES};
    ///
    /// assert_eq!(Workspace::new().trie_cache_bytes(), DEFAULT_TRIE_CACHE_BYTES);
    /// let capped = Workspace::with_trie_cache_bytes(64 << 20); // 64 MiB
    /// assert_eq!(capped.trie_cache_bytes(), 64 << 20);
    /// ```
    pub fn with_trie_cache_bytes(bytes: usize) -> Self {
        Workspace {
            dictionary: SharedDictionary::new(),
            trie_cache: (bytes > 0).then(|| Arc::new(TrieCache::with_byte_budget(bytes))),
            trie_cache_bytes: bytes,
            hardware_threads: hardware_parallelism(),
        }
    }

    /// The byte budget of the workspace's shared trie cache.
    pub fn trie_cache_bytes(&self) -> usize {
        self.trie_cache_bytes
    }

    /// The workspace's value dictionary.
    pub fn dictionary(&self) -> &SharedDictionary {
        &self.dictionary
    }

    /// Number of distinct values currently stored in the workspace's
    /// dictionary (the workspace's interned residency; bounded by the
    /// workspace lifetime, not by a budget).  The bitstrings a reduction
    /// introduces have computed ids and are not stored, so not counted.
    pub fn dictionary_len(&self) -> usize {
        self.dictionary.len()
    }

    /// Estimated heap bytes of the workspace's dictionary — the interned
    /// values plus the value→id index map
    /// ([`SharedDictionary::heap_bytes`]).  The byte-denominated companion
    /// of [`Workspace::dictionary_len`]: an operator can alert on a growing
    /// workspace before it OOMs, complementing the trie cache's byte budget.
    pub fn dictionary_bytes(&self) -> usize {
        self.dictionary.heap_bytes()
    }

    /// Cumulative statistics of the workspace's shared trie cache — the sum
    /// of the activity of every engine built from this workspace (all zeros
    /// when the budget is `0`).
    pub fn trie_cache_stats(&self) -> TrieCacheStats {
        self.trie_cache
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
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

    /// An empty database interning into the workspace's dictionary.
    pub fn database(&self) -> Database {
        Database::new_in(self.dictionary.clone())
    }

    /// Re-interns a database built against another dictionary (typically its
    /// own, e.g. a workload generator's) into this workspace, so that it
    /// joins with the workspace's other databases and shares its trie cache
    /// entries.  The source database is untouched.
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
            // read pin of the source dictionary — then release the pin before
            // any destination interning.
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
            out.insert(Relation::from_id_columns(
                rel.name(),
                rel.len(),
                cols,
                &self.dictionary,
            ));
        }
        out
    }

    /// An engine evaluating against the workspace's shared trie cache,
    /// bounded by the workspace's budget
    /// ([`Workspace::with_trie_cache_bytes`]): every engine built from one
    /// workspace warms every other, which is what gives a
    /// per-request-engine server warm caches by default.
    pub fn engine(&self, config: EngineConfig) -> IntersectionJoinEngine {
        IntersectionJoinEngine::with_cache(config, self.trie_cache.clone(), self.hardware_threads)
    }
}

/// An operator snapshot of a [`Workspace`]'s resource state
/// ([`Workspace::stats`]): dictionary residency in distinct values **and
/// estimated bytes** (values plus their index map), and the shared
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
    fn workspace_evaluation_interns_into_the_workspace_dictionary() {
        let ws = Workspace::new();
        assert_eq!(ws.dictionary_len(), 0);
        let (q, mut db) = triangle_db(&ws);
        let value = Value::interval(777_000.25, 777_001.25);
        db.insert_tuples("T", 2, vec![vec![value, value]]);
        let after_ingest = ws.dictionary_len();
        assert!(after_ingest > 0);
        assert!(ws.dictionary().lookup(&value).is_some());
        let engine = ws.engine(EngineConfig::new().with_parallelism(1));
        assert!(!engine.evaluate(&q, &db).unwrap());
        // The reduction's bitstring ids are computed, not stored: evaluation
        // stores at most the enumerate path's one placeholder value.
        assert!(ws.dictionary_len() <= after_ingest + 1);
    }

    #[test]
    fn engines_of_one_workspace_share_cache_warmth() {
        let ws = Workspace::new();
        let (q, db) = triangle_db(&ws);
        let first = ws.engine(EngineConfig::new().with_parallelism(1));
        let cold = first.evaluate_cancellable(&q, &db, None).unwrap();
        assert!(cold.trie_cache.misses > 0);
        // A *different* engine, same workspace: first evaluation runs warm.
        let second = ws.engine(EngineConfig::new().with_parallelism(1));
        let warm = second.evaluate_cancellable(&q, &db, None).unwrap();
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
    fn a_zero_byte_workspace_has_no_cache() {
        let ws = Workspace::with_trie_cache_bytes(0);
        let (q, db) = triangle_db(&ws);
        let engine = ws.engine(EngineConfig::new().with_parallelism(1));
        let stats = engine.evaluate_cancellable(&q, &db, None).unwrap();
        assert!(!stats.answer);
        assert_eq!(stats.trie_cache, TrieCacheStats::default());
        assert_eq!(ws.trie_cache_stats(), TrieCacheStats::default());
    }

    #[test]
    fn workspace_byte_budget_flows_into_the_shared_cache() {
        assert_eq!(
            Workspace::new().trie_cache_bytes(),
            DEFAULT_TRIE_CACHE_BYTES
        );
        // One trie's bytes, measured on an un-evicting workspace.
        let probe_ws = Workspace::new();
        let (q, db) = triangle_db(&probe_ws);
        let config = EngineConfig::new().with_parallelism(1);
        assert!(!probe_ws.engine(config).evaluate(&q, &db).unwrap());
        let probe = probe_ws.trie_cache_stats();
        assert_eq!(probe.evictions, 0);
        let one_trie = probe.resident_bytes / probe.entries;

        let ws = Workspace::with_trie_cache_bytes(one_trie);
        assert_eq!(ws.trie_cache_bytes(), one_trie);
        let (q, db) = triangle_db(&ws);
        assert!(!ws.engine(config).evaluate(&q, &db).unwrap());
        let stats = ws.trie_cache_stats();
        assert!(stats.resident_bytes <= one_trie, "{stats:?}");
        assert!(stats.evictions > 0, "{stats:?}");
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
        // read pin while interning into the destination — two
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
    fn import_database_reinterns_into_the_workspace() {
        // Build against the database's own dictionary, import, evaluate.
        let q = Query::parse("R([A]) & S([A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![Value::interval(0.0, 2.0)]]);
        db.insert_tuples("S", 1, vec![vec![Value::interval(1.0, 3.0)]]);
        let ws = Workspace::new();
        let imported = ws.import_database(&db);
        assert_eq!(imported.dictionary(), ws.dictionary());
        assert_eq!(imported, db);
        assert_eq!(ws.dictionary_len(), 2);
        let engine = ws.engine(EngineConfig::new());
        assert!(engine.evaluate(&q, &imported).unwrap());
    }
}
