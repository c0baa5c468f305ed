//! Workspaces: the explicit owner of cross-evaluation state.
//!
//! A [`Workspace`] owns the **value dictionary** ([`SharedDictionary`]) that
//! outlives a single evaluation: every database built or imported through
//! the workspace interns into it, so their ids are join-compatible; the
//! forward reduction writes its transformed database into the same
//! dictionary, and dropping the workspace (together with the relations
//! built in it) reclaims every value it interned.  Every engine built from
//! the workspace ([`Workspace::engine`]) runs on the hardware thread count
//! the workspace read once when it was built.
//!
//! The tries an evaluation builds are not the workspace's: each is memoised
//! on the transformed relation it indexes, so it lives exactly as long as
//! the reduction.  A reduction evaluated again, by any engine, finds them
//! built.
//!
//! # Example
//!
//! ```
//! use ij_engine::{EngineConfig, Workspace};
//! use ij_reduction::{plan_forward_reduction, ReductionConfig};
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
//! // One kept reduction: the second engine's evaluation of it finds every
//! // trie the first one built.
//! let plan = plan_forward_reduction(&q, &db, ReductionConfig::default(), None).unwrap();
//! let first = ws.engine(EngineConfig::new()).evaluate_reduction(&plan).unwrap();
//! let second = ws.engine(EngineConfig::new()).evaluate_reduction(&plan).unwrap();
//! assert!(first.answer && second.answer);
//! assert_eq!(second.trie_cache.misses, 0);
//!
//! // The databases of the workspace intern into its dictionary.
//! assert!(ws.dictionary_len() > 0);
//! ```

use crate::engine::{hardware_parallelism, EngineConfig, IntersectionJoinEngine};
use ij_relation::{Database, IdHashMap, Relation, SharedDictionary, Value, ValueId};

/// The owner of cross-evaluation state: a value dictionary (see the module
/// docs).
///
/// Cloning is cheap and shares the dictionary: clones of one workspace are
/// one workspace.  The dictionary is freed when the last clone *and* the
/// last relation/database built in the workspace drop.
#[derive(Debug, Clone)]
pub struct Workspace {
    dictionary: SharedDictionary,
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
    /// A fresh workspace with an empty dictionary.  The dictionary is not
    /// budgeted: its residency is bounded by the workspace's *lifetime*
    /// (drop the workspace, reclaim the values).
    pub fn new() -> Self {
        Workspace {
            dictionary: SharedDictionary::new(),
            hardware_threads: hardware_parallelism(),
        }
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
    /// workspace before it OOMs.
    pub fn dictionary_bytes(&self) -> usize {
        self.dictionary.heap_bytes()
    }

    /// A point-in-time operator snapshot of the workspace's resource state:
    /// dictionary residency (distinct values and estimated bytes).
    /// [`WorkspaceStats`] implements [`std::fmt::Display`] for one-line
    /// dashboards.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            dictionary_len: self.dictionary_len(),
            dictionary_bytes: self.dictionary_bytes(),
        }
    }

    /// An empty database interning into the workspace's dictionary.
    pub fn database(&self) -> Database {
        Database::new_in(self.dictionary.clone())
    }

    /// Re-interns a database built against another dictionary (typically its
    /// own, e.g. a workload generator's) into this workspace, so that it
    /// joins with the workspace's other databases.  The source database is
    /// untouched.
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

    /// An engine running on the workspace's hardware thread count, with a
    /// decomposition memo of its own.
    pub fn engine(&self, config: EngineConfig) -> IntersectionJoinEngine {
        IntersectionJoinEngine::on_host(config, self.hardware_threads)
    }
}

/// An operator snapshot of a [`Workspace`]'s resource state
/// ([`Workspace::stats`]): dictionary residency in distinct values **and
/// estimated bytes** (values plus their index map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Distinct values interned in the workspace's dictionary.
    pub dictionary_len: usize,
    /// Estimated heap bytes of the dictionary
    /// ([`Workspace::dictionary_bytes`]).
    pub dictionary_bytes: usize,
}

impl std::fmt::Display for WorkspaceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dictionary: {} values ({:.1} KiB)",
            self.dictionary_len,
            self.dictionary_bytes as f64 / 1024.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_reduction::{plan_forward_reduction, ReductionConfig};
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
    fn engines_of_one_workspace_find_a_kept_reduction_warm() {
        let ws = Workspace::new();
        let (q, db) = triangle_db(&ws);
        let plan = plan_forward_reduction(&q, &db, ReductionConfig::default(), None).unwrap();
        let first = ws.engine(EngineConfig::new().with_parallelism(1));
        let cold = first.evaluate_reduction(&plan).unwrap();
        assert!(cold.trie_cache.misses > 0);
        // A *different* engine, same reduction: its first evaluation is warm,
        // because the tries are the reduction's, not the engine's.
        let second = ws.engine(EngineConfig::new().with_parallelism(1));
        let warm = second.evaluate_reduction(&plan).unwrap();
        assert_eq!(warm.answer, cold.answer);
        assert_eq!(warm.trie_cache.misses, 0, "{:?}", warm.trie_cache);
        assert_eq!(
            warm.trie_cache.hits,
            cold.trie_cache.hits + cold.trie_cache.misses
        );
        // `evaluate` plans a reduction of its own, which starts cold.
        let fresh = second.evaluate_cancellable(&q, &db, None).unwrap();
        assert_eq!(fresh.trie_cache, cold.trie_cache);
    }

    #[test]
    fn distinct_workspaces_do_not_share_ids() {
        let a = Workspace::new();
        let b = Workspace::new();
        let (qa, dba) = triangle_db(&a);
        let (qb, dbb) = triangle_db(&b);
        let ea = a.engine(EngineConfig::new().with_parallelism(1));
        let eb = b.engine(EngineConfig::new().with_parallelism(1));
        let (sa, sb) = (
            ea.evaluate_cancellable(&qa, &dba, None).unwrap(),
            eb.evaluate_cancellable(&qb, &dbb, None).unwrap(),
        );
        assert_eq!(sa.answer, sb.answer);
        // Each evaluation built its own tries.
        assert!(sa.trie_cache.misses > 0);
        assert_eq!(sa.trie_cache, sb.trie_cache);
        assert_eq!(a.dictionary_len(), b.dictionary_len());
        assert_ne!(a.dictionary(), b.dictionary());
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
        let line = stats.to_string();
        assert!(line.starts_with("dictionary:"), "{line}");
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
