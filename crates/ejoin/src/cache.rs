//! The state one equality-join evaluation shares across its joins: the
//! decomposition memo, the per-evaluation ledger, and the context that
//! carries both down with the cancellation token.
//!
//! # Where the tries live
//!
//! The forward reduction turns one intersection-join query into a
//! disjunction of equality-join queries whose atoms overwhelmingly *share*
//! transformed relations: a transformed relation is named by its atom and
//! the levels of its interval variables (Definition 4.9), not by the
//! permutation that produced the disjunct, so the disjuncts that read it
//! read one object.  A trie is a function of that relation, the atom's
//! column→variable binding and the induced level order, so it is memoised
//! on the relation ([`Relation::memoised`](ij_relation::Relation::memoised)):
//! the first disjunct to need a trie builds it and every later one, on any
//! worker and in any later evaluation of the same reduction, reuses it.  So
//! do the singleton-variable projections of a cyclic disjunct's atoms and
//! the bag inputs cut from them ([`Relation::projection`](ij_relation::Relation::projection),
//! memoised on the source relation).  A trie is freed with its relation:
//! no cache outlives the reduction, and nothing needs a byte budget.
//!
//! # The decomposition memo
//!
//! [`DecompositionMemo`] keeps the optimal tree decomposition of each cyclic
//! hypergraph shape a disjunct is evaluated over.  The reduction of one
//! intersection-join query yields many disjuncts of a handful of shapes, so
//! the subset DP and its LPs run once per shape rather than once per
//! disjunct.  The key is the dense edge list of the disjunct's hypergraph;
//! a decomposition is computed outside the lock (the lock class `td-memo`
//! is a leaf), and a losing computer of an insert race adopts the winner's.
//! The memo is purely structural (a few bags per shape, no relation data);
//! an engine owns one, and an evaluation without one computes each
//! decomposition afresh.
//!
//! # Exact attribution
//!
//! Statistics are **exact under any concurrency**: an evaluation passes its
//! own [`EvalActivity`] ledger down through [`EvalContext::activity`], and
//! every trie lookup and plan it performs bumps those local counters, so
//! concurrent evaluations never see each other's hits, misses or plans.

use ij_hypergraph::{Hypergraph, VarId};
use ij_relation::sync::{read_recover, write_recover};
use ij_relation::CancellationToken;
use ij_widths::{optimal_tree_decomposition, TreeDecomposition};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Lock class of the decomposition memo (`sync::lock_order`); a leaf: held
/// for one map probe or insert, never around another lock — a decomposition
/// is computed before the lock is taken.
const TD_MEMO: &str = "td-memo";

/// The one per-evaluation ledger: an evaluation passes it down via
/// [`EvalContext::activity`] and every trie lookup and every join plan the
/// evaluation itself performs is counted here, so its statistics are
/// **exact** whatever else runs beside it.
///
/// The counters are relaxed atomics because one evaluation's disjunct
/// workers share the ledger across threads; no other memory depends on
/// their order.
#[derive(Debug, Default)]
pub struct EvalActivity {
    hits: AtomicUsize,
    misses: AtomicUsize,
    built: AtomicUsize,
    built_bytes: AtomicUsize,
    plans: AtomicUsize,
    planning_nanos: AtomicU64,
}

impl EvalActivity {
    /// A fresh all-zero ledger.
    pub fn new() -> Self {
        EvalActivity::default()
    }

    /// Trie lookups that found the trie memoised on its relation.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Trie lookups that had to build.  A build that a cancellation
    /// interrupts counts here too, but not in [`EvalActivity::built`].
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Tries this evaluation built, each counted when its build finished
    /// (both builders of an insert race included).
    pub fn built(&self) -> usize {
        self.built.load(Ordering::Relaxed)
    }

    /// Estimated heap bytes of the tries this evaluation built
    /// ([`FlatTrie::heap_bytes`](crate::FlatTrie::heap_bytes)).
    pub fn built_bytes(&self) -> usize {
        self.built_bytes.load(Ordering::Relaxed)
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

    /// Records one trie lookup: a hit, or a miss about to build.
    pub(crate) fn record_lookup(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one finished trie build of `bytes` estimated heap bytes.
    pub(crate) fn record_build(&self, bytes: usize) {
        self.built.fetch_add(1, Ordering::Relaxed);
        self.built_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// One evaluation's trie activity, as the engine reports it
/// (`EvaluationStats::trie_cache`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrieCacheStats {
    /// Lookups that found the trie memoised on its relation.
    pub hits: usize,
    /// Lookups that had to build (includes both builders of an insert race).
    pub misses: usize,
    /// Always 0: a trie is freed with its relation, never evicted.
    /// `benchmark/src/adapter.rs` still reads it as its `ejoin.cache_evictions`
    /// metric; it goes when that file stops reading it.
    #[doc(hidden)]
    pub evictions: usize,
    /// Tries the evaluation built ([`EvalActivity::built`]).
    pub entries: usize,
    /// Estimated heap bytes of the tries the evaluation built
    /// ([`EvalActivity::built_bytes`]).
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

/// The optimal tree decomposition of each cyclic disjunct shape an
/// evaluation looked up (see the module docs), shared by every evaluation
/// it is passed to.
#[derive(Debug, Default)]
pub struct DecompositionMemo {
    /// Keyed by the shape's dense edge list.
    decompositions: RwLock<HashMap<Vec<Vec<VarId>>, Arc<TreeDecomposition>>>,
}

impl DecompositionMemo {
    /// An empty memo.
    pub fn new() -> Self {
        DecompositionMemo::default()
    }

    /// The optimal tree decomposition of `h` (`optimal_tree_decomposition`),
    /// computed on the first lookup of its shape and shared by every later
    /// one on this memo.
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

/// Shared runtime options for one equality-join evaluation: the
/// decomposition memo (if any), the evaluation's ledger, and the
/// cancellation token.
///
/// Every evaluation function ([`evaluate_ej_boolean`],
/// [`generic_join_boolean`], [`generic_join_enumerate`]) takes an
/// `EvalContext` and threads it down to every trie lookup and every plan of
/// the evaluation — including the per-bag joins of the width-guided
/// evaluation.  `EvalContext::default()` is no memo, no ledger and no
/// token.  The tries are memoised on their relations whatever the context.
///
/// [`evaluate_ej_boolean`]: crate::evaluate_ej_boolean
/// [`generic_join_boolean`]: crate::generic_join_boolean
/// [`generic_join_enumerate`]: crate::generic_join_enumerate
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalContext<'c> {
    /// Decomposition memo shared across calls; `None` computes each
    /// decomposition afresh.
    pub decompositions: Option<&'c DecompositionMemo>,
    /// Evaluation-local ledger for exact per-evaluation trie and planning
    /// statistics; `None` skips the accounting and never reads the clock.
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
    use crate::BoundAtom;
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

    #[test]
    fn the_ledger_counts_only_its_own_lookups_and_plans() {
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0], vec![2.0]]);
        let atom = BoundAtom::new(&r, vec![0]);
        // Another caller's lookup (no ledger attached) builds the trie.
        let other = crate::FlatTrie::memoised(&atom, &[0], EvalContext::default()).unwrap();
        let mine = EvalActivity::new();
        let eval = EvalContext {
            activity: Some(&mine),
            ..EvalContext::default()
        };
        // My lookups: a hit on that trie, then a miss on another level order
        // of another binding.
        let hit = crate::FlatTrie::memoised(&atom, &[0], eval).unwrap();
        assert!(Arc::ptr_eq(&other, &hit));
        let pair = rel(&dict, "P", vec![vec![1.0, 2.0]]);
        let built =
            crate::FlatTrie::memoised(&BoundAtom::new(&pair, vec![1, 0]), &[0, 1], eval).unwrap();
        assert_eq!((mine.hits(), mine.misses(), mine.built()), (1, 1, 1));
        assert_eq!(mine.built_bytes(), built.heap_bytes());
        let stats = TrieCacheStats {
            hits: mine.hits(),
            misses: mine.misses(),
            ..TrieCacheStats::default()
        };
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // Plans and their time add up beside the lookups.
        mine.record_plan(10);
        mine.record_plan(5);
        assert_eq!(mine.plans(), 2);
        assert_eq!(mine.planning_nanos(), 15);
    }

    #[test]
    fn a_memo_computes_each_decomposition_once() {
        // The triangle R(A, B) ∧ S(B, C) ∧ T(A, C).
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", vec![vec![1.0, 2.0]]);
        let atoms = [
            BoundAtom::new(&r, vec![0, 1]),
            BoundAtom::new(&r, vec![1, 2]),
            BoundAtom::new(&r, vec![0, 2]),
        ];
        let h = crate::hypergraph_of(&atoms).0;
        let memo = DecompositionMemo::new();
        let first = memo.decomposition(&h);
        assert_eq!(first.bags.len(), 1, "one bag {{A, B, C}}");
        assert!(Arc::ptr_eq(&first, &memo.decomposition(&h)));
        // Another memo computes its own.
        let other = DecompositionMemo::new().decomposition(&h);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(other.bags, first.bags);
    }
}
