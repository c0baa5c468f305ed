//! Poison-recovering lock acquisition for the state concurrent evaluations
//! share — and a runtime **lock-order detector** over it.
//!
//! # Poison recovery
//!
//! The dictionaries and the relations' memos are shared by every concurrent
//! evaluation of a workspace.  A panicking worker thread elsewhere (isolated by
//! `catch_unwind`) may still have been holding one of these locks when it
//! unwound, which marks the lock *poisoned* — and a bare `.unwrap()` on the
//! next acquisition would then abort an unrelated evaluation.
//!
//! These helpers recover the guard instead.  **Why that is sound here**:
//! every critical section protecting cross-referencing state in this
//! codebase is written to be *panic-atomic* — either
//!
//! 1. the section only reads, or performs a single insert/remove whose
//!    partial effects cannot be observed (the map entry is written last),
//!    or
//! 2. the only panic sources inside the section are injected failpoints
//!    placed **before** the first mutation.
//!
//! Under that discipline a poisoned lock guards data that is still
//! consistent, so recovering the guard is strictly better than aborting:
//! the poison flag carries no information the invariants don't already
//! guarantee.
//!
//! A bare `Mutex::lock` / `RwLock::read` / `RwLock::write` is therefore
//! **forbidden everywhere outside this module**: the workspace `clippy.toml`
//! lists the three as `disallowed-methods`, and this module is the one
//! exemption.
//!
//! # Lock classes and the order detector
//!
//! Every acquisition names its **lock class** — a caller-supplied
//! `&'static str` identifying the lock's role (`"dictionary"`,
//! `"relation-memos"`, …), not the individual lock instance.  In debug
//! builds (and release builds with the `lock-order` cargo feature) the
//! helpers record, per thread, which classes are currently held, and feed
//! every *nested* acquisition into a process-wide acquisition-order graph:
//! holding `A` while acquiring `B` records the edge `A → B`.  An acquisition
//! that would close a **cycle** in that graph — the classic inverted-order
//! deadlock, like the opposite-direction workspace-import deadlock this
//! engine once fixed by hand — panics *before blocking*, with both
//! conflicting acquisition backtraces (the stored stack that recorded the
//! inverse order and the current one).  See [`lock_order`].
//!
//! Acquiring a class the thread already holds is a cycle too (the edge
//! `A → A`), and panics the same way: on one `RwLock` it is the recursive
//! read that deadlocks against a writer queued in between, on one `Mutex` a
//! self-deadlock, and a detector keyed by class names cannot tell two
//! instances of a class apart, so no code nests two locks of one class.
//!
//! In release builds without the feature the bookkeeping compiles away: the
//! guards still carry a (zero-sized) token, but no thread-local or global
//! state is touched.
//!
//! # Example
//!
//! ```
//! use ij_relation::sync::{lock_recover, read_recover, write_recover};
//! use std::sync::{Mutex, RwLock};
//!
//! let m = Mutex::new(1);
//! let rw = RwLock::new(2);
//! assert_eq!(*lock_recover(&m, "doc-mutex"), 1);
//! assert_eq!(*read_recover(&rw, "doc-rwlock"), 2);
//! *write_recover(&rw, "doc-rwlock") += 1;
//! assert_eq!(*read_recover(&rw, "doc-rwlock"), 3);
//! ```

#![expect(clippy::disallowed_methods, reason = "home of the *_recover helpers")]

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A lock guard wrapped with its lock-order bookkeeping token: dereferences
/// like the underlying guard, and unregisters its lock class from the
/// thread's held set when dropped (after the lock itself is released —
/// fields drop in declaration order).
pub struct Tracked<G> {
    guard: G,
    _held: lock_order::Held,
}

impl<G: Deref> Deref for Tracked<G> {
    type Target = G::Target;

    fn deref(&self) -> &Self::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Tracked<G> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.guard
    }
}

/// A tracked shared-read guard ([`read_recover`]).
pub type ReadGuard<'a, T> = Tracked<RwLockReadGuard<'a, T>>;

/// A tracked exclusive-write guard ([`write_recover`]).
pub type WriteGuard<'a, T> = Tracked<RwLockWriteGuard<'a, T>>;

/// A tracked mutex guard ([`lock_recover`]).
pub type LockGuard<'a, T> = Tracked<MutexGuard<'a, T>>;

/// Acquires a shared read guard, recovering from poison (see the
/// [module docs](self) for why recovery is sound).  `class` names the lock's
/// class for the [`lock_order`] detector.
pub fn read_recover<'a, T: ?Sized>(lock: &'a RwLock<T>, class: &'static str) -> ReadGuard<'a, T> {
    let held = lock_order::on_acquire(class);
    Tracked {
        guard: lock.read().unwrap_or_else(|e| e.into_inner()),
        _held: held,
    }
}

/// Acquires an exclusive write guard, recovering from poison (see the
/// [module docs](self) for why recovery is sound).  `class` names the lock's
/// class for the [`lock_order`] detector.
pub fn write_recover<'a, T: ?Sized>(lock: &'a RwLock<T>, class: &'static str) -> WriteGuard<'a, T> {
    let held = lock_order::on_acquire(class);
    Tracked {
        guard: lock.write().unwrap_or_else(|e| e.into_inner()),
        _held: held,
    }
}

/// Acquires a mutex guard, recovering from poison (see the
/// [module docs](self) for why recovery is sound).  `class` names the lock's
/// class for the [`lock_order`] detector.
pub fn lock_recover<'a, T: ?Sized>(lock: &'a Mutex<T>, class: &'static str) -> LockGuard<'a, T> {
    let held = lock_order::on_acquire(class);
    Tracked {
        guard: lock.lock().unwrap_or_else(|e| e.into_inner()),
        _held: held,
    }
}

/// The runtime lock-order (deadlock-potential) detector behind the
/// [`read_recover`] / [`write_recover`] / [`lock_recover`] helpers.
///
/// Active in debug builds and under the `lock-order` cargo feature
/// ([`enabled`](lock_order::enabled) reports which); a plain release build compiles all of it
/// away.  While active it maintains:
///
/// * a per-thread stack of currently-held lock **classes**;
/// * a global **acquisition-order graph**: one edge `A → B` per observed
///   "acquired class `B` while holding class `A`" pair, stamped with the
///   backtrace of the first acquisition that recorded it.
///
/// An acquisition whose new edge would close a cycle panics immediately —
/// *before* blocking on the lock, so a true two-thread deadlock in flight is
/// converted into a diagnostic on one of the threads while the other
/// proceeds.  The panic message contains the cycle's class path and both
/// conflicting backtraces.  The offending edge is still recorded, so
/// [`find_cycle`](lock_order::find_cycle) reports it afterwards (useful when the panic was swallowed
/// by a `catch_unwind` worker boundary) and the same inversion does not
/// panic a second time.
pub mod lock_order {
    /// `true` when the detector is compiled in and recording (debug builds,
    /// or any build with the `lock-order` cargo feature).
    pub const fn enabled() -> bool {
        cfg!(any(debug_assertions, feature = "lock-order"))
    }

    /// The bookkeeping token carried by a [`Tracked`](super::Tracked) guard:
    /// removes its class from the thread's held set on drop.  Zero-sized and
    /// inert when the detector is disabled.
    pub struct Held {
        #[cfg(any(debug_assertions, feature = "lock-order"))]
        class: &'static str,
    }

    #[cfg(any(debug_assertions, feature = "lock-order"))]
    pub(crate) fn on_acquire(class: &'static str) -> Held {
        imp::record_acquisition(class);
        Held { class }
    }

    #[cfg(not(any(debug_assertions, feature = "lock-order")))]
    pub(crate) fn on_acquire(_class: &'static str) -> Held {
        Held {}
    }

    #[cfg(any(debug_assertions, feature = "lock-order"))]
    impl Drop for Held {
        fn drop(&mut self) {
            imp::record_release(self.class);
        }
    }

    /// Every acquisition-order edge recorded so far, sorted; each pair
    /// `(a, b)` means "some thread acquired class `b` while holding class
    /// `a`".  Empty when the detector is disabled.
    pub fn snapshot() -> Vec<(&'static str, &'static str)> {
        #[cfg(any(debug_assertions, feature = "lock-order"))]
        {
            imp::snapshot()
        }
        #[cfg(not(any(debug_assertions, feature = "lock-order")))]
        {
            Vec::new()
        }
    }

    /// Every lock class acquired so far through the recover helpers, sorted.
    /// Empty when the detector is disabled.
    pub fn classes_seen() -> Vec<&'static str> {
        #[cfg(any(debug_assertions, feature = "lock-order"))]
        {
            imp::classes_seen()
        }
        #[cfg(not(any(debug_assertions, feature = "lock-order")))]
        {
            Vec::new()
        }
    }

    /// A cycle in the recorded acquisition-order graph, as the class path
    /// `[a, b, …, a]`, if one was ever recorded (the recording acquisition
    /// also panicked at the time; see the module docs).  `None` when the
    /// graph is acyclic or the detector is disabled.
    pub fn find_cycle() -> Option<Vec<&'static str>> {
        #[cfg(any(debug_assertions, feature = "lock-order"))]
        {
            imp::find_cycle()
        }
        #[cfg(not(any(debug_assertions, feature = "lock-order")))]
        {
            None
        }
    }

    #[cfg(any(debug_assertions, feature = "lock-order"))]
    mod imp {
        use std::cell::RefCell;
        use std::collections::{BTreeSet, HashMap, HashSet};
        use std::sync::{Arc, Mutex, OnceLock};

        struct Graph {
            /// `(held, acquired)` → backtrace of the acquisition that first
            /// recorded the edge.
            edges: HashMap<(&'static str, &'static str), Arc<str>>,
        }

        fn graph() -> &'static Mutex<Graph> {
            static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
            GRAPH.get_or_init(|| {
                Mutex::new(Graph {
                    edges: HashMap::new(),
                })
            })
        }

        fn seen() -> &'static Mutex<BTreeSet<&'static str>> {
            static SEEN: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
            SEEN.get_or_init(|| Mutex::new(BTreeSet::new()))
        }

        thread_local! {
            /// Classes currently held by this thread, in acquisition order.
            static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
            /// Edges this thread already pushed to (or confirmed in) the
            /// global graph — the fast path that keeps steady-state
            /// acquisitions off the global mutex.
            static KNOWN: RefCell<HashSet<(&'static str, &'static str)>> =
                RefCell::new(HashSet::new());
            /// Classes this thread already reported to the global seen-set.
            static SEEN_LOCAL: RefCell<HashSet<&'static str>> = RefCell::new(HashSet::new());
        }

        pub(super) fn record_acquisition(class: &'static str) {
            // `try_with`: acquisitions during thread-local teardown are
            // invisible to the detector rather than aborting the process.
            let _ = SEEN_LOCAL.try_with(|local| {
                if local.borrow_mut().insert(class) {
                    seen()
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(class);
                }
            });
            let _ = HELD.try_with(|held| {
                let nested: Vec<&'static str> = held.borrow().clone();
                for h in nested {
                    note_edge(h, class);
                }
                held.borrow_mut().push(class);
            });
        }

        pub(super) fn record_release(class: &'static str) {
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&c| c == class) {
                    held.remove(pos);
                }
            });
        }

        /// Records the edge `from → to`, panicking if it closes a cycle.
        fn note_edge(from: &'static str, to: &'static str) {
            let cached = KNOWN
                .try_with(|k| k.borrow().contains(&(from, to)))
                .unwrap_or(true);
            if cached {
                return;
            }
            let conflict = {
                let mut g = graph().lock().unwrap_or_else(|e| e.into_inner());
                if g.edges.contains_key(&(from, to)) {
                    None
                } else {
                    // A path `to →* from` plus the new edge is a cycle (the
                    // path is `[to]` alone when `to` is `from`).
                    let path = path_between(&g.edges, to, from);
                    let prior = path
                        .as_ref()
                        .and_then(|p| g.edges.get(&(p[0], *p.get(1)?)))
                        .cloned();
                    let stack: Arc<str> =
                        format!("{}", std::backtrace::Backtrace::force_capture()).into();
                    // Record even a cycle-closing edge: find_cycle() can then
                    // report it after a catch_unwind boundary swallowed the
                    // panic, and the same inversion never panics twice.
                    g.edges.insert((from, to), stack.clone());
                    path.map(|p| (p, prior, stack))
                }
            };
            let _ = KNOWN.try_with(|k| k.borrow_mut().insert((from, to)));
            if let Some((path, prior, stack)) = conflict {
                if from == to {
                    panic!(
                        "lock-order cycle: acquiring lock class `{to}` while this thread \
                         already holds it — a recursive acquisition, a potential deadlock.\n\
                         --- current acquisition of `{to}`:\n{stack}"
                    );
                }
                let chain = path.join("` → `");
                let prior = prior.as_deref().unwrap_or("<unavailable>");
                panic!(
                    "lock-order cycle: acquiring lock class `{to}` while holding `{from}`, \
                     but the opposite order `{chain}` is already recorded — a potential \
                     deadlock.\n\
                     --- earlier acquisition that recorded `{p0}` → `{p1}`:\n{prior}\n\
                     --- current acquisition of `{to}` (while holding `{from}`):\n{stack}",
                    p0 = path[0],
                    p1 = path[1],
                );
            }
        }

        /// A path `start →* goal` in the edge set, as the visited class
        /// list (`[start]` alone when `start` is `goal`), if one exists.
        fn path_between(
            edges: &HashMap<(&'static str, &'static str), Arc<str>>,
            start: &'static str,
            goal: &'static str,
        ) -> Option<Vec<&'static str>> {
            // Depth-first over a graph of a handful of classes.
            fn dfs(
                edges: &HashMap<(&'static str, &'static str), Arc<str>>,
                here: &'static str,
                goal: &'static str,
                seen: &mut HashSet<&'static str>,
                path: &mut Vec<&'static str>,
            ) -> bool {
                path.push(here);
                if here == goal {
                    return true;
                }
                for &(a, b) in edges.keys() {
                    if a == here && seen.insert(b) && dfs(edges, b, goal, seen, path) {
                        return true;
                    }
                }
                path.pop();
                false
            }
            let mut path = Vec::new();
            let mut seen = HashSet::from([start]);
            dfs(edges, start, goal, &mut seen, &mut path).then_some(path)
        }

        pub(super) fn snapshot() -> Vec<(&'static str, &'static str)> {
            let g = graph().lock().unwrap_or_else(|e| e.into_inner());
            let mut edges: Vec<_> = g.edges.keys().copied().collect();
            edges.sort_unstable();
            edges
        }

        pub(super) fn classes_seen() -> Vec<&'static str> {
            seen()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .copied()
                .collect()
        }

        pub(super) fn find_cycle() -> Option<Vec<&'static str>> {
            let g = graph().lock().unwrap_or_else(|e| e.into_inner());
            // Probe every edge's head back to its tail: edge a → b plus a
            // path b →* a is a cycle through that edge (`[a, a]` for a
            // self-edge).
            for &(a, b) in g.edges.keys() {
                if let Some(mut p) = path_between(&g.edges, b, a) {
                    p.push(b);
                    return Some(p);
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn recovers_guards_after_a_panicking_holder() {
        let m = Arc::new(Mutex::new(10));
        let rw = Arc::new(RwLock::new(20));
        {
            let (m, rw) = (Arc::clone(&m), Arc::clone(&rw));
            let _ = std::thread::spawn(move || {
                let _mg = m.lock().unwrap();
                let _wg = rw.write().unwrap();
                panic!("poison both");
            })
            .join();
        }
        assert!(m.is_poisoned());
        assert!(rw.is_poisoned());
        assert_eq!(*lock_recover(&m, "poison-test-mutex"), 10);
        assert_eq!(*read_recover(&rw, "poison-test-rwlock"), 20);
        *write_recover(&rw, "poison-test-rwlock") += 1;
        assert_eq!(*read_recover(&rw, "poison-test-rwlock"), 21);
    }

    #[test]
    fn consistent_nesting_records_an_edge_and_stays_silent() {
        if !lock_order::enabled() {
            return;
        }
        let outer = Mutex::new(());
        let inner = Mutex::new(());
        for _ in 0..3 {
            let _o = lock_recover(&outer, "nest-outer");
            let _i = lock_recover(&inner, "nest-inner");
        }
        assert!(lock_order::snapshot().contains(&("nest-outer", "nest-inner")));
        assert!(lock_order::classes_seen().contains(&"nest-outer"));
        // Re-acquiring in the same order after release is not a cycle.
        let _o = lock_recover(&outer, "nest-outer");
    }

    /// A second read of one `RwLock` on the same thread — the recursive
    /// read that deadlocks against a writer queued in between — panics
    /// before it blocks.  Compiled only where the detector is armed.
    #[test]
    #[cfg(any(debug_assertions, feature = "lock-order"))]
    #[should_panic(expected = "already holds it")]
    fn same_class_nesting_is_a_cycle() {
        let lock = RwLock::new(1);
        let _outer = read_recover(&lock, "self-class");
        let _inner = read_recover(&lock, "self-class");
    }

    #[test]
    fn detects_inverted_acquisition_order_across_threads() {
        if !lock_order::enabled() {
            return;
        }
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        // Thread 1 records cyc-a → cyc-b and exits cleanly.
        {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            std::thread::spawn(move || {
                let _ga = lock_recover(&a, "cyc-a");
                let _gb = lock_recover(&b, "cyc-b");
            })
            .join()
            .expect("the forward order is clean");
        }
        // Thread 2 inverts the order: the second acquisition must panic
        // (before blocking) with both classes named.
        let payload = {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            std::thread::spawn(move || {
                let _gb = lock_recover(&b, "cyc-b");
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ga = lock_recover(&a, "cyc-a");
                }))
                .expect_err("inverted order must panic");
                *err.downcast::<String>().expect("panic carries a message")
            })
            .join()
            .expect("the panic is caught inside the thread")
        };
        assert!(payload.contains("lock-order cycle"), "{payload}");
        assert!(payload.contains("`cyc-a`"), "{payload}");
        assert!(payload.contains("`cyc-b`"), "{payload}");
        assert!(payload.contains("current acquisition"), "{payload}");
        assert!(payload.contains("earlier acquisition"), "{payload}");
        // The cycle is durably recorded for post-hoc inspection…
        let cycle = lock_order::find_cycle().expect("cycle recorded");
        assert!(
            cycle.contains(&"cyc-a") && cycle.contains(&"cyc-b"),
            "{cycle:?}"
        );
        // …and the same inversion does not panic a second time (it is a
        // known edge now — first-occurrence reporting).
        let _gb = lock_recover(&b, "cyc-b");
        let _ga = lock_recover(&a, "cyc-a");
    }

    #[test]
    fn disabled_detector_reports_nothing() {
        if lock_order::enabled() {
            return;
        }
        let m = Mutex::new(5);
        assert_eq!(*lock_recover(&m, "disabled-probe"), 5);
        assert!(lock_order::snapshot().is_empty());
        assert!(lock_order::classes_seen().is_empty());
        assert!(lock_order::find_cycle().is_none());
    }
}
