//! Deterministic, std-only failpoint registry for fault-injection tests.
//!
//! The pipeline is instrumented with the **sites** of [`Site`] —
//! [`Site::TrieBuild`], [`Site::RelationMemo`], [`Site::ReductionTransform`]
//! — each a single [`point`] call on a hot path.  A site is an enum variant,
//! not a string, so a misspelled site does not compile.  In a normal build
//! [`point`] compiles to nothing.  With the `failpoints` cargo feature
//! (enabled only by the fault-injection tests and never by default), a test
//! can *arm* a site ([`configure`]) so that its N-th execution injects a
//! panic or a delay, then assert that the evaluation either returns the
//! correct answer or a typed error — never a wrong answer, never a hang —
//! and that the workspace stays consistent afterwards.
//!
//! Schedules are deterministic: an armed site fires on an exact occurrence
//! count and disarms itself after firing, so a seed-driven test sweep
//! reproduces byte-for-byte.  Tests arming sites must serialise on a lock
//! (the registry is process-global) and [`clear`] it when done.
//!
//! # Writing a failpoint test
//!
//! ```
//! use ij_relation::faults::{self, FaultAction, Site};
//!
//! // Arm the site so its first hit panics…
//! faults::configure(Site::TrieBuild, 0, FaultAction::Panic);
//! // …run the evaluation under test; the injected panic is isolated by the
//! // engine's catch_unwind boundary and surfaces as EvalError::WorkerPanicked.
//! // (Without the `failpoints` feature, configure/point are no-ops.)
//! faults::clear();
//! ```

#[cfg(feature = "failpoints")]
use crate::sync::lock_recover;

/// Lock class of the failpoint registry (`sync::lock_order`).  Acquired
/// under a relation's memo lock (the `relation-memo` site), so the registry
/// itself must never acquire engine locks while held — it never does:
/// injected actions run after the guard is dropped.
#[cfg(feature = "failpoints")]
const FAILPOINT_REGISTRY: &str = "failpoint-registry";
#[cfg(feature = "failpoints")]
use std::collections::HashMap;
#[cfg(feature = "failpoints")]
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// The failpoint sites: every [`point`], [`configure`] and [`hits`] call
/// names one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// At the start of every trie build (`FlatTrie::build`), on the disjunct
    /// worker that found no trie memoised on the relation.
    TrieBuild,
    /// Under a relation's memo lock, just before a built trie or projection
    /// is published into the memo
    /// ([`Relation::memoised`](crate::Relation::memoised)).
    RelationMemo,
    /// At the start of every transformed-relation build of the forward
    /// reduction — on the disjunct worker that first reads the relation, or
    /// on the caller's thread under `forward_reduction_with*`.
    ReductionTransform,
}

impl Site {
    /// Every site.
    pub const ALL: [Site; 3] = [
        Site::TrieBuild,
        Site::RelationMemo,
        Site::ReductionTransform,
    ];
}

/// The site's name, as injected panics report it: `trie-build`,
/// `relation-memo` or `reduction-transform`.
impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Site::TrieBuild => "trie-build",
            Site::RelationMemo => "relation-memo",
            Site::ReductionTransform => "reduction-transform",
        })
    }
}

/// What an armed failpoint injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a message naming the site (isolated by the evaluation's
    /// `catch_unwind` boundaries and surfaced as `WorkerPanicked`).
    Panic,
    /// Sleep for the given duration (models a stalled worker; exercises the
    /// deadline and watchdog paths).
    Delay(Duration),
}

#[cfg(feature = "failpoints")]
#[derive(Debug, Default)]
struct Schedule {
    /// Total executions of this site since the last [`clear`].
    hits: usize,
    /// Armed schedule: fire when `hits` passes `at`, then disarm.
    armed: Option<(usize, FaultAction)>,
}

#[cfg(feature = "failpoints")]
fn registry() -> &'static Mutex<HashMap<Site, Schedule>> {
    static REGISTRY: OnceLock<Mutex<HashMap<Site, Schedule>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arms `site` to fire `action` on its `after`-th subsequent execution
/// (`after = 0` fires on the very next hit).  Occurrence counting starts
/// from the site's current hit count, and the site disarms itself after
/// firing once.  No-op without the `failpoints` feature.
#[cfg(feature = "failpoints")]
pub fn configure(site: Site, after: usize, action: FaultAction) {
    let mut reg = lock_recover(registry(), FAILPOINT_REGISTRY);
    let entry = reg.entry(site).or_default();
    entry.armed = Some((entry.hits + after, action));
}

/// Arms `site` (no-op twin: the `failpoints` feature is disabled).
#[cfg(not(feature = "failpoints"))]
pub fn configure(_site: Site, _after: usize, _action: FaultAction) {}

/// Disarms every site and resets all hit counters.  No-op without the
/// `failpoints` feature.
#[cfg(feature = "failpoints")]
pub fn clear() {
    lock_recover(registry(), FAILPOINT_REGISTRY).clear();
}

/// Disarms every site (no-op twin: the `failpoints` feature is disabled).
#[cfg(not(feature = "failpoints"))]
pub fn clear() {}

/// Executions of `site` since the last [`clear`].  Always 0 without the
/// `failpoints` feature.
#[cfg(feature = "failpoints")]
pub fn hits(site: Site) -> usize {
    lock_recover(registry(), FAILPOINT_REGISTRY)
        .get(&site)
        .map_or(0, |s| s.hits)
}

/// Executions of `site` (no-op twin: always 0, the `failpoints` feature is
/// disabled).
#[cfg(not(feature = "failpoints"))]
pub fn hits(_site: Site) -> usize {
    0
}

/// A named failpoint site: counts the execution and fires the armed action
/// if its occurrence has come.  The registry lock is released **before**
/// the action runs, so an injected panic never poisons the registry and an
/// injected delay never blocks other sites.
#[cfg(feature = "failpoints")]
pub fn point(site: Site) {
    let action = {
        let mut reg = lock_recover(registry(), FAILPOINT_REGISTRY);
        let entry = reg.entry(site).or_default();
        let hit = entry.hits;
        entry.hits += 1;
        match entry.armed {
            Some((at, action)) if hit >= at => {
                entry.armed = None;
                Some(action)
            }
            _ => None,
        }
    };
    match action {
        Some(FaultAction::Panic) => panic!("failpoint `{site}` injected a panic"),
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        None => {}
    }
}

/// A named failpoint site (no-op twin: compiles to nothing, the
/// `failpoints` feature is disabled).
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn point(_site: Site) {}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    // The registry is process-global; these tests serialise on it.
    fn serial() -> crate::sync::LockGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock_recover(&LOCK, "failpoint-test-serial")
    }

    #[test]
    fn fires_on_the_scheduled_occurrence_then_disarms() {
        let _g = serial();
        clear();
        configure(Site::TrieBuild, 2, FaultAction::Panic);
        point(Site::TrieBuild);
        point(Site::TrieBuild);
        assert!(std::panic::catch_unwind(|| point(Site::TrieBuild)).is_err());
        // Disarmed: later hits are clean.
        point(Site::TrieBuild);
        assert_eq!(hits(Site::TrieBuild), 4);
        assert_eq!(hits(Site::RelationMemo), 0);
        clear();
    }

    #[test]
    fn delay_sleeps_without_panicking() {
        let _g = serial();
        clear();
        configure(
            Site::RelationMemo,
            0,
            FaultAction::Delay(Duration::from_millis(1)),
        );
        let start = std::time::Instant::now();
        point(Site::RelationMemo);
        assert!(start.elapsed() >= Duration::from_millis(1));
        clear();
    }

    #[test]
    fn scheduling_counts_from_the_current_hit_count() {
        let _g = serial();
        clear();
        point(Site::ReductionTransform);
        point(Site::ReductionTransform);
        configure(Site::ReductionTransform, 1, FaultAction::Panic);
        point(Site::ReductionTransform); // skipped: fires after one more
        assert!(std::panic::catch_unwind(|| point(Site::ReductionTransform)).is_err());
        clear();
    }
}
