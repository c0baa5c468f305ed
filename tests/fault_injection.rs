//! Fault-injection hardening tests (the `failpoints` feature).
//!
//! The pipeline is instrumented with named failpoint sites
//! (`ij_engine::faults`): `reduction-transform` in the forward reduction's
//! per-relation build (which runs on a disjunct worker, the first time a
//! disjunct binds the relation), `trie-build` at every trie construction, and
//! `trie-memo` under a relation's memo lock, just before a built trie is
//! published.  These tests arm each site with deterministic panic and delay
//! schedules and assert the robustness contract:
//!
//! * an evaluation under fault returns the **correct answer or a typed
//!   error** ([`EvalError::WorkerPanicked`] for injected panics) — never a
//!   wrong answer, never a raw panic on the caller, never a hang (every
//!   faulted run is watchdog-bounded);
//! * after [`faults::clear`], a clean evaluation **of the same reduction**
//!   returns the correct answer, and a second clean run finds every trie
//!   memoised (zero misses) — an injected panic never leaves a poisoned lock
//!   or a half-built memo entry behind.
//!
//! The failpoint registry is process-global, so every test serialises on one
//! mutex.  Run with `cargo test --features failpoints --test fault_injection`
//! (CI runs it in `--release` under a hard timeout); without the feature this
//! file compiles to an empty test binary.
#![cfg(feature = "failpoints")]

use ij_engine::faults::{self, FaultAction, Site};
use ij_engine::{CancellationToken, EngineConfig, EngineError, EvalError, Workspace};
use ij_reduction::{plan_forward_reduction, ReductionConfig};
use ij_workloads::{build_scenario, PlantedAnswer, ScenarioConfig, ScenarioFamily};
use std::sync::mpsc;
use std::sync::{Mutex, Once};
use std::time::Duration;

/// Sites exercised by the small-scenario sweep: every declared site.
const SWEEP_SITES: [Site; 3] = Site::ALL;

/// The failpoint registry is process-global: all tests serialise here.
fn serial() -> ij_relation::sync::LockGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    ij_relation::sync::lock_recover(&LOCK, "fault-test-serial")
}

/// Installs (once) a panic hook that silences injected failpoint panics —
/// they are expected by the dozens here — while leaving every other panic's
/// diagnostics intact.
fn hush_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("failpoint") {
                prev(info);
            }
        }));
    });
}

/// Runs `f` on its own thread and panics if it neither returns nor panics
/// within the watchdog bound — the "never hang" half of the contract.
fn with_watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(value) => value,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: evaluation hung past the 120 s watchdog bound")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("{label}: evaluation escaped as a raw panic instead of a typed error")
        }
    }
}

/// One fault case, end to end, on a fresh kept reduction: arm `site`,
/// evaluate it (watchdog-bounded), check correct-or-typed-error, then clear
/// and verify the same reduction still produces the correct answer with
/// consistent memos (second clean run all-hits).
fn run_case(family: ScenarioFamily, site: Site, after: usize, action: FaultAction) {
    let label = format!("{family:?}/{site}/after={after}/{action:?}");
    let outcome = with_watchdog(&label, move || {
        let cfg = ScenarioConfig::new(family)
            .with_tuples(12)
            .with_seed(0)
            .with_planted(PlantedAnswer::Unsatisfiable);
        let scenario = build_scenario(&cfg);
        let ws = Workspace::new();
        let db = ws.import_database(&scenario.database);
        let engine = ws.engine(EngineConfig::new().with_parallelism(1));
        let reduction =
            plan_forward_reduction(&scenario.query, &db, ReductionConfig::default(), None)
                .expect("plan succeeds");

        faults::clear();
        faults::configure(site, after, action);
        let faulted = engine.evaluate_reduction(&reduction);
        let fired = faults::hits(site) > after;
        faults::clear();

        // Recovery on the same reduction: correct answer, then a warm run
        // that finds every trie memoised.
        let clean = engine
            .evaluate_reduction(&reduction)
            .expect("clean evaluation after a cleared fault succeeds");
        let warm = engine
            .evaluate_reduction(&reduction)
            .expect("warm evaluation succeeds");
        (faulted, fired, clean, warm)
    });
    let (faulted, fired, clean, warm) = outcome;

    // The planted answer is unsatisfiable: every successful run must say so.
    match (&faulted, action) {
        (Ok(stats), _) => assert!(!stats.answer, "{label}: faulted run answered true"),
        (Err(EvalError::WorkerPanicked { .. }), FaultAction::Panic) => {}
        (Err(e), FaultAction::Panic) => {
            panic!("{label}: injected panic surfaced as {e:?}, expected WorkerPanicked")
        }
        (Err(e), FaultAction::Delay(_)) => {
            panic!("{label}: a deadline-free delay must not fail, got {e:?}")
        }
    }
    if fired && matches!(action, FaultAction::Panic) {
        assert!(
            faulted.is_err(),
            "{label}: the armed panic fired but the evaluation reported success"
        );
    }
    assert!(
        !clean.answer,
        "{label}: clean run after fault answered true"
    );
    assert!(!warm.answer, "{label}: warm run answered true");
    assert_eq!(
        warm.trie_cache.misses, 0,
        "{label}: the fault left a memo inconsistent (warm run rebuilt: {:?})",
        warm.trie_cache
    );
}

/// Every sweep site actually executes somewhere in the sweep — otherwise the
/// panic sweep below would be vacuous.  `reduction-transform` fires on every
/// family; the trie sites fire only on families whose disjuncts take the
/// generic-WCOJ path (acyclic queries go through Yannakakis and build no
/// tries), so those are asserted over the union of families.
#[test]
fn sweep_sites_fire_across_the_families() {
    let _guard = serial();
    let mut union: std::collections::HashMap<Site, usize> = std::collections::HashMap::new();
    for family in ScenarioFamily::ALL {
        let cfg = ScenarioConfig::new(family)
            .with_tuples(12)
            .with_seed(0)
            .with_planted(PlantedAnswer::Unsatisfiable);
        let scenario = build_scenario(&cfg);
        let ws = Workspace::new();
        let db = ws.import_database(&scenario.database);
        faults::clear();
        let stats = ws
            .engine(EngineConfig::new().with_parallelism(1))
            .evaluate_cancellable(&scenario.query, &db, None)
            .expect("clean probe succeeds");
        assert!(!stats.answer, "{family:?}: planted-unsatisfiable probe");
        assert!(
            faults::hits(Site::ReductionTransform) > 0,
            "{family:?}: the forward reduction never reached its failpoint"
        );
        for site in SWEEP_SITES {
            *union.entry(site).or_default() += faults::hits(site);
        }
        faults::clear();
    }
    for site in SWEEP_SITES {
        assert!(
            union.get(&site).copied().unwrap_or(0) > 0,
            "site `{site}` never executed on any family — the sweep would be vacuous"
        );
    }
}

/// Injected panics at every site × family × early/late occurrence surface as
/// [`EvalError::WorkerPanicked`] (never a wrong answer, never a raw panic),
/// and the workspace stays fully usable afterwards.
#[test]
fn injected_panics_surface_as_typed_errors_and_workspaces_recover() {
    let _guard = serial();
    hush_injected_panics();
    for family in ScenarioFamily::ALL {
        for site in SWEEP_SITES {
            for after in [0, 2] {
                run_case(family, site, after, FaultAction::Panic);
            }
        }
    }
}

/// A relation build that panics on a disjunct worker: the evaluation reports
/// [`EvalError::WorkerPanicked`], the relation stays unbuilt (no partial
/// relation is ever published), and the *same* reduction then evaluates
/// correctly on the same engine — the failed build is simply run again.
/// Builds are started once per relation, plus once for the build that
/// panicked and once more if the sibling worker's build was in flight when
/// the panic cancelled the pool; without a fault it is exactly once per
/// relation, whatever the workers' interleaving: a worker that needs a
/// relation another worker is building waits for it.
#[test]
fn a_panicking_relation_build_leaves_the_relation_unbuilt() {
    let _guard = serial();
    hush_injected_panics();
    for family in ScenarioFamily::ALL {
        let label = format!("{family:?}");
        let (faulted, built_after_fault, clean, (builds, clean_builds), planned) =
            with_watchdog(&label, move || {
                let cfg = ScenarioConfig::new(family)
                    .with_tuples(12)
                    .with_seed(0)
                    .with_planted(PlantedAnswer::Unsatisfiable);
                let scenario = build_scenario(&cfg);
                let ws = Workspace::new();
                let db = ws.import_database(&scenario.database);
                let engine = ws.engine(EngineConfig::new().with_parallelism(2));
                let plan =
                    plan_forward_reduction(&scenario.query, &db, ReductionConfig::default(), None)
                        .expect("planning succeeds");

                faults::clear();
                faults::configure(Site::ReductionTransform, 1, FaultAction::Panic);
                let faulted = engine.evaluate_reduction(&plan);
                let built_after_fault = plan.relations().count();
                let clean = engine
                    .evaluate_reduction(&plan)
                    .expect("the same reduction evaluates once the fault is spent");
                let builds = faults::hits(Site::ReductionTransform);
                faults::clear();

                let fresh =
                    plan_forward_reduction(&scenario.query, &db, ReductionConfig::default(), None)
                        .expect("planning succeeds");
                ws.engine(EngineConfig::new().with_parallelism(4))
                    .evaluate_reduction(&fresh)
                    .expect("clean evaluation succeeds");
                let clean_builds = faults::hits(Site::ReductionTransform);
                faults::clear();
                (
                    faulted,
                    built_after_fault,
                    clean,
                    (builds, clean_builds),
                    plan.stats.num_relations,
                )
            });
        match faulted {
            Err(EvalError::WorkerPanicked { atom, payload }) => {
                assert!(atom.starts_with("disjunct"), "{label}: {atom}");
                assert!(payload.contains("failpoint"), "{label}: {payload}");
            }
            other => panic!("{label}: expected WorkerPanicked, got {other:?}"),
        }
        assert!(
            built_after_fault < planned,
            "{label}: {built_after_fault} of {planned} relations built despite the panic"
        );
        assert!(!clean.answer, "{label}: planted-unsatisfiable");
        assert_eq!(clean.reduction.relations_built, planned, "{label}");
        assert!(
            (planned + 1..=planned + 2).contains(&builds),
            "{label}: {builds} builds started for {planned} relations"
        );
        assert_eq!(clean_builds, planned, "{label}: a relation was built twice");
    }
}

/// A panic in each of the first four relation builds of a plan at
/// parallelism 2, where the caller binds disjunct 0's relations from its
/// first atom while the helper builds them from its last, so these builds
/// land on either thread: the evaluation gives the right answer or
/// [`EvalError::WorkerPanicked`], the build that panicked publishes no
/// relation, and the same plan then evaluates correctly on the same engine,
/// building each relation the fault left unbuilt exactly once.
#[test]
fn a_panic_in_an_early_relation_build_at_parallelism_two_is_contained() {
    let _guard = serial();
    hush_injected_panics();
    for family in ScenarioFamily::ALL {
        for planted in [PlantedAnswer::Satisfiable, PlantedAnswer::Unsatisfiable] {
            let expected = planted == PlantedAnswer::Satisfiable;
            for after in 0..=3 {
                let label = format!("{family:?}/{planted:?}/after={after}");
                let (faulted, started, built_after_fault, rerun, rebuilds, planned) =
                    with_watchdog(&label, move || {
                        let cfg = ScenarioConfig::new(family)
                            .with_tuples(12)
                            .with_seed(0)
                            .with_planted(planted);
                        let scenario = build_scenario(&cfg);
                        let ws = Workspace::new();
                        let db = ws.import_database(&scenario.database);
                        let engine = ws.engine(EngineConfig::new().with_parallelism(2));
                        let plan = plan_forward_reduction(
                            &scenario.query,
                            &db,
                            ReductionConfig::default(),
                            None,
                        )
                        .expect("planning succeeds");

                        faults::clear();
                        faults::configure(Site::ReductionTransform, after, FaultAction::Panic);
                        let faulted = engine.evaluate_reduction(&plan);
                        let started = faults::hits(Site::ReductionTransform);
                        let built_after_fault = plan.relations().count();
                        // Disarm a fault a true instance ended before.
                        faults::clear();
                        let rerun = engine.evaluate_reduction(&plan);
                        let rebuilds = faults::hits(Site::ReductionTransform);
                        faults::clear();
                        (
                            faulted,
                            started,
                            built_after_fault,
                            rerun,
                            rebuilds,
                            plan.stats.num_relations,
                        )
                    });
                let fired = started > after;
                // A false instance builds every relation, more than four.
                assert!(fired || expected, "{label}: the fault never fired");
                match &faulted {
                    Ok(stats) => assert_eq!(stats.answer, expected, "{label}"),
                    Err(EvalError::WorkerPanicked { atom, payload }) => {
                        assert!(fired, "{label}: {atom} panicked with no fault fired");
                        assert!(atom.starts_with("disjunct"), "{label}: {atom}");
                        assert!(payload.contains("failpoint"), "{label}: {payload}");
                    }
                    Err(other) => panic!("{label}: expected WorkerPanicked, got {other:?}"),
                }
                if fired {
                    // Every relation is built at most once, so a build
                    // started but not published is the panicked one (or
                    // one the panic cancelled).
                    assert!(
                        built_after_fault < started,
                        "{label}: {built_after_fault} relations published by {started} builds"
                    );
                    if !expected {
                        assert!(faulted.is_err(), "{label}: a false instance hid the panic");
                    }
                }
                let rerun = rerun.unwrap_or_else(|e| panic!("{label}: the rerun failed: {e}"));
                assert_eq!(rerun.answer, expected, "{label}");
                if !expected {
                    assert_eq!(rerun.reduction.relations_built, planned, "{label}");
                    assert_eq!(
                        rebuilds,
                        planned - built_after_fault,
                        "{label}: the rerun built a relation twice"
                    );
                }
            }
        }
    }
}

/// Injected delays (a stalled worker) without a deadline only slow the
/// evaluation down: the answer is still correct and the cache still warms.
#[test]
fn injected_delays_never_change_answers() {
    let _guard = serial();
    for family in ScenarioFamily::ALL {
        for site in SWEEP_SITES {
            run_case(
                family,
                site,
                0,
                FaultAction::Delay(Duration::from_millis(2)),
            );
        }
    }
}

/// A worker stalled long past the call's deadline trips
/// [`EvalError::DeadlineExceeded`] at the next cancellation checkpoint
/// instead of hanging the evaluation.
#[test]
fn stalled_worker_trips_the_deadline() {
    let _guard = serial();
    let result = with_watchdog("stalled-transform", || {
        let cfg = ScenarioConfig::new(ScenarioFamily::TemporalOverlap)
            .with_tuples(12)
            .with_seed(0)
            .with_planted(PlantedAnswer::Unsatisfiable);
        let scenario = build_scenario(&cfg);
        let ws = Workspace::new();
        let db = ws.import_database(&scenario.database);
        let engine = ws.engine(EngineConfig::new().with_parallelism(1));
        faults::clear();
        faults::configure(
            Site::ReductionTransform,
            0,
            FaultAction::Delay(Duration::from_millis(200)),
        );
        let deadline = CancellationToken::new().with_budget(Duration::from_millis(20));
        let faulted = engine.evaluate_cancellable(&scenario.query, &db, Some(&deadline));
        faults::clear();
        faulted
    });
    match result {
        Err(EngineError::Evaluation(EvalError::DeadlineExceeded { elapsed, budget })) => {
            assert!(
                elapsed >= budget,
                "reported elapsed {elapsed:?} below budget {budget:?}"
            );
        }
        other => panic!("stalled transform under a 20 ms deadline returned {other:?}"),
    }
}
