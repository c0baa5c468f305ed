//! Lock-order regression suite: the engine's normal warm-evaluation path
//! (the dictionary lock, the build gates of the transformed relations the
//! workers fill on demand, the memos of the relations — the tries every
//! disjunct looks up and the projections a cyclic disjunct of
//! `evaluate_reduction` binds on the paper's relations — and the engine's
//! decomposition memo it is planned through)
//! must record an **acyclic** acquisition-order graph in the runtime
//! lock-order detector (`ij_relation::sync::lock_order`).
//!
//! The detector is active under `debug_assertions` or the `lock-order`
//! feature; when neither is on (plain `--release`), these tests degrade to
//! trivially-true assertions on the empty graph rather than silently
//! vanishing from the test list.
//!
//! The two-thread inverted-order *cycle* case lives next to the detector
//! (`ij_relation::sync::tests::detects_inverted_acquisition_order_across_threads`);
//! this suite covers the other acceptance half: real workloads stay silent.
//! That includes the rule that a thread never acquires a class it already
//! holds (a recursive read of the dictionary's one lock would be one), which
//! the detector enforces as a cycle of length one.

use ij_relation::sync::lock_order;
use ij_workloads::{build_scenario, PlantedAnswer, ScenarioConfig, ScenarioFamily};
use intersection_joins::prelude::*;

fn iv(lo: f64, hi: f64) -> Value {
    Value::interval(lo, hi)
}

/// Drives the full pipeline twice (each `evaluate` a fresh reduction), then
/// the paper's reduction of the same instance twice through the same engine
/// (a cold build, then every trie found memoised).
/// The live plan `evaluate` runs has no singleton column on the triangle;
/// the paper's relations keep theirs, so its disjuncts derive projections.
fn drive_warm_path(workspace: &Workspace) {
    let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").expect("valid query");
    let mut db = workspace.database();
    db.insert_tuples(
        "R",
        2,
        vec![
            vec![iv(0.0, 4.0), iv(10.0, 14.0)],
            vec![iv(100.0, 105.0), iv(200.0, 205.0)],
        ],
    );
    db.insert_tuples("S", 2, vec![vec![iv(12.0, 13.0), iv(20.0, 25.0)]]);
    db.insert_tuples("T", 2, vec![vec![iv(3.0, 5.0), iv(24.0, 26.0)]]);

    let engine = workspace.engine(EngineConfig::new());
    assert!(engine.evaluate(&query, &db).expect("first evaluation"));
    assert!(engine.evaluate(&query, &db).expect("second evaluation"));
    let paper = forward_reduction(&query, &db).expect("reduction");
    for _ in 0..2 {
        assert!(
            engine
                .evaluate_reduction(&paper)
                .expect("evaluation")
                .answer
        );
    }
}

#[test]
fn warm_evaluation_path_records_an_acyclic_lock_order() {
    let workspace = Workspace::new();
    drive_warm_path(&workspace);

    // A cycle would already have panicked inside the recover helpers; the
    // graph-level probe also proves the recorded edges stay consistent.
    assert_eq!(
        lock_order::find_cycle(),
        None,
        "engine warm path recorded a cyclic lock order: {:?}",
        lock_order::snapshot()
    );

    if lock_order::enabled() {
        let classes = lock_order::classes_seen();
        for expected in ["dictionary", "relation-memos", "td-memo"] {
            assert!(
                classes.contains(&expected),
                "expected lock class `{expected}` on the warm path; saw {classes:?}"
            );
        }
        // The two memos are leaves: a trie is built, and the triangle's
        // disjuncts derive their projected atoms and look up their tree
        // decomposition, outside the lock.
        for leaf in ["relation-memos", "td-memo"] {
            assert!(
                lock_order::snapshot().iter().all(|&(from, _)| from != leaf),
                "a lock was acquired under `{leaf}`: {:?}",
                lock_order::snapshot()
            );
        }
    } else {
        assert!(lock_order::snapshot().is_empty());
        assert!(lock_order::classes_seen().is_empty());
    }
}

#[test]
fn concurrent_engines_share_one_acyclic_order() {
    // Two workspaces evaluated from four threads: per-thread held stacks
    // must not cross-contaminate, and the global graph must stay acyclic.
    let a = Workspace::new();
    let b = Workspace::new();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| drive_warm_path(&a));
            scope.spawn(|| drive_warm_path(&b));
        }
    });
    assert_eq!(
        lock_order::find_cycle(),
        None,
        "concurrent warm paths recorded a cyclic lock order: {:?}",
        lock_order::snapshot()
    );
}

#[test]
fn workers_waiting_on_each_others_relation_builds_stay_acyclic() {
    // A near-miss star: all six disjuncts run, each pulled by one worker,
    // and different disjuncts read some of the same transformed relations —
    // the first two both start with `Sessions@0⟨T:1⟩` — so with four workers
    // some wait at a build gate another worker holds.  A gate is only ever
    // acquired with nothing else held, so no order edge may lead *into* it,
    // and a build computes its node ids instead of interning them, so it
    // acquires nothing under the gate: no edge may leave it either.
    let scenario = build_scenario(
        &ScenarioConfig::new(ScenarioFamily::TemporalOverlap)
            .with_tuples(200)
            .with_seed(7)
            .with_planted(PlantedAnswer::NearMiss),
    );
    let workspace = Workspace::new();
    let db = workspace.import_database(&scenario.database);
    let engine = workspace.engine(EngineConfig::new().with_parallelism(4));
    for _ in 0..4 {
        let stats = engine
            .evaluate_cancellable(&scenario.query, &db, None)
            .expect("evaluation succeeds");
        assert!(!stats.answer);
        assert_eq!(stats.reduction.relations_built, 9);
    }
    assert_eq!(
        lock_order::find_cycle(),
        None,
        "demand-driven builds recorded a cyclic lock order: {:?}",
        lock_order::snapshot()
    );
    if lock_order::enabled() {
        const GATE: &str = "reduction-relation-build";
        assert!(lock_order::classes_seen().contains(&GATE));
        assert!(
            lock_order::snapshot().iter().all(|&(_, to)| to != GATE),
            "a build gate was acquired under another lock: {:?}",
            lock_order::snapshot()
        );
        assert!(
            lock_order::snapshot().iter().all(|&(from, _)| from != GATE),
            "a lock was acquired under a build gate: {:?}",
            lock_order::snapshot()
        );
    }
}
