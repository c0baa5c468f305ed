//! Spatial-database scenario: rectangle overlap via intersection joins.
//!
//! Spatial joins approximate objects by minimum bounding rectangles and match
//! rectangles that overlap (Section 2).  A rectangle is a pair of intervals,
//! so multi-way overlap questions become IJ queries.  The
//! [`ScenarioFamily::SpatialRectangles`] generator produces three layers of
//! axis-aligned rectangles over a shared world; two queries are analysed on
//! the same database:
//!
//! 1. **Spatial triangle** (the scenario family's own query) — a building
//!    and a flood zone overlap on one axis, the flood zone and a coverage
//!    area on a second, the coverage area and the building on a third:
//!    `Buildings([X],[Y]) ∧ FloodZones([Y],[Z]) ∧ Coverage([X],[Z])`.
//!    This is the triangle of Section 1.1: not ι-acyclic, ij-width 3/2.
//!
//! 2. **Three-layer overlap** — do a building footprint, a flood-risk zone
//!    and a planned coverage area share a common point?
//!    `Buildings([X],[Y]) ∧ FloodZones([X],[Y]) ∧ Coverage([X],[Y])`.
//!    Only two interval variables occur, so the hypergraph has no Berge
//!    cycle longer than two: ι-acyclic and near-linear (Theorem 6.6), even
//!    though it looks like a "triangle" of relations.
//!
//! ```text
//! cargo run --release --example spatial_rectangles
//! ```

use ij_baselines::{plane_sweep_pairs, SegtreeBaseline};
use ij_segtree::Interval;
use ij_workloads::{build_scenario, PlantedAnswer, ScenarioConfig, ScenarioFamily};
use intersection_joins::prelude::*;

fn main() {
    let engine = IntersectionJoinEngine::with_defaults();
    let family = ScenarioFamily::SpatialRectangles;

    // ---------------------------------------------------------------- 1 ---
    let triangle = family.query();
    let analysis = engine.analyze(&triangle);
    println!("query    : {triangle}");
    println!("analysis : {}", analysis.summary());
    assert!(
        !analysis.linear_time,
        "three pairwise-shared interval variables form a Berge cycle"
    );
    assert!((analysis.ij_width.value - 1.5).abs() < 1e-9);

    let scenario = build_scenario(
        &ScenarioConfig::new(family)
            .with_tuples(250)
            .with_seed(99)
            .with_selectivity(0.2),
    );
    let stats = engine
        .evaluate_cancellable(&scenario.query, &scenario.database, None)
        .expect("evaluation succeeds");
    let baseline =
        SegtreeBaseline::build(&scenario.query, &scenario.database).expect("baseline builds");
    assert_eq!(stats.answer, baseline.evaluate_boolean());
    println!(
        "{}: answer = {} (segtree baseline agrees), EJ disjuncts = {}/{}",
        scenario.name, stats.answer, stats.ej_queries_evaluated, stats.ej_queries_total
    );

    // Planted modes pin the answer on the same family.
    for (planted, expected) in [
        (PlantedAnswer::Satisfiable, true),
        (PlantedAnswer::Unsatisfiable, false),
    ] {
        let planted_scenario = build_scenario(
            &ScenarioConfig::new(family)
                .with_tuples(150)
                .with_seed(3)
                .with_planted(planted),
        );
        let answer = engine
            .evaluate(&planted_scenario.query, &planted_scenario.database)
            .expect("evaluation succeeds");
        let planted_baseline =
            SegtreeBaseline::build(&planted_scenario.query, &planted_scenario.database)
                .expect("baseline builds");
        assert_eq!(answer, expected, "planted answer must hold");
        assert_eq!(answer, planted_baseline.evaluate_boolean());
        println!(
            "{}: answer = {answer} (segtree baseline agrees)",
            planted_scenario.name
        );
    }

    // For the binary sub-problem (which buildings and flood zones overlap on
    // the shared axis?) the classical plane sweep is the right tool — it is
    // also one of the building blocks of the cascade baseline.
    let buildings_y: Vec<Interval> = scenario
        .database
        .relation("Buildings")
        .unwrap()
        .column(1)
        .map(|v| v.as_interval().unwrap())
        .collect();
    let flood_y: Vec<Interval> = scenario
        .database
        .relation("FloodZones")
        .unwrap()
        .column(0)
        .map(|v| v.as_interval().unwrap())
        .collect();
    let pairs = plane_sweep_pairs(&buildings_y, &flood_y);
    println!(
        "y-overlapping (building, flood-zone) pairs: {}\n",
        pairs.len()
    );

    // ---------------------------------------------------------------- 2 ---
    let overlap3 = Query::parse("Buildings([X],[Y]) & FloodZones([X],[Y]) & Coverage([X],[Y])")
        .expect("valid query");
    let analysis = engine.analyze(&overlap3);
    println!("query    : {overlap3}");
    println!("analysis : {}", analysis.summary());
    assert!(
        analysis.linear_time,
        "two shared interval variables cannot form a long Berge cycle"
    );

    // Reuse the scenario's rectangles: the same columns reinterpreted as a
    // common (x, y) frame for all three layers.
    let stats = engine
        .evaluate_cancellable(&overlap3, &scenario.database, None)
        .expect("evaluation succeeds");
    let baseline = SegtreeBaseline::build(&overlap3, &scenario.database).expect("baseline builds");
    assert_eq!(stats.answer, baseline.evaluate_boolean());
    println!(
        "n = 250 boxes/relation: answer = {} (segtree baseline agrees), EJ disjuncts = {}/{}",
        stats.answer, stats.ej_queries_evaluated, stats.ej_queries_total
    );
}
