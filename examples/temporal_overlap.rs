//! Temporal-database scenario: three-way session overlap.
//!
//! Temporal databases attach validity intervals to tuples; temporal joins
//! match tuples that are valid at the same time (Section 2 of the paper).
//! The [`ScenarioFamily::TemporalOverlap`] generator models a calendar: user
//! sessions, meetings and on-call windows with skewed durations, and we ask
//! whether some session, some meeting and some on-call shift were all active
//! at the same instant:
//!
//! ```text
//!   Q = Sessions([T]) ∧ Meetings([T]) ∧ Oncall([T])
//! ```
//!
//! The query is a star on a single interval variable, hence ι-acyclic: the
//! engine guarantees near-linear evaluation (Theorem 6.6).  Three evaluators
//! answer every instance and must agree: the reduction-based engine, the
//! segment-tree baseline (no reduction) and the binary-join cascade.
//!
//! ```text
//! cargo run --example temporal_overlap
//! ```

use ij_baselines::{binary_join_cascade, SegtreeBaseline};
use ij_workloads::{build_scenario, PlantedAnswer, ScenarioConfig, ScenarioFamily};
use intersection_joins::prelude::*;

fn main() {
    let engine = IntersectionJoinEngine::with_defaults();
    let family = ScenarioFamily::TemporalOverlap;
    let query = family.query();

    let analysis = engine.analyze(&query);
    println!("query    : {query}");
    println!("analysis : {}", analysis.summary());
    assert!(
        analysis.linear_time,
        "a star of intersection joins is iota-acyclic"
    );

    // Scale the calendar up; all three evaluators must keep agreeing.  The
    // selectivity is a fraction of the whole horizon, so a realistic
    // calendar (sessions of minutes against a horizon of months) sits at a
    // low value — which also keeps the cascade's materialised intermediates
    // small enough to print.
    for n in [100usize, 400] {
        let scenario = build_scenario(
            &ScenarioConfig::new(family)
                .with_tuples(n)
                .with_seed(0xC0FFEE)
                .with_selectivity(0.05)
                .with_skew(2.0),
        );
        let stats = engine
            .evaluate_cancellable(&scenario.query, &scenario.database, None)
            .expect("evaluation succeeds");
        let baseline =
            SegtreeBaseline::build(&scenario.query, &scenario.database).expect("baseline builds");
        let (cascade_answer, max_intermediate) =
            binary_join_cascade(&scenario.query, &scenario.database).expect("baseline succeeds");
        assert_eq!(stats.answer, baseline.evaluate_boolean());
        assert_eq!(stats.answer, cascade_answer);
        println!(
            "{}: answer = {}, built {} of {} transformed relations ({} tuples), \
             EJ disjuncts evaluated = {}/{}, cascade max intermediate = {}",
            scenario.name,
            stats.answer,
            stats.reduction.relations_built,
            stats.reduction.num_relations,
            stats.reduction.transformed_tuples,
            stats.ej_queries_evaluated,
            stats.ej_queries_total,
            max_intermediate
        );
    }

    // Planted-answer modes force each outcome regardless of the knobs: a
    // shared witness instant, or relations shifted into disjoint windows
    // (a quiet period for every pair).
    for (planted, expected) in [
        (PlantedAnswer::Satisfiable, true),
        (PlantedAnswer::Unsatisfiable, false),
    ] {
        let scenario = build_scenario(
            &ScenarioConfig::new(family)
                .with_tuples(200)
                .with_seed(7)
                .with_planted(planted),
        );
        let answer = engine
            .evaluate(&scenario.query, &scenario.database)
            .expect("evaluation succeeds");
        let baseline =
            SegtreeBaseline::build(&scenario.query, &scenario.database).expect("baseline builds");
        assert_eq!(answer, expected, "planted answer must hold");
        assert_eq!(answer, baseline.evaluate_boolean());
        println!(
            "{}: answer = {answer} (segtree baseline agrees)",
            scenario.name
        );
    }
}
