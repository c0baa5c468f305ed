//! E10 — correctness of the forward reduction (Lemma 4.11 / Theorem 4.13).
//!
//! Differential testing: evaluating an IJ query through the forward reduction
//! and the equality-join engine must agree with the naive reference evaluator
//! on every database.  Exercised over the paper's catalog queries and random
//! synthetic workloads with several densities and seeds; planted satisfiable
//! and unsatisfiable instances guarantee that both outcomes are covered
//! deterministically.
//!
//! Debug builds shrink the generated workload sizes (`scaled_tuples` /
//! `scaled_seeds`) so the dev-loop `cargo test` is not dominated by the
//! exhaustive naive oracle; release builds exercise the full sizes.

mod common;

use common::disjunct_divergence;
use ij_engine::{naive_boolean, IntersectionJoinEngine};
use ij_hypergraph::{
    figure_9b, figure_9c, figure_9d, figure_9e, figure_9f, k_path_ij, star_ij, triangle_ij,
    Hypergraph,
};
use ij_reduction::{plan_forward_reduction, EncodingStrategy, ReductionConfig};
use ij_relation::{Database, Query};
use ij_workloads::{
    generate_for_query, planted_satisfiable, planted_unsatisfiable, IntervalDistribution,
    WorkloadConfig,
};

/// Workload scale for this file.  The naive oracle is exhaustive
/// backtracking, so these differential loops dominate the tier-1 wall clock
/// in unoptimised builds (~3 minutes at the full sizes).  Debug builds — the
/// dev loop — shrink the tuple counts and seed ranges; release builds (and
/// the release half of tier-1 CI) keep the full coverage.
fn scaled_tuples(tuples: usize) -> usize {
    if cfg!(debug_assertions) {
        tuples.div_ceil(2).max(4)
    } else {
        tuples
    }
}

/// Debug builds run the first quarter of the seed range (at least 2 seeds);
/// release builds run all of it.
fn scaled_seeds(seeds: std::ops::Range<u64>) -> std::ops::Range<u64> {
    if cfg!(debug_assertions) {
        let len = seeds.end.saturating_sub(seeds.start);
        seeds.start..seeds.start + (len / 4).max(2).min(len)
    } else {
        seeds
    }
}

/// Differential check of the reduction-based evaluation against the naive
/// oracle: random workloads check agreement, planted instances guarantee that
/// both the `true` and the `false` outcome are exercised.
fn differential(
    query: &Query,
    tuples: usize,
    seeds: std::ops::Range<u64>,
    dist: IntervalDistribution,
) {
    let engine = IntersectionJoinEngine::with_defaults();
    let evaluate = |query: &Query, db: &Database| engine.evaluate(query, db);
    differential_with(evaluate, query, tuples, seeds, dist);
}

/// [`differential`] with the reduction-based evaluation `evaluate`.
fn differential_with(
    evaluate: impl Fn(&Query, &Database) -> Result<bool, ij_engine::EngineError>,
    query: &Query,
    tuples: usize,
    seeds: std::ops::Range<u64>,
    dist: IntervalDistribution,
) {
    let tuples = scaled_tuples(tuples);
    for seed in scaled_seeds(seeds) {
        let cfg = WorkloadConfig {
            tuples_per_relation: tuples,
            seed,
            distribution: dist,
        };
        let db = generate_for_query(query, &cfg);
        let expected = naive_boolean(query, &db).expect("naive evaluation");
        let actual = evaluate(query, &db).expect("reduction-based evaluation");
        assert_eq!(actual, expected, "query {query}, seed {seed}");

        // Planted instances: deterministically satisfiable / unsatisfiable.
        let sat = planted_satisfiable(query, &cfg);
        assert!(
            naive_boolean(query, &sat).unwrap(),
            "planted-sat naive, seed {seed}"
        );
        assert!(
            evaluate(query, &sat).unwrap(),
            "planted-sat reduction, seed {seed}"
        );

        let unsat = planted_unsatisfiable(query, &cfg);
        assert!(
            !naive_boolean(query, &unsat).unwrap(),
            "planted-unsat naive, seed {seed}"
        );
        assert!(
            !evaluate(query, &unsat).unwrap(),
            "planted-unsat reduction, seed {seed}"
        );
    }
}

fn query_of(h: &Hypergraph) -> Query {
    Query::from_hypergraph(h)
}

/// The engine's answer for `query` over `db` under the decomposed encoding
/// (Section 1.1).  The encoding belongs to the reduction, so the plan is
/// made here and `engine` evaluates it.
fn evaluate_decomposed(
    engine: &IntersectionJoinEngine,
    query: &Query,
    db: &Database,
) -> Result<bool, ij_engine::EngineError> {
    let config = ReductionConfig {
        encoding: EncodingStrategy::Decomposed,
    };
    let plan = plan_forward_reduction(query, db, config, None)?;
    Ok(engine.evaluate_reduction(&plan)?.answer)
}

#[test]
fn triangle_reduction_is_correct_on_sparse_workloads() {
    differential(
        &query_of(&triangle_ij()),
        12,
        0..20,
        IntervalDistribution::Uniform {
            span: 400.0,
            max_len: 30.0,
        },
    );
}

#[test]
fn triangle_reduction_is_correct_on_dense_workloads() {
    differential(
        &query_of(&triangle_ij()),
        10,
        100..112,
        IntervalDistribution::Uniform {
            span: 60.0,
            max_len: 18.0,
        },
    );
}

#[test]
fn figure_9_queries_are_correct() {
    // One representative workload per Figure 9 hypergraph (9a is covered by
    // the spatial example; 9b-9f here).
    for (h, span) in [
        (figure_9b(), 90.0),
        (figure_9c(), 70.0),
        (figure_9d(), 90.0),
        (figure_9e(), 40.0),
        (figure_9f(), 60.0),
    ] {
        differential(
            &query_of(&h),
            8,
            0..8,
            IntervalDistribution::Uniform {
                span,
                max_len: 10.0,
            },
        );
    }
}

#[test]
fn star_and_path_queries_are_correct() {
    differential(
        &query_of(&star_ij(3)),
        10,
        0..10,
        IntervalDistribution::Uniform {
            span: 150.0,
            max_len: 25.0,
        },
    );
    differential(
        &query_of(&k_path_ij(4)),
        10,
        0..10,
        IntervalDistribution::Uniform {
            span: 60.0,
            max_len: 10.0,
        },
    );
}

#[test]
fn heavy_tailed_intervals_are_correct() {
    differential(
        &query_of(&triangle_ij()),
        10,
        0..12,
        IntervalDistribution::HeavyTailed {
            span: 300.0,
            alpha: 1.2,
            scale: 8.0,
        },
    );
}

#[test]
fn point_interval_workloads_degenerate_to_equality_joins() {
    differential(
        &query_of(&triangle_ij()),
        15,
        0..15,
        IntervalDistribution::Points { domain: 9 },
    );
}

#[test]
fn grid_aligned_workloads_are_correct() {
    differential(
        &query_of(&triangle_ij()),
        14,
        0..12,
        IntervalDistribution::GridAligned {
            span: 128.0,
            cells: 32,
            max_cells: 3,
        },
    );
}

#[test]
fn decomposed_encoding_is_correct_on_triangle_workloads() {
    // The decomposed (Id-based) encoding of Section 1.1 must agree with the
    // naive oracle exactly like the flat encoding does.
    let engine = IntersectionJoinEngine::with_defaults();
    differential_with(
        |query, db| evaluate_decomposed(&engine, query, db),
        &query_of(&triangle_ij()),
        12,
        0..12,
        IntervalDistribution::Uniform {
            span: 150.0,
            max_len: 20.0,
        },
    );
}

/// Every disjunct of the triangle's reduction, whichever algorithm the
/// engine chooses for it (width-guided: the disjuncts are cyclic), answers
/// like the plain generic join, and the engine like the naive oracle.
#[test]
fn all_ej_algorithms_agree_through_the_reduction() {
    let query = query_of(&triangle_ij());
    let engine = IntersectionJoinEngine::with_defaults();
    for seed in scaled_seeds(0..10) {
        let db = generate_for_query(
            &query,
            &WorkloadConfig {
                tuples_per_relation: scaled_tuples(10),
                seed,
                distribution: IntervalDistribution::Uniform {
                    span: 80.0,
                    max_len: 15.0,
                },
            },
        );
        let expected = naive_boolean(&query, &db).unwrap();
        assert_eq!(
            engine.evaluate(&query, &db).unwrap(),
            expected,
            "seed {seed}"
        );
        let reduction = ij_reduction::forward_reduction(&query, &db).unwrap();
        assert_eq!(
            disjunct_divergence(&reduction, expected),
            None,
            "seed {seed}"
        );
    }
}

#[test]
fn loomis_whitney_4_reduction_is_correct_on_small_instances() {
    // LW4 produces 1296 reduced queries and its ternary atoms make the flat
    // encoding blow up by a (log² N)³ factor per atom, so this test uses the
    // decomposed encoding (Section 1.1) and keeps the data tiny.
    use ij_hypergraph::loomis_whitney_4_ij;
    let query = query_of(&loomis_whitney_4_ij());
    let engine = IntersectionJoinEngine::with_defaults();
    let evaluate = |query: &Query, db: &Database| evaluate_decomposed(&engine, query, db);
    let mut outcomes = [0usize; 2];
    for (seed, span) in [(0u64, 60.0), (1u64, 12.0)] {
        let db = generate_for_query(
            &query,
            &WorkloadConfig {
                tuples_per_relation: 3,
                seed,
                distribution: IntervalDistribution::Uniform { span, max_len: 6.0 },
            },
        );
        let expected = naive_boolean(&query, &db).unwrap();
        let actual = evaluate(&query, &db).unwrap();
        assert_eq!(actual, expected, "seed {seed}");
        outcomes[usize::from(expected)] += 1;
    }
    assert!(outcomes[0] + outcomes[1] == 2);

    // Planted instances cover both outcomes deterministically.
    let cfg = WorkloadConfig {
        tuples_per_relation: 2,
        seed: 7,
        distribution: IntervalDistribution::Uniform {
            span: 40.0,
            max_len: 6.0,
        },
    };
    assert!(evaluate(&query, &planted_satisfiable(&query, &cfg)).unwrap());
    assert!(!evaluate(&query, &planted_unsatisfiable(&query, &cfg)).unwrap());
}

#[test]
fn four_clique_reduction_is_correct_on_small_instances() {
    use ij_hypergraph::four_clique_ij;
    let query = query_of(&four_clique_ij());
    let engine = IntersectionJoinEngine::with_defaults();
    let evaluate = |query: &Query, db: &Database| evaluate_decomposed(&engine, query, db);
    for (seed, span) in [(0u64, 50.0), (1u64, 8.0)] {
        let db = generate_for_query(
            &query,
            &WorkloadConfig {
                tuples_per_relation: 3,
                seed,
                distribution: IntervalDistribution::Uniform { span, max_len: 5.0 },
            },
        );
        let expected = naive_boolean(&query, &db).unwrap();
        assert_eq!(evaluate(&query, &db).unwrap(), expected, "seed {seed}");
    }

    let cfg = WorkloadConfig {
        tuples_per_relation: 2,
        seed: 3,
        distribution: IntervalDistribution::Uniform {
            span: 30.0,
            max_len: 5.0,
        },
    };
    assert!(evaluate(&query, &planted_satisfiable(&query, &cfg)).unwrap());
    assert!(!evaluate(&query, &planted_unsatisfiable(&query, &cfg)).unwrap());
}

#[test]
fn mixed_eij_queries_are_correct() {
    // Equality join on a point variable plus intersection joins.
    let query = Query::parse("R(K,[A],[B]) & S(K,[B],[C]) & T([A],[C])").unwrap();
    let engine = IntersectionJoinEngine::with_defaults();
    for seed in scaled_seeds(0..15) {
        let db = generate_for_query(
            &query,
            &WorkloadConfig {
                tuples_per_relation: scaled_tuples(10),
                seed,
                distribution: IntervalDistribution::Uniform {
                    span: 80.0,
                    max_len: 20.0,
                },
            },
        );
        let expected = naive_boolean(&query, &db).unwrap();
        assert_eq!(
            engine.evaluate(&query, &db).unwrap(),
            expected,
            "seed {seed}"
        );
    }
}

#[test]
fn distinct_left_endpoint_transformation_preserves_answers() {
    // Appendix G.1: shifting the intervals so that left endpoints become
    // distinct across relations must not change the answer.
    let query = query_of(&triangle_ij());
    let engine = IntersectionJoinEngine::with_defaults();
    for seed in scaled_seeds(0..10) {
        let db = generate_for_query(
            &query,
            &WorkloadConfig {
                tuples_per_relation: scaled_tuples(10),
                seed,
                distribution: IntervalDistribution::GridAligned {
                    span: 64.0,
                    cells: 16,
                    max_cells: 4,
                },
            },
        );
        let mut shifted = db.clone();
        shifted.shift_left_endpoints(&["R", "S", "T"]);
        let before = engine.evaluate(&query, &db).unwrap();
        let after = engine.evaluate(&query, &shifted).unwrap();
        assert_eq!(before, after, "seed {seed}");
    }
}
