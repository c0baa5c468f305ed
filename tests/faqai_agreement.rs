//! E11 — the FAQ-AI comparator agrees with the reduction-based engine and
//! with the naive oracle on every database (they solve the same Boolean
//! problem by different routes: inequality joins over relaxed decompositions
//! versus equality joins over segment-tree bitstrings).

use ij_engine::{naive_boolean, IntersectionJoinEngine};
use ij_faqai::{analyze_disjunction, evaluate_faqai_boolean, faqai_disjunction};
use ij_hypergraph::{figure_9d, figure_9e, k_path_ij, triangle_ij};
use ij_relation::Query;
use ij_widths::ij_width;
use ij_workloads::{
    generate_for_query, planted_satisfiable, planted_unsatisfiable, IntervalDistribution,
    WorkloadConfig,
};

fn agreement(query: &Query, tuples: usize, seeds: std::ops::Range<u64>, span: f64) {
    let engine = IntersectionJoinEngine::with_defaults();
    for seed in seeds {
        let cfg = WorkloadConfig {
            tuples_per_relation: tuples,
            seed,
            distribution: IntervalDistribution::Uniform {
                span,
                max_len: span / 12.0,
            },
        };
        let db = generate_for_query(query, &cfg);
        let naive = naive_boolean(query, &db).unwrap();
        let reduction = engine.evaluate(query, &db).unwrap();
        let faqai = evaluate_faqai_boolean(query, &db).unwrap();
        assert_eq!(naive, reduction, "query {query}, seed {seed}");
        assert_eq!(naive, faqai, "query {query}, seed {seed}");

        let sat = planted_satisfiable(query, &cfg);
        assert!(
            evaluate_faqai_boolean(query, &sat).unwrap(),
            "planted-sat seed {seed}"
        );
        let unsat = planted_unsatisfiable(query, &cfg);
        assert!(
            !evaluate_faqai_boolean(query, &unsat).unwrap(),
            "planted-unsat seed {seed}"
        );
    }
}

#[test]
fn faqai_agrees_on_the_triangle() {
    agreement(&Query::from_hypergraph(&triangle_ij()), 10, 0..12, 120.0);
}

#[test]
fn faqai_agrees_on_acyclic_queries() {
    agreement(&Query::from_hypergraph(&k_path_ij(4)), 8, 0..8, 60.0);
    agreement(&Query::from_hypergraph(&figure_9e()), 6, 0..8, 40.0);
}

#[test]
fn faqai_agrees_on_iota_acyclic_queries_with_ternary_atoms() {
    agreement(&Query::from_hypergraph(&figure_9d()), 6, 0..6, 30.0);
}

#[test]
fn relaxed_width_never_beats_the_ij_width_on_the_paper_queries() {
    // Appendix F: the FAQ-AI exponent is at least the ij-width for the
    // paper's queries (the reduction approach is never worse).
    for h in [triangle_ij(), figure_9d(), k_path_ij(3)] {
        let q = Query::from_hypergraph(&h);
        let conjuncts = faqai_disjunction(&q).unwrap();
        let relaxed = analyze_disjunction(&conjuncts);
        let ours = ij_width(&h);
        assert!(
            relaxed.width as f64 + 1e-9 >= ours.value,
            "query {q}: relaxed width {} < ij-width {}",
            relaxed.width,
            ours.value
        );
    }
}
