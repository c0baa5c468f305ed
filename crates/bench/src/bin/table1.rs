//! E1 — Table 1 / Table 2: our approach versus the FAQ-AI-style and
//! classical baselines on the three cyclic IJ queries.
//!
//! The analytic half of the table reports the runtime exponents: the ij-width
//! computed by this library against the relaxed-submodular-width exponents
//! the paper derives for FAQ-AI (Appendix F).  The empirical half measures
//! the reduction-based evaluation against the one-join-at-a-time cascade
//! baseline (whose exponent matches the FAQ-AI bound on these queries) on
//! growing synthetic workloads and fits log–log slopes.
//!
//! ```text
//! cargo run --release -p ij-bench --bin table1
//! ```

use ij_baselines::binary_join_cascade;
use ij_bench::{evaluate_all_disjuncts, fit_exponent, render_table, scaling_workload, time};
use ij_hypergraph::{four_clique_ij, loomis_whitney_4_ij, triangle_ij};
use ij_reduction::forward_reduction;
use ij_relation::Query;
use ij_widths::ij_width;

fn main() {
    analytic_table();
    empirical_table();
}

fn analytic_table() {
    println!("Table 1/2 (analytic): runtime exponents per query\n");
    // FAQ-AI exponents as derived in Appendix F (the polylog factors differ).
    let rows = vec![
        ("Triangle", triangle_ij(), 2.0),
        ("Loomis-Whitney-4", loomis_whitney_4_ij(), 2.0),
        ("4-clique", four_clique_ij(), 3.0),
    ];
    let mut out_rows: Vec<Vec<String>> = Vec::new();
    for (name, h, faq_ai) in rows {
        let report = ij_width(&h);
        out_rows.push(vec![
            name.to_string(),
            format!("{:.4}", faq_ai),
            format!("{:.4}", report.value),
            format!("{}", report.num_reduced_queries),
            format!("{}", report.classes.len()),
            format!("{}", report.exact),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "query",
                "FAQ-AI exponent",
                "ij-width (ours)",
                "#EJ queries",
                "#classes",
                "exact"
            ],
            &out_rows
        )
    );
    println!("(paper: Triangle 3/2 vs 2, LW4 5/3 vs 2, 4-clique 2 vs 3 — Table 1/2)\n");
}

fn empirical_table() {
    println!(
        "Table 1 (empirical): wall-clock scaling, reduction approach vs binary-join cascade\n"
    );
    // The LW4 query is omitted from the wall-clock half: its ternary atoms
    // carry a log^8 N factor (three interval variables per atom), so even tiny
    // instances are dominated by the transformed-relation constants; its
    // analytic exponents are reported above.
    let queries: Vec<(&str, Query, Vec<usize>)> = vec![
        (
            "Triangle",
            Query::from_hypergraph(&triangle_ij()),
            vec![200, 400, 800],
        ),
        (
            "4-clique",
            Query::from_hypergraph(&four_clique_ij()),
            vec![12, 24],
        ),
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (name, query, sizes) in queries {
        let mut ours: Vec<(f64, f64)> = Vec::new();
        let mut cascade: Vec<(f64, f64)> = Vec::new();
        for &n in &sizes {
            let db = scaling_workload(&query, n, 0xA11CE);
            let (_, t_ours) = time(|| {
                let reduction = forward_reduction(&query, &db).expect("reduction succeeds");
                evaluate_all_disjuncts(&reduction)
            });
            let (_, t_cascade) =
                time(|| binary_join_cascade(&query, &db).expect("cascade succeeds"));
            ours.push((n as f64, t_ours.as_secs_f64()));
            cascade.push((n as f64, t_cascade.as_secs_f64()));
            rows.push(vec![
                name.to_string(),
                n.to_string(),
                format!("{:.1}", t_ours.as_secs_f64() * 1e3),
                format!("{:.1}", t_cascade.as_secs_f64() * 1e3),
            ]);
        }
        rows.push(vec![
            format!("{name} (fitted exponent)"),
            "-".to_string(),
            format!("{:.2}", fit_exponent(&ours)),
            format!("{:.2}", fit_exponent(&cascade)),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["query", "N (tuples/relation)", "ours [ms]", "cascade [ms]"],
            &rows
        )
    );
    println!("(expected shape: the reduction approach grows strictly slower than the cascade)");
}
