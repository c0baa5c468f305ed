//! E7 — Theorem 6.6 (the ι-acyclicity dichotomy), empirically.
//!
//! An ι-acyclic query (Figure 4b) evaluated through the reduction scales
//! near-linearly with the database size, while the non-ι-acyclic triangle
//! query grows super-linearly.  Wall-clock times are measured on
//! grid-aligned workloads of increasing size and log–log slopes are fitted.
//!
//! ```text
//! cargo run --release -p ij-bench --bin dichotomy
//! ```

use ij_bench::{evaluate_all_disjuncts, fit_exponent, render_table, scaling_workload, time};
use ij_hypergraph::{figure_4b, triangle_ij};
use ij_reduction::forward_reduction;
use ij_relation::Query;

fn main() {
    let sizes = [250usize, 500, 1000];
    let cases = [
        (
            "Figure 4b (iota-acyclic)",
            Query::from_hypergraph(&figure_4b()),
        ),
        (
            "Triangle (not iota-acyclic)",
            Query::from_hypergraph(&triangle_ij()),
        ),
    ];

    let mut rows = Vec::new();
    for (name, query) in &cases {
        let mut series: Vec<(f64, f64)> = Vec::new();
        for &n in &sizes {
            let db = scaling_workload(query, n, 0xD1C0);
            let (_, duration) = time(|| {
                let reduction = forward_reduction(query, &db).expect("reduction succeeds");
                evaluate_all_disjuncts(&reduction)
            });
            series.push((n as f64, duration.as_secs_f64()));
            rows.push(vec![
                name.to_string(),
                n.to_string(),
                format!("{:.2}", duration.as_secs_f64() * 1e3),
            ]);
        }
        rows.push(vec![
            format!("{name} — fitted exponent"),
            "-".to_string(),
            format!("{:.2}", fit_exponent(&series)),
        ]);
    }

    println!("Theorem 6.6 dichotomy: reduction-based evaluation, no early exit\n");
    println!(
        "{}",
        render_table(&["query", "N (tuples/relation)", "time [ms]"], &rows)
    );
    println!("note: on these synthetic workloads the cost of *both* queries is dominated by the");
    println!("near-linear transformed database (the polylog factors of Lemma 4.10), so the fitted");
    println!(
        "slopes land between 1 and 1.5 for both.  The dichotomy of Theorem 6.6 is about worst-"
    );
    println!(
        "case instances: the guarantee for the iota-acyclic query holds on every input, while"
    );
    println!("the triangle admits adversarial instances on which any algorithm needs super-linear");
    println!(
        "time (under the 3SUM conjecture).  The structural side of the dichotomy (iota-acyclic"
    );
    println!("iff every reduced class has width 1) is verified exactly in tests/paper_results.rs.");
}
