//! E12 — ablation of the transformed-relation encoding (Section 1.1, closing
//! discussion; Lemma 4.10).
//!
//! The paper's default encoding materialises, per atom, every combination of
//! the per-variable bitstring expansions (`O(N log^j N)` for `j` interval
//! variables in the atom); the alternative encoding decomposes the atom into
//! a spine plus one relation per interval variable joined on a tuple
//! identifier, whose total size is the *sum* `O(N log N)` per variable.  This
//! binary measures both encodings on the triangle and the 4-clique queries:
//! transformed database size, largest relation and end-to-end time — the
//! reduction, then one evaluation of the reduction just built.
//!
//! ```text
//! cargo run --release -p ij-bench --bin encoding
//! ```

use ij_bench::{render_table, scaling_workload, time};
use ij_engine::{EngineConfig, IntersectionJoinEngine};
use ij_hypergraph::{four_clique_ij, triangle_ij};
use ij_reduction::{forward_reduction_with, EncodingStrategy, ReductionConfig};
use ij_relation::Query;

fn main() {
    println!(
        "Encoding ablation: flat (paper default) vs decomposed (Id-based) transformed relations\n"
    );
    let cases = vec![
        (
            "Triangle",
            Query::from_hypergraph(&triangle_ij()),
            vec![100usize, 200, 400],
        ),
        (
            "4-clique",
            Query::from_hypergraph(&four_clique_ij()),
            vec![8usize, 16],
        ),
    ];
    let engine = IntersectionJoinEngine::new(EngineConfig::new());
    let mut rows = Vec::new();
    for (name, query, sizes) in cases {
        for &n in &sizes {
            let db = scaling_workload(&query, n, 0xE9C0D);
            let mut cells = vec![name.to_string(), n.to_string()];
            let mut answers = Vec::new();
            for encoding in [EncodingStrategy::Flat, EncodingStrategy::Decomposed] {
                let (reduction, t_reduce) = time(|| {
                    forward_reduction_with(&query, &db, ReductionConfig { encoding })
                        .expect("reduction succeeds")
                });
                let (stats, t_eval) =
                    time(|| engine.evaluate_reduction(&reduction).expect("evaluation"));
                answers.push(stats.answer);
                cells.push(reduction.stats.transformed_tuples.to_string());
                cells.push(reduction.stats.max_relation_tuples.to_string());
                cells.push(format!("{:.1}", (t_reduce + t_eval).as_secs_f64() * 1e3));
            }
            assert_eq!(answers[0], answers[1], "both encodings must agree");
            cells.push(format!("{}", answers[0]));
            rows.push(cells);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "query",
                "N",
                "flat tuples",
                "flat max rel",
                "flat total [ms]",
                "dec tuples",
                "dec max rel",
                "dec total [ms]",
                "answer",
            ],
            &rows
        )
    );
    println!("(Section 1.1: the decomposed encoding trades a larger join for O(N log N) per-variable relations)");
}
