//! Shared helpers for the benchmark harness and the table/figure binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates its analytic content or measures its empirical counterpart
//! (see the Benchmarks section of the workspace `README.md` for the index).
//! The helpers here cover timing, log–log exponent fitting, plain-text table
//! rendering and the standard workloads used across experiments.

use ij_ejoin::{evaluate_ej_boolean, EvalContext};
use ij_engine::disjunct_atoms;
use ij_reduction::ForwardReduction;
use ij_relation::{Database, Query};
use ij_workloads::{generate_for_query, IntervalDistribution, WorkloadConfig};
use std::time::{Duration, Instant};

/// Times a closure.
pub fn time<R>(mut f: impl FnMut() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Least-squares slope of `log(time)` against `log(n)` — the empirical
/// runtime exponent of a series of measurements.
pub fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return f64::NAN;
    }
    let xs: Vec<f64> = points.iter().map(|(x, _)| x.ln()).collect();
    let ys: Vec<f64> = points.iter().map(|(_, y)| y.max(1e-12).ln()).collect();
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let var: f64 = xs.iter().map(|x| (x - mean_x) * (x - mean_x)).sum();
    cov / var
}

/// Renders an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:<width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// The standard grid-aligned workload used for scaling measurements: aligned
/// intervals keep the canonical partitions (and therefore the transformed
/// database) small, so larger `N` stays affordable while the asymptotic shape
/// is preserved.
pub fn scaling_workload(query: &Query, n: usize, seed: u64) -> Database {
    generate_for_query(
        query,
        &WorkloadConfig {
            tuples_per_relation: n,
            seed,
            distribution: IntervalDistribution::GridAligned {
                span: 4.0 * n as f64,
                cells: (2 * n).max(8) as u32,
                max_cells: 3,
            },
        },
    )
}

/// A denser uniform workload (more intersections per interval).
pub fn dense_workload(query: &Query, n: usize, seed: u64) -> Database {
    generate_for_query(
        query,
        &WorkloadConfig {
            tuples_per_relation: n,
            seed,
            distribution: IntervalDistribution::Uniform {
                span: n as f64,
                max_len: 4.0,
            },
        },
    )
}

/// Evaluates *every* EJ disjunct of a forward reduction (no early exit), so
/// timings reflect the full worst-case work of the reduction approach.
/// Returns the Boolean answer.
pub fn evaluate_all_disjuncts(reduction: &ForwardReduction) -> bool {
    let mut answer = false;
    for i in 0..reduction.queries.len() {
        let atoms = disjunct_atoms(reduction, i, None).expect("no token, no interruption");
        answer |=
            evaluate_ej_boolean(&atoms, EvalContext::default()).expect("no token, no interruption");
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_engine::IntersectionJoinEngine;
    use ij_reduction::forward_reduction;

    #[test]
    fn exponent_fit_recovers_known_slopes() {
        let quadratic: Vec<(f64, f64)> = (1..=6)
            .map(|i| (i as f64 * 100.0, (i as f64 * 100.0).powi(2) * 3.0))
            .collect();
        assert!((fit_exponent(&quadratic) - 2.0).abs() < 1e-9);
        let linear: Vec<(f64, f64)> = (1..=6)
            .map(|i| (i as f64 * 50.0, i as f64 * 50.0))
            .collect();
        assert!((fit_exponent(&linear) - 1.0).abs() < 1e-9);
        assert!(fit_exponent(&[(10.0, 1.0)]).is_nan());
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "22".into()],
            ],
        );
        assert!(table.contains("longer-name"));
        assert!(table.lines().count() == 4);
    }

    #[test]
    fn evaluate_all_disjuncts_matches_engine_answer() {
        let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let engine = IntersectionJoinEngine::with_defaults();
        for seed in 0..6 {
            let db = dense_workload(&query, 12, seed);
            let reduction = forward_reduction(&query, &db).unwrap();
            let expected = engine.evaluate(&query, &db).unwrap();
            assert_eq!(evaluate_all_disjuncts(&reduction), expected);
        }
    }

    #[test]
    fn workloads_scale_with_n() {
        let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let small = scaling_workload(&query, 10, 1);
        let large = scaling_workload(&query, 100, 1);
        assert_eq!(small.relation("R").unwrap().len(), 10);
        assert_eq!(large.relation("R").unwrap().len(), 100);
    }
}
