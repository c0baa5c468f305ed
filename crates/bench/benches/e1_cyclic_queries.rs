//! E1 (empirical) — Criterion benchmarks of the reduction-based evaluation
//! versus the classical baselines on the three cyclic IJ queries of Table 1.
//!
//! Regenerate with `cargo bench -p ij-bench --bench e1_cyclic_queries`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ij_baselines::binary_join_cascade;
use ij_bench::{evaluate_all_disjuncts, scaling_workload};
use ij_engine::naive_boolean;
use ij_hypergraph::{four_clique_ij, loomis_whitney_4_ij, triangle_ij};
use ij_reduction::{forward_reduction, forward_reduction_with, EncodingStrategy, ReductionConfig};
use ij_relation::Query;
use std::time::Duration;

fn bench_triangle(c: &mut Criterion) {
    let query = Query::from_hypergraph(&triangle_ij());
    let mut group = c.benchmark_group("table1/triangle");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n in [100usize, 200] {
        let db = scaling_workload(&query, n, 1);
        group.bench_with_input(BenchmarkId::new("reduction", n), &n, |b, _| {
            b.iter(|| {
                let reduction = forward_reduction(&query, &db).unwrap();
                evaluate_all_disjuncts(&reduction)
            })
        });
        group.bench_with_input(BenchmarkId::new("cascade", n), &n, |b, _| {
            b.iter(|| binary_join_cascade(&query, &db).unwrap())
        });
        if n <= 200 {
            group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
                b.iter(|| naive_boolean(&query, &db).unwrap())
            });
        }
    }
    group.finish();
}

/// LW4's ternary atoms make the flat transformed relations blow up by a
/// `(log² N)³` factor per atom and the full 1296-disjunct evaluation takes
/// minutes per run, so the Criterion micro-benchmark measures the reduction
/// *construction* under the decomposed encoding against the cascade baseline;
/// the end-to-end wall-clock comparison lives in the `table1` and `encoding`
/// binaries, which run each configuration once instead of sampling it.
fn bench_lw4(c: &mut Criterion) {
    let query = Query::from_hypergraph(&loomis_whitney_4_ij());
    let mut group = c.benchmark_group("table1/loomis-whitney-4");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    {
        let n = 8usize;
        let db = scaling_workload(&query, n, 2);
        group.bench_with_input(BenchmarkId::new("reduction-decomposed", n), &n, |b, _| {
            b.iter(|| {
                forward_reduction_with(
                    &query,
                    &db,
                    ReductionConfig {
                        encoding: EncodingStrategy::Decomposed,
                    },
                )
                .unwrap()
                .stats
                .transformed_tuples
            })
        });
        group.bench_with_input(BenchmarkId::new("cascade", n), &n, |b, _| {
            b.iter(|| binary_join_cascade(&query, &db).unwrap())
        });
    }
    group.finish();
}

/// Like [`bench_lw4`]: the 4-clique's 1296-disjunct evaluation is measured in
/// the `table1`/`encoding` binaries; the Criterion benchmark compares the two
/// reduction encodings and the cascade baseline.
fn bench_four_clique(c: &mut Criterion) {
    let query = Query::from_hypergraph(&four_clique_ij());
    let mut group = c.benchmark_group("table1/4-clique");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    {
        let n = 10usize;
        let db = scaling_workload(&query, n, 3);
        group.bench_with_input(BenchmarkId::new("reduction-flat", n), &n, |b, _| {
            b.iter(|| {
                forward_reduction(&query, &db)
                    .unwrap()
                    .stats
                    .transformed_tuples
            })
        });
        group.bench_with_input(BenchmarkId::new("reduction-decomposed", n), &n, |b, _| {
            b.iter(|| {
                forward_reduction_with(
                    &query,
                    &db,
                    ReductionConfig {
                        encoding: EncodingStrategy::Decomposed,
                    },
                )
                .unwrap()
                .stats
                .transformed_tuples
            })
        });
        group.bench_with_input(BenchmarkId::new("cascade", n), &n, |b, _| {
            b.iter(|| binary_join_cascade(&query, &db).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_triangle, bench_lw4, bench_four_clique);
criterion_main!(benches);
