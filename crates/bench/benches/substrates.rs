//! Micro-benchmarks of the substrates: segment-tree construction and
//! canonical partitions, the forward reduction itself, the equality-join
//! engine's algorithm choice against the plain generic join on the reduced
//! triangle instance, disjunct parallelism
//! and cancellation latency.  Cold and warm evaluation of one reduction are
//! the repository benchmark's `spatial-triangle-cold` / `-warm` workloads.
//!
//! Regenerate with `cargo bench -p ij-bench --bench substrates`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ij_bench::{dense_workload, evaluate_all_disjuncts, scaling_workload};
use ij_ejoin::{generic_join_boolean, EvalContext};
use ij_engine::{disjunct_atoms, EngineConfig, IntersectionJoinEngine};
use ij_hypergraph::triangle_ij;
use ij_reduction::forward_reduction;
use ij_relation::Query;
use ij_segtree::{Interval, SegmentTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn random_intervals(n: usize, seed: u64) -> Vec<Interval> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let lo: f64 = rng.gen_range(0.0..(n as f64));
            let len: f64 = rng.gen_range(0.0..32.0);
            Interval::new(lo, lo + len)
        })
        .collect()
}

fn bench_segment_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("segtree");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for n in [1_000usize, 10_000] {
        let intervals = random_intervals(n, 11);
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| SegmentTree::build(&intervals))
        });
        let tree = SegmentTree::build(&intervals);
        group.bench_with_input(BenchmarkId::new("canonical-partition", n), &n, |b, _| {
            b.iter(|| {
                intervals
                    .iter()
                    .map(|iv| tree.canonical_partition(*iv).len())
                    .sum::<usize>()
            })
        });
        let stored = SegmentTree::build_with_storage(&intervals);
        group.bench_with_input(BenchmarkId::new("stab", n), &n, |b, _| {
            b.iter(|| stored.stab(n as f64 / 2.0).len())
        });
    }
    group.finish();
}

fn bench_forward_reduction(c: &mut Criterion) {
    let query = Query::from_hypergraph(&triangle_ij());
    let mut group = c.benchmark_group("forward-reduction/triangle");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n in [250usize, 500] {
        let db = scaling_workload(&query, n, 13);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                forward_reduction(&query, &db)
                    .unwrap()
                    .stats
                    .transformed_tuples
            })
        });
    }
    group.finish();
}

fn bench_ej_strategies(c: &mut Criterion) {
    // Ablation: the same reduced triangle instance evaluated by the engine's
    // per-disjunct choice (width-guided on the triangle's cyclic disjuncts)
    // and by the plain generic join over every disjunct.
    let query = Query::from_hypergraph(&triangle_ij());
    let db = dense_workload(&query, 200, 17);
    let reduction = forward_reduction(&query, &db).unwrap();
    let mut group = c.benchmark_group("ej-strategies/triangle-n200");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("auto", |b| b.iter(|| evaluate_all_disjuncts(&reduction)));
    group.bench_function("generic-join", |b| {
        b.iter(|| {
            // Every disjunct, like `evaluate_all_disjuncts`: no early exit.
            (0..reduction.queries.len()).fold(false, |answer, i| {
                let atoms = disjunct_atoms(&reduction, i, None).unwrap();
                answer | generic_join_boolean(&atoms, None, EvalContext::default()).unwrap()
            })
        })
    });
    group.finish();
}

/// Sequential versus parallel evaluation of the EJ disjunction on the E1
/// cyclic workload.  The database is planted unsatisfiable, so the false
/// answer forces every disjunct to be evaluated — the case
/// parallelism accelerates.  (Wall-clock gains require multiple cores;
/// `available_parallelism() == 1` degenerates to the sequential path.)
fn bench_parallel_disjuncts(c: &mut Criterion) {
    use ij_workloads::{planted_unsatisfiable, IntervalDistribution, WorkloadConfig};
    let query = Query::from_hypergraph(&triangle_ij());
    let mut group = c.benchmark_group("substrate/e1-disjunct-parallelism");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let n = 400usize;
    let db = planted_unsatisfiable(
        &query,
        &WorkloadConfig {
            tuples_per_relation: n,
            seed: 23,
            distribution: IntervalDistribution::GridAligned {
                span: 4.0 * n as f64,
                cells: (2 * n) as u32,
                max_cells: 3,
            },
        },
    );
    let reduction = forward_reduction(&query, &db).unwrap();
    for (name, parallelism) in [("sequential", 1usize), ("parallel", 0usize)] {
        let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(parallelism));
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            b.iter(|| engine.evaluate_reduction(&reduction).unwrap().answer)
        });
    }
    group.finish();
}

/// `substrate/e1-cancel-latency`: signal→return latency of cooperative
/// cancellation on a planted near-miss workload (n = 400 rectangles; the
/// worst case for backtracking, so an uncancelled run is long enough to
/// interrupt mid-search), swept over the token's check interval K.  Smaller
/// K polls the token more often (lower latency, more atomic loads); the
/// DEFAULT_CHECK_INTERVAL sits in the middle.  Before any timing, each K is
/// asserted to honour the documented latency ceiling (the bound
/// `tests/cancellation.rs` also enforces).
fn bench_cancel_latency(c: &mut Criterion) {
    use ij_engine::{CancellationToken, EvalError};
    use ij_workloads::{build_scenario, PlantedAnswer, ScenarioConfig, ScenarioFamily};
    use std::time::Instant;

    /// The documented ceiling, mirrored from `tests/cancellation.rs`.
    const LATENCY_BOUND: Duration = Duration::from_millis(250);

    fn measure(
        engine: &IntersectionJoinEngine,
        reduction: &ij_reduction::ForwardReduction,
        check_interval: u32,
        head_start: Duration,
    ) -> Duration {
        let token = CancellationToken::new().with_check_interval(check_interval);
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let result = engine.evaluate_reduction_cancellable(reduction, Some(&token));
                (result, Instant::now())
            });
            std::thread::sleep(head_start);
            let signalled = Instant::now();
            token.cancel();
            let (result, returned) = worker.join().expect("worker does not panic");
            match result {
                Err(EvalError::Cancelled) => {}
                Ok(stats) => assert!(!stats.answer, "near-miss workload answered true"),
                Err(other) => panic!("cancel surfaced as {other:?}"),
            }
            returned.saturating_duration_since(signalled)
        })
    }

    let scenario = build_scenario(
        &ScenarioConfig::new(ScenarioFamily::SpatialRectangles)
            .with_tuples(400)
            .with_seed(3)
            .with_planted(PlantedAnswer::NearMiss),
    );
    let reduction = forward_reduction(&scenario.query, &scenario.database).unwrap();
    let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(1));
    assert!(
        !engine.evaluate_reduction(&reduction).unwrap().answer,
        "near-miss workload must be unsatisfiable"
    );

    let mut group = c.benchmark_group("substrate/e1-cancel-latency");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for check_interval in [64u32, 1024, 16384] {
        let probe = measure(
            &engine,
            &reduction,
            check_interval,
            Duration::from_millis(10),
        );
        assert!(
            probe <= LATENCY_BOUND,
            "check interval {check_interval}: latency {probe:?} exceeds the \
             documented ceiling {LATENCY_BOUND:?}"
        );
        // The timed cycle is spawn → 2 ms head start → cancel → join; the
        // constant head start makes the K-to-K deltas the latency signal.
        group.bench_with_input(
            BenchmarkId::new("check-interval", check_interval),
            &check_interval,
            |b, &k| b.iter(|| measure(&engine, &reduction, k, Duration::from_millis(2))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_segment_tree,
    bench_forward_reduction,
    bench_ej_strategies,
    bench_parallel_disjuncts,
    bench_cancel_latency
);
criterion_main!(benches);
