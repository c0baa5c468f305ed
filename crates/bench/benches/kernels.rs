//! Micro-benchmarks of the column kernels: every chunked primitive
//! (`and_equal_mask`, `select_indices`, `gather_ids`, `gallop_seek`) raced
//! against its `*_scalar` reference on identical operands.  Every primitive
//! is asserted to produce bit-identical output on both before any timing.
//!
//! Regenerate with `cargo bench -p ij-bench --bench kernels`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ij_relation::kernels::{
    and_equal_mask, and_equal_mask_scalar, gallop_seek, gallop_seek_scalar, gather_ids,
    gather_ids_scalar, select_indices, select_indices_scalar,
};
use ij_relation::ValueId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Column length for the element-wise kernels: large enough that the loop
/// body dominates call overhead, small enough to stay in L1/L2.
const COL: usize = 4096;

/// Random ids drawn from `0..hi` (duplicates expected).
fn random_ids(n: usize, hi: u32, seed: u64) -> Vec<ValueId> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| ValueId::from_raw(rng.gen_range(0..hi)))
        .collect()
}

/// A sorted duplicate-free run of `n` ids with random gaps in `1..=max_gap`.
fn sorted_run(n: usize, max_gap: u32, seed: u64) -> Vec<ValueId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next = 0u32;
    (0..n)
        .map(|_| {
            next += rng.gen_range(1..=max_gap);
            ValueId::from_raw(next)
        })
        .collect()
}

fn bench_and_equal_mask(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/and-equal-mask");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    // Values in 0..4 so ~25% of the lanes compare equal.
    let a = random_ids(COL, 4, 51);
    let b = random_ids(COL, 4, 52);
    let base = vec![1u8; COL];
    let mut portable = base.clone();
    let mut scalar = base.clone();
    and_equal_mask(&a, &b, &mut portable);
    and_equal_mask_scalar(&a, &b, &mut scalar);
    assert_eq!(portable, scalar, "kernel must match its oracle");
    let mut mask = base.clone();
    group.bench_function(BenchmarkId::new("portable", COL), |bench| {
        bench.iter(|| {
            mask.copy_from_slice(&base);
            and_equal_mask(&a, &b, &mut mask);
            mask[0]
        })
    });
    group.bench_function(BenchmarkId::new("scalar", COL), |bench| {
        bench.iter(|| {
            mask.copy_from_slice(&base);
            and_equal_mask_scalar(&a, &b, &mut mask);
            mask[0]
        })
    });
    group.finish();
}

fn bench_select_indices(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/select-indices");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    // ~25% survivors, the regime after one selective equality predicate.
    let mut rng = StdRng::seed_from_u64(53);
    let mask: Vec<u8> = (0..COL)
        .map(|_| u8::from(rng.gen_range(0..4) == 0))
        .collect();
    let mut portable = Vec::new();
    let mut scalar = Vec::new();
    select_indices(&mask, 7, &mut portable);
    select_indices_scalar(&mask, 7, &mut scalar);
    assert_eq!(portable, scalar, "kernel must match its oracle");
    let mut out = Vec::with_capacity(COL);
    group.bench_function(BenchmarkId::new("portable", COL), |bench| {
        bench.iter(|| {
            out.clear();
            select_indices(&mask, 7, &mut out);
            out.len()
        })
    });
    group.bench_function(BenchmarkId::new("scalar", COL), |bench| {
        bench.iter(|| {
            out.clear();
            select_indices_scalar(&mask, 7, &mut out);
            out.len()
        })
    });
    group.finish();
}

fn bench_gather_ids(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/gather-ids");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let col = random_ids(16 * COL, u32::MAX, 54);
    let mut rng = StdRng::seed_from_u64(55);
    let rows: Vec<u32> = (0..COL)
        .map(|_| rng.gen_range(0..col.len() as u32))
        .collect();
    let mut portable = Vec::new();
    let mut scalar = Vec::new();
    gather_ids(&col, &rows, &mut portable);
    gather_ids_scalar(&col, &rows, &mut scalar);
    assert_eq!(portable, scalar, "kernel must match its oracle");
    let mut out = Vec::with_capacity(COL);
    group.bench_function(BenchmarkId::new("portable", COL), |bench| {
        bench.iter(|| {
            out.clear();
            gather_ids(&col, &rows, &mut out);
            out.len()
        })
    });
    group.bench_function(BenchmarkId::new("scalar", COL), |bench| {
        bench.iter(|| {
            out.clear();
            gather_ids_scalar(&col, &rows, &mut out);
            out.len()
        })
    });
    group.finish();
}

/// A monotone target sequence over `run` mixing short hops (inside the
/// linear-probe window) with long jumps (forcing the galloping phase) —
/// the access pattern leapfrog intersection produces.
fn seek_targets(run: &[ValueId], seed: u64) -> Vec<ValueId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut targets = Vec::new();
    let mut i = 0usize;
    while i < run.len() {
        targets.push(run[i]);
        i += if rng.gen_range(0..4) == 0 {
            rng.gen_range(64usize..256)
        } else {
            rng.gen_range(1usize..6)
        };
    }
    targets
}

/// Seeks every target in sequence, threading the cursor like a leapfrog
/// level does; returns the final cursor as the comparable result.
fn seek_all(
    run: &[ValueId],
    targets: &[ValueId],
    seek: impl Fn(&[ValueId], usize, ValueId) -> usize,
) -> usize {
    let mut pos = 0usize;
    for &t in targets {
        pos = seek(run, pos, t);
    }
    pos
}

fn bench_gallop_seek(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/gallop-seek");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let run = sorted_run(16 * COL, 8, 56);
    let targets = seek_targets(&run, 57);
    assert_eq!(
        seek_all(&run, &targets, gallop_seek),
        seek_all(&run, &targets, gallop_seek_scalar),
        "kernel must match its oracle"
    );
    group.bench_function(BenchmarkId::new("portable", targets.len()), |bench| {
        bench.iter(|| seek_all(&run, &targets, gallop_seek))
    });
    group.bench_function(BenchmarkId::new("scalar", targets.len()), |bench| {
        bench.iter(|| seek_all(&run, &targets, gallop_seek_scalar))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_and_equal_mask,
    bench_select_indices,
    bench_gather_ids,
    bench_gallop_seek
);
criterion_main!(benches);
