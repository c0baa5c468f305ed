//! Micro-benchmarks of the column kernels: `gallop_seek` and
//! `semijoin_rows` raced against their `*_scalar` oracles on identical
//! operands, `semijoin_any` timed on the same semijoin shapes against the
//! row list it answers for, and two passes raced against the implementation
//! they replaced, kept here: the content `fingerprint` against the
//! one-id-per-multiply hash, and `Relation::dedup` on sorted and shuffled
//! rows against a dedup that always sorts.  Every primitive is asserted to produce
//! identical output on both before any timing; the two fingerprints,
//! whose values differ by design, are asserted to tell the same changes of
//! content apart.  `flat-trie/build` times `FlatTrie::build` on presorted
//! rows (no permutation, no sort) and on the same rows shuffled, each
//! checked against the sorted distinct rows first.  `reduction/live-build`
//! times the forward reduction's build of one triangle atom's four live
//! relations, each on a fresh plan.
//!
//! Regenerate with `cargo bench -p ij-bench --bench kernels`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ij_ejoin::{BoundAtom, FlatTrie};
use ij_reduction::{plan_forward_reduction, ReductionConfig};
use ij_relation::kernels::{
    fingerprint, gallop_seek, gallop_seek_scalar, semijoin_any, semijoin_rows, semijoin_rows_scalar,
};
use ij_relation::{Relation, SharedDictionary, ValueId};
use ij_workloads::{build_scenario, PlantedAnswer, ScenarioConfig, ScenarioFamily};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Duration;

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
    let run = sorted_run(1 << 16, 8, 56);
    let targets = seek_targets(&run, 57);
    assert_eq!(
        seek_all(&run, &targets, gallop_seek),
        seek_all(&run, &targets, gallop_seek_scalar),
        "kernel must match its oracle"
    );
    group.bench_function(BenchmarkId::new("kernel", targets.len()), |bench| {
        bench.iter(|| seek_all(&run, &targets, gallop_seek))
    });
    group.bench_function(BenchmarkId::new("scalar", targets.len()), |bench| {
        bench.iter(|| seek_all(&run, &targets, gallop_seek_scalar))
    });
    group.finish();
}

/// `k` key columns of `n` rows shaped like a transformed relation's: inline
/// bitstring ids (`1 << 31 | 1 << len | bits`, the segment-tree nodes the
/// forward reduction writes) of up to 12 bits, drawn from a per-side stream
/// so the two sides share only some keys, as on a false disjunct.
fn node_id_columns(k: usize, n: usize, seed: u64) -> Vec<Vec<ValueId>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| {
            (0..n)
                .map(|_| {
                    let len = rng.gen_range(4u32..=12);
                    let bits = rng.gen_range(0u32..(1 << len));
                    ValueId::from_raw((1 << 31) | (1 << len) | bits)
                })
                .collect()
        })
        .collect()
}

/// `n` rows drawn at random from the rows of `cols`: a semijoin side whose
/// every key hits.
fn rows_of(cols: &[Vec<ValueId>], n: usize, seed: u64) -> Vec<Vec<ValueId>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let picks: Vec<usize> = (0..n).map(|_| rng.gen_range(0..cols[0].len())).collect();
    cols.iter()
        .map(|col| picks.iter().map(|&row| col[row]).collect())
        .collect()
}

/// The key columns of one semijoin side.
type Columns = Vec<Vec<ValueId>>;

/// The semijoin shapes of `kernels/semijoin-rows` and `kernels/semijoin-any`,
/// each as (left columns, right columns, name).
///
/// Refuting: `ip-ranges-product`'s first semijoins, a 130 – 3 300-row side
/// against a 14 k – 80 k-row side, keyed by two to four shared variables,
/// with the small side as either the parent (left) or the child (right).
/// Independent node ids share few first ids, so the first-column bitmap
/// rejects most left rows.
///
/// Hitting: every left key is a row of the right side, at the proportions
/// of `temporal-sparse`'s semijoins (a true instance), where the bitmap
/// rejects nothing and only adds its reads.
fn semijoin_shapes() -> Vec<(Columns, Columns, String)> {
    let mut shapes = Vec::new();
    for k in [2, 3, 4] {
        for (small, large) in [(130, 14_000), (3_300, 80_000)] {
            let small_cols = node_id_columns(k, small, 58 + k as u64);
            let large_cols = node_id_columns(k, large, 59 + k as u64);
            for (left, right) in [(&small_cols, &large_cols), (&large_cols, &small_cols)] {
                let shape = format!("k{k}-{}x{}", left[0].len(), right[0].len());
                shapes.push((left.clone(), right.clone(), shape));
            }
        }
    }
    for k in [2, 3] {
        for (left_len, right_len) in [(28_000, 28_000), (51_000, 16_000)] {
            let right_cols = node_id_columns(k, right_len, 60 + k as u64);
            let left_cols = rows_of(&right_cols, left_len, 61 + k as u64);
            shapes.push((
                left_cols,
                right_cols,
                format!("hit-k{k}-{left_len}x{right_len}"),
            ));
        }
    }
    shapes
}

fn bench_semijoin_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/semijoin-rows");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    for (left_cols, right_cols, shape) in semijoin_shapes() {
        let left: Vec<&[ValueId]> = left_cols.iter().map(Vec::as_slice).collect();
        let right: Vec<&[ValueId]> = right_cols.iter().map(Vec::as_slice).collect();
        assert_eq!(
            semijoin_rows(&left, &right),
            semijoin_rows_scalar(&left, &right),
            "kernel must match its oracle"
        );
        group.bench_function(BenchmarkId::new("kernel", &shape), |bench| {
            bench.iter(|| semijoin_rows(&left, &right).len())
        });
        group.bench_function(BenchmarkId::new("scalar", &shape), |bench| {
            bench.iter(|| semijoin_rows_scalar(&left, &right).len())
        });
    }
    group.finish();
}

/// The existence probe against the row list it answers for, on the same
/// shapes: a hitting shape stops at its first left row, a refuting one at
/// its first hit, if it has one, or after its last left row.
fn bench_semijoin_any(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/semijoin-any");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    for (left_cols, right_cols, shape) in semijoin_shapes() {
        let left: Vec<&[ValueId]> = left_cols.iter().map(Vec::as_slice).collect();
        let right: Vec<&[ValueId]> = right_cols.iter().map(Vec::as_slice).collect();
        assert_eq!(
            semijoin_any(&left, &right),
            !semijoin_rows(&left, &right).is_empty(),
            "the probe must answer whether the row list is non-empty"
        );
        group.bench_function(BenchmarkId::new("any", &shape), |bench| {
            bench.iter(|| semijoin_any(&left, &right))
        });
        group.bench_function(BenchmarkId::new("rows", &shape), |bench| {
            bench.iter(|| !semijoin_rows(&left, &right).is_empty())
        });
    }
    group.finish();
}

/// The content fingerprint before the multi-lane kernel: one chain per
/// 64-bit half, one multiply per half per id.
fn fingerprint_one_lane(rows: usize, cols: &[&[ValueId]]) -> (u64, u64) {
    const M1: u64 = 0x9E37_79B9_7F4A_7C15;
    const M2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let mix = |state: u64, v: u64, m: u64| ((state ^ v).wrapping_mul(m)).rotate_left(29);
    let mut a = 0x243F_6A88_85A3_08D3u64;
    let mut b = 0x4528_21E6_38D0_1377u64;
    for v in [cols.len() as u64, rows as u64] {
        (a, b) = (mix(a, v, M1), mix(b, v, M2));
    }
    for col in cols {
        (a, b) = (mix(a, 0xFEED_C01D, M1), mix(b, 0xFEED_C01D, M2));
        for &id in *col {
            (a, b) = (
                mix(a, u64::from(id.raw()), M1),
                mix(b, u64::from(id.raw()), M2),
            );
        }
    }
    (a, b)
}

/// `Relation::dedup` before the one-pass sorted check: rows packed into
/// integer keys (`u64` up to two columns, `u128` up to four), always sorted,
/// deduplicated and unpacked.
fn dedup_by_sort(cols: &mut [Vec<ValueId>]) -> usize {
    let arity = cols.len();
    assert!(
        (1..=4).contains(&arity),
        "the benched shapes have 1 to 4 columns"
    );
    let mut keys: Vec<u128> = (0..cols[0].len())
        .map(|row| (cols.iter()).fold(0, |key, col| key << 32 | u128::from(col[row].raw())))
        .collect();
    if arity <= 2 {
        let mut narrow: Vec<u64> = keys.iter().map(|&key| key as u64).collect();
        narrow.sort_unstable();
        narrow.dedup();
        keys = narrow.into_iter().map(u128::from).collect();
    } else {
        keys.sort_unstable();
        keys.dedup();
    }
    for (c, col) in cols.iter_mut().enumerate() {
        col.clear();
        let shift = 32 * (arity - 1 - c);
        col.extend(
            keys.iter()
                .map(|&key| ValueId::from_raw((key >> shift) as u32)),
        );
    }
    keys.len()
}

/// The bag-input shapes of the seed-7 warm triangle: about 60 k rows of two
/// node ids and 86 k rows of four, sorted and distinct as a memoised
/// projection is.
const BAG_SHAPES: [(usize, usize); 2] = [(60_000, 2), (86_000, 4)];

/// `rows` distinct rows of `arity` node ids, in ascending order.
fn sorted_node_rows(rows: usize, arity: usize, seed: u64) -> Vec<Vec<ValueId>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = std::collections::BTreeSet::new();
    while set.len() < rows {
        let row: Vec<u32> = (0..arity)
            .map(|_| {
                let len = rng.gen_range(4u32..=12);
                (1 << 31) | (1 << len) | rng.gen_range(0u32..(1 << len))
            })
            .collect();
        set.insert(row);
    }
    (0..arity)
        .map(|c| set.iter().map(|row| ValueId::from_raw(row[c])).collect())
        .collect()
}

fn bench_fingerprint(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/fingerprint");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for (rows, arity) in BAG_SHAPES {
        let cols = sorted_node_rows(rows, arity, 60 + arity as u64);
        let view: Vec<&[ValueId]> = cols.iter().map(Vec::as_slice).collect();
        // Same content, one id changed at the end, two columns swapped, one
        // row fewer: both hashes must tell apart exactly the same variants.
        let mut last = cols.clone();
        last[arity - 1][rows - 1] = ValueId::from_raw(0);
        let mut swapped = cols.clone();
        swapped.swap(0, 1);
        let shorter: Vec<Vec<ValueId>> = cols.iter().map(|col| col[1..].to_vec()).collect();
        for (variant, n) in [
            (&cols, rows),
            (&last, rows),
            (&swapped, rows),
            (&shorter, rows - 1),
        ] {
            let variant: Vec<&[ValueId]> = variant.iter().map(Vec::as_slice).collect();
            assert_eq!(
                fingerprint(rows, &view) == fingerprint(n, &variant),
                fingerprint_one_lane(rows, &view) == fingerprint_one_lane(n, &variant),
                "the kernel must tell apart what the old hash did"
            );
        }
        let shape = format!("{rows}x{arity}");
        group.bench_function(BenchmarkId::new("multi-lane", &shape), |bench| {
            bench.iter(|| fingerprint(rows, &view).0)
        });
        group.bench_function(BenchmarkId::new("one-lane", &shape), |bench| {
            bench.iter(|| fingerprint_one_lane(rows, &view).0)
        });
    }
    group.finish();
}

fn bench_dedup_sorted(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/dedup-sorted");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let dict = SharedDictionary::new();
    for (rows, arity) in BAG_SHAPES {
        let sorted = sorted_node_rows(rows, arity, 61 + arity as u64);
        // The same rows in a random order (Fisher–Yates over row indices).
        let mut rng = StdRng::seed_from_u64(62);
        let mut order: Vec<usize> = (0..rows).collect();
        for i in (1..rows).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let shuffled: Vec<Vec<ValueId>> = (sorted.iter())
            .map(|col| order.iter().map(|&row| col[row]).collect())
            .collect();
        for (input, cols) in [("sorted", &sorted), ("shuffled", &shuffled)] {
            let relation = Relation::from_id_columns("R", rows, cols.clone(), &dict);
            let mut new = relation.clone();
            new.dedup();
            let mut old = cols.clone();
            assert_eq!(dedup_by_sort(&mut old), new.len());
            for (c, col) in old.iter().enumerate() {
                assert_eq!(
                    col.as_slice(),
                    new.column_ids(c),
                    "must match the old dedup"
                );
            }
            let shape = format!("{input}-{rows}x{arity}");
            group.bench_function(BenchmarkId::new("one-pass-check", &shape), |bench| {
                bench.iter(|| {
                    let mut copy = relation.clone();
                    copy.dedup();
                    copy.len()
                })
            });
            group.bench_function(BenchmarkId::new("always-sort", &shape), |bench| {
                bench.iter(|| dedup_by_sort(&mut cols.clone()))
            });
        }
    }
    group.finish();
}

/// The rows of the seed-7 cold triangle's largest live relation: two node
/// ids each, about 56 k of them.
const TRIE_ROWS: usize = 56_000;

/// Every root-to-leaf path of a two-level trie, in enumeration order.
fn two_level_paths(trie: &FlatTrie) -> Vec<[ValueId; 2]> {
    let top = trie.run(0, 0, trie.level_len(0));
    (top.iter().enumerate())
        .flat_map(|(i, &a)| {
            let (lo, hi) = trie.child_range(0, i as u32);
            trie.run(1, lo, hi).iter().map(move |&b| [a, b])
        })
        .collect()
}

fn bench_flat_trie_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("flat-trie/build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let dict = SharedDictionary::new();
    let sorted = sorted_node_rows(TRIE_ROWS, 2, 63);
    // The same rows in a random order (Fisher–Yates over row indices).
    let mut rng = StdRng::seed_from_u64(64);
    let mut order: Vec<usize> = (0..TRIE_ROWS).collect();
    for i in (1..TRIE_ROWS).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let shuffled: Vec<Vec<ValueId>> = (sorted.iter())
        .map(|col| order.iter().map(|&row| col[row]).collect())
        .collect();
    // The oracle: the distinct rows in ascending order, which `sorted` is.
    let oracle: Vec<[ValueId; 2]> = (0..TRIE_ROWS)
        .map(|row| [sorted[0][row], sorted[1][row]])
        .collect();
    // Presorted rows take the path without a permutation or a sort; the
    // shuffled ones are sorted first.
    for (input, cols) in [("presorted", &sorted), ("shuffled", &shuffled)] {
        let relation = Relation::from_id_columns("R", TRIE_ROWS, cols.clone(), &dict);
        let atom = BoundAtom::new(&relation, vec![0, 1]);
        let trie = FlatTrie::build(&atom, &[0, 1], None).expect("no token");
        assert_eq!(two_level_paths(&trie), oracle, "{input}: the trie's paths");
        group.bench_function(BenchmarkId::new(input, format!("{TRIE_ROWS}x2")), |bench| {
            bench.iter(|| FlatTrie::build(&atom, &[0, 1], None).map(|t| t.level_len(1)))
        });
    }
    group.finish();
}

/// The live plan's builds of the atom `Buildings` of the spatial triangle
/// at n = 512 (seed 7, near miss: the repository benchmark's triangle
/// instance).  `plan` times `plan_forward_reduction` alone; each relation
/// times a fresh plan and then `ForwardReduction::relation`, so its build is
/// the difference.  Three of the four relations have a degree-2 top column
/// and take their seeds from the tree; `⟨X:1,Y:1⟩` sorts its seeds.
fn bench_live_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduction/live-build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let config = ScenarioConfig::new(ScenarioFamily::SpatialRectangles)
        .with_tuples(512)
        .with_seed(7)
        .with_selectivity(0.5)
        .with_skew(1.0)
        .with_planted(PlantedAnswer::NearMiss);
    let scenario = build_scenario(&config);
    let plan = || {
        let (q, db) = (&scenario.query, &scenario.database);
        plan_forward_reduction(q, db, ReductionConfig::default(), None).expect("a valid query")
    };
    let reduction = plan();
    let names: BTreeSet<&str> = (reduction.queries.iter())
        .flat_map(|query| &query.atoms)
        .map(|atom| atom.relation.as_str())
        .filter(|name| name.starts_with("Buildings@0"))
        .collect();
    assert_eq!(names.len(), 4, "one atom's four level assignments");
    group.bench_function("plan", |bench| bench.iter(|| plan().queries.len()));
    for name in names {
        group.bench_function(BenchmarkId::new("relation", name), |bench| {
            bench.iter(|| plan().relation(name, None).map(Relation::len))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gallop_seek,
    bench_semijoin_rows,
    bench_semijoin_any,
    bench_fingerprint,
    bench_dedup_sorted,
    bench_flat_trie_build,
    bench_live_build
);
criterion_main!(benches);
