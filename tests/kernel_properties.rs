//! Property tests for the scan kernels (`ij_relation::kernels`): on random
//! `ValueId` slices of every length, the semijoin probe, the galloping seek
//! and the leapfrog intersection must be indistinguishable from their
//! `*_scalar` oracles (a different algorithm each), the gather and the key
//! packing must follow their definitions, and the semijoin existence probe
//! must answer whether the oracle lists a row.  CI runs this suite in
//! release as well, where galloping off-by-ones surface.  The content
//! fingerprint, which has no oracle, must tell every single change of
//! content apart, and `Relation::dedup` must equal a sorted-set oracle.

use ij_relation::kernels::{
    fingerprint, gallop_seek, gallop_seek_scalar, gather_ids, leapfrog_next, leapfrog_next_scalar,
    pack_keys, semijoin_any, semijoin_rows, semijoin_rows_scalar, FINGERPRINT_LANES,
};
use ij_relation::ValueId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Raw id values spanning the full `u32` range, concentrated around the
/// signed/unsigned boundary, where a compare on the wrong signedness would
/// misorder ids.
fn arb_raw_wide() -> impl Strategy<Value = u32> {
    (0u32..=u32::MAX, 0u8..4).prop_map(|(x, sel)| match sel {
        0 => x % 70,                                // dense low ids
        1 => 0x7FFF_FFF0u32.wrapping_add(x % 0x20), // signed/unsigned boundary
        2 => u32::MAX - (x % 70),                   // top of the domain
        _ => x,                                     // anywhere
    })
}

/// A sorted run of distinct ids (what every trie level stores), length 0 to
/// `max_len`, values from the wide domain.
fn arb_run(max_len: usize) -> impl Strategy<Value = Vec<ValueId>> {
    proptest::collection::vec(arb_raw_wide(), 0..=max_len).prop_map(|mut raw| {
        raw.sort_unstable();
        raw.dedup();
        raw.into_iter().map(ValueId::from_raw).collect()
    })
}

/// A pool of one to three raw ids that both sides of a semijoin draw their
/// key columns from, so keys repeat and hits are common at every width.  An
/// id comes from the wide domain or is shaped like the inline bitstring ids
/// the forward reduction writes (`1 << 31 | 1 << len | bits`).
fn arb_key_pool() -> impl Strategy<Value = Vec<u32>> {
    let inline = (0u32..30, 0u32..=u32::MAX)
        .prop_map(|(len, bits)| (1 << 31) | (1 << len) | (bits & ((1 << len) - 1)));
    let id = (arb_raw_wide(), inline, 0u8..2).prop_map(
        |(wide, inline, sel)| {
            if sel == 0 {
                wide
            } else {
                inline
            }
        },
    );
    proptest::collection::vec(id, 1..=3)
}

/// `k` key columns of `n` rows each, every id drawn from `pool`.
fn key_columns(pool: &[u32], picks: &[Vec<usize>]) -> Vec<Vec<ValueId>> {
    picks
        .iter()
        .map(|col| col.iter().map(|&i| ValueId::from_raw(pool[i])).collect())
        .collect()
}

/// One id of a semijoin operand at the first-column filter's scale.  The
/// narrow pool puts column 0 in eight small ids, so first columns almost
/// always match and only the later columns (inline ids of 12 bits) decide a
/// key.  The wide pool draws every column from the whole `u32` domain or
/// from inline bitstring ids (`1 << 31 | 1 << len | bits`, bit 31 set), so
/// thousands of distinct first ids share the filter's slots.
fn filter_scale_id(rng: &mut StdRng, narrow: bool, column: usize) -> ValueId {
    ValueId::from_raw(match (narrow, column) {
        (true, 0) => rng.gen_range(0..8),
        (true, _) => (1 << 31) | (1 << 12) | rng.gen_range(0u32..1 << 12),
        (false, _) if rng.gen_range(0..2) == 0 => rng.gen_range(0..=u32::MAX),
        (false, _) => {
            let len = rng.gen_range(0u32..30);
            (1 << 31) | (1 << len) | (rng.gen_range(0..=u32::MAX) & ((1 << len) - 1))
        }
    })
}

/// The key columns of a semijoin's two sides, `k` wide, at the filter's
/// scale.  `copied` eighths of the left rows copy a random right row,
/// split evenly between exact copies (hits), copies with a later column
/// redrawn (the first id matches, the key mostly does not) and copies with
/// the first column redrawn (the rest matches, the first id mostly does
/// not); the other left rows are fresh.  Few copies make the bitmap reject
/// most left rows, many make the kernel probe every row directly.
fn filter_scale_sides(
    k: usize,
    left_len: usize,
    right_len: usize,
    narrow: bool,
    copied: u32,
    seed: u64,
) -> (Vec<Vec<ValueId>>, Vec<Vec<ValueId>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = |rng: &mut StdRng, n: usize| -> Vec<Vec<ValueId>> {
        (0..n)
            .map(|_| (0..k).map(|j| filter_scale_id(rng, narrow, j)).collect())
            .collect()
    };
    let right = rows(&mut rng, right_len);
    let mut left = rows(&mut rng, left_len);
    for row in left.iter_mut() {
        if rng.gen_range(0u32..8) >= copied {
            continue;
        }
        row.clone_from(&right[rng.gen_range(0..right_len)]);
        match rng.gen_range(0..3) {
            0 => {}
            1 => {
                let j = rng.gen_range(1..k);
                row[j] = filter_scale_id(&mut rng, narrow, j);
            }
            _ => row[0] = filter_scale_id(&mut rng, narrow, 0),
        }
    }
    let columns = |rows: &[Vec<ValueId>]| -> Vec<Vec<ValueId>> {
        (0..k)
            .map(|j| rows.iter().map(|row| row[j]).collect())
            .collect()
    };
    (columns(&left), columns(&right))
}

proptest! {
    // Operands of thousands of rows; an unoptimised build runs a few cases
    // to stay fast, and the release run of this suite sweeps many more.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 32 } else { 256 }))]

    /// The semijoin probe ≡ its oracle at the scale where the first-column
    /// bitmap is dense and collides: two to four key columns, 1 – 2 048
    /// right rows (spread over every power of two) and up to 16 384 left
    /// rows, from the narrow pool (first ids match, later columns decide)
    /// or the wide one (first ids collide in the bitmap, inline ids with
    /// bit 31 set among them), with anywhere from no left row to every one
    /// copied from the right side.  Few copies make the bitmap reject most
    /// left rows, many make the kernel probe every row directly, and no
    /// copies at all leave most cases without a hit; the existence probe
    /// must answer whether the oracle lists a row on each.
    #[test]
    fn semijoin_rows_matches_scalar_at_filter_scale(
        k in 2usize..=4,
        right_bits in 0u32..=11,
        right_jitter in 0usize..2_048,
        left_len in 0usize..=16_384,
        pool in 0u8..2,
        copied in 0u32..=8,
        seed in 0u64..u64::MAX,
    ) {
        let right_len = 1 + right_jitter % (1 << right_bits);
        let (left, right) =
            filter_scale_sides(k, left_len, right_len, pool == 0, copied, seed);
        let left: Vec<&[ValueId]> = left.iter().map(Vec::as_slice).collect();
        let right: Vec<&[ValueId]> = right.iter().map(Vec::as_slice).collect();
        let expected = semijoin_rows_scalar(&left, &right);
        prop_assert_eq!(semijoin_any(&left, &right), !expected.is_empty());
        prop_assert_eq!(semijoin_rows(&left, &right), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The semijoin probe ≡ its slice-keyed oracle for keys of one to six
    /// columns (every integer-key width and the packed fallback), with the
    /// left side shorter and longer than the right, and the existence probe
    /// ≡ whether the oracle lists a row.
    #[test]
    fn semijoin_rows_matches_scalar(
        case in (1usize..=6, 0usize..29, 0usize..29, arb_key_pool())
            .prop_flat_map(|(k, left_len, right_len, pool)| {
                let picks = |n: usize| {
                    proptest::collection::vec(
                        proptest::collection::vec(0..pool.len(), n..=n),
                        k..=k,
                    )
                };
                (Just(pool.clone()), picks(left_len), picks(right_len))
            })
    ) {
        let (pool, left_picks, right_picks) = case;
        let left = key_columns(&pool, &left_picks);
        let right = key_columns(&pool, &right_picks);
        let left: Vec<&[ValueId]> = left.iter().map(|c| c.as_slice()).collect();
        let right: Vec<&[ValueId]> = right.iter().map(|c| c.as_slice()).collect();
        let expected = semijoin_rows_scalar(&left, &right);
        prop_assert_eq!(semijoin_any(&left, &right), !expected.is_empty());
        prop_assert_eq!(semijoin_rows(&left, &right), expected);
    }

    /// Gathering follows its element-at-a-time definition,
    /// `out[i] == col[rows[i]]`, on random in-bounds row lists (repeats and
    /// arbitrary order included), appending to what `out` held.
    #[test]
    fn gather_ids_matches_scalar(
        col in proptest::collection::vec((0u32..7).prop_map(ValueId::from_raw), 1..27),
        picks in proptest::collection::vec(0usize..64, 0..26),
    ) {
        let rows: Vec<u32> = picks.iter().map(|&p| (p % col.len()) as u32).collect();
        let mut out = vec![ValueId::from_raw(u32::MAX)];
        gather_ids(&col, &rows, &mut out);
        prop_assert_eq!(out.len(), rows.len() + 1);
        prop_assert_eq!(out[0], ValueId::from_raw(u32::MAX), "existing output must be kept");
        for (i, &row) in rows.iter().enumerate() {
            prop_assert_eq!(out[i + 1], col[row as usize]);
        }
    }

    /// Key packing follows its element-at-a-time definition,
    /// `out[row·k + j] == cols[j][row]`, for one to four columns.
    #[test]
    fn pack_keys_matches_scalar(cols in (1usize..5, 0usize..29).prop_flat_map(|(k, n)| {
        proptest::collection::vec(
            proptest::collection::vec((0u32..9).prop_map(ValueId::from_raw), n..=n),
            k..=k,
        )
    })) {
        let views: Vec<&[ValueId]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut packed = vec![ValueId::from_raw(1)];
        pack_keys(&views, &mut packed);
        let k = views.len();
        let n = views[0].len();
        prop_assert_eq!(packed.len(), n * k);
        for (row, key) in packed.chunks_exact(k).enumerate() {
            for (j, &id) in key.iter().enumerate() {
                prop_assert_eq!(id, views[j][row]);
            }
        }
    }

    /// Galloping seek ≡ scalar linear scan at every start, over the whole
    /// raw domain (the signed/unsigned boundary cases included).
    #[test]
    fn gallop_seek_matches_scalar(
        run in arb_run(37),
        start_frac in 0usize..=100,
        target_raw in arb_raw_wide(),
    ) {
        let start = start_frac * run.len() / 100;
        let target = ValueId::from_raw(target_raw);
        prop_assert_eq!(
            gallop_seek(&run, start, target),
            gallop_seek_scalar(&run, start, target)
        );
    }

    /// Multi-way leapfrog enumeration (through the galloping seek) ≡ the
    /// scalar reference, for one to four runs.
    #[test]
    fn leapfrog_matches_scalar(
        runs in proptest::collection::vec(arb_run(27), 1..=4),
    ) {
        let views: Vec<&[ValueId]> = runs.iter().map(|r| r.as_slice()).collect();
        let collect = |next: fn(&[&[ValueId]], &mut [usize]) -> Option<ValueId>| {
            let mut cursors = vec![0usize; views.len()];
            let mut out = Vec::new();
            while let Some(v) = next(&views, &mut cursors) {
                out.push(v);
                for c in cursors.iter_mut() {
                    *c += 1;
                }
            }
            out
        };
        prop_assert_eq!(collect(leapfrog_next), collect(leapfrog_next_scalar));
    }
}

/// The existence probe's three pinned shapes at the first-column filter's
/// scale (16 384 left rows against 2 048 right rows), for keys of one to six
/// columns: no hit at all (the worst case, every left row read), one hit at
/// the last left row, and one hit at the first.  Right keys hold even ids
/// and the left side's non-matching columns odd ones.  With the left first
/// ids odd too the bitmap rejects most left rows; with them copied from the
/// right side (two or more columns) every first id passes and each left row
/// is probed directly.
#[test]
fn semijoin_any_finds_a_lone_hit_at_either_end_and_none_without_one() {
    let (left_len, right_len) = (16_384u32, 2_048u32);
    let right_id = |i: u32| ValueId::from_raw(2 * i);
    let miss_id = |i: u32| ValueId::from_raw(2 * i + 1);
    for k in 1..=6 {
        let right: Vec<Vec<ValueId>> = (0..k)
            .map(|_| (0..right_len).map(right_id).collect())
            .collect();
        let right: Vec<&[ValueId]> = right.iter().map(Vec::as_slice).collect();
        for shared_first in [false, true] {
            if shared_first && k == 1 {
                continue;
            }
            let base: Vec<Vec<ValueId>> = (0..k)
                .map(|j| {
                    (0..left_len)
                        .map(|i| match j == 0 && shared_first {
                            true => right_id(i % right_len),
                            false => miss_id(i),
                        })
                        .collect()
                })
                .collect();
            let shapes = [
                ("no hit", None),
                ("one hit at the last row", Some(left_len as usize - 1)),
                ("one hit at the first row", Some(0)),
            ];
            for (shape, hit) in shapes {
                let mut left = base.clone();
                if let Some(row) = hit {
                    // The row becomes right row 7, whole.
                    for col in left.iter_mut() {
                        col[row] = right_id(7);
                    }
                }
                let left: Vec<&[ValueId]> = left.iter().map(Vec::as_slice).collect();
                let rows = semijoin_rows_scalar(&left, &right);
                let why = format!("k {k}, shared first ids {shared_first}, {shape}");
                assert_eq!(rows, Vec::from_iter(hit.map(|row| row as u32)), "{why}");
                assert_eq!(semijoin_any(&left, &right), hit.is_some(), "{why}");
                assert_eq!(semijoin_rows(&left, &right), rows, "{why}");
            }
        }
    }
}

/// Every public kernel against its oracle or its definition at adversarial
/// lengths: empty, one, around 8 and 16, around 32, an odd length past it,
/// around 64 and at 100 — every gallop span and fingerprint chunk split —
/// with ids straddling `0x7FFF_FFFF` / `0x8000_0000`, where a signed
/// compare would misorder them.
#[test]
fn kernels_match_scalar_on_adversarial_lengths() {
    let lengths = [0, 1, 7, 8, 9, 15, 16, 31, 32, 33, 37, 63, 64, 65, 100];
    let near_sign = |k: usize| ValueId::from_raw(0x7FFF_FFF0u32.wrapping_add(k as u32));
    for n in lengths {
        let a: Vec<ValueId> = (0..n).map(|i| ValueId::from_raw(i as u32 % 5)).collect();
        let b: Vec<ValueId> = (0..n)
            .map(|i| ValueId::from_raw((i as u32 + 1) % 5))
            .collect();
        let col: Vec<ValueId> = (0..n + 1).map(near_sign).collect();
        let rows: Vec<u32> = (0..n).map(|i| ((i * 11) % (n + 1)) as u32).collect();
        let mut gathered = Vec::new();
        gather_ids(&col, &rows, &mut gathered);
        let expected: Vec<ValueId> = rows.iter().map(|&row| col[row as usize]).collect();
        assert_eq!(gathered, expected, "gather_ids len {n}");

        let cols: [&[ValueId]; 3] = [&a, &b, &col[..n]];
        let mut packed = Vec::new();
        pack_keys(&cols, &mut packed);
        let expected: Vec<ValueId> = (0..n).flat_map(|row| cols.map(|c| c[row])).collect();
        assert_eq!(packed, expected, "pack_keys len {n}");

        // Semijoin keys of one to six columns, against right sides shorter
        // and longer than the left; odd right rows carry a first id the left
        // never holds, even ones repeat a left key pattern.
        let key_col = |j: usize, i: usize| match j % 3 {
            0 => ValueId::from_raw(i as u32 % 5),
            1 => ValueId::from_raw((i as u32 + 1) % 5),
            _ => near_sign(i % 3),
        };
        for right_len in [0, 1, n / 2, 2 * n + 1] {
            for k in 1..=6 {
                let left: Vec<Vec<ValueId>> = (0..k)
                    .map(|j| (0..n).map(|i| key_col(j, i)).collect())
                    .collect();
                let right: Vec<Vec<ValueId>> = (0..k)
                    .map(|j| {
                        (0..right_len)
                            .map(|i| match (j, i % 2) {
                                (0, 1) => ValueId::from_raw(9),
                                _ => key_col(j, 3 * i + 1),
                            })
                            .collect()
                    })
                    .collect();
                let left: Vec<&[ValueId]> = left.iter().map(|c| c.as_slice()).collect();
                let right: Vec<&[ValueId]> = right.iter().map(|c| c.as_slice()).collect();
                assert_eq!(
                    semijoin_rows(&left, &right),
                    semijoin_rows_scalar(&left, &right),
                    "semijoin_rows len {n} against {right_len}, k {k}"
                );
            }
        }

        let run: Vec<ValueId> = (0..n).map(|i| near_sign(3 * i)).collect();
        for start in 0..=n {
            for probe in 0..(3 * n + 2) {
                let target = near_sign(probe);
                assert_eq!(
                    gallop_seek(&run, start, target),
                    gallop_seek_scalar(&run, start, target),
                    "gallop_seek len {n}, start {start}, probe {probe}"
                );
            }
        }

        let other: Vec<ValueId> = (0..n).map(|i| near_sign(2 * i)).collect();
        let enumerate = |next: fn(&[&[ValueId]], &mut [usize]) -> Option<ValueId>| {
            let runs: [&[ValueId]; 2] = [&run, &other];
            let mut cursors = [0usize; 2];
            let mut out = Vec::new();
            while let Some(v) = next(&runs, &mut cursors) {
                out.push(v);
                cursors.iter_mut().for_each(|c| *c += 1);
            }
            out
        };
        assert_eq!(
            enumerate(leapfrog_next),
            enumerate(leapfrog_next_scalar),
            "leapfrog len {n}"
        );
    }
    // Seeks across the boundary from both sides.
    let edge: Vec<ValueId> = [0, 1, 0x7FFF_FFFF, 0x8000_0000, 0x8000_0001, 0xFFFF_FFFE]
        .map(ValueId::from_raw)
        .to_vec();
    for start in 0..=edge.len() {
        for t in [
            0u32,
            0x7FFF_FFFF,
            0x8000_0000,
            0x8000_0001,
            0xFFFF_FFFE,
            u32::MAX,
        ] {
            let target = ValueId::from_raw(t);
            assert_eq!(
                gallop_seek(&edge, start, target),
                gallop_seek_scalar(&edge, start, target),
                "start {start}, target {t:#x}"
            );
        }
    }
}

/// `rows` rows of `arity` columns with pairwise distinct ids, inline
/// bitstring ids in the even columns (the forward reduction's shape) and
/// small dictionary-style ids in the odd ones.
fn distinct_columns(arity: usize, rows: usize) -> Vec<Vec<ValueId>> {
    (0..arity)
        .map(|c| {
            (0..rows)
                .map(|r| {
                    let n = (c * 1_000 + r) as u32;
                    ValueId::from_raw(if c % 2 == 0 {
                        (1 << 31) | (1 << 20) | n
                    } else {
                        n
                    })
                })
                .collect()
        })
        .collect()
}

fn fingerprint_of(cols: &[Vec<ValueId>], rows: usize) -> (u64, u64) {
    let views: Vec<&[ValueId]> = cols.iter().map(Vec::as_slice).collect();
    fingerprint(rows, &views)
}

/// The content fingerprint: equal content gives equal fingerprints, and
/// every single change of content below changes it — one id at each
/// position of the first chunk of every sub-lane and both halves of a word
/// (positions 0–9) and at the last position (the remainder), two adjacent
/// ids swapped, two columns swapped, and one row appended — at lengths
/// below, at and above one chunk of [`FINGERPRINT_LANES`] words.
#[test]
fn fingerprint_tells_every_change_of_content_apart() {
    assert_eq!(
        2 * FINGERPRINT_LANES,
        8,
        "the lengths below straddle one chunk"
    );
    for rows in [0, 1, 7, 8, 9, 17] {
        for arity in [1, 2, 3] {
            let cols = distinct_columns(arity, rows);
            let base = fingerprint_of(&cols, rows);
            assert_eq!(base, fingerprint_of(&cols.clone(), rows), "{arity}×{rows}");
            let changed = |what: &str, other: Vec<Vec<ValueId>>, other_rows: usize| {
                assert_ne!(
                    base,
                    fingerprint_of(&other, other_rows),
                    "{what} at {arity}×{rows}"
                );
            };
            let positions = (0..10).chain(rows.checked_sub(1));
            for (c, pos) in (0..arity).flat_map(|c| positions.clone().map(move |p| (c, p))) {
                if pos < rows {
                    let mut other = cols.clone();
                    other[c][pos] = ValueId::from_raw(other[c][pos].raw() ^ 0x40);
                    changed(&format!("id ({c}, {pos})"), other, rows);
                }
            }
            for pos in 1..rows {
                let mut other = cols.clone();
                other[arity - 1].swap(pos - 1, pos);
                changed(&format!("swap {} ↔ {pos}", pos - 1), other, rows);
            }
            if arity >= 2 && rows >= 1 {
                let mut other = cols.clone();
                other.swap(0, 1);
                changed("column swap", other, rows);
            }
            let mut other = distinct_columns(arity, rows + 1);
            changed("appended row", other.clone(), rows + 1);
            // An appended row of zero ids too, which the remainder's
            // padding would read alike were the row count not hashed.
            for col in &mut other {
                *col = col[..rows].to_vec();
                col.push(ValueId::from_raw(0));
            }
            changed("appended zero row", other, rows + 1);
        }
    }
    // No column, any row count: the row count alone tells them apart.
    assert_ne!(fingerprint(0, &[]), fingerprint(1, &[]));
}

/// `Relation::dedup` against a `BTreeSet` oracle at arities 1 to 6 (both
/// packed key widths and the wide path), on random rows, rows already
/// sorted and distinct (the one-pass check returns them as they are),
/// sorted rows with duplicates, and rows in reverse order; and that check,
/// `kernels::strictly_ascending`, against comparing whole rows pairwise.
#[test]
fn dedup_matches_a_sorted_set_oracle() {
    use ij_relation::{Relation, SharedDictionary};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    let dict = SharedDictionary::new();
    let mut rng = StdRng::seed_from_u64(32);
    for arity in 1..=6usize {
        for rows in [0usize, 1, 2, 9, 64, 257] {
            // A small domain per column so random rows repeat, with raw ids
            // on both sides of the sign bit.
            let random: Vec<Vec<u32>> = (0..rows)
                .map(|_| {
                    (0..arity)
                        .map(|_| [0, 1, 2, 0x7FFF_FFFF, 0x8000_0001][rng.gen_range(0..5usize)])
                        .collect()
                })
                .collect();
            let set: BTreeSet<Vec<u32>> = random.iter().cloned().collect();
            let oracle: Vec<Vec<u32>> = set.iter().cloned().collect();
            let mut sorted_dups = random.clone();
            sorted_dups.sort();
            let mut reversed = oracle.clone();
            reversed.reverse();
            for (what, input) in [
                ("random", random),
                ("sorted distinct", oracle.clone()),
                ("sorted with duplicates", sorted_dups),
                ("reverse sorted", reversed),
            ] {
                let cols: Vec<Vec<ValueId>> = (0..arity)
                    .map(|c| input.iter().map(|row| ValueId::from_raw(row[c])).collect())
                    .collect();
                let slices: Vec<&[ValueId]> = cols.iter().map(Vec::as_slice).collect();
                assert_eq!(
                    ij_relation::kernels::strictly_ascending(&slices),
                    input.windows(2).all(|pair| pair[0] < pair[1]),
                    "strictly_ascending: {what}, arity {arity}, {rows} rows"
                );
                let mut relation = Relation::from_id_columns("R", input.len(), cols, &dict);
                relation.dedup();
                let got: Vec<Vec<u32>> = (0..relation.len())
                    .map(|r| (0..arity).map(|c| relation.id_at(r, c).raw()).collect())
                    .collect();
                assert_eq!(got, oracle, "{what}, arity {arity}, {rows} rows");
            }
        }
    }
}
