//! Property tests for the chunked scan kernels (`ij_relation::kernels`): on
//! random `ValueId` slices of every length — including lengths that are not
//! a multiple of the lane width — each public kernel must be
//! indistinguishable from its `*_scalar` reference implementation.  CI runs
//! this suite in release as well, where galloping off-by-ones surface.

use ij_relation::kernels::{
    and_equal_mask, and_equal_mask_scalar, gallop_seek, gallop_seek_scalar, gather_ids,
    gather_ids_scalar, leapfrog_next, leapfrog_next_scalar, pack_keys, pack_keys_scalar,
    select_indices, select_indices_scalar, LANES,
};
use ij_relation::ValueId;
use proptest::prelude::*;

/// Random id slices over a small raw domain (equal pairs likely), with
/// lengths straddling multiples of the lane width.
fn arb_ids(max_len: usize) -> impl Strategy<Value = Vec<ValueId>> {
    proptest::collection::vec((0u32..7).prop_map(ValueId::from_raw), 0..=max_len)
}

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
/// a few lanes' worth, values from the wide domain.
fn arb_run(max_len: usize) -> impl Strategy<Value = Vec<ValueId>> {
    proptest::collection::vec(arb_raw_wide(), 0..=max_len).prop_map(|mut raw| {
        raw.sort_unstable();
        raw.dedup();
        raw.into_iter().map(ValueId::from_raw).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Chunked equal-pair masking ≡ scalar reference, including accumulation
    /// over an arbitrary starting mask.
    #[test]
    fn and_equal_mask_matches_scalar(
        pairs in arb_ids(4 * LANES + 5).prop_flat_map(|a| {
            let n = a.len();
            (
                Just(a),
                proptest::collection::vec((0u32..7).prop_map(ValueId::from_raw), n..=n),
                proptest::collection::vec(0u8..2, n..=n),
            )
        })
    ) {
        let (a, b, mask0) = pairs;
        let mut chunked = mask0.clone();
        let mut scalar = mask0;
        and_equal_mask(&a, &b, &mut chunked);
        and_equal_mask_scalar(&a, &b, &mut scalar);
        prop_assert_eq!(chunked, scalar);
    }

    /// Chunked selection-by-mask ≡ scalar reference at every base offset,
    /// and appends to (never clobbers) the output.
    #[test]
    fn select_indices_matches_scalar(
        mask in proptest::collection::vec(0u8..2, 0..4 * LANES + 7),
        base in 0u32..1000,
    ) {
        let mut chunked = vec![u32::MAX];
        let mut scalar = vec![u32::MAX];
        select_indices(&mask, base, &mut chunked);
        select_indices_scalar(&mask, base, &mut scalar);
        prop_assert_eq!(&chunked, &scalar);
        prop_assert_eq!(chunked[0], u32::MAX, "existing output must be kept");
        let expected: Vec<u32> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m != 0)
            .map(|(i, _)| base + i as u32)
            .collect();
        prop_assert_eq!(&chunked[1..], expected.as_slice());
    }

    /// Chunked gathering ≡ scalar reference on random in-bounds row lists
    /// (repeats and arbitrary order included).
    #[test]
    fn gather_ids_matches_scalar(
        col in proptest::collection::vec((0u32..7).prop_map(ValueId::from_raw), 1..3 * LANES + 3),
        picks in proptest::collection::vec(0usize..64, 0..3 * LANES + 2),
    ) {
        let rows: Vec<u32> = picks.iter().map(|&p| (p % col.len()) as u32).collect();
        let mut chunked = Vec::new();
        let mut scalar = Vec::new();
        gather_ids(&col, &rows, &mut chunked);
        gather_ids_scalar(&col, &rows, &mut scalar);
        prop_assert_eq!(chunked, scalar);
    }

    /// Chunked key packing ≡ scalar reference for one to four columns.
    #[test]
    fn pack_keys_matches_scalar(cols in (1usize..5, 0usize..3 * LANES + 5).prop_flat_map(|(k, n)| {
        proptest::collection::vec(
            proptest::collection::vec((0u32..9).prop_map(ValueId::from_raw), n..=n),
            k..=k,
        )
    })) {
        let views: Vec<&[ValueId]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut chunked = Vec::new();
        let mut scalar = Vec::new();
        pack_keys(&views, &mut chunked);
        pack_keys_scalar(&views, &mut scalar);
        prop_assert_eq!(&chunked, &scalar);
        // Shape: row-major, one key of width k per row.
        let k = views.len();
        let n = views[0].len();
        prop_assert_eq!(chunked.len(), n * k);
        for (row, key) in chunked.chunks_exact(k).enumerate() {
            for (j, &id) in key.iter().enumerate() {
                prop_assert_eq!(id, views[j][row]);
            }
        }
    }

    /// Galloping seek ≡ scalar linear scan at every start, over the whole
    /// raw domain (the signed/unsigned boundary cases included).
    #[test]
    fn gallop_seek_matches_scalar(
        run in arb_run(4 * LANES + 5),
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
        runs in proptest::collection::vec(arb_run(3 * LANES + 3), 1..=4),
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

/// Every public kernel against its scalar oracle at adversarial lengths:
/// empty, one, around one and two lanes, around the 32-id block, an odd
/// length past it, around 64 and at 100 — every chunk/tail split — with
/// ids straddling `0x7FFF_FFFF` / `0x8000_0000`, where a signed compare
/// would misorder them.
#[test]
fn kernels_match_scalar_on_adversarial_lengths() {
    let lengths = [0, 1, 7, 8, 9, 15, 16, 31, 32, 33, 37, 63, 64, 65, 100];
    let near_sign = |k: usize| ValueId::from_raw(0x7FFF_FFF0u32.wrapping_add(k as u32));
    for n in lengths {
        let a: Vec<ValueId> = (0..n).map(|i| ValueId::from_raw(i as u32 % 5)).collect();
        let b: Vec<ValueId> = (0..n)
            .map(|i| ValueId::from_raw((i as u32 + 1) % 5))
            .collect();
        let mask0: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect(); // incl. mask byte 2
        for other in [&a, &b] {
            let (mut fast, mut slow) = (mask0.clone(), mask0.clone());
            and_equal_mask(&a, other, &mut fast);
            and_equal_mask_scalar(&a, other, &mut slow);
            assert_eq!(fast, slow, "and_equal_mask len {n}");
        }

        let sel_mask: Vec<u8> = (0..n).map(|i| u8::from(i % 4 == 1)).collect();
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        select_indices(&sel_mask, 7, &mut fast);
        select_indices_scalar(&sel_mask, 7, &mut slow);
        assert_eq!(fast, slow, "select_indices len {n}");

        let col: Vec<ValueId> = (0..n + 1).map(near_sign).collect();
        let rows: Vec<u32> = (0..n).map(|i| ((i * 11) % (n + 1)) as u32).collect();
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        gather_ids(&col, &rows, &mut fast);
        gather_ids_scalar(&col, &rows, &mut slow);
        assert_eq!(fast, slow, "gather_ids len {n}");

        let cols: [&[ValueId]; 3] = [&a, &b, &col[..n]];
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        pack_keys(&cols, &mut fast);
        pack_keys_scalar(&cols, &mut slow);
        assert_eq!(fast, slow, "pack_keys len {n}");

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
/// Deterministic spot-check: a composed filter-select-gather pipeline (the
/// trie build's shape) agrees between the chunked and scalar kernels on a
/// length that exercises every tail path.
#[test]
fn composed_pipeline_agrees() {
    let n = 2 * LANES + 3;
    let a: Vec<ValueId> = (0..n).map(|i| ValueId::from_raw((i % 4) as u32)).collect();
    let b: Vec<ValueId> = (0..n).map(|i| ValueId::from_raw((i % 3) as u32)).collect();
    let mut mask_c = vec![1u8; n];
    let mut mask_s = vec![1u8; n];
    and_equal_mask(&a, &b, &mut mask_c);
    and_equal_mask_scalar(&a, &b, &mut mask_s);
    assert_eq!(mask_c, mask_s);
    let (mut rows_c, mut rows_s) = (Vec::new(), Vec::new());
    select_indices(&mask_c, 0, &mut rows_c);
    select_indices_scalar(&mask_s, 0, &mut rows_s);
    assert_eq!(rows_c, rows_s);
    let (mut out_c, mut out_s) = (Vec::new(), Vec::new());
    gather_ids(&a, &rows_c, &mut out_c);
    gather_ids_scalar(&a, &rows_s, &mut out_s);
    assert_eq!(out_c, out_s);
    // The survivors are exactly the positions where a == b, i.e. where
    // i mod 4 == i mod 3 (i mod 12 ∈ {0, 1, 2}).
    assert_eq!(rows_c, vec![0, 1, 2, 12, 13, 14]);
}
