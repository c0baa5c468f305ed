//! Chunked scan kernels over interned id slices.
//!
//! The hot linear passes of the join engine — the equal-pair filters of the
//! trie build, the key packing and survivor selection of the Yannakakis
//! semijoins, the galloping seeks of leapfrog intersection — all reduce to a
//! handful of primitives over `&[ValueId]`.  This module implements each
//! primitive twice:
//!
//! * the public entry point, a **portable** kernel that processes [`LANES`]
//!   ids per step over `chunks_exact` slices (fixed-width loops with no
//!   bounds checks, written so LLVM's autovectorizer turns them into
//!   `u32x8`-style vector code on any target that has it), followed by a
//!   scalar tail for the remainder;
//! * a `*_scalar` **reference** implementation — the obviously-correct
//!   element-at-a-time loop, kept as the oracle for the property tests in
//!   `tests/kernel_properties.rs` (entry point ≡ scalar on every input,
//!   including lengths that are not a multiple of [`LANES`]).
//!
//! The paper's bounds count the work the algorithm does, not the
//! instructions it is done with, so there is one implementation per kernel
//! and no per-host code path.  [`leapfrog_next`] spends its time inside
//! [`gallop_seek`], which it calls directly.
//!
//! The kernels deliberately work on raw slices (not [`Relation`]s) so every
//! layer — whole columns, scratch buffers — can use them.  Masks are `u8`
//! (1 = selected), the representation the autovectorizer handles best for
//! mixed compare-and-accumulate loops.
//!
//! [`Relation`]: crate::Relation

use crate::ValueId;

/// Ids processed per chunked step (a `u32x8` register's worth).
pub const LANES: usize = 8;

/// Intersects `mask` with the element-wise equality of `a` and `b`:
/// `mask[i] &= (a[i] == b[i])`.
///
/// This is the trie build's repeated-variable filter: one call per equal
/// column pair, all pairs accumulating into one mask.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn and_equal_mask(a: &[ValueId], b: &[ValueId], mask: &mut [u8]) {
    assert_eq!(a.len(), b.len(), "column length mismatch");
    assert_eq!(a.len(), mask.len(), "mask length mismatch");
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    let mut mc = mask.chunks_exact_mut(LANES);
    for ((ca, cb), cm) in (&mut ac).zip(&mut bc).zip(&mut mc) {
        for i in 0..LANES {
            cm[i] &= u8::from(ca[i] == cb[i]);
        }
    }
    for ((x, y), m) in ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .zip(mc.into_remainder())
    {
        *m &= u8::from(x == y);
    }
}

/// Scalar reference implementation of [`and_equal_mask`].
pub fn and_equal_mask_scalar(a: &[ValueId], b: &[ValueId], mask: &mut [u8]) {
    assert_eq!(a.len(), b.len(), "column length mismatch");
    assert_eq!(a.len(), mask.len(), "mask length mismatch");
    for i in 0..mask.len() {
        mask[i] &= u8::from(a[i] == b[i]);
    }
}

/// Appends `base + i` to `out` for every selected position (`mask[i] != 0`),
/// in increasing order of `i`.
///
/// Each group of [`LANES`] mask bytes is read as one `u64`, so
/// fully-unselected groups — the common case after a selective semijoin —
/// are skipped with a single compare instead of eight.
pub fn select_indices(mask: &[u8], base: u32, out: &mut Vec<u32>) {
    let mut chunks = mask.chunks_exact(LANES);
    let mut start = 0usize;
    for chunk in &mut chunks {
        // ij-analysis: allow(panic) — infallible: `chunks_exact(LANES)` yields 8-byte chunks
        let word = u64::from_ne_bytes(chunk.try_into().expect("LANES == 8"));
        if word != 0 {
            for (j, &m) in chunk.iter().enumerate() {
                if m != 0 {
                    out.push(base + (start + j) as u32);
                }
            }
        }
        start += LANES;
    }
    for (j, &m) in chunks.remainder().iter().enumerate() {
        if m != 0 {
            out.push(base + (start + j) as u32);
        }
    }
}

/// Scalar reference implementation of [`select_indices`].
pub fn select_indices_scalar(mask: &[u8], base: u32, out: &mut Vec<u32>) {
    for (i, &m) in mask.iter().enumerate() {
        if m != 0 {
            out.push(base + i as u32);
        }
    }
}

/// Appends `col[rows[i]]` to `out` for every row index, in order — the
/// column-wise gather used to materialise semijoin survivors.
///
/// The index loop is unrolled [`LANES`] at a time; the loads themselves are
/// data-dependent gathers, so the win is bounds-check elision and load-slot
/// pipelining rather than full vectorisation.
///
/// # Panics
///
/// Panics (via indexing) if a row index is out of bounds for `col`.
pub fn gather_ids(col: &[ValueId], rows: &[u32], out: &mut Vec<ValueId>) {
    out.reserve(rows.len());
    let mut chunks = rows.chunks_exact(LANES);
    for chunk in &mut chunks {
        let gathered: [ValueId; LANES] = std::array::from_fn(|i| col[chunk[i] as usize]);
        out.extend_from_slice(&gathered);
    }
    for &r in chunks.remainder() {
        out.push(col[r as usize]);
    }
}

/// Scalar reference implementation of [`gather_ids`].
pub fn gather_ids_scalar(col: &[ValueId], rows: &[u32], out: &mut Vec<ValueId>) {
    for &r in rows {
        out.push(col[r as usize]);
    }
}

/// Packs the given columns row-major into `out` (clearing it first):
/// `out[row * k + j] = cols[j][row]` for `k = cols.len()` — the key-gathering
/// step of a multi-column semijoin, producing contiguous fixed-width keys
/// that can be hashed as `&[ValueId]` windows without any per-row allocation.
///
/// Written as one sequential read pass per column with a constant output
/// stride, which the autovectorizer turns into interleaved stores for small
/// `k` (and a plain copy for `k == 1`).
///
/// # Panics
///
/// Panics if the columns differ in length.
pub fn pack_keys(cols: &[&[ValueId]], out: &mut Vec<ValueId>) {
    let k = cols.len();
    let n = cols.first().map(|c| c.len()).unwrap_or(0);
    assert!(
        cols.iter().all(|c| c.len() == n),
        "column length mismatch in pack_keys"
    );
    out.clear();
    out.resize(n * k, ValueId::dummy());
    if n == 0 {
        return;
    }
    for (j, col) in cols.iter().enumerate() {
        for (slot, &id) in out[j..].iter_mut().step_by(k).zip(col.iter()) {
            *slot = id;
        }
    }
}

/// Scalar reference implementation of [`pack_keys`] (row-at-a-time).
pub fn pack_keys_scalar(cols: &[&[ValueId]], out: &mut Vec<ValueId>) {
    let k = cols.len();
    let n = cols.first().map(|c| c.len()).unwrap_or(0);
    assert!(
        cols.iter().all(|c| c.len() == n),
        "column length mismatch in pack_keys"
    );
    out.clear();
    out.reserve(n * k);
    for row in 0..n {
        for col in cols {
            out.push(col[row]);
        }
    }
}

/// Positions probed with a plain linear scan before [`gallop_seek`] switches
/// to exponential doubling.  Leapfrog seeks overwhelmingly land within a few
/// slots of the cursor (the runs being intersected advance in near-lockstep),
/// so the linear probe wins there; the gallop bounds the bad case — a seek
/// that skips far ahead costs `O(log distance)` instead of `O(n)`.
///
/// Why `8`: it is one [`LANES`]-wide register, so the probe is one
/// autovectorizable fixed-width loop.  Probing further linearly only pays
/// when seeks routinely land 9..k slots ahead, which the near-lockstep
/// leapfrog distribution makes rare.  The answer does not depend on the
/// span; only the compares spent reaching it do.
pub const GALLOP_LINEAR_SPAN: usize = 8;

/// The index of the first element of `run[start..]` that is `>= target`,
/// as an absolute index into `run` (`run.len()` when every element is
/// smaller).  `run` must be sorted ascending; elements before `start` are
/// never examined.
///
/// Probes [`GALLOP_LINEAR_SPAN`] slots linearly from `start`, then gallops:
/// the step doubles until it overshoots and a binary search finishes inside
/// the last window — `O(log distance)` with the constant factor of a linear
/// scan on the short seeks that dominate leapfrog intersection.
pub fn gallop_seek(run: &[ValueId], start: usize, target: ValueId) -> usize {
    let n = run.len();
    let linear_end = start.saturating_add(GALLOP_LINEAR_SPAN).min(n);
    for (i, &v) in run[start..linear_end].iter().enumerate() {
        if v >= target {
            return start + i;
        }
    }
    if linear_end == n {
        return n;
    }
    // Invariant: every element before `lo` is < target; `hi` is the next
    // probe.  Doubling the step keeps the total work logarithmic in the
    // distance actually travelled.
    let mut lo = linear_end;
    let mut hi = linear_end;
    let mut step = 1usize;
    while hi < n && run[hi] < target {
        lo = hi + 1;
        hi += step;
        step <<= 1;
    }
    let hi = hi.min(n);
    lo + run[lo..hi].partition_point(|&x| x < target)
}

/// Scalar reference implementation of [`gallop_seek`] (linear scan).
pub fn gallop_seek_scalar(run: &[ValueId], start: usize, target: ValueId) -> usize {
    let mut i = start;
    while i < run.len() && run[i] < target {
        i += 1;
    }
    i
}

/// Advances `cursors` to the smallest value at or after every current cursor
/// that occurs in **all** runs, and returns it — the candidate-generation
/// step of leapfrog multi-way intersection.  Returns `None` (leaving the
/// cursors wherever the failed alignment left them) once any run is
/// exhausted.  Runs must be sorted ascending with distinct elements.
///
/// To enumerate the whole intersection, call repeatedly, advancing **every**
/// cursor by one after consuming a match (all cursors point at the matched
/// value when the call returns `Some`).  Each seek is a [`gallop_seek`], so
/// skewed runs (one long, one short) cost `O(short · log long)` instead of a
/// full merge.
///
/// # Panics
///
/// Panics if `runs` is empty or `cursors.len() != runs.len()`.
pub fn leapfrog_next(runs: &[&[ValueId]], cursors: &mut [usize]) -> Option<ValueId> {
    assert!(!runs.is_empty(), "leapfrog requires at least one run");
    assert_eq!(runs.len(), cursors.len(), "one cursor per run");
    // The largest value currently under a cursor is the first possible match.
    let mut max: Option<ValueId> = None;
    for (run, &c) in runs.iter().zip(cursors.iter()) {
        let v = *run.get(c)?;
        max = Some(match max {
            Some(m) if m >= v => m,
            _ => v,
        });
    }
    // ij-analysis: allow(panic) — infallible: guarded by the `!runs.is_empty()` assert above
    let mut max = max.expect("runs is non-empty");
    // Rounds of seek-everyone-to-max; a seek that overshoots raises the bar
    // and forces another round.  Terminates: `max` only grows, bounded by
    // the runs' maxima.
    loop {
        let mut aligned = true;
        for (run, c) in runs.iter().zip(cursors.iter_mut()) {
            if run[*c] < max {
                *c = gallop_seek(run, *c, max);
                if *c == run.len() {
                    return None;
                }
                if run[*c] > max {
                    max = run[*c];
                    aligned = false;
                }
            }
        }
        if aligned {
            return Some(max);
        }
    }
}

/// Scalar reference implementation of [`leapfrog_next`]: advances the first
/// run one element at a time and checks membership in the others linearly.
///
/// # Panics
///
/// Panics if `runs` is empty or `cursors.len() != runs.len()`.
pub fn leapfrog_next_scalar(runs: &[&[ValueId]], cursors: &mut [usize]) -> Option<ValueId> {
    assert!(!runs.is_empty(), "leapfrog requires at least one run");
    assert_eq!(runs.len(), cursors.len(), "one cursor per run");
    'candidate: loop {
        let v = *runs[0].get(cursors[0])?;
        for i in 1..runs.len() {
            while cursors[i] < runs[i].len() && runs[i][cursors[i]] < v {
                cursors[i] += 1;
            }
            if cursors[i] >= runs[i].len() {
                return None;
            }
            if runs[i][cursors[i]] > v {
                cursors[0] += 1;
                continue 'candidate;
            }
        }
        return Some(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<ValueId> {
        raw.iter().map(|&r| ValueId::from_raw(r)).collect()
    }

    #[test]
    fn and_equal_mask_matches_scalar_on_odd_lengths() {
        // 11 elements: one full chunk + a 3-element tail.
        let a = ids(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        let b = ids(&[1, 0, 3, 0, 5, 0, 7, 0, 9, 0, 11]);
        let mut chunked = vec![1u8; a.len()];
        let mut scalar = chunked.clone();
        and_equal_mask(&a, &b, &mut chunked);
        and_equal_mask_scalar(&a, &b, &mut scalar);
        assert_eq!(chunked, scalar);
        assert_eq!(chunked, vec![1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]);
        // Accumulation: a second pair zeroes further positions, never revives.
        let c = ids(&[0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0]);
        and_equal_mask(&a, &c, &mut chunked);
        assert_eq!(chunked[0], 0);
        assert_eq!(chunked[10], 0);
        assert_eq!(chunked[2], 1);
    }

    #[test]
    fn select_indices_skips_dead_words_and_offsets_by_base() {
        let mut mask = vec![0u8; 19];
        mask[3] = 1;
        mask[8] = 1; // second word
        mask[17] = 1; // tail
        let mut chunked = Vec::new();
        let mut scalar = Vec::new();
        select_indices(&mask, 100, &mut chunked);
        select_indices_scalar(&mask, 100, &mut scalar);
        assert_eq!(chunked, scalar);
        assert_eq!(chunked, vec![103, 108, 117]);
    }

    #[test]
    fn gather_and_pack_match_scalar() {
        let col = ids(&[10, 11, 12, 13, 14, 15, 16, 17, 18]);
        let rows: Vec<u32> = vec![8, 0, 3, 3, 7, 1, 2, 6, 5, 4];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        gather_ids(&col, &rows, &mut a);
        gather_ids_scalar(&col, &rows, &mut b);
        assert_eq!(a, b);
        assert_eq!(a[0], ValueId::from_raw(18));

        let c0 = ids(&[1, 2, 3]);
        let c1 = ids(&[4, 5, 6]);
        let (mut p, mut q) = (Vec::new(), Vec::new());
        pack_keys(&[&c0, &c1], &mut p);
        pack_keys_scalar(&[&c0, &c1], &mut q);
        assert_eq!(p, q);
        assert_eq!(p, ids(&[1, 4, 2, 5, 3, 6]));
        // k == 0 and empty columns degenerate cleanly.
        pack_keys(&[], &mut p);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic]
    fn gather_ids_panics_on_out_of_bounds_rows() {
        let col = ids(&[1, 2, 3]);
        let rows: Vec<u32> = vec![0, 1, 2, 0, 1, 2, 0, 99]; // full chunk, one OOB
        gather_ids(&col, &rows, &mut Vec::new());
    }

    #[test]
    fn gallop_seek_matches_scalar_at_every_start_and_target() {
        // Distinct sorted run with gaps; length is not a multiple of the
        // linear span, and targets probe below, inside and past the run.
        let run = ids(&[2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]);
        for start in 0..=run.len() {
            for raw in 0..256u32 {
                let target = ValueId::from_raw(raw);
                let fast = gallop_seek(&run, start, target);
                let slow = gallop_seek_scalar(&run, start, target);
                assert_eq!(fast, slow, "start {start}, target {raw}");
                assert!(fast >= start && fast <= run.len());
                if fast < run.len() {
                    assert!(run[fast] >= target);
                }
                if fast > start {
                    assert!(run[fast - 1] < target);
                }
            }
        }
        // Degenerate runs.
        assert_eq!(gallop_seek(&[], 0, ValueId::from_raw(7)), 0);
        let one = ids(&[9]);
        assert_eq!(gallop_seek(&one, 0, ValueId::from_raw(9)), 0);
        assert_eq!(gallop_seek(&one, 0, ValueId::from_raw(10)), 1);
        assert_eq!(gallop_seek(&one, 1, ValueId::from_raw(0)), 1);
    }

    #[test]
    fn leapfrog_enumerates_the_multiway_intersection() {
        let a = ids(&[1, 2, 4, 8, 16, 32, 64]);
        let b = ids(&[2, 4, 6, 8, 10, 32, 33, 64]);
        let c = ids(&[0, 2, 3, 4, 32, 64, 100]);
        let runs: Vec<&[ValueId]> = vec![&a, &b, &c];
        let collect = |next: fn(&[&[ValueId]], &mut [usize]) -> Option<ValueId>| {
            let mut cursors = vec![0usize; runs.len()];
            let mut out = Vec::new();
            while let Some(v) = next(&runs, &mut cursors) {
                // All cursors point at the matched value.
                for (run, &cu) in runs.iter().zip(&cursors) {
                    assert_eq!(run[cu], v);
                }
                out.push(v);
                for cu in cursors.iter_mut() {
                    *cu += 1;
                }
            }
            out
        };
        let fast = collect(leapfrog_next);
        let slow = collect(leapfrog_next_scalar);
        assert_eq!(fast, slow);
        assert_eq!(fast, ids(&[2, 4, 32, 64]));
        // A single run leapfrogs over itself.
        let single: Vec<&[ValueId]> = vec![&a];
        let mut cursors = vec![0usize];
        let mut out = Vec::new();
        while let Some(v) = leapfrog_next(&single, &mut cursors) {
            out.push(v);
            cursors[0] += 1;
        }
        assert_eq!(out, a);
        // Disjoint runs intersect to nothing.
        let d = ids(&[5, 7, 9]);
        let disjoint: Vec<&[ValueId]> = vec![&a, &d];
        assert_eq!(leapfrog_next(&disjoint, &mut [0, 0]), None);
        assert_eq!(leapfrog_next_scalar(&disjoint, &mut [0, 0]), None);
    }
}
