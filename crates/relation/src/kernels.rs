//! Scan kernels over interned id slices.
//!
//! The hot linear passes of the join engine — the key probe of the
//! Yannakakis semijoins, the gathers of their alive rows, the galloping
//! seeks of leapfrog intersection — all reduce to a handful of primitives
//! over `&[ValueId]`.  A set of rows is one thing here: an ascending
//! `Vec<u32>` of row indices.
//!
//! The paper's bounds count the work the algorithm does, not the
//! instructions it is done with, so there is one implementation per kernel
//! and no per-host code path.  A kernel keeps a `*_scalar` oracle only where
//! the oracle is a different algorithm, checked against it by the property
//! tests in `tests/kernel_properties.rs`: [`semijoin_rows_scalar`] hashes
//! whole packed rows where [`semijoin_rows`] filters on a bitmap and probes
//! fixed-width keys, [`gallop_seek_scalar`] scans linearly where
//! [`gallop_seek`] gallops, and [`leapfrog_next_scalar`] merges one element
//! at a time where [`leapfrog_next`] seeks.  [`gather_ids`] and
//! [`pack_keys`] are their own definitions, stated as properties.
//! [`semijoin_any`] is [`semijoin_rows`]' probe stopping at its first hit:
//! both run one width dispatch and one filter, which report matching rows to
//! a sink that may stop early.  [`strictly_ascending`] has no twin: its
//! oracle, comparing whole rows one pair at a time, lives in the property
//! tests.
//!
//! The kernels deliberately work on raw slices (not [`Relation`]s) so every
//! layer — whole columns, scratch buffers — can use them.
//!
//! [`Relation`]: crate::Relation

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::{IdHashSet, ValueId};
use std::collections::HashSet;
use std::hash::Hash;
use std::ops::ControlFlow;

/// True if the rows of `cols` strictly ascend, compared column by column —
/// [`Relation::dedup`]'s order, and a flat trie's over its level columns —
/// so they are already a sorted set.  One pass comparing each row with the
/// previous one: up to two columns as one packed `u64` per row, the key
/// [`Relation::dedup`] sorts by; up to four as one `u128`, any further ones
/// compared only on a tie.  No columns is `false` (zero-arity rows are all
/// equal); no rows, or one, is `true`.
///
/// [`Relation::dedup`]: crate::Relation::dedup
///
/// # Panics
///
/// Panics if the columns differ in length.
pub fn strictly_ascending(cols: &[&[ValueId]]) -> bool {
    let Some(rows) = cols.first().map(|col| col.len()) else {
        return false;
    };
    assert!(
        cols.iter().all(|col| col.len() == rows),
        "strictly_ascending: columns differ in length"
    );
    match *cols {
        [col] => keys_ascend(col.iter().map(|id| u64::from(id.raw()))),
        [first, second] => {
            let pack = |(a, b): (&ValueId, &ValueId)| u64::from(a.raw()) << 32 | u64::from(b.raw());
            keys_ascend(first.iter().zip(second).map(pack))
        }
        _ => wide_rows_ascend(cols, rows),
    }
}

/// True if `keys` strictly ascend.
fn keys_ascend(mut keys: impl Iterator<Item = u64>) -> bool {
    let mut prev = None;
    keys.all(|next| prev.replace(next).is_none_or(|prev| prev < next))
}

/// [`strictly_ascending`] of three or more columns of `rows` rows: the
/// first four packed into one `u128`, the rest compared on a tie.
fn wide_rows_ascend(cols: &[&[ValueId]], rows: usize) -> bool {
    let (head, tail) = cols.split_at(cols.len().min(4));
    let key = |row: usize| {
        head.iter()
            .fold(0u128, |key, col| key << 32 | u128::from(col[row].raw()))
    };
    let tail_cmp = |a: usize, b: usize| {
        tail.iter()
            .map(|col| col[a].cmp(&col[b]))
            .find(|order| order.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    let Some(mut prev) = (rows > 0).then(|| key(0)) else {
        return true;
    };
    (1..rows).all(|row| {
        let next = key(row);
        let ascends = prev < next || (prev == next && tail_cmp(row - 1, row).is_lt());
        prev = next;
        ascends
    })
}

/// Appends `col[rows[i]]` to `out` for every row index, in order — the
/// column-wise gather used to materialise semijoin survivors.
///
/// # Panics
///
/// Panics (via indexing) if a row index is out of bounds for `col`.
pub fn gather_ids(col: &[ValueId], rows: &[u32], out: &mut Vec<ValueId>) {
    out.extend(rows.iter().map(|&r| col[r as usize]));
}

/// Packs the given columns row-major into `out` (clearing it first):
/// `out[row * k + j] = cols[j][row]` for `k = cols.len()` — the key-gathering
/// step of a semijoin on more than four columns, producing contiguous
/// fixed-width keys that can be hashed as `&[ValueId]` windows without any
/// per-row allocation.
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

/// The rows of `left_cols`, ascending, whose key tuple (one id per column)
/// also appears as a row of `right_cols` — the probe of a Yannakakis
/// semijoin `left ⋉ right`.
///
/// Keys of one to four columns are fixed-width integers read straight from
/// the columns (`u32`; a `u64` packing two ids; a `u64` and a `u32`; two
/// `u64`s), so no key buffer is written; wider keys are packed row-major
/// ([`pack_keys`]) and hashed as `&[ValueId]` windows.  The right keys form
/// a set that the left rows probe.
///
/// For keys of two to four columns a bitmap over the right side's first
/// column stands in front of the probe: a left row whose first id misses it
/// cannot match, so it is dropped without its whole key being built or
/// hashed.  The bitmap holds 16 bits per right row, rounded up to a power of
/// two and kept within 512 bits and 2²² bits (512 KiB), and an id's slot is
/// the top bits of its Fibonacci product, so at most about one absent first
/// id in sixteen still reaches the probe.  A refuting semijoin, where most
/// left first ids are absent, then reads one key column instead of all of
/// them.  The filter decides for itself whether it runs: when more than half
/// of about 512 left first ids, spread over the whole side, pass the bitmap,
/// it could save at most half the probes, and every left row is probed
/// directly — a semijoin whose rows mostly match pays for the bitmap and the
/// sample only.  Nothing here is tuned per call or per host: the bitmap is
/// sized by the right side, the decision is read off the operands, and
/// neither changes an answer.  One-column keys probe the set directly (their
/// key *is* the first id), and keys wider than four columns keep the packed
/// probe.
///
/// # Panics
///
/// Panics if the sides differ in key width, if there is no key column, if
/// the columns of one side differ in length, or if the left side has more
/// than `u32::MAX` rows.
pub fn semijoin_rows(left_cols: &[&[ValueId]], right_cols: &[&[ValueId]]) -> Vec<u32> {
    let (left_len, _) = semijoin_lengths(left_cols, right_cols);
    assert!(
        left_len <= u32::MAX as usize,
        "semijoin_rows supports at most u32::MAX left rows"
    );
    let mut rows = Vec::new();
    let _ = for_each_semijoin_row(left_cols, right_cols, |i| {
        rows.push(i as u32);
        ControlFlow::Continue(())
    });
    rows
}

/// Whether some row of `left_cols` has its key tuple among the rows of
/// `right_cols` — [`semijoin_rows`] asked only whether it lists a row, as
/// the last semijoin into a Yannakakis root is.
///
/// The right keys are hashed (and, for two to four columns, bitmapped)
/// exactly as for [`semijoin_rows`], by the same code; the left rows are
/// then probed in order and the probe stops at the first one that matches.
/// So a hit costs the right side plus the left rows up to it, and a miss
/// reads every left row, as the row list would.
///
/// # Panics
///
/// Panics if the sides differ in key width, if there is no key column, or if
/// the columns of one side differ in length.
pub fn semijoin_any(left_cols: &[&[ValueId]], right_cols: &[&[ValueId]]) -> bool {
    for_each_semijoin_row(left_cols, right_cols, |_| ControlFlow::Break(())).is_break()
}

/// Reference implementation of [`semijoin_rows`]: every row of both sides
/// packed into a slice window, the right windows hashed as a set, the left
/// ones probed against it.
pub fn semijoin_rows_scalar(left_cols: &[&[ValueId]], right_cols: &[&[ValueId]]) -> Vec<u32> {
    let (left_len, right_len) = semijoin_lengths(left_cols, right_cols);
    let k = left_cols.len();
    let pack = |cols: &[&[ValueId]], n: usize| -> Vec<ValueId> {
        (0..n)
            .flat_map(|row| cols.iter().map(move |col| col[row]))
            .collect()
    };
    let (left_keys, right_keys) = (pack(left_cols, left_len), pack(right_cols, right_len));
    let keys: HashSet<&[ValueId]> = right_keys.chunks_exact(k).collect();
    left_keys
        .chunks_exact(k)
        .enumerate()
        .filter(|(_, key)| keys.contains(key))
        .map(|(row, _)| row as u32)
        .collect()
}

/// The row counts of a semijoin's two sides, after checking their shape.
fn semijoin_lengths(left_cols: &[&[ValueId]], right_cols: &[&[ValueId]]) -> (usize, usize) {
    assert_eq!(
        left_cols.len(),
        right_cols.len(),
        "semijoin sides must probe the same key width"
    );
    assert!(
        !left_cols.is_empty(),
        "a semijoin requires at least one key column; \
         callers handle the no-shared-variables case themselves"
    );
    let rows = |cols: &[&[ValueId]]| {
        let n = cols[0].len();
        assert!(
            cols.iter().all(|c| c.len() == n),
            "column length mismatch in a semijoin"
        );
        n
    };
    (rows(left_cols), rows(right_cols))
}

/// The width dispatch of [`semijoin_rows`] and [`semijoin_any`]: reports
/// every left row whose key is among the right keys to `hit`, in ascending
/// row order, until `hit` breaks.
fn for_each_semijoin_row(
    left_cols: &[&[ValueId]],
    right_cols: &[&[ValueId]],
    hit: impl FnMut(usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let (left_len, right_len) = semijoin_lengths(left_cols, right_cols);
    // Two ids of one row as one `u64`.
    let pair = |a: &[ValueId], b: &[ValueId], i: usize| {
        (u64::from(a[i].raw()) << 32) | u64::from(b[i].raw())
    };
    match (left_cols, right_cols) {
        (&[l0], &[r0]) => rows_by_key(left_len, right_len, |i| l0[i].raw(), |i| r0[i].raw(), hit),
        (&[l0, l1], &[r0, r1]) => {
            rows_by_first_column_then_key(l0, r0, |i| pair(l0, l1, i), |i| pair(r0, r1, i), hit)
        }
        (&[l0, l1, l2], &[r0, r1, r2]) => rows_by_first_column_then_key(
            l0,
            r0,
            |i| (pair(l0, l1, i), l2[i].raw()),
            |i| (pair(r0, r1, i), r2[i].raw()),
            hit,
        ),
        (&[l0, l1, l2, l3], &[r0, r1, r2, r3]) => rows_by_first_column_then_key(
            l0,
            r0,
            |i| (pair(l0, l1, i), pair(l2, l3, i)),
            |i| (pair(r0, r1, i), pair(r2, r3, i)),
            hit,
        ),
        _ => {
            let k = left_cols.len();
            let (mut left_keys, mut right_keys) = (Vec::new(), Vec::new());
            pack_keys(left_cols, &mut left_keys);
            pack_keys(right_cols, &mut right_keys);
            rows_by_key(
                left_len,
                right_len,
                |i| &left_keys[i * k..(i + 1) * k],
                |i| &right_keys[i * k..(i + 1) * k],
                hit,
            )
        }
    }
}

/// [`for_each_semijoin_row`] over keys read by row index.
fn rows_by_key<K: Hash + Eq>(
    left_len: usize,
    right_len: usize,
    left_key: impl Fn(usize) -> K,
    right_key: impl Fn(usize) -> K,
    mut hit: impl FnMut(usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let keys: IdHashSet<K> = (0..right_len).map(right_key).collect();
    for i in 0..left_len {
        if keys.contains(&left_key(i)) {
            hit(i)?;
        }
    }
    ControlFlow::Continue(())
}

/// [`rows_by_key`] behind a [`FirstColumnFilter`] of the right side's first
/// key column (`left_first` and `right_first`): only a left row whose first
/// id passes the filter builds and probes its whole key.
///
/// The filter runs without a branch per row: each block of
/// [`FirstColumnFilter::BLOCK`] left rows writes the offset of every row
/// into a candidate buffer and advances the buffer's end by the row's bit,
/// then probes the candidates.  [`FirstColumnFilter::rejects_most`] decides
/// whether the filter runs at all.
fn rows_by_first_column_then_key<K: Hash + Eq>(
    left_first: &[ValueId],
    right_first: &[ValueId],
    left_key: impl Fn(usize) -> K,
    right_key: impl Fn(usize) -> K,
    mut hit: impl FnMut(usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let filter = FirstColumnFilter::new(right_first);
    if !filter.rejects_most(left_first) {
        return rows_by_key(
            left_first.len(),
            right_first.len(),
            left_key,
            right_key,
            hit,
        );
    }
    let keys: IdHashSet<K> = (0..right_first.len()).map(right_key).collect();
    let mut candidates = [0usize; FirstColumnFilter::BLOCK];
    for (b, rows) in left_first.chunks(FirstColumnFilter::BLOCK).enumerate() {
        let base = b * FirstColumnFilter::BLOCK;
        let mut n = 0;
        for (j, &id) in rows.iter().enumerate() {
            candidates[n] = base + j;
            n += usize::from(filter.may_contain(id));
        }
        for &i in &candidates[..n] {
            if keys.contains(&left_key(i)) {
                hit(i)?;
            }
        }
    }
    ControlFlow::Continue(())
}

/// A one-hash bitmap over a column of ids: an id that was inserted always
/// passes; an absent id passes only when it shares a slot with one that was.
struct FirstColumnFilter {
    words: Vec<u64>,
    /// `64 - log2(bits)`: a slot is the top bits of an id's Fibonacci
    /// product.
    shift: u32,
}

impl FirstColumnFilter {
    /// Bits per inserted id before rounding to a power of two.
    const BITS_PER_ID: usize = 16;
    const MIN_BITS: usize = 512;
    const MAX_BITS: usize = 1 << 22;
    /// 2⁶⁴ divided by the golden ratio, odd.
    const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;
    /// Left rows filtered per candidate buffer.
    const BLOCK: usize = 512;
    /// Left first ids read to decide whether the filter runs.
    const SAMPLE: usize = 512;

    fn new(ids: &[ValueId]) -> Self {
        let bits = ids
            .len()
            .saturating_mul(Self::BITS_PER_ID)
            .min(Self::MAX_BITS)
            .next_power_of_two()
            .max(Self::MIN_BITS);
        let mut filter = FirstColumnFilter {
            words: vec![0; bits / 64],
            shift: 64 - bits.trailing_zeros(),
        };
        for &id in ids {
            let slot = filter.slot(id);
            filter.words[slot / 64] |= 1 << (slot % 64);
        }
        filter
    }

    /// Whether at most half of about [`Self::SAMPLE`] ids, evenly spaced
    /// over `ids`, pass.  Spacing them out matters: a relation's rows are
    /// often sorted, so its first rows hold only a few first ids.
    fn rejects_most(&self, ids: &[ValueId]) -> bool {
        let step = (ids.len() / Self::SAMPLE).max(1);
        let (mut read, mut passed) = (0, 0);
        for &id in ids.iter().step_by(step) {
            read += 1;
            passed += usize::from(self.may_contain(id));
        }
        2 * passed <= read
    }

    #[inline]
    fn slot(&self, id: ValueId) -> usize {
        (u64::from(id.raw()).wrapping_mul(Self::FIBONACCI) >> self.shift) as usize
    }

    #[inline]
    fn may_contain(&self, id: ValueId) -> bool {
        let slot = self.slot(id);
        self.words[slot / 64] >> (slot % 64) & 1 != 0
    }
}

/// Positions probed with a plain linear scan before [`gallop_seek`] switches
/// to exponential doubling.  Leapfrog seeks overwhelmingly land within a few
/// slots of the cursor (the runs being intersected advance in near-lockstep),
/// so the linear probe wins there; the gallop bounds the bad case — a seek
/// that skips far ahead costs `O(log distance)` instead of `O(n)`.
///
/// Why `8`: eight `u32` ids are 32 bytes, half a cache line, so the probe
/// is one short fixed-width loop.  Probing further linearly only pays
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
    #[expect(
        clippy::expect_used,
        reason = "infallible: guarded by the `!runs.is_empty()` assert above"
    )]
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
    fn gather_and_pack_follow_their_definitions() {
        let col = ids(&[10, 11, 12, 13, 14, 15, 16, 17, 18]);
        let rows: Vec<u32> = vec![8, 0, 3, 3, 7, 1, 2, 6, 5, 4];
        let mut out = vec![ValueId::from_raw(99)];
        gather_ids(&col, &rows, &mut out);
        assert_eq!(out, ids(&[99, 18, 10, 13, 13, 17, 11, 12, 16, 15, 14]));

        let c0 = ids(&[1, 2, 3]);
        let c1 = ids(&[4, 5, 6]);
        let mut p = Vec::new();
        pack_keys(&[&c0, &c1], &mut p);
        assert_eq!(p, ids(&[1, 4, 2, 5, 3, 6]));
        // k == 0 and empty columns degenerate cleanly.
        pack_keys(&[], &mut p);
        assert!(p.is_empty());
    }

    #[test]
    fn semijoin_rows_probes_the_whole_key_past_a_first_column_collision() {
        // One right row: the bitmap has its minimum size and one bit set.
        let (a, x, y) = (
            ValueId::from_raw(1 << 31 | 1 << 12 | 5),
            ids(&[7])[0],
            ids(&[8])[0],
        );
        let filter = FirstColumnFilter::new(&[a]);
        assert_eq!(filter.words.len() * 64, FirstColumnFilter::MIN_BITS);
        let b = (0..u32::MAX)
            .map(ValueId::from_raw)
            .find(|&b| b != a && filter.slot(b) == filter.slot(a))
            .expect("512 slots: some id shares a's");
        assert!(filter.may_contain(b));
        // Rows (b, x), (a, x), (a, y), then `c_rows` rows (c, x) for an id c
        // whose slot is empty, at every key width from two to four.  Six of
        // them make the sample mostly misses, so the bitmap filters; with
        // none, the sample passes and every row is probed directly.
        let c = (0..u32::MAX)
            .map(ValueId::from_raw)
            .find(|&c| !filter.may_contain(c))
            .expect("511 slots are empty");
        for (c_rows, filtered) in [(6, true), (0, false)] {
            let first: Vec<ValueId> = [b, a, a].into_iter().chain(vec![c; c_rows]).collect();
            assert_eq!(filter.rejects_most(&first), filtered);
            for k in 2..=4 {
                let right: Vec<Vec<ValueId>> =
                    (0..k).map(|j| vec![if j == 0 { a } else { x }]).collect();
                let left: Vec<Vec<ValueId>> = (0..k)
                    .map(|j| match j {
                        0 => first.clone(),
                        _ => [x, x, y].into_iter().chain(vec![x; c_rows]).collect(),
                    })
                    .collect();
                let left: Vec<&[ValueId]> = left.iter().map(Vec::as_slice).collect();
                let right: Vec<&[ValueId]> = right.iter().map(Vec::as_slice).collect();
                let rows = semijoin_rows(&left, &right);
                assert_eq!(rows, [1], "k {k}, {c_rows} rows of c");
                assert_eq!(rows, semijoin_rows_scalar(&left, &right), "k {k}");
            }
        }
    }

    #[test]
    fn first_column_filter_is_sized_by_the_right_side() {
        let bits = |n: usize| {
            let col: Vec<ValueId> = (0..n as u32).map(ValueId::from_raw).collect();
            let filter = FirstColumnFilter::new(&col);
            assert!(col.iter().all(|&id| filter.may_contain(id)), "n {n}");
            filter.words.len() * 64
        };
        assert_eq!(bits(0), 512);
        assert_eq!(bits(32), 512);
        assert_eq!(bits(33), 1024);
        assert_eq!(bits(1_000), 16_384);
        assert_eq!(bits(1 << 18), 1 << 22);
        assert_eq!(bits(300_000), 1 << 22);
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
