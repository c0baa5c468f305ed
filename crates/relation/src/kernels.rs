//! Runtime-dispatched SIMD scan kernels over interned id slices.
//!
//! The hot linear passes of the join engine — the equal-pair filters of the
//! trie build, the key packing and survivor selection of the Yannakakis
//! semijoins, the galloping seeks of leapfrog intersection — all reduce to a
//! handful of primitives over `&[ValueId]`.  This module implements each
//! primitive up to three times:
//!
//! * an **AVX2** kernel (`core::arch::x86_64` intrinsics, std-only stable
//!   Rust) for `x86_64` hosts that have it;
//! * a **portable** kernel that processes [`LANES`] ids per step over
//!   `chunks_exact` slices (fixed-width loops with no bounds checks, written
//!   so LLVM's autovectorizer turns them into `u32x8`-style SIMD on any
//!   target that has it), followed by a scalar tail for the remainder;
//! * a `*_scalar` **reference** implementation — the obviously-correct
//!   element-at-a-time loop, kept as the oracle for the property tests in
//!   `tests/kernel_properties.rs` (every arm ≡ scalar on every input,
//!   including lengths that are not a multiple of [`LANES`]).
//!
//! # Dispatch
//!
//! The public entry points ([`and_equal_mask`], [`select_indices`],
//! [`gather_ids`], [`gallop_seek`], [`intersect_sorted_gallop`]) call through
//! a process-wide dispatch table resolved **once** (a `OnceLock` of plain
//! function pointers): AVX2 when `is_x86_feature_detected!("avx2")` reports
//! it, the portable arm otherwise.  Setting the [`FORCE_SCALAR_ENV`]
//! environment variable (to anything but `0`) before the first kernel call
//! pins the table to the portable arm, so the fallback path stays exercised
//! on hosts that would normally dispatch to AVX2 — CI runs the kernel and
//! trie property suites under both settings.  [`kernel_arm`] reports which
//! arm the process resolved to.
//!
//! [`pack_keys`] and [`leapfrog_next`] have no dedicated AVX2 arm:
//! `pack_keys` is a strided copy the autovectorizer already handles, and
//! `leapfrog_next` spends its time inside [`gallop_seek`], which it calls
//! through the dispatch table.
//!
//! The kernels deliberately work on raw slices (not [`Relation`]s) so every
//! layer — whole columns, scratch buffers — can use them.  Masks are `u8` (1 = selected), the representation the
//! autovectorizer handles best for mixed compare-and-accumulate loops.
//! `ValueId` is `#[repr(transparent)]` over `u32` and its `Ord` is the
//! unsigned order of the raw ids, which is what lets the AVX2 arm load id
//! runs as `u32x8` vectors and compare them with biased signed compares.
//!
//! [`Relation`]: crate::Relation

use crate::ValueId;
use std::sync::OnceLock;

/// Ids processed per chunked step (a `u32x8` register's worth).
pub const LANES: usize = 8;

/// Environment variable that pins the kernel dispatch table to the portable
/// (scalar-fallback) arm when set to anything but `0`.  Read once, at the
/// first kernel call of the process; changing it later has no effect.
pub const FORCE_SCALAR_ENV: &str = "IJ_FORCE_SCALAR_KERNELS";

/// The implementation arm the process-wide kernel dispatch resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelArm {
    /// The portable chunked kernels (autovectorizer-friendly fixed-width
    /// loops) — the fallback on non-AVX2 hosts and under
    /// [`FORCE_SCALAR_ENV`].
    Scalar,
    /// Explicit AVX2 intrinsics, selected at runtime via
    /// `is_x86_feature_detected!("avx2")`.
    Avx2,
}

impl KernelArm {
    /// A short lowercase label (`"scalar"` / `"avx2"`).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelArm::Scalar => "scalar",
            KernelArm::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for KernelArm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The resolved function pointers the public entry points call through.
struct DispatchTable {
    arm: KernelArm,
    and_equal_mask: fn(&[ValueId], &[ValueId], &mut [u8]),
    select_indices: fn(&[u8], u32, &mut Vec<u32>),
    gather_ids: fn(&[ValueId], &[u32], &mut Vec<ValueId>),
    gallop_seek: fn(&[ValueId], usize, ValueId) -> usize,
    intersect_sorted: fn(&[ValueId], &[ValueId], &mut Vec<ValueId>),
}

static DISPATCH: OnceLock<DispatchTable> = OnceLock::new();

const SCALAR_TABLE: DispatchTable = DispatchTable {
    arm: KernelArm::Scalar,
    and_equal_mask: and_equal_mask_portable,
    select_indices: select_indices_portable,
    gather_ids: gather_ids_portable,
    gallop_seek: gallop_seek_portable,
    intersect_sorted: intersect_sorted_portable,
};

fn table() -> &'static DispatchTable {
    DISPATCH.get_or_init(|| {
        let forced = std::env::var_os(FORCE_SCALAR_ENV).is_some_and(|v| v != "0");
        if forced {
            return SCALAR_TABLE;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return DispatchTable {
                arm: KernelArm::Avx2,
                and_equal_mask: avx2::and_equal_mask,
                select_indices: avx2::select_indices,
                gather_ids: avx2::gather_ids,
                gallop_seek: avx2::gallop_seek,
                intersect_sorted: avx2::intersect_sorted,
            };
        }
        SCALAR_TABLE
    })
}

/// The arm the process-wide dispatch table resolved to (resolving it now if
/// no kernel has run yet).  Recorded per evaluation in the engine's
/// `EvaluationStats` so operators can see which code path served a query.
pub fn kernel_arm() -> KernelArm {
    table().arm
}

/// Intersects `mask` with the element-wise equality of `a` and `b`:
/// `mask[i] &= (a[i] == b[i])`.
///
/// This is the trie build's repeated-variable filter: one call per equal
/// column pair, all pairs accumulating into one mask.  Dispatches to the
/// AVX2 arm when available (see the module docs).
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn and_equal_mask(a: &[ValueId], b: &[ValueId], mask: &mut [u8]) {
    assert_eq!(a.len(), b.len(), "column length mismatch");
    assert_eq!(a.len(), mask.len(), "mask length mismatch");
    (table().and_equal_mask)(a, b, mask)
}

/// Portable chunked implementation of [`and_equal_mask`] (the dispatch
/// fallback arm).
pub fn and_equal_mask_portable(a: &[ValueId], b: &[ValueId], mask: &mut [u8]) {
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
/// in increasing order of `i`.  Dispatches to the AVX2 arm when available.
pub fn select_indices(mask: &[u8], base: u32, out: &mut Vec<u32>) {
    (table().select_indices)(mask, base, out)
}

/// Portable chunked implementation of [`select_indices`] (the dispatch
/// fallback arm): each group of [`LANES`] mask bytes is read as one `u64`, so
/// fully-unselected groups — the common case after a selective semijoin —
/// are skipped with a single compare instead of eight.
pub fn select_indices_portable(mask: &[u8], base: u32, out: &mut Vec<u32>) {
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
/// column-wise gather used to materialise semijoin survivors.  Dispatches to
/// the AVX2 arm (hardware `vpgatherdd`) when available.
///
/// # Panics
///
/// Panics (via indexing) if a row index is out of bounds for `col`.
pub fn gather_ids(col: &[ValueId], rows: &[u32], out: &mut Vec<ValueId>) {
    (table().gather_ids)(col, rows, out)
}

/// Portable chunked implementation of [`gather_ids`] (the dispatch fallback
/// arm): the index loop is unrolled [`LANES`] at a time; the loads themselves
/// are data-dependent gathers, so the win is bounds-check elision and
/// load-slot pipelining rather than full vectorisation.
///
/// # Panics
///
/// Panics (via indexing) if a row index is out of bounds for `col`.
pub fn gather_ids_portable(col: &[ValueId], rows: &[u32], out: &mut Vec<ValueId>) {
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
/// `k` (and a plain copy for `k == 1`); no dedicated AVX2 arm.
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
/// Why `8`: it is one [`LANES`]-wide register, so the AVX2 arm answers the
/// whole probe with a single vector compare + movemask, and the portable arm
/// gets one autovectorizable fixed-width loop.  Probing further linearly
/// only pays when seeks routinely land 9..k slots ahead, which the
/// near-lockstep leapfrog distribution makes rare.  The threshold is
/// *tunable* per call site via [`gallop_seek_with_span`]; the
/// `kernels/gallop-span-sweep` microbench (crates/bench) sweeps spans
/// 0–32 over leapfrog-shaped workloads to re-validate the default.
pub const GALLOP_LINEAR_SPAN: usize = 8;

/// The index of the first element of `run[start..]` that is `>= target`,
/// as an absolute index into `run` (`run.len()` when every element is
/// smaller).  `run` must be sorted ascending; elements before `start` are
/// never examined.
///
/// Probes [`GALLOP_LINEAR_SPAN`] slots linearly from `start` (a single
/// vector compare on the AVX2 arm), then gallops: the step doubles until it
/// overshoots and a binary search finishes inside the last window —
/// `O(log distance)` with the constant factor of a linear scan on the short
/// seeks that dominate leapfrog intersection.
pub fn gallop_seek(run: &[ValueId], start: usize, target: ValueId) -> usize {
    (table().gallop_seek)(run, start, target)
}

/// Portable implementation of [`gallop_seek`] (the dispatch fallback arm):
/// [`gallop_seek_with_span`] at the default [`GALLOP_LINEAR_SPAN`].
pub fn gallop_seek_portable(run: &[ValueId], start: usize, target: ValueId) -> usize {
    gallop_seek_with_span(run, start, target, GALLOP_LINEAR_SPAN)
}

/// [`gallop_seek`] with an explicit linear-probe span: probes `span` slots
/// linearly from `start` before switching to exponential doubling (`span ==
/// 0` gallops immediately).  The result is identical for every span — the
/// knob trades the linear probe's cache-friendly short-seek latency against
/// wasted compares on long seeks.  Exposed so call sites with a known seek
/// distribution (and the span-sweep microbench) can tune the threshold;
/// the default used by the engine everywhere is [`GALLOP_LINEAR_SPAN`].
pub fn gallop_seek_with_span(run: &[ValueId], start: usize, target: ValueId, span: usize) -> usize {
    let n = run.len();
    let linear_end = start.saturating_add(span).min(n);
    for (i, &v) in run[start..linear_end].iter().enumerate() {
        if v >= target {
            return start + i;
        }
    }
    if linear_end == n {
        return n;
    }
    gallop_tail(run, linear_end, target)
}

/// The exponential-doubling + binary-search phase shared by every
/// [`gallop_seek`] arm: every element before `from` is known `< target`.
fn gallop_tail(run: &[ValueId], from: usize, target: ValueId) -> usize {
    let n = run.len();
    // Invariant: every element before `lo` is < target; `hi` is the next
    // probe.  Doubling the step keeps the total work logarithmic in the
    // distance actually travelled.
    let mut lo = from;
    let mut hi = from;
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

/// Replaces `out` with the intersection of two sorted runs by mutual
/// galloping: each side seeks to the other side's current value with
/// [`gallop_seek`], so skewed inputs (one long run, one short) cost
/// `O(short · log long)` instead of a full merge.  Inputs must be sorted
/// ascending with distinct elements (trie runs are deduplicated); the output
/// is sorted and distinct.  Dispatches to the AVX2 arm (vectorised seek
/// probes) when available.
pub fn intersect_sorted_gallop(a: &[ValueId], b: &[ValueId], out: &mut Vec<ValueId>) {
    (table().intersect_sorted)(a, b, out)
}

/// Portable implementation of [`intersect_sorted_gallop`] (the dispatch
/// fallback arm).
pub fn intersect_sorted_portable(a: &[ValueId], b: &[ValueId], out: &mut Vec<ValueId>) {
    intersect_with_seek(a, b, out, gallop_seek_portable)
}

/// The mutual-galloping loop shared by every [`intersect_sorted_gallop`]
/// arm, parameterised over the seek primitive.
fn intersect_with_seek(
    a: &[ValueId],
    b: &[ValueId],
    out: &mut Vec<ValueId>,
    seek: fn(&[ValueId], usize, ValueId) -> usize,
) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let x = a[i];
        j = seek(b, j, x);
        if j == b.len() {
            break;
        }
        let y = b[j];
        if y == x {
            out.push(x);
            i += 1;
            j += 1;
        } else {
            i = seek(a, i, y);
        }
    }
}

/// Scalar reference implementation of [`intersect_sorted_gallop`] (a plain
/// two-pointer merge).
pub fn intersect_sorted_scalar(a: &[ValueId], b: &[ValueId], out: &mut Vec<ValueId>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Advances `cursors` to the smallest value at or after every current cursor
/// that occurs in **all** runs, and returns it — the candidate-generation
/// step of leapfrog multi-way intersection.  Returns `None` (leaving the
/// cursors wherever the failed alignment left them) once any run is
/// exhausted.  Runs must be sorted ascending with distinct elements.
///
/// To enumerate the whole intersection, call repeatedly, advancing **every**
/// cursor by one after consuming a match (all cursors point at the matched
/// value when the call returns `Some`).  The seeks go through the dispatched
/// [`gallop_seek`], so leapfrog inherits the AVX2 probe without a dedicated
/// arm of its own.
///
/// # Panics
///
/// Panics if `runs` is empty or `cursors.len() != runs.len()`.
pub fn leapfrog_next(runs: &[&[ValueId]], cursors: &mut [usize]) -> Option<ValueId> {
    assert!(!runs.is_empty(), "leapfrog requires at least one run");
    assert_eq!(runs.len(), cursors.len(), "one cursor per run");
    let seek = table().gallop_seek;
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
                *c = seek(run, *c, max);
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

/// The AVX2 arm: explicit `core::arch::x86_64` intrinsics behind safe
/// wrappers.  The wrappers are only ever installed into the dispatch table
/// *after* `is_x86_feature_detected!("avx2")` succeeded (and are exercised
/// directly by the property tests under the same detection guard), which is
/// what justifies the `unsafe` calls into the `#[target_feature]` inner
/// functions.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// `true` when the host supports this module's kernels.
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// `&[ValueId]` viewed as its raw `u32` words (sound: `ValueId` is
    /// `#[repr(transparent)]` over `u32`).
    fn ids_as_raw(ids: &[ValueId]) -> &[u32] {
        // SAFETY: `ValueId` is `#[repr(transparent)]` over `u32`, so the two
        // slices have identical size, alignment and validity invariants (any
        // bit pattern is a valid `u32`); pointer and length come straight
        // from a live `&[ValueId]`, whose borrow the returned lifetime keeps
        // alive.
        unsafe { std::slice::from_raw_parts(ids.as_ptr() as *const u32, ids.len()) }
    }

    /// `&[u32]` viewed as ids (sound for the same representation reason; the
    /// kernels only ever round-trip words read from real id slices).
    fn raw_as_ids(raw: &[u32]) -> &[ValueId] {
        // SAFETY: the inverse of `ids_as_raw` — same `#[repr(transparent)]`
        // layout guarantee, and `ValueId` is a plain wrapper with no validity
        // restriction beyond `u32`'s, so every word is a valid id.  Pointer
        // and length come from a live `&[u32]` held by the returned borrow.
        unsafe { std::slice::from_raw_parts(raw.as_ptr() as *const ValueId, raw.len()) }
    }

    /// AVX2 [`and_equal_mask`]: 32 elements per iteration — four `u32x8`
    /// equality compares packed down to one byte vector and ANDed into the
    /// mask.  See `and_equal_mask_avx2` for the lane bookkeeping.
    pub fn and_equal_mask(a: &[ValueId], b: &[ValueId], mask: &mut [u8]) {
        debug_assert!(available());
        // SAFETY: callers reach this wrapper only after
        // `is_x86_feature_detected!("avx2")` succeeded — via the dispatch
        // table (installed under that check) or the property tests (same
        // guard) — so the `#[target_feature(enable = "avx2")]` precondition
        // holds.
        unsafe { and_equal_mask_avx2(a, b, mask) }
    }

    // SAFETY CONTRACT (`unsafe fn`): the caller must ensure the CPU
    // supports AVX2.  The body upholds memory safety itself: every
    // `loadu`/`storeu` stays within `i + 32 <= n` with all three slices
    // `n` long (asserted by the public entry point), and unaligned
    // load/store intrinsics have no alignment precondition.
    #[target_feature(enable = "avx2")]
    unsafe fn and_equal_mask_avx2(a: &[ValueId], b: &[ValueId], mask: &mut [u8]) {
        let n = mask.len();
        let ar = ids_as_raw(a);
        let br = ids_as_raw(b);
        let ones = _mm256_set1_epi8(1);
        // `packs_epi32` + `packs_epi16` interleave their operands per
        // 128-bit lane; this dword permutation restores element order.
        let fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut i = 0usize;
        while i + 32 <= n {
            let eq_at = |o: usize| {
                let va = _mm256_loadu_si256(ar.as_ptr().add(o) as *const __m256i);
                let vb = _mm256_loadu_si256(br.as_ptr().add(o) as *const __m256i);
                _mm256_cmpeq_epi32(va, vb)
            };
            let (e0, e1) = (eq_at(i), eq_at(i + 8));
            let (e2, e3) = (eq_at(i + 16), eq_at(i + 24));
            // 0/-1 dwords → 0/-1 words → 0/-1 bytes (saturating packs keep
            // the all-ones pattern), then reorder the interleaved dwords.
            let p01 = _mm256_packs_epi32(e0, e1);
            let p23 = _mm256_packs_epi32(e2, e3);
            let bytes = _mm256_packs_epi16(p01, p23);
            let bytes = _mm256_permutevar8x32_epi32(bytes, fix);
            // `m &= (eq as u8)` exactly: AND with 0/1, not 0/0xFF, so mask
            // bytes other than 0/1 degrade identically to the scalar arm.
            let keep = _mm256_and_si256(bytes, ones);
            let mp = mask.as_mut_ptr().add(i) as *mut __m256i;
            let m = _mm256_loadu_si256(mp as *const __m256i);
            _mm256_storeu_si256(mp, _mm256_and_si256(m, keep));
            i += 32;
        }
        and_equal_mask_portable(&a[i..], &b[i..], &mut mask[i..]);
    }

    /// AVX2 [`select_indices`]: 32 mask bytes per compare — one
    /// `cmpeq`+`movemask` yields a 32-bit selected-set, iterated bit by bit
    /// (`trailing_zeros`), so sparse and dead words cost one compare.
    pub fn select_indices(mask: &[u8], base: u32, out: &mut Vec<u32>) {
        debug_assert!(available());
        // SAFETY: AVX2 availability established by the dispatch table /
        // test guard, exactly as for `and_equal_mask`.
        unsafe { select_indices_avx2(mask, base, out) }
    }

    // SAFETY CONTRACT (`unsafe fn`): caller must ensure AVX2.  All loads
    // are unaligned `loadu` within `i + 32 <= mask.len()`; the tail is
    // delegated to the safe portable arm.
    #[target_feature(enable = "avx2")]
    unsafe fn select_indices_avx2(mask: &[u8], base: u32, out: &mut Vec<u32>) {
        let zero = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 32 <= mask.len() {
            let m = _mm256_loadu_si256(mask.as_ptr().add(i) as *const __m256i);
            let dead = _mm256_movemask_epi8(_mm256_cmpeq_epi8(m, zero)) as u32;
            let mut bits = !dead;
            while bits != 0 {
                let j = bits.trailing_zeros();
                out.push(base + i as u32 + j);
                bits &= bits - 1;
            }
            i += 32;
        }
        select_indices_portable(&mask[i..], base + i as u32, out);
    }

    /// AVX2 [`gather_ids`]: hardware `vpgatherdd` eight rows at a time,
    /// with a per-chunk bounds pre-check that falls back to the portable
    /// arm (preserving the panic-on-out-of-bounds contract — the hardware
    /// gather must never be issued with an out-of-range index).
    pub fn gather_ids(col: &[ValueId], rows: &[u32], out: &mut Vec<ValueId>) {
        debug_assert!(available());
        // SAFETY: AVX2 availability established by the dispatch table /
        // test guard, exactly as for `and_equal_mask`.
        unsafe { gather_ids_avx2(col, rows, out) }
    }

    // SAFETY CONTRACT (`unsafe fn`): caller must ensure AVX2.  The
    // hardware gather reads `col[idx]` for eight indices at once, so the
    // body pre-checks `max(chunk) < col.len()` before issuing it and
    // bails to the (bounds-checked, panicking) portable arm otherwise;
    // indices are also capped to `i32::MAX` columns since `vpgatherdd`
    // treats them as signed.
    #[target_feature(enable = "avx2")]
    unsafe fn gather_ids_avx2(col: &[ValueId], rows: &[u32], out: &mut Vec<ValueId>) {
        // `vpgatherdd` treats indices as signed; columns larger than
        // i32::MAX rows cannot use it soundly.
        if col.len() > i32::MAX as usize {
            return gather_ids_portable(col, rows, out);
        }
        out.reserve(rows.len());
        let base = ids_as_raw(col).as_ptr() as *const i32;
        let mut chunks = rows.chunks_exact(LANES);
        let mut consumed = 0usize;
        for chunk in &mut chunks {
            // Max over eight indices is cheap; an out-of-bounds index makes
            // the portable tail below re-run this chunk and panic exactly
            // like the scalar reference.
            // ij-analysis: allow(panic) — infallible: `chunks_exact(LANES)` chunks are never empty
            let mx = chunk.iter().copied().max().expect("chunk of LANES");
            if mx as usize >= col.len() {
                break;
            }
            let idx = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
            let g = _mm256_i32gather_epi32::<4>(base, idx);
            let mut buf = [0u32; LANES];
            _mm256_storeu_si256(buf.as_mut_ptr() as *mut __m256i, g);
            out.extend_from_slice(raw_as_ids(&buf));
            consumed += LANES;
        }
        gather_ids_portable(col, &rows[consumed..], out);
    }

    /// AVX2 [`gallop_seek`]: the [`GALLOP_LINEAR_SPAN`]-slot linear probe is
    /// one biased `u32x8` compare + movemask; seeks that travel further fall
    /// into the shared exponential gallop.
    pub fn gallop_seek(run: &[ValueId], start: usize, target: ValueId) -> usize {
        debug_assert!(available());
        // SAFETY: AVX2 availability established by the dispatch table /
        // test guard, exactly as for `and_equal_mask`.
        unsafe { gallop_seek_avx2(run, start, target) }
    }

    // SAFETY CONTRACT (`unsafe fn`): caller must ensure AVX2.  The one
    // vector load is guarded by `start + LANES <= n`; everything else is
    // safe indexing.
    #[target_feature(enable = "avx2")]
    unsafe fn gallop_seek_avx2(run: &[ValueId], start: usize, target: ValueId) -> usize {
        let n = run.len();
        // Dense-advance fast path: mutual-gallop intersection and leapfrog
        // overwhelmingly seek a target sitting at the cursor itself (the
        // run already caught up), and one scalar compare settles that
        // without paying the vector setup below.
        if start < n && run[start] >= target {
            return start;
        }
        if start + LANES <= n {
            // Unsigned `run[i] < target` via biased signed compare (the id
            // order is the raw unsigned order).
            let bias = _mm256_set1_epi32(i32::MIN);
            let t = _mm256_xor_si256(_mm256_set1_epi32(target.raw() as i32), bias);
            let raw = ids_as_raw(run);
            let v = _mm256_loadu_si256(raw.as_ptr().add(start) as *const __m256i);
            let lt = _mm256_cmpgt_epi32(t, _mm256_xor_si256(v, bias));
            let lt_bits = _mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32 & 0xFF;
            if lt_bits != 0xFF {
                // Lowest clear bit = first element >= target.
                return start + (!lt_bits).trailing_zeros() as usize;
            }
            gallop_tail(run, start + LANES, target)
        } else {
            // Short tail: fewer than LANES candidates left.
            for (i, &v) in run[start..].iter().enumerate() {
                if v >= target {
                    return start + i;
                }
            }
            n
        }
    }

    /// AVX2 [`intersect_sorted_gallop`]: the shared mutual-galloping loop
    /// over the AVX2 seek.
    pub fn intersect_sorted(a: &[ValueId], b: &[ValueId], out: &mut Vec<ValueId>) {
        debug_assert!(available());
        intersect_with_seek(a, b, out, gallop_seek);
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
    fn gallop_seek_span_is_answer_preserving() {
        let run = ids(&[2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610]);
        for span in [0usize, 1, 2, 7, 8, 9, 16, 64] {
            for start in 0..=run.len() {
                for raw in 0..64u32 {
                    let target = ValueId::from_raw(raw * 11);
                    assert_eq!(
                        gallop_seek_with_span(&run, start, target, span),
                        gallop_seek_scalar(&run, start, target),
                        "span {span}, start {start}, target {}",
                        raw * 11
                    );
                }
            }
        }
    }

    #[test]
    fn intersect_gallop_matches_scalar_on_adversarial_runs() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![]),
            (vec![], vec![1, 2, 3]),
            (vec![5], vec![5]),
            (vec![5], vec![6]),
            (vec![1, 3, 5, 7], vec![2, 4, 6, 8]), // disjoint, interleaved
            (vec![1, 2, 3, 4], vec![1, 2, 3, 4]), // fully equal
            (vec![1, 100], (0..200).collect()),   // short vs long (gallop far)
            ((0..37).collect(), (18..55).collect()), // non-multiple-of-span overlap
        ];
        for (ra, rb) in cases {
            let a = ids(&ra);
            let b = ids(&rb);
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            for (x, y) in [(&a, &b), (&b, &a)] {
                intersect_sorted_gallop(x, y, &mut fast);
                intersect_sorted_scalar(x, y, &mut slow);
                assert_eq!(fast, slow, "a {ra:?}, b {rb:?}");
            }
        }
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

    #[test]
    fn dispatch_resolves_and_reports_an_arm() {
        let arm = kernel_arm();
        let forced = std::env::var_os(FORCE_SCALAR_ENV).is_some_and(|v| v != "0");
        if forced {
            assert_eq!(arm, KernelArm::Scalar, "{FORCE_SCALAR_ENV} pins scalar");
        }
        #[cfg(target_arch = "x86_64")]
        if !forced && std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(arm, KernelArm::Avx2);
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(arm, KernelArm::Scalar);
        assert_eq!(format!("{arm}"), arm.as_str());
    }

    /// The AVX2 arm is exercised *directly* (not through the dispatch table)
    /// so it stays covered even when the process is pinned to scalar.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_arm_matches_scalar_on_adversarial_lengths() {
        if !avx2::available() {
            return; // nothing to test on this host
        }
        // Lengths around both the 8-lane and 32-element block boundaries.
        for n in [0usize, 1, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 65, 100] {
            let a: Vec<ValueId> = (0..n).map(|i| ValueId::from_raw(i as u32 % 7)).collect();
            let b: Vec<ValueId> = (0..n)
                .map(|i| ValueId::from_raw((i as u32 + 1) % 7))
                .collect();
            let mut m1: Vec<u8> = (0..n).map(|i| (i % 3 != 0) as u8).collect();
            let mut m2 = m1.clone();
            avx2::and_equal_mask(&a, &a, &mut m1);
            and_equal_mask_scalar(&a, &a, &mut m2);
            assert_eq!(m1, m2, "and_equal_mask len {n}");
            let mut m1: Vec<u8> = (0..n).map(|i| (i % 3 == 0) as u8).collect();
            let mut m2 = m1.clone();
            avx2::and_equal_mask(&a, &b, &mut m1);
            and_equal_mask_scalar(&a, &b, &mut m2);
            assert_eq!(m1, m2, "and_equal_mask len {n}");

            let mask: Vec<u8> = (0..n).map(|i| (i % 5 == 0) as u8).collect();
            let (mut s1, mut s2) = (Vec::new(), Vec::new());
            avx2::select_indices(&mask, 40, &mut s1);
            select_indices_scalar(&mask, 40, &mut s2);
            assert_eq!(s1, s2, "select_indices len {n}");

            let col: Vec<ValueId> = (0..(n + 1)).map(|i| ValueId::from_raw(i as u32)).collect();
            let rows: Vec<u32> = (0..n).map(|i| ((i * 13) % (n + 1)) as u32).collect();
            let (mut g1, mut g2) = (Vec::new(), Vec::new());
            avx2::gather_ids(&col, &rows, &mut g1);
            gather_ids_scalar(&col, &rows, &mut g2);
            assert_eq!(g1, g2, "gather_ids len {n}");

            let run: Vec<ValueId> = (0..n).map(|i| ValueId::from_raw(3 * i as u32)).collect();
            for start in 0..=n {
                for t in 0..(3 * n as u32 + 2) {
                    let target = ValueId::from_raw(t);
                    assert_eq!(
                        avx2::gallop_seek(&run, start, target),
                        gallop_seek_scalar(&run, start, target),
                        "gallop_seek len {n}, start {start}, target {t}"
                    );
                }
            }

            let other: Vec<ValueId> = (0..n).map(|i| ValueId::from_raw(2 * i as u32)).collect();
            let (mut i1, mut i2) = (Vec::new(), Vec::new());
            avx2::intersect_sorted(&run, &other, &mut i1);
            intersect_sorted_scalar(&run, &other, &mut i2);
            assert_eq!(i1, i2, "intersect len {n}");
        }
        // Values around the signed/unsigned bias boundary.
        let hi = ids(&[0, 1, 0x7FFF_FFFF, 0x8000_0000, 0x8000_0001, 0xFFFF_FFFE]);
        for start in 0..=hi.len() {
            for &t in &[0u32, 0x7FFF_FFFF, 0x8000_0000, 0x8000_0001, 0xFFFF_FFFE] {
                let target = ValueId::from_raw(t);
                assert_eq!(
                    avx2::gallop_seek(&hi, start, target),
                    gallop_seek_scalar(&hi, start, target),
                    "biased compare, start {start}, target {t:#x}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic]
    fn avx2_gather_panics_on_out_of_bounds_rows() {
        if !avx2::available() {
            panic!("no AVX2: satisfy should_panic trivially");
        }
        let col = ids(&[1, 2, 3]);
        let rows: Vec<u32> = vec![0, 1, 2, 0, 1, 2, 0, 99]; // full chunk, one OOB
        let mut out = Vec::new();
        avx2::gather_ids(&col, &rows, &mut out);
    }
}
