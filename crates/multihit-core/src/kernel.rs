//! Vectorized fused AND+popcount scoring kernels with runtime dispatch.
//!
//! Every hot path in the pipeline bottoms out in the same primitive: AND a
//! handful of 64-sample packed words together and count the surviving bits.
//! The portable implementations here unroll that primitive over four words
//! with independent accumulators (so the popcounts pipeline instead of
//! serializing on one add chain); on `x86_64` a runtime check
//! (`is_x86_feature_detected!`) swaps in an AVX2/POPCNT path that ANDs
//! 256 bits per instruction and lowers `count_ones` to the single-cycle
//! `POPCNT` instruction — which the default `x86-64` baseline target does
//! *not* emit, so the dispatch is a real constant-factor win even on the
//! scalar-looking loop. Column splicing gets the same treatment via BMI2
//! `PEXT` (single-instruction bit compaction per word).
//!
//! Above AVX2 sits an AVX-512 tier (`avx512f` + `avx512vpopcntdq`): 512-bit
//! ANDs with the `VPOPCNTQ` instruction counting eight words per cycle in
//! vector registers, no lane extraction at all. It has no scalar tail: the
//! `n % 8` words after the unmasked 8-word body are one masked step
//! (`_mm512_maskz_loadu_epi64`, and `_mm512_mask_storeu_epi64` for the
//! stored AND) into the same accumulator, so a 15-word row costs one body
//! iteration plus one masked one. Its functions also list `popcnt`: neither
//! AVX-512 feature implies it, and without it any `count_ones` the compiler
//! emits there is the baseline bit-twiddling sequence; `detect()` requires
//! `popcnt` before it selects the tier. The block kernels
//! ([`and_popcount_block`]) score a whole block of candidate rows against
//! one fixed partial — the partial stays register/L1-resident while the
//! rows stream past it, with software prefetch of the upcoming row (the
//! CPU analogue of the paper's MemOpt row prefetching).
//!
//! Dispatch is decided once per process and cached; [`force_scalar`] and
//! [`force`] pin a tier so tests and benches can compare implementations on
//! the same machine. All tiers are bit-identical by construction and
//! proptested against each other on ragged widths, including the partial
//! final word.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which implementation the runtime dispatch selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dispatch {
    /// Portable unrolled Rust (also the forced-test path).
    Scalar,
    /// AVX2 AND + POPCNT counting (+ BMI2 PEXT splicing) on `x86_64`.
    Avx2,
    /// AVX-512F AND + VPOPCNTQ vector popcount on `x86_64`.
    Avx512,
}

impl Dispatch {
    /// Stable name used in metric streams and bench reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Scalar => "scalar",
            Dispatch::Avx2 => "avx2",
            Dispatch::Avx512 => "avx512",
        }
    }
}

/// 0 = undecided, 1 = scalar, 2 = avx2, 3 = avx512.
static SELECTED: AtomicU8 = AtomicU8::new(0);

fn encode(d: Dispatch) -> u8 {
    match d {
        Dispatch::Scalar => 1,
        Dispatch::Avx2 => 2,
        Dispatch::Avx512 => 3,
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Dispatch {
    let avx2 = std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("popcnt")
        && std::arch::is_x86_feature_detected!("bmi2");
    if avx2
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    {
        Dispatch::Avx512
    } else if avx2 {
        Dispatch::Avx2
    } else {
        Dispatch::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Dispatch {
    Dispatch::Scalar
}

/// The implementation the process is currently dispatching to.
#[must_use]
pub fn active() -> Dispatch {
    match SELECTED.load(Ordering::Relaxed) {
        1 => Dispatch::Scalar,
        2 => Dispatch::Avx2,
        3 => Dispatch::Avx512,
        _ => {
            let d = detect();
            SELECTED.store(encode(d), Ordering::Relaxed);
            d
        }
    }
}

/// Pin a specific dispatch tier process-wide, or re-run detection.
///
/// Returns `false` (leaving the selection unchanged) when the requested
/// tier is *above* what the host supports — forcing AVX-512 on a machine
/// without it would execute illegal instructions. Pinning a tier at or
/// below the detected one always succeeds; `force(None)` re-runs detection
/// and always succeeds. For tests and benches comparing implementations;
/// production code never calls this.
pub fn force(d: Option<Dispatch>) -> bool {
    match d {
        None => {
            SELECTED.store(encode(detect()), Ordering::Relaxed);
            true
        }
        Some(want) => {
            if want > detect() {
                return false;
            }
            SELECTED.store(encode(want), Ordering::Relaxed);
            true
        }
    }
}

/// Pin (or unpin) the portable scalar path, process-wide.
///
/// For tests and benches comparing implementations; production code never
/// calls this. `force_scalar(false)` re-runs detection.
pub fn force_scalar(on: bool) {
    let _ = force(on.then_some(Dispatch::Scalar));
}

// ---------------------------------------------------------------------------
// Portable unrolled implementations
// ---------------------------------------------------------------------------

/// Population count of a packed word slice (4-way unrolled).
#[must_use]
pub fn popcount_scalar(a: &[u64]) -> u32 {
    let mut acc = [0u32; 4];
    let mut chunks = a.chunks_exact(4);
    for c in &mut chunks {
        acc[0] += c[0].count_ones();
        acc[1] += c[1].count_ones();
        acc[2] += c[2].count_ones();
        acc[3] += c[3].count_ones();
    }
    let tail: u32 = chunks.remainder().iter().map(|w| w.count_ones()).sum();
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Fused `popcount(a & b)` without materializing the AND (4-way unrolled).
#[must_use]
pub fn and_popcount_scalar(a: &[u64], b: &[u64]) -> u32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0u32; 4];
    let mut i = 0;
    while i + 4 <= n {
        acc[0] += (a[i] & b[i]).count_ones();
        acc[1] += (a[i + 1] & b[i + 1]).count_ones();
        acc[2] += (a[i + 2] & b[i + 2]).count_ones();
        acc[3] += (a[i + 3] & b[i + 3]).count_ones();
        i += 4;
    }
    let mut tail = 0u32;
    while i < n {
        tail += (a[i] & b[i]).count_ones();
        i += 1;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Fused `popcount(a & b & c)` (4-way unrolled).
#[must_use]
pub fn and3_popcount_scalar(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
    let n = a.len().min(b.len()).min(c.len());
    let mut acc = [0u32; 4];
    let mut i = 0;
    while i + 4 <= n {
        acc[0] += (a[i] & b[i] & c[i]).count_ones();
        acc[1] += (a[i + 1] & b[i + 1] & c[i + 1]).count_ones();
        acc[2] += (a[i + 2] & b[i + 2] & c[i + 2]).count_ones();
        acc[3] += (a[i + 3] & b[i + 3] & c[i + 3]).count_ones();
        i += 4;
    }
    let mut tail = 0u32;
    while i < n {
        tail += (a[i] & b[i] & c[i]).count_ones();
        i += 1;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// `dst = a & b`, returning `popcount(dst)` in the same pass.
///
/// The scanner's partial-AND rebuild wants both the stored AND (for the
/// next level down) and its popcount (for the branch-and-bound TP upper
/// bound), so fusing them halves the memory passes.
#[must_use]
pub fn and_store_popcount_scalar(dst: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
    let n = dst.len().min(a.len()).min(b.len());
    let mut acc = [0u32; 4];
    let mut i = 0;
    while i + 4 <= n {
        let w0 = a[i] & b[i];
        let w1 = a[i + 1] & b[i + 1];
        let w2 = a[i + 2] & b[i + 2];
        let w3 = a[i + 3] & b[i + 3];
        dst[i] = w0;
        dst[i + 1] = w1;
        dst[i + 2] = w2;
        dst[i + 3] = w3;
        acc[0] += w0.count_ones();
        acc[1] += w1.count_ones();
        acc[2] += w2.count_ones();
        acc[3] += w3.count_ones();
        i += 4;
    }
    let mut tail = 0u32;
    while i < n {
        let w = a[i] & b[i];
        dst[i] = w;
        tail += w.count_ones();
        i += 1;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Fused popcount of the AND across arbitrarily many rows.
///
/// # Panics
/// Panics if `rows` is empty.
#[must_use]
pub fn and_rows_popcount_scalar(rows: &[&[u64]]) -> u32 {
    let (first, rest) = rows.split_first().expect("at least one row");
    let n = rows.iter().map(|r| r.len()).min().unwrap_or(0);
    let mut total = 0u32;
    for w in 0..n {
        let mut acc = first[w];
        for r in rest {
            acc &= r[w];
        }
        total += acc.count_ones();
    }
    total
}

/// Sparse fused AND+store+popcount over a *compact* parent support.
///
/// `parent_idx`/`parent_val` hold the nonzero words of a partial AND as
/// (word index, word value) pairs in increasing index order. The result of
/// ANDing `row` into that partial is written — again compacted, zero words
/// dropped — into `out_idx`/`out_val` (cleared first), and the total
/// popcount is returned. Because an AND can only *clear* bits, the support
/// shrinks monotonically as a combination chain deepens, so deeper levels
/// touch ever fewer words. Bit-identical to the dense kernel by
/// construction: only all-zero words (which contribute nothing to any AND
/// or popcount) are skipped.
///
/// Gathers through data-dependent indices don't vectorize profitably, so
/// this is a single portable path used by both dispatch modes.
#[must_use]
pub fn and_compact(
    parent_idx: &[u32],
    parent_val: &[u64],
    row: &[u64],
    out_idx: &mut Vec<u32>,
    out_val: &mut Vec<u64>,
) -> u32 {
    debug_assert_eq!(parent_idx.len(), parent_val.len());
    out_idx.clear();
    out_val.clear();
    let mut pop = 0u32;
    for (&wi, &pv) in parent_idx.iter().zip(parent_val) {
        let w = pv & row[wi as usize];
        if w != 0 {
            out_idx.push(wi);
            out_val.push(w);
            pop += w.count_ones();
        }
    }
    pop
}

/// Sparse block sweep: `out[r] = Σ popcount(parent_val & rows[r][parent_idx])`
/// for every candidate row in the block, gathering each row through the
/// parent's compact support. The compact (index, value) pairs stay hot while
/// the candidate rows stream past — the sparse analogue of
/// [`and_popcount_block`]. Gathers through data-dependent indices don't
/// vectorize profitably, so this is a single portable path used by every
/// dispatch tier; the software prefetch of the next row still applies.
pub fn and_compact_popcount_block(
    parent_idx: &[u32],
    parent_val: &[u64],
    rows: &[&[u64]],
    out: &mut [u32],
) {
    debug_assert_eq!(parent_idx.len(), parent_val.len());
    debug_assert!(out.len() >= rows.len());
    for (r, row) in rows.iter().enumerate() {
        if r + 1 < rows.len() {
            prefetch_words(rows[r + 1]);
        }
        let mut pop = 0u32;
        for (&wi, &pv) in parent_idx.iter().zip(parent_val) {
            pop += (pv & row[wi as usize]).count_ones();
        }
        out[r] = pop;
    }
}

/// Maximum rows per [`and_popcount_block`] call — sized so a block of row
/// pointers and its result slots live on the stack and the loop over rows
/// stays short enough for the partial to remain cache-hot.
pub const SWEEP_BLOCK: usize = 16;

/// Issue prefetch hints for every cache line of a packed row (no-op off
/// `x86_64`). The block kernels call this one row ahead of the row they are
/// ANDing, so the next operand is already in flight when its turn comes —
/// the CPU realization of the paper's MemOpt row prefetching.
#[inline]
pub fn prefetch_words(p: &[u64]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; any address is allowed, and SSE is part
    // of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let mut i = 0;
        while i < p.len() {
            _mm_prefetch(p.as_ptr().add(i).cast(), _MM_HINT_T0);
            i += 8; // one 64-byte cache line = 8 packed words
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Block sweep reference: `out[r] = popcount(partial & rows[r])` for every
/// candidate row, the fixed `partial` operand reread from L1 while the rows
/// stream past it (4-way unrolled, next row prefetched).
pub fn and_popcount_block_scalar(partial: &[u64], rows: &[&[u64]], out: &mut [u32]) {
    debug_assert!(out.len() >= rows.len());
    for (r, row) in rows.iter().enumerate() {
        if r + 1 < rows.len() {
            prefetch_words(rows[r + 1]);
        }
        out[r] = and_popcount_scalar(partial, row);
    }
}

/// Parallel bit extract: compact the bits of `x` selected by `mask` into the
/// low bits of the result — the per-word primitive of column splicing.
#[must_use]
pub fn pext_scalar(x: u64, mut mask: u64) -> u64 {
    let mut out = 0u64;
    let mut bit = 0u32;
    while mask != 0 {
        let m = mask & mask.wrapping_neg();
        if x & m != 0 {
            out |= 1u64 << bit;
        }
        bit += 1;
        mask ^= m;
    }
    out
}

// ---------------------------------------------------------------------------
// AVX2 / POPCNT / BMI2 paths (x86_64 only, runtime-gated)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_storeu_si256, _pext_u64,
    };

    #[inline]
    unsafe fn lanes(v: __m256i) -> [u64; 4] {
        // SAFETY: `__m256i` and `[u64; 4]` are both 32 bytes with no
        // invalid bit patterns, so every value of one is a value of the other.
        std::mem::transmute(v)
    }

    /// # Safety
    /// Requires AVX2 + POPCNT at runtime.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn popcount(a: &[u64]) -> u32 {
        // Inside this target_feature scope `count_ones` lowers to POPCNT.
        let mut acc = [0u32; 4];
        let mut chunks = a.chunks_exact(4);
        for c in &mut chunks {
            acc[0] += c[0].count_ones();
            acc[1] += c[1].count_ones();
            acc[2] += c[2].count_ones();
            acc[3] += c[3].count_ones();
        }
        let tail: u32 = chunks.remainder().iter().map(|w| w.count_ones()).sum();
        acc[0] + acc[1] + acc[2] + acc[3] + tail
    }

    /// # Safety
    /// Requires AVX2 + POPCNT at runtime.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn and_popcount(a: &[u64], b: &[u64]) -> u32 {
        let n = a.len().min(b.len());
        let mut total = 0u32;
        let mut i = 0;
        while i + 4 <= n {
            let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let vb = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            let l = lanes(_mm256_and_si256(va, vb));
            total += l[0].count_ones() + l[1].count_ones() + l[2].count_ones() + l[3].count_ones();
            i += 4;
        }
        while i < n {
            total += (a[i] & b[i]).count_ones();
            i += 1;
        }
        total
    }

    /// # Safety
    /// Requires AVX2 + POPCNT at runtime.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn and3_popcount(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
        let n = a.len().min(b.len()).min(c.len());
        let mut total = 0u32;
        let mut i = 0;
        while i + 4 <= n {
            let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let vb = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            let vc = _mm256_loadu_si256(c.as_ptr().add(i).cast());
            let l = lanes(_mm256_and_si256(_mm256_and_si256(va, vb), vc));
            total += l[0].count_ones() + l[1].count_ones() + l[2].count_ones() + l[3].count_ones();
            i += 4;
        }
        while i < n {
            total += (a[i] & b[i] & c[i]).count_ones();
            i += 1;
        }
        total
    }

    /// # Safety
    /// Requires AVX2 + POPCNT at runtime. `dst`, `a`, `b` must not overlap.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn and_store_popcount(dst: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
        let n = dst.len().min(a.len()).min(b.len());
        let mut total = 0u32;
        let mut i = 0;
        while i + 4 <= n {
            let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let vb = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            let v = _mm256_and_si256(va, vb);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), v);
            let l = lanes(v);
            total += l[0].count_ones() + l[1].count_ones() + l[2].count_ones() + l[3].count_ones();
            i += 4;
        }
        while i < n {
            let w = a[i] & b[i];
            dst[i] = w;
            total += w.count_ones();
            i += 1;
        }
        total
    }

    /// # Safety
    /// Requires AVX2 + POPCNT at runtime.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn and_rows_popcount(rows: &[&[u64]]) -> u32 {
        match rows.len() {
            0 => panic!("at least one row"),
            1 => popcount(rows[0]),
            2 => and_popcount(rows[0], rows[1]),
            3 => and3_popcount(rows[0], rows[1], rows[2]),
            _ => {
                let n = rows.iter().map(|r| r.len()).min().unwrap_or(0);
                let mut total = 0u32;
                let mut i = 0;
                while i + 4 <= n {
                    let mut v = _mm256_loadu_si256(rows[0].as_ptr().add(i).cast());
                    for r in &rows[1..] {
                        v = _mm256_and_si256(v, _mm256_loadu_si256(r.as_ptr().add(i).cast()));
                    }
                    let l = lanes(v);
                    total += l[0].count_ones()
                        + l[1].count_ones()
                        + l[2].count_ones()
                        + l[3].count_ones();
                    i += 4;
                }
                while i < n {
                    let mut acc = rows[0][i];
                    for r in &rows[1..] {
                        acc &= r[i];
                    }
                    total += acc.count_ones();
                    i += 1;
                }
                total
            }
        }
    }

    /// # Safety
    /// Requires BMI2 at runtime.
    #[target_feature(enable = "bmi2")]
    pub unsafe fn pext(x: u64, mask: u64) -> u64 {
        _pext_u64(x, mask)
    }

    /// # Safety
    /// Requires AVX2 + POPCNT at runtime.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn and_popcount_block(partial: &[u64], rows: &[&[u64]], out: &mut [u32]) {
        debug_assert!(out.len() >= rows.len());
        for (r, row) in rows.iter().enumerate() {
            if r + 1 < rows.len() {
                super::prefetch_words(rows[r + 1]);
            }
            out[r] = and_popcount(partial, row);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512F + VPOPCNTQ paths (x86_64 only, runtime-gated)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! Every function here runs the same shape: an unmasked 8-word body,
    //! then **one** masked step for the `n % 8` remaining words, folded into
    //! the same `VPOPCNTQ` accumulator before the single horizontal add.
    //!
    //! SAFETY (module-wide): every function requires the feature set
    //! `super::detect()` verifies before it selects `Dispatch::Avx512` —
    //! `avx512f`, `avx512vpopcntdq` and `popcnt` (plus AVX2/BMI2, unused
    //! here). Each `n` is the minimum of the operand lengths, so the body's
    //! unmasked loads and stores cover words `i..i + 8 <= n` of every
    //! slice. The remainder's mask enables exactly lanes `i..n`; AVX-512
    //! masked loads and stores neither read nor write masked-off lanes and
    //! suppress faults on them, so no word at or past `n` is touched.
    use std::arch::x86_64::{
        __m512i, __mmask8, _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512,
        _mm512_mask_storeu_epi64, _mm512_maskz_loadu_epi64, _mm512_popcnt_epi64,
        _mm512_reduce_add_epi64, _mm512_setzero_si512, _mm512_storeu_si512,
    };

    /// Mask enabling the `rem < 8` low lanes of the remainder step.
    #[inline]
    fn tail_mask(rem: usize) -> __mmask8 {
        debug_assert!(rem < 8);
        ((1u32 << rem) - 1) as __mmask8
    }

    /// Load the lanes of `p[i..]` enabled by `m`, zeroing the rest.
    ///
    /// # Safety
    /// AVX-512F at runtime; every lane `m` enables must lie inside `p`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    unsafe fn load_masked(m: __mmask8, p: &[u64], i: usize) -> __m512i {
        // SAFETY: `i <= p.len()`, so the pointer is in bounds or one past
        // the end, and masked-off lanes are never read (the caller keeps
        // the enabled ones inside `p`).
        _mm512_maskz_loadu_epi64(m, p.as_ptr().add(i).cast())
    }

    /// # Safety
    /// Requires the `Avx512` feature set `detect()` verifies (AVX-512F,
    /// AVX-512VPOPCNTDQ, POPCNT); reads stop at the shortest operand.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    pub unsafe fn popcount(a: &[u64]) -> u32 {
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 8 <= a.len() {
            let v = _mm512_loadu_si512(a.as_ptr().add(i).cast());
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
            i += 8;
        }
        if i < a.len() {
            let v = load_masked(tail_mask(a.len() - i), a, i);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        _mm512_reduce_add_epi64(acc) as u64 as u32
    }

    /// # Safety
    /// Requires the `Avx512` feature set `detect()` verifies (AVX-512F,
    /// AVX-512VPOPCNTDQ, POPCNT); reads stop at the shortest operand.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    pub unsafe fn and_popcount(a: &[u64], b: &[u64]) -> u32 {
        let n = a.len().min(b.len());
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 8 <= n {
            let va = _mm512_loadu_si512(a.as_ptr().add(i).cast());
            let vb = _mm512_loadu_si512(b.as_ptr().add(i).cast());
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
            i += 8;
        }
        if i < n {
            let m = tail_mask(n - i);
            let v = _mm512_and_si512(load_masked(m, a, i), load_masked(m, b, i));
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        _mm512_reduce_add_epi64(acc) as u64 as u32
    }

    /// # Safety
    /// Requires the `Avx512` feature set `detect()` verifies (AVX-512F,
    /// AVX-512VPOPCNTDQ, POPCNT); reads stop at the shortest operand.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    pub unsafe fn and3_popcount(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
        let n = a.len().min(b.len()).min(c.len());
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 8 <= n {
            let va = _mm512_loadu_si512(a.as_ptr().add(i).cast());
            let vb = _mm512_loadu_si512(b.as_ptr().add(i).cast());
            let vc = _mm512_loadu_si512(c.as_ptr().add(i).cast());
            let v = _mm512_and_si512(_mm512_and_si512(va, vb), vc);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
            i += 8;
        }
        if i < n {
            let m = tail_mask(n - i);
            let v = _mm512_and_si512(
                _mm512_and_si512(load_masked(m, a, i), load_masked(m, b, i)),
                load_masked(m, c, i),
            );
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        _mm512_reduce_add_epi64(acc) as u64 as u32
    }

    /// # Safety
    /// Requires the `Avx512` feature set `detect()` verifies (AVX-512F,
    /// AVX-512VPOPCNTDQ, POPCNT). `dst`, `a`, `b` must not overlap; `n` is
    /// the minimum of the three lengths and nothing at or past it is touched.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    pub unsafe fn and_store_popcount(dst: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
        let n = dst.len().min(a.len()).min(b.len());
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 8 <= n {
            let va = _mm512_loadu_si512(a.as_ptr().add(i).cast());
            let vb = _mm512_loadu_si512(b.as_ptr().add(i).cast());
            let v = _mm512_and_si512(va, vb);
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), v);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
            i += 8;
        }
        if i < n {
            let m = tail_mask(n - i);
            let v = _mm512_and_si512(load_masked(m, a, i), load_masked(m, b, i));
            // SAFETY: `i <= n <= dst.len()`; the mask enables only lanes
            // `i..n`, so words of `dst` at or past `n` are never written.
            _mm512_mask_storeu_epi64(dst.as_mut_ptr().add(i).cast(), m, v);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        _mm512_reduce_add_epi64(acc) as u64 as u32
    }

    /// # Safety
    /// Requires the `Avx512` feature set `detect()` verifies (AVX-512F,
    /// AVX-512VPOPCNTDQ, POPCNT); reads stop at the shortest operand.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    pub unsafe fn and_rows_popcount(rows: &[&[u64]]) -> u32 {
        match rows.len() {
            0 => panic!("at least one row"),
            1 => popcount(rows[0]),
            2 => and_popcount(rows[0], rows[1]),
            3 => and3_popcount(rows[0], rows[1], rows[2]),
            _ => {
                let n = rows.iter().map(|r| r.len()).min().unwrap_or(0);
                let mut acc = _mm512_setzero_si512();
                let mut i = 0;
                while i + 8 <= n {
                    let mut v = _mm512_loadu_si512(rows[0].as_ptr().add(i).cast());
                    for r in &rows[1..] {
                        v = _mm512_and_si512(v, _mm512_loadu_si512(r.as_ptr().add(i).cast()));
                    }
                    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
                    i += 8;
                }
                if i < n {
                    let m = tail_mask(n - i);
                    let mut v = load_masked(m, rows[0], i);
                    for r in &rows[1..] {
                        v = _mm512_and_si512(v, load_masked(m, r, i));
                    }
                    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
                }
                _mm512_reduce_add_epi64(acc) as u64 as u32
            }
        }
    }

    /// # Safety
    /// Requires the `Avx512` feature set `detect()` verifies (AVX-512F,
    /// AVX-512VPOPCNTDQ, POPCNT); reads stop at the shortest operand.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    pub unsafe fn and_popcount_block(partial: &[u64], rows: &[&[u64]], out: &mut [u32]) {
        debug_assert!(out.len() >= rows.len());
        for (r, row) in rows.iter().enumerate() {
            if r + 1 < rows.len() {
                super::prefetch_words(rows[r + 1]);
            }
            out[r] = and_popcount(partial, row);
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

/// Population count of a packed word slice.
#[inline]
#[must_use]
pub fn popcount(a: &[u64]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: dispatch verified the matching feature set at runtime.
    match active() {
        Dispatch::Avx512 => return unsafe { avx512::popcount(a) },
        Dispatch::Avx2 => return unsafe { x86::popcount(a) },
        Dispatch::Scalar => {}
    }
    popcount_scalar(a)
}

/// Fused `popcount(a & b)`.
#[inline]
#[must_use]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: dispatch verified the matching feature set at runtime.
    match active() {
        Dispatch::Avx512 => return unsafe { avx512::and_popcount(a, b) },
        Dispatch::Avx2 => return unsafe { x86::and_popcount(a, b) },
        Dispatch::Scalar => {}
    }
    and_popcount_scalar(a, b)
}

/// Fused `popcount(a & b & c)`.
#[inline]
#[must_use]
pub fn and3_popcount(a: &[u64], b: &[u64], c: &[u64]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: dispatch verified the matching feature set at runtime.
    match active() {
        Dispatch::Avx512 => return unsafe { avx512::and3_popcount(a, b, c) },
        Dispatch::Avx2 => return unsafe { x86::and3_popcount(a, b, c) },
        Dispatch::Scalar => {}
    }
    and3_popcount_scalar(a, b, c)
}

/// `dst = a & b`, returning `popcount(dst)` in the same pass.
#[inline]
#[must_use]
pub fn and_store_popcount(dst: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: dispatch verified the matching feature set at runtime; the
    // slices are distinct borrows so they cannot overlap.
    match active() {
        Dispatch::Avx512 => return unsafe { avx512::and_store_popcount(dst, a, b) },
        Dispatch::Avx2 => return unsafe { x86::and_store_popcount(dst, a, b) },
        Dispatch::Scalar => {}
    }
    and_store_popcount_scalar(dst, a, b)
}

/// Fused popcount of the AND across arbitrarily many rows.
///
/// # Panics
/// Panics if `rows` is empty.
#[inline]
#[must_use]
pub fn and_rows_popcount(rows: &[&[u64]]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: dispatch verified the matching feature set at runtime.
    match active() {
        Dispatch::Avx512 => return unsafe { avx512::and_rows_popcount(rows) },
        Dispatch::Avx2 => return unsafe { x86::and_rows_popcount(rows) },
        Dispatch::Scalar => {}
    }
    and_rows_popcount_scalar(rows)
}

/// Parallel bit extract (BMI2 `PEXT` when available).
#[inline]
#[must_use]
pub fn pext(x: u64, mask: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: both upper tiers imply BMI2 (detection requires it for AVX2,
    // and AVX-512 selection requires the AVX2 set first).
    match active() {
        Dispatch::Avx512 | Dispatch::Avx2 => return unsafe { x86::pext(x, mask) },
        Dispatch::Scalar => {}
    }
    pext_scalar(x, mask)
}

/// Block sweep: `out[r] = popcount(partial & rows[r])` for every candidate
/// row. The fixed `partial` operand stays register/L1-resident while the
/// candidate rows stream past it, each row prefetched one iteration ahead.
/// Callers chunk `rows` to at most [`SWEEP_BLOCK`] entries so the pointer
/// block and result slots live on the stack.
#[inline]
pub fn and_popcount_block(partial: &[u64], rows: &[&[u64]], out: &mut [u32]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: dispatch verified the matching feature set at runtime.
    match active() {
        Dispatch::Avx512 => return unsafe { avx512::and_popcount_block(partial, rows, out) },
        Dispatch::Avx2 => return unsafe { x86::and_popcount_block(partial, rows, out) },
        Dispatch::Scalar => {}
    }
    and_popcount_block_scalar(partial, rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that pin the process-wide dispatch selection, so the
    /// parallel test runner can't interleave two force/release sequences.
    static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lcg_words(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            })
            .collect()
    }

    #[test]
    fn scalar_matches_naive_on_ragged_lengths() {
        for n in 0..10 {
            let a = lcg_words(n, 3);
            let b = lcg_words(n, 17);
            let c = lcg_words(n, 91);
            let naive_and: u32 = a.iter().zip(&b).map(|(x, y)| (x & y).count_ones()).sum();
            let naive3: u32 = a
                .iter()
                .zip(&b)
                .zip(&c)
                .map(|((x, y), z)| (x & y & z).count_ones())
                .sum();
            assert_eq!(and_popcount_scalar(&a, &b), naive_and, "n={n}");
            assert_eq!(and3_popcount_scalar(&a, &b, &c), naive3, "n={n}");
            assert_eq!(
                popcount_scalar(&a),
                a.iter().map(|w| w.count_ones()).sum::<u32>()
            );
            let mut dst = vec![0u64; n];
            assert_eq!(and_store_popcount_scalar(&mut dst, &a, &b), naive_and);
            for i in 0..n {
                assert_eq!(dst[i], a[i] & b[i]);
            }
        }
    }

    #[test]
    fn dispatched_matches_scalar() {
        // On x86_64 with AVX2 this exercises the vector path; elsewhere it
        // trivially passes (both sides scalar). The proptest suite covers
        // ragged widths more thoroughly.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 13, 64] {
            let a = lcg_words(n, 5);
            let b = lcg_words(n, 23);
            let c = lcg_words(n, 77);
            assert_eq!(popcount(&a), popcount_scalar(&a), "n={n}");
            assert_eq!(and_popcount(&a, &b), and_popcount_scalar(&a, &b), "n={n}");
            assert_eq!(
                and3_popcount(&a, &b, &c),
                and3_popcount_scalar(&a, &b, &c),
                "n={n}"
            );
            let mut d1 = vec![0u64; n];
            let mut d2 = vec![0u64; n];
            assert_eq!(
                and_store_popcount(&mut d1, &a, &b),
                and_store_popcount_scalar(&mut d2, &a, &b),
                "n={n}"
            );
            assert_eq!(d1, d2);
            let rows: Vec<&[u64]> = vec![&a, &b, &c, &a];
            if n > 0 {
                assert_eq!(
                    and_rows_popcount(&rows),
                    and_rows_popcount_scalar(&rows),
                    "n={n}"
                );
            }
        }
    }

    /// The `avx512` module's `target_feature` lists are sound only while
    /// `detect()` checks every feature they name before selecting the tier.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_tier_implies_its_target_features() {
        if detect() == Dispatch::Avx512 {
            assert!(std::arch::is_x86_feature_detected!("avx512f"));
            assert!(std::arch::is_x86_feature_detected!("avx512vpopcntdq"));
            assert!(std::arch::is_x86_feature_detected!("popcnt"));
        }
    }

    #[test]
    fn and_compact_matches_dense() {
        for n in [0usize, 1, 4, 7, 16] {
            let a = lcg_words(n, 11);
            let row = lcg_words(n, 29);
            // Seed the compact parent from `a`, dropping every third word to
            // simulate an already-sparse support.
            let mut pidx = Vec::new();
            let mut pval = Vec::new();
            for (i, &w) in a.iter().enumerate() {
                if i % 3 != 0 && w != 0 {
                    pidx.push(i as u32);
                    pval.push(w);
                }
            }
            let mut oidx = Vec::new();
            let mut oval = Vec::new();
            let pop = and_compact(&pidx, &pval, &row, &mut oidx, &mut oval);
            let want: u32 = pidx
                .iter()
                .zip(&pval)
                .map(|(&i, &v)| (v & row[i as usize]).count_ones())
                .sum();
            assert_eq!(pop, want, "n={n}");
            assert!(oval.iter().all(|&w| w != 0));
            assert!(oidx.windows(2).all(|w| w[0] < w[1]));
            for (&i, &v) in oidx.iter().zip(&oval) {
                let orig = pidx.iter().position(|&p| p == i).unwrap();
                assert_eq!(v, pval[orig] & row[i as usize]);
            }
        }
    }

    #[test]
    fn pext_matches_scalar_reference() {
        let xs = lcg_words(32, 9);
        let ms = lcg_words(32, 41);
        for (x, m) in xs.iter().zip(&ms) {
            assert_eq!(pext(*x, *m), pext_scalar(*x, *m));
        }
        assert_eq!(pext_scalar(0b1011, 0b1010), 0b11);
        assert_eq!(pext_scalar(u64::MAX, 0), 0);
        assert_eq!(pext_scalar(u64::MAX, u64::MAX), u64::MAX);
    }

    #[test]
    fn force_scalar_pins_and_releases() {
        let _guard = FORCE_LOCK.lock().unwrap();
        force_scalar(true);
        assert_eq!(active(), Dispatch::Scalar);
        force_scalar(false);
        // Whatever detection says, it must be stable across calls.
        assert_eq!(active(), active());
    }

    #[test]
    fn force_rejects_tiers_above_detection() {
        let _guard = FORCE_LOCK.lock().unwrap();
        let detected = {
            assert!(force(None));
            active()
        };
        // Pinning at or below the detected tier succeeds; above it fails and
        // leaves the selection unchanged.
        for want in [Dispatch::Scalar, Dispatch::Avx2, Dispatch::Avx512] {
            let ok = force(Some(want));
            if want <= detected {
                assert!(ok, "pin {want:?} under detected {detected:?}");
                assert_eq!(active(), want);
            } else {
                assert!(!ok, "pin {want:?} above detected {detected:?}");
            }
            assert!(force(None));
        }
        assert_eq!(active(), detected);
    }

    #[test]
    fn block_kernel_matches_per_row_scalar() {
        for n in [0usize, 1, 3, 7, 8, 9, 16, 33] {
            let partial = lcg_words(n, 101);
            let r0 = lcg_words(n, 7);
            let r1 = lcg_words(n, 19);
            let r2 = lcg_words(n, 55);
            for take in 0..=3usize {
                let rows: Vec<&[u64]> = [&r0[..], &r1[..], &r2[..]][..take].to_vec();
                let mut got = vec![0u32; take];
                and_popcount_block_scalar(&partial, &rows, &mut got);
                for (r, row) in rows.iter().enumerate() {
                    assert_eq!(got[r], and_popcount_scalar(&partial, row), "n={n} r={r}");
                }
                // Dispatched path (whatever tier is active) must agree.
                let mut disp = vec![0u32; take];
                and_popcount_block(&partial, &rows, &mut disp);
                assert_eq!(disp, got, "n={n} take={take}");
            }
        }
    }

    #[test]
    fn block_kernel_identical_across_forced_tiers() {
        let _guard = FORCE_LOCK.lock().unwrap();
        let detected = {
            assert!(force(None));
            active()
        };
        let n = 37; // ragged: exercises 8-word vector body + remainder step
        let partial = lcg_words(n, 13);
        let rows_owned: Vec<Vec<u64>> = (0..SWEEP_BLOCK as u64)
            .map(|s| lcg_words(n, 200 + s))
            .collect();
        let rows: Vec<&[u64]> = rows_owned.iter().map(Vec::as_slice).collect();
        let mut reference = vec![0u32; rows.len()];
        and_popcount_block_scalar(&partial, &rows, &mut reference);
        for tier in [Dispatch::Scalar, Dispatch::Avx2, Dispatch::Avx512] {
            if !force(Some(tier)) {
                continue; // host lacks this tier
            }
            let mut got = vec![0u32; rows.len()];
            and_popcount_block(&partial, &rows, &mut got);
            assert_eq!(got, reference, "tier={tier:?}");
        }
        assert!(force(None));
        assert_eq!(active(), detected);
    }

    #[test]
    fn compact_block_matches_and_compact() {
        for n in [1usize, 4, 9, 16] {
            let a = lcg_words(n, 31);
            let mut pidx = Vec::new();
            let mut pval = Vec::new();
            for (i, &w) in a.iter().enumerate() {
                if i % 2 == 0 && w != 0 {
                    pidx.push(i as u32);
                    pval.push(w);
                }
            }
            let rows_owned: Vec<Vec<u64>> = (0..5u64).map(|s| lcg_words(n, 400 + s)).collect();
            let rows: Vec<&[u64]> = rows_owned.iter().map(Vec::as_slice).collect();
            let mut got = vec![0u32; rows.len()];
            and_compact_popcount_block(&pidx, &pval, &rows, &mut got);
            let (mut oidx, mut oval) = (Vec::new(), Vec::new());
            for (r, row) in rows.iter().enumerate() {
                let want = and_compact(&pidx, &pval, row, &mut oidx, &mut oval);
                assert_eq!(got[r], want, "n={n} r={r}");
            }
        }
    }
}
