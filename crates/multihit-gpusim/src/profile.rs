//! Aggregate work profiles of kernel launches, computed in `O(G)`.
//!
//! A *work profile* summarizes what a contiguous λ-range of threads will do:
//! thread count, combination count, global-memory word traffic, and
//! arithmetic ops — derived from the kernel structure (with the MemOpt
//! prefetching of §III-D applied), never by enumeration. This is what makes
//! paper-scale modeling (`G = 19411`, 10¹² threads) instantaneous: the work
//! collapses onto the `O(G)` discrete levels of [`multihit_core::sweep`].
//!
//! Kernel structure assumed (per thread, both matrices, `w = wt + wn` words
//! per gene-row pair):
//!
//! * `3x1` (Algorithm 3): prefetch rows `i,j,k` (3w) and fold their AND
//!   (2w ops); for each of `T = G−1−k` inner values of `l`: read row `l`
//!   (w), AND + popcount (2w ops).
//! * `2x2` (Algorithm 2): prefetch `i,j` (2w), fold (w ops); per `k`: read
//!   row `k` (w), fold (w); per `(k,l)`: read `l` (w), AND+popcount (2w).
//! * `1x3` / `4x1`: analogous with one less / one more prefetched level.

use multihit_core::combin::{binomial, tet, tri};
use multihit_core::schemes::Scheme4;

/// One discrete workload level of a kernel launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelLevel {
    /// First λ of the level.
    pub lambda_start: u64,
    /// Threads in the level.
    pub n_threads: u64,
    /// Inner-loop trip count `T` of each thread in the level.
    pub inner_len: u64,
    /// Combinations evaluated per thread.
    pub combos_per_thread: u64,
}

/// Aggregate profile of a λ-range.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkProfile {
    /// Threads launched.
    pub n_threads: u64,
    /// Combinations evaluated.
    pub combos: u64,
    /// Global words read inside inner loops.
    pub inner_words: u64,
    /// Global words read by per-thread prefetches.
    pub prefetch_words: u64,
    /// Integer ops (ANDs + popcounts), word granularity.
    pub ops: u64,
    /// Σ over threads of `1/(T+1)` — used to characterize how short-looped
    /// the range is (high ⇒ many tiny threads).
    pub inv_inner_sum: f64,
}

impl WorkProfile {
    /// Total global words (inner + prefetch).
    #[must_use]
    pub fn total_words(&self) -> u64 {
        self.inner_words + self.prefetch_words
    }

    /// Total global bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total_words() * 8
    }

    /// Mean inner-loop length over threads (0 for an empty profile).
    #[must_use]
    pub fn mean_inner_len(&self) -> f64 {
        if self.n_threads == 0 {
            0.0
        } else {
            // Harmonic characterization: T̄ = n/Σ 1/(T+1) − 1 emphasizes the
            // short threads that dominate latency behavior.
            self.n_threads as f64 / self.inv_inner_sum - 1.0
        }
    }

    /// Merge two profiles (disjoint ranges).
    #[must_use]
    pub fn merge(self, other: WorkProfile) -> WorkProfile {
        WorkProfile {
            n_threads: self.n_threads + other.n_threads,
            combos: self.combos + other.combos,
            inner_words: self.inner_words + other.inner_words,
            prefetch_words: self.prefetch_words + other.prefetch_words,
            ops: self.ops + other.ops,
            inv_inner_sum: self.inv_inner_sum + other.inv_inner_sum,
        }
    }
}

/// The kernel levels of a 4-hit scheme (ascending λ).
#[must_use]
pub fn kernel_levels4(scheme: Scheme4, g: u32) -> Vec<KernelLevel> {
    let gu = u64::from(g);
    match scheme {
        Scheme4::OneXThree => (0..gu)
            .map(|i| KernelLevel {
                lambda_start: i,
                n_threads: 1,
                inner_len: gu - 1 - i,
                combos_per_thread: binomial(gu - 1 - i, 3),
            })
            .collect(),
        Scheme4::TwoXTwo => (1..gu)
            .map(|j| KernelLevel {
                lambda_start: tri(j),
                n_threads: j,
                inner_len: gu - 1 - j,
                combos_per_thread: tri(gu - 1 - j),
            })
            .collect(),
        Scheme4::ThreeXOne => (2..gu)
            .map(|k| KernelLevel {
                lambda_start: tet(k),
                n_threads: tri(k),
                inner_len: gu - 1 - k,
                combos_per_thread: gu - 1 - k,
            })
            .collect(),
        Scheme4::FourXOne => vec![KernelLevel {
            lambda_start: 0,
            n_threads: binomial(gu, 4),
            inner_len: 1,
            combos_per_thread: 1,
        }],
    }
}

/// Prefetched rows per thread for a scheme (the fixed tuple coordinates).
#[must_use]
pub fn prefetch_depth4(scheme: Scheme4) -> u64 {
    match scheme {
        Scheme4::OneXThree => 1,
        Scheme4::TwoXTwo => 2,
        Scheme4::ThreeXOne => 3,
        Scheme4::FourXOne => 0,
    }
}

/// Accumulate the profile of the λ-range `[lo, hi)` over precomputed levels.
///
/// `w` is the combined words per gene-row pair (tumor + normal). `prefetch`
/// is the number of rows prefetched per thread. For schemes with a 2-deep
/// inner loop (`2x2`, `1x3`) the per-`k` row reads are accounted as
/// `inner_len` extra words per thread (`2x2`) per the kernel structure.
#[must_use]
fn profile_levels(
    levels: &[KernelLevel],
    lo: u64,
    hi: u64,
    w: u64,
    prefetch: u64,
    mid_loop_reads: bool,
) -> WorkProfile {
    let mut p = WorkProfile::default();
    for lv in levels {
        let s = lv.lambda_start.max(lo);
        let e = (lv.lambda_start + lv.n_threads).min(hi);
        if s < e {
            accumulate(&mut p, e - s, lv, w, prefetch, mid_loop_reads);
        }
    }
    p
}

/// Add `n` threads of level `lv` into a profile.
#[inline]
fn accumulate(
    p: &mut WorkProfile,
    n: u64,
    lv: &KernelLevel,
    w: u64,
    prefetch: u64,
    mid_loop_reads: bool,
) {
    let t = lv.inner_len;
    let c = lv.combos_per_thread;
    p.n_threads += n;
    p.combos += n * c;
    // Inner reads: one row per combination, plus (for 2-deep inner loops)
    // one row per middle-loop iteration.
    let mut inner = n * c * w;
    let mut ops = n * c * 2 * w + n * prefetch.saturating_sub(1) * w;
    if mid_loop_reads {
        inner += n * t * w;
        ops += n * t * w;
    }
    p.inner_words += inner;
    p.prefetch_words += n * prefetch * w;
    p.ops += ops;
    p.inv_inner_sum += n as f64 / (t as f64 + 1.0);
}

/// Inner-loop trip count of thread λ under a 4-hit scheme (the `T` of the
/// kernel levels; distinct from `Scheme4::workload`, which counts
/// *combinations*). Thread-index decode follows the GPU float path
/// (`unrank_*_fast`): the paper's float formulas inside their verified
/// accuracy domain, the exact integer maps beyond it.
#[must_use]
pub fn inner_len4(scheme: Scheme4, lambda: u64, g: u32) -> u64 {
    let gu = u64::from(g);
    match scheme {
        Scheme4::OneXThree => gu - 1 - lambda,
        Scheme4::TwoXTwo => {
            let (_i, j) = multihit_core::combin::unrank_pair_fast(lambda);
            gu - 1 - u64::from(j)
        }
        Scheme4::ThreeXOne => {
            let (_i, _j, k) = multihit_core::combin::unrank_triple_fast(lambda);
            gu - 1 - u64::from(k)
        }
        Scheme4::FourXOne => 1,
    }
}

/// Profile many contiguous, sorted, disjoint λ-ranges in a single pass over
/// the levels: `O(G + P)` total instead of `O(G·P)`. Ranges must be
/// ascending by `lo`; gaps are allowed.
#[must_use]
pub fn profile_partitions(
    levels: &[KernelLevel],
    bounds: &[(u64, u64)],
    w: u64,
    prefetch: u64,
    mid_loop_reads: bool,
) -> Vec<WorkProfile> {
    debug_assert!(
        bounds.windows(2).all(|b| b[0].1 <= b[1].0),
        "ranges must be sorted/disjoint"
    );
    let mut out = vec![WorkProfile::default(); bounds.len()];
    let mut p = 0usize;
    for lv in levels {
        let lv_end = lv.lambda_start + lv.n_threads;
        // Skip partitions that end before this level starts.
        while p < bounds.len() && bounds[p].1 <= lv.lambda_start {
            p += 1;
        }
        let mut q = p;
        while q < bounds.len() && bounds[q].0 < lv_end {
            let (lo, hi) = bounds[q];
            let s = lv.lambda_start.max(lo);
            let e = lv_end.min(hi);
            if s < e {
                accumulate(&mut out[q], e - s, lv, w, prefetch, mid_loop_reads);
            }
            q += 1;
        }
        // The last overlapping partition may continue into the next level.
        p = q.saturating_sub(1).max(p);
    }
    out
}

/// Convenience: profile a λ-range of a 4-hit scheme directly.
#[must_use]
pub fn profile_range4(scheme: Scheme4, g: u32, w: u64, lo: u64, hi: u64) -> WorkProfile {
    let levels = kernel_levels4(scheme, g);
    profile_levels(
        &levels,
        lo,
        hi,
        w,
        prefetch_depth4(scheme),
        matches!(scheme, Scheme4::TwoXTwo | Scheme4::OneXThree),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_levels_agree_with_sweep_levels() {
        let g = 29;
        for scheme in Scheme4::ALL {
            let mine = kernel_levels4(scheme, g);
            let sweeps = multihit_core::sweep::levels_scheme4(scheme, g);
            assert_eq!(mine.len(), sweeps.len(), "{}", scheme.name());
            for (a, b) in mine.iter().zip(&sweeps) {
                assert_eq!(a.lambda_start, b.lambda_start);
                assert_eq!(a.n_threads, b.n_threads);
                assert_eq!(a.combos_per_thread, b.work_per_thread);
            }
        }
    }

    #[test]
    fn full_range_profile_counts_every_combination() {
        let g = 25;
        for scheme in [Scheme4::TwoXTwo, Scheme4::ThreeXOne] {
            let p = profile_range4(scheme, g, 4, 0, scheme.thread_count(g));
            assert_eq!(p.combos, binomial(u64::from(g), 4), "{}", scheme.name());
            assert_eq!(p.n_threads, scheme.thread_count(g));
        }
    }

    #[test]
    fn profile_is_additive_over_subranges() {
        let g = 40;
        let scheme = Scheme4::ThreeXOne;
        let n = scheme.thread_count(g);
        let whole = profile_range4(scheme, g, 3, 0, n);
        let a = profile_range4(scheme, g, 3, 0, n / 3);
        let b = profile_range4(scheme, g, 3, n / 3, n);
        let merged = a.merge(b);
        assert_eq!(merged.combos, whole.combos);
        assert_eq!(merged.inner_words, whole.inner_words);
        assert_eq!(merged.prefetch_words, whole.prefetch_words);
        assert_eq!(merged.ops, whole.ops);
        assert!((merged.inv_inner_sum - whole.inv_inner_sum).abs() < 1e-9);
    }

    #[test]
    fn three_x_one_traffic_matches_closed_form() {
        // 3x1 full scan: inner words = C(G,4)·w ; prefetch = 3·C(G,3)·w.
        let g = 30u32;
        let w = 5u64;
        let p = profile_range4(Scheme4::ThreeXOne, g, w, 0, tet(30));
        assert_eq!(p.inner_words, binomial(30, 4) * w);
        assert_eq!(p.prefetch_words, 3 * tet(30) * w);
    }

    #[test]
    fn two_x_two_counts_mid_loop_reads() {
        // 2x2 inner words = (C(G,4) + Σ_j j·(G−1−j))·w
        //                 = (C(G,4) + Σ threads·T)·w.
        let g = 20u32;
        let w = 2u64;
        let p = profile_range4(Scheme4::TwoXTwo, g, w, 0, tri(20));
        let mid: u64 = (1..20u64).map(|j| j * (19 - j)).sum();
        assert_eq!(p.inner_words, (binomial(20, 4) + mid) * w);
        assert_eq!(p.prefetch_words, 2 * tri(20) * w);
    }

    #[test]
    fn late_ranges_are_short_looped() {
        // The tail of the 3x1 λ-range has smaller mean inner length than the
        // head — the memory-irregularity gradient behind Fig 6.
        let g = 200;
        let scheme = Scheme4::ThreeXOne;
        let n = scheme.thread_count(g);
        let head = profile_range4(scheme, g, 1, 0, n / 10);
        let tail = profile_range4(scheme, g, 1, 9 * n / 10, n);
        assert!(head.mean_inner_len() > tail.mean_inner_len());
    }

    #[test]
    fn profile_partitions_matches_per_range_profiles() {
        let g = 60;
        let scheme = Scheme4::ThreeXOne;
        let n = scheme.thread_count(g);
        let levels = kernel_levels4(scheme, g);
        // Contiguous partitions, plus a variant with gaps.
        let cuts = [0, n / 7, n / 3, n / 2, n - 5, n];
        let bounds: Vec<(u64, u64)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
        let batch = profile_partitions(&levels, &bounds, 5, 3, false);
        for (b, &(lo, hi)) in batch.iter().zip(&bounds) {
            let single = profile_range4(scheme, g, 5, lo, hi);
            assert_eq!(b, &single, "[{lo},{hi})");
        }
        let gappy = vec![(10u64, 20u64), (50, 50), (100, n / 2)];
        let batch = profile_partitions(&levels, &gappy, 2, 3, false);
        for (b, &(lo, hi)) in batch.iter().zip(&gappy) {
            assert_eq!(b, &profile_range4(scheme, g, 2, lo, hi), "[{lo},{hi})");
        }
    }

    #[test]
    fn empty_range_is_zero() {
        let p = profile_range4(Scheme4::ThreeXOne, 30, 4, 10, 10);
        assert_eq!(p, WorkProfile::default());
        assert_eq!(p.mean_inner_len(), 0.0);
    }

    #[test]
    fn paper_scale_profile_is_fast_and_finite() {
        // G = 19411 (BRCA), full 3x1 range: must compute in O(G) with no
        // overflow. (~1.2e12 threads, ~5.9e15 combos.)
        let g = 19411u32;
        let scheme = Scheme4::ThreeXOne;
        let n = scheme.thread_count(g);
        let w = u64::from(911u32.div_ceil(64)) + u64::from(329u32.div_ceil(64));
        let p = profile_range4(scheme, g, w, 0, n);
        assert_eq!(p.combos, binomial(19411, 4));
        assert!(p.total_bytes() > 0);
        assert!(p.mean_inner_len() > 0.0);
    }
}
