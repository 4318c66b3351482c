//! Functional execution of the `maxF` / `parallelReduceMax` kernel pair on a
//! simulated GPU.
//!
//! [`run_maxf4`] executes a contiguous λ-range of the chosen 4-hit
//! scheme *literally*: each simulated thread prefetches the rows of its
//! fixed tuple coordinates (the MemOpt path), folds their AND once into a
//! reusable per-rank scratch, block-sweeps the streamed last coordinate
//! through [`kernel::and_popcount_block`] in
//! [`kernel::SWEEP_BLOCK`]-sized batches, and keeps its running best;
//! per-block (512-thread) single-stage reduction then the multi-stage tree
//! reduction produce the GPU's single 20-byte record — exactly the paper's
//! §III-E pipeline.
//!
//! Alongside the result, the executor audits its global traffic and emits
//! the [`WorkProfile`] the cost model consumes, so tests can assert the
//! analytic profile matches actual execution word for word.
//!
//! This is the audited *exhaustive* reference — what the cost model prices
//! and the benches time. The functional cluster ranks do not run it: they
//! score their slabs through [`multihit_core::greedy::scan_slab4`], which
//! hands them to the popcount-ordered, bound-pruned scan `discover` runs.

use crate::profile::WorkProfile;
use multihit_core::bitmat::BitMatrix;
use multihit_core::kernel;
use multihit_core::reduce::{gpu_reduce, ReduceStats};
use multihit_core::schemes::Scheme4;
use multihit_core::weight::{Alpha, Scored};

/// Outcome of executing one λ-range on one simulated GPU.
#[derive(Clone, Copy, Debug)]
pub struct ExecOutcome<const H: usize> {
    /// The GPU's single reduced record.
    pub best: Scored<H>,
    /// Audited work profile (drives the cost model).
    pub profile: WorkProfile,
    /// Reduction accounting (block records, tree stages).
    pub reduce: ReduceStats,
    /// Block-kernel invocations used to stream the last coordinate. Lives
    /// here rather than on [`WorkProfile`] because the profile is audited
    /// word-for-word against the analytic model, which is
    /// chunking-agnostic.
    pub block_sweeps: u64,
}

fn fold_and(dst: &mut [u64], row: &[u64]) {
    for (d, r) in dst.iter_mut().zip(row) {
        *d &= r;
    }
}

/// Reusable fold-partial scratch for one rank's kernel launches: the
/// prefix-AND accumulators are allocated once per executor call and rebuilt
/// in place per prefix, so the thread loop performs no heap allocation.
struct FoldScratch {
    acc_t: Vec<u64>,
    acc_n: Vec<u64>,
}

impl FoldScratch {
    fn new(wt: usize, wn: usize) -> Self {
        FoldScratch {
            acc_t: vec![u64::MAX; wt],
            acc_n: vec![u64::MAX; wn],
        }
    }

    /// Rebuild both partials as the AND of `prefix`'s rows.
    fn rebuild(&mut self, tumor: &BitMatrix, normal: &BitMatrix, prefix: &[u32]) {
        self.acc_t.fill(u64::MAX);
        self.acc_n.fill(u64::MAX);
        for &gene in prefix {
            fold_and(&mut self.acc_t, tumor.row(gene as usize));
            fold_and(&mut self.acc_n, normal.row(gene as usize));
        }
    }
}

/// Score the streamed last coordinates `range` against the prefix partials
/// in [`kernel::SWEEP_BLOCK`]-sized batches through the block kernels,
/// handing each scored combination to `emit`. Returns the number of block
/// kernel invocations (counted per matrix pair, not per side).
fn sweep_last_coord<E: FnMut(u32, u32, u32)>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    scratch: &FoldScratch,
    range: std::ops::Range<u32>,
    n_norm: u32,
    mut emit: E,
) -> u64 {
    let mut sweeps = 0u64;
    let mut rows_t: [&[u64]; kernel::SWEEP_BLOCK] = [&[]; kernel::SWEEP_BLOCK];
    let mut rows_n: [&[u64]; kernel::SWEEP_BLOCK] = [&[]; kernel::SWEEP_BLOCK];
    let mut out_t = [0u32; kernel::SWEEP_BLOCK];
    let mut out_n = [0u32; kernel::SWEEP_BLOCK];
    let mut base = range.start;
    while base < range.end {
        let chunk = ((range.end - base) as usize).min(kernel::SWEEP_BLOCK);
        for r in 0..chunk {
            rows_t[r] = tumor.row((base + r as u32) as usize);
            rows_n[r] = normal.row((base + r as u32) as usize);
        }
        kernel::and_popcount_block(&scratch.acc_t, &rows_t[..chunk], &mut out_t[..chunk]);
        kernel::and_popcount_block(&scratch.acc_n, &rows_n[..chunk], &mut out_n[..chunk]);
        sweeps += 1;
        for r in 0..chunk {
            emit(base + r as u32, out_t[r], n_norm - out_n[r]);
        }
        base += chunk as u32;
    }
    sweeps
}

/// Execute the 4-hit `maxF` kernel over threads `[lo, hi)` of `scheme`.
///
/// # Panics
/// Panics if the matrices disagree on gene count.
#[must_use]
pub fn run_maxf4(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    alpha: Alpha,
    scheme: Scheme4,
    lo: u64,
    hi: u64,
    block_size: usize,
) -> ExecOutcome<4> {
    assert_eq!(tumor.n_genes(), normal.n_genes());
    let g = tumor.n_genes() as u32;
    let wt = tumor.words_per_row();
    let wn = normal.words_per_row();
    let w = (wt + wn) as u64;
    let n_norm = normal.n_samples() as u32;

    let mut profile = WorkProfile::default();
    let mut block_sweeps = 0u64;
    // Fold-partial scratch is hoisted out of the thread loop and rebuilt in
    // place per prefix — no allocation inside the λ loop.
    let mut scratch = FoldScratch::new(wt, wn);
    let per_thread: Vec<Scored<4>> = (lo..hi)
        .map(|lambda| {
            let mut best = Scored::NEG_INFINITY;
            let mut inner = 0u64;
            // Thread body: prefetch the fixed coordinates once per prefix,
            // then block-sweep the streamed last coordinate against the
            // register-resident partial.
            scheme.for_each_prefix(lambda, g, |fx, range| {
                // (Re)build the prefetched partial AND. For 3x1 this
                // happens once per thread; for 2x2, once per k.
                scratch.rebuild(tumor, normal, &fx);
                block_sweeps +=
                    sweep_last_coord(tumor, normal, &scratch, range, n_norm, |last, tp, tn| {
                        inner += 1;
                        best = best.max_det(Scored {
                            score: alpha.score(tp, tn),
                            tp,
                            tn,
                            genes: [fx[0], fx[1], fx[2], last],
                        });
                    });
            });
            profile.n_threads += 1;
            profile.combos += inner;
            profile.inner_words += inner * w;
            profile.prefetch_words += crate::profile::prefetch_depth4(scheme) * w;
            profile.ops += inner * 2 * w;
            let t = crate::profile::inner_len4(scheme, lambda, g);
            profile.inv_inner_sum += 1.0 / (t as f64 + 1.0);
            best
        })
        .collect();

    let (best, reduce) = gpu_reduce(&per_thread, block_size);
    ExecOutcome {
        best,
        profile,
        reduce,
        block_sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihit_core::combin::binomial;
    use multihit_core::greedy::{best_combination_stats, GreedyConfig};
    use multihit_core::reduce::rank0_reduce;

    fn lcg_matrices(g: usize, nt: usize, nn: usize, seed: u64) -> (BitMatrix, BitMatrix) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut t = BitMatrix::zeros(g, nt);
        let mut n = BitMatrix::zeros(g, nn);
        for gene in 0..g {
            for s in 0..nt {
                if next() % 2 == 0 {
                    t.set(gene, s, true);
                }
            }
            for s in 0..nn {
                if next() % 5 == 0 {
                    n.set(gene, s, true);
                }
            }
        }
        (t, n)
    }

    #[test]
    fn kernel_matches_reference_for_both_schemes() {
        let (t, n) = lcg_matrices(12, 96, 64, 4);
        let cfg = GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        };
        let expect = best_combination_stats::<4>(&t, &n, None, &cfg).0;
        for scheme in [Scheme4::TwoXTwo, Scheme4::ThreeXOne] {
            let nthreads = scheme.thread_count(12);
            let out = run_maxf4(&t, &n, Alpha::PAPER, scheme, 0, nthreads, 512);
            assert_eq!(out.best, expect, "{}", scheme.name());
            assert_eq!(out.profile.combos, binomial(12, 4));
        }
    }

    #[test]
    fn split_ranges_reduce_to_the_same_winner() {
        let (t, n) = lcg_matrices(11, 64, 64, 17);
        let scheme = Scheme4::ThreeXOne;
        let total = scheme.thread_count(11);
        let whole = run_maxf4(&t, &n, Alpha::PAPER, scheme, 0, total, 512);
        let cuts = [0, total / 5, total / 2, 3 * total / 4, total];
        let ranges: Vec<(u64, u64)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
        let outs: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| run_maxf4(&t, &n, Alpha::PAPER, scheme, lo, hi, 128))
            .collect();
        let per_gpu: Vec<_> = outs.iter().map(|o| o.best).collect();
        assert_eq!(rank0_reduce(&per_gpu), whole.best);
        let combos: u64 = outs.iter().map(|o| o.profile.combos).sum();
        assert_eq!(combos, whole.profile.combos);
    }

    #[test]
    fn audited_profile_matches_analytic_profile() {
        let (t, n) = lcg_matrices(15, 128, 64, 3);
        let w = (t.words_per_row() + n.words_per_row()) as u64;
        for scheme in [Scheme4::ThreeXOne, Scheme4::TwoXTwo] {
            let total = scheme.thread_count(15);
            let lo = total / 4;
            let hi = 3 * total / 4;
            let out = run_maxf4(&t, &n, Alpha::PAPER, scheme, lo, hi, 512);
            let analytic = crate::profile::profile_range4(scheme, 15, w, lo, hi);
            assert_eq!(
                out.profile.n_threads,
                analytic.n_threads,
                "{}",
                scheme.name()
            );
            assert_eq!(out.profile.combos, analytic.combos, "{}", scheme.name());
            assert_eq!(
                out.profile.prefetch_words,
                analytic.prefetch_words,
                "{}",
                scheme.name()
            );
            assert!(
                (out.profile.inv_inner_sum - analytic.inv_inner_sum).abs() < 1e-9,
                "{}",
                scheme.name()
            );
            if scheme == Scheme4::ThreeXOne {
                // 3x1 audits inner reads identically; 2x2's audit counts the
                // mid-loop rebuild via the prefetch path instead.
                assert_eq!(out.profile.inner_words, analytic.inner_words);
            }
        }
    }

    #[test]
    fn block_sweep_count_matches_chunk_arithmetic() {
        let (t, n) = lcg_matrices(40, 64, 32, 11);
        let g = 40u32;
        for scheme in [Scheme4::TwoXTwo, Scheme4::ThreeXOne, Scheme4::FourXOne] {
            let total = scheme.thread_count(g);
            let out = run_maxf4(&t, &n, Alpha::PAPER, scheme, 0, total, 512);
            let mut expect = 0u64;
            for l in 0..total {
                scheme.for_each_prefix(l, g, |_, range| {
                    expect +=
                        u64::from(range.end - range.start).div_ceil(kernel::SWEEP_BLOCK as u64);
                });
            }
            assert_eq!(out.block_sweeps, expect, "{}", scheme.name());
            assert!(out.block_sweeps > 0, "{}", scheme.name());
        }
    }

    #[test]
    fn block_records_follow_thread_count() {
        let (t, n) = lcg_matrices(10, 64, 32, 6);
        let scheme = Scheme4::ThreeXOne;
        let total = scheme.thread_count(10); // 120 threads
        let out = run_maxf4(&t, &n, Alpha::PAPER, scheme, 0, total, 32);
        assert_eq!(out.reduce.block_records, total.div_ceil(32));
    }
}
