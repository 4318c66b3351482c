//! Memory-access optimizations for the combination-scoring kernel (§III-D)
//! and the instrumentation behind the paper's Fig 5 ablation.
//!
//! Within a `2x1`-scheme 3-hit thread, genes `i` and `j` are fixed while `k`
//! sweeps `j+1..G`. The paper's three optimizations:
//!
//! * **MemOpt1** — prefetch gene `i`'s row from global memory into the
//!   thread's local memory once, instead of re-reading it for every `k`;
//! * **MemOpt2** — additionally prefetch gene `j`'s row. On a CPU we realize
//!   the prefetch as hoisting the `row(i) & row(j)` partial AND out of the
//!   inner loop, which is exactly the data reuse the GPU prefetch buys;
//! * **BitSplicing** — physically remove covered sample columns between
//!   greedy iterations ([`crate::bitmat::BitMatrix::splice_columns`]), so
//!   every inner-loop word count shrinks; with every 64 samples excluded,
//!   three bitwise ANDs disappear per combination.
//!
//! Each variant is a separately callable scan so the ablation bench measures
//! real wall time, and every scan also *audits* its global-memory word
//! traffic ([`AccessStats`]) which feeds the GPU cost model.

use crate::bitmat::BitMatrix;
use crate::combin::unrank_pair;
use crate::kernel;
use crate::weight::{score_combo, Alpha, Scored};

/// Which prefetch level the scoring kernel runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemOptLevel {
    /// Re-read all rows from global memory every inner iteration.
    NoOpt,
    /// Prefetch gene `i`'s row (MemOpt1).
    Prefetch1,
    /// Prefetch gene `i` and `j`'s rows (MemOpt1 + MemOpt2).
    Prefetch2,
}

impl MemOptLevel {
    /// All levels in ablation order.
    pub const ALL: [MemOptLevel; 3] = [
        MemOptLevel::NoOpt,
        MemOptLevel::Prefetch1,
        MemOptLevel::Prefetch2,
    ];

    /// Display name matching the paper's figure labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MemOptLevel::NoOpt => "NoOpt",
            MemOptLevel::Prefetch1 => "MemOpt1",
            MemOptLevel::Prefetch2 => "MemOpt1+2",
        }
    }
}

/// Global-memory word traffic of one scan, in 64-bit words.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Words read from global memory inside inner loops.
    pub inner_reads: u64,
    /// Words read once per thread while prefetching.
    pub prefetch_reads: u64,
    /// Bitwise AND ops executed (arithmetic proxy).
    pub and_ops: u64,
}

/// Result of a full 3-hit scan: the best triple plus the traffic audit.
#[derive(Clone, Copy, Debug)]
pub struct ScanResult {
    /// The argmax-F triple under the deterministic order.
    pub best: Scored<3>,
    /// Global-memory audit for the whole scan.
    pub stats: AccessStats,
}

/// Scan every 3-hit combination of `g` genes with the given prefetch level,
/// returning the best triple and the access audit.
///
/// Semantically identical across levels (asserted by tests); only the data
/// movement differs.
#[must_use]
pub fn scan_3hit(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    alpha: Alpha,
    level: MemOptLevel,
) -> ScanResult {
    let g = tumor.n_genes() as u32;
    let wt = tumor.words_per_row() as u64;
    let wn = normal.words_per_row() as u64;
    let n_norm = normal.n_samples() as u32;
    let threads = crate::combin::tri(u64::from(g));
    let mut best = Scored::NEG_INFINITY;
    let mut stats = AccessStats::default();

    // Reusable thread-local prefetch buffers (the GPU's per-thread local
    // memory); hoisted out of the λ loop to avoid re-allocation.
    let mut local_t = vec![0u64; tumor.words_per_row()];
    let mut local_n = vec![0u64; normal.words_per_row()];

    for lambda in 0..threads {
        let (i, j) = unrank_pair(lambda);
        match level {
            MemOptLevel::NoOpt => {
                for k in j + 1..g {
                    // Reads rows i, j, k for both matrices, every iteration.
                    let s = score_combo(tumor, normal, &[i, j, k], alpha);
                    stats.inner_reads += 3 * (wt + wn);
                    stats.and_ops += 2 * (wt + wn);
                    best = best.max_det(s);
                }
            }
            MemOptLevel::Prefetch1 => {
                // Prefetch row i once; rows j and k stay in global memory.
                local_t.copy_from_slice(tumor.row(i as usize));
                local_n.copy_from_slice(normal.row(i as usize));
                stats.prefetch_reads += wt + wn;
                for k in j + 1..g {
                    let (tp, cn) = and3_counts(
                        &local_t,
                        tumor.row(j as usize),
                        tumor.row(k as usize),
                        &local_n,
                        normal.row(j as usize),
                        normal.row(k as usize),
                    );
                    stats.inner_reads += 2 * (wt + wn);
                    stats.and_ops += 2 * (wt + wn);
                    let tn = n_norm - cn;
                    let s = Scored {
                        score: alpha.score(tp, tn),
                        tp,
                        tn,
                        genes: [i, j, k],
                    };
                    best = best.max_det(s);
                }
            }
            MemOptLevel::Prefetch2 => {
                // Prefetch rows i and j and fold their AND once: the inner
                // loop touches a single global row per matrix.
                for (dst, (a, b)) in local_t
                    .iter_mut()
                    .zip(tumor.row(i as usize).iter().zip(tumor.row(j as usize)))
                {
                    *dst = a & b;
                }
                for (dst, (a, b)) in local_n
                    .iter_mut()
                    .zip(normal.row(i as usize).iter().zip(normal.row(j as usize)))
                {
                    *dst = a & b;
                }
                stats.prefetch_reads += 2 * (wt + wn);
                stats.and_ops += wt + wn;
                for k in j + 1..g {
                    let tp = kernel::and_popcount(&local_t, tumor.row(k as usize));
                    let cn = kernel::and_popcount(&local_n, normal.row(k as usize));
                    stats.inner_reads += wt + wn;
                    stats.and_ops += wt + wn;
                    let tn = n_norm - cn;
                    let s = Scored {
                        score: alpha.score(tp, tn),
                        tp,
                        tn,
                        genes: [i, j, k],
                    };
                    best = best.max_det(s);
                }
            }
        }
    }
    ScanResult { best, stats }
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn and3_counts(
    t_a: &[u64],
    t_b: &[u64],
    t_c: &[u64],
    n_a: &[u64],
    n_b: &[u64],
    n_c: &[u64],
) -> (u32, u32) {
    (
        kernel::and3_popcount(t_a, t_b, t_c),
        kernel::and3_popcount(n_a, n_b, n_c),
    )
}

/// Modeled inner-loop global reads for a full 3-hit scan at `g` genes and
/// `w` words per row, per level — the closed forms behind the Fig 5 model
/// rows (both matrices assumed `w` words for simplicity).
#[must_use]
pub fn modeled_inner_reads(g: u64, w: u64, level: MemOptLevel) -> u64 {
    let combos = crate::combin::tet(g);
    match level {
        MemOptLevel::NoOpt => 3 * combos * 2 * w,
        MemOptLevel::Prefetch1 => 2 * combos * 2 * w,
        MemOptLevel::Prefetch2 => combos * 2 * w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_matrices(g: usize, nt: usize, nn: usize, seed: u64) -> (BitMatrix, BitMatrix) {
        // Tiny deterministic LCG so the test needs no rand dependency here.
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
                if next() % 3 == 0 {
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
    fn all_levels_agree_on_the_winner() {
        let (t, n) = random_matrices(14, 90, 70, 42);
        let base = scan_3hit(&t, &n, Alpha::PAPER, MemOptLevel::NoOpt);
        for level in [MemOptLevel::Prefetch1, MemOptLevel::Prefetch2] {
            let r = scan_3hit(&t, &n, Alpha::PAPER, level);
            assert_eq!(r.best, base.best, "{}", level.name());
        }
    }

    #[test]
    fn winner_matches_brute_force() {
        let (t, n) = random_matrices(12, 60, 40, 7);
        let mut expect = Scored::NEG_INFINITY;
        for i in 0..12u32 {
            for j in i + 1..12 {
                for k in j + 1..12 {
                    expect = expect.max_det(score_combo(&t, &n, &[i, j, k], Alpha::PAPER));
                }
            }
        }
        let got = scan_3hit(&t, &n, Alpha::PAPER, MemOptLevel::Prefetch2);
        assert_eq!(got.best, expect);
    }

    #[test]
    fn inner_reads_drop_3_to_2_to_1() {
        let (t, n) = random_matrices(16, 64, 64, 3);
        let r0 = scan_3hit(&t, &n, Alpha::PAPER, MemOptLevel::NoOpt);
        let r1 = scan_3hit(&t, &n, Alpha::PAPER, MemOptLevel::Prefetch1);
        let r2 = scan_3hit(&t, &n, Alpha::PAPER, MemOptLevel::Prefetch2);
        // Exact 3:2:1 ratio of inner-loop global reads.
        assert_eq!(r0.stats.inner_reads % 3, 0);
        assert_eq!(r0.stats.inner_reads / 3, r2.stats.inner_reads);
        assert_eq!(r1.stats.inner_reads, 2 * r2.stats.inner_reads);
        // Prefetch traffic is the small price paid.
        assert_eq!(r0.stats.prefetch_reads, 0);
        assert!(r1.stats.prefetch_reads < r1.stats.inner_reads);
        assert!(r2.stats.prefetch_reads < r2.stats.inner_reads);
    }

    #[test]
    fn audit_matches_model() {
        let (t, n) = random_matrices(16, 64, 64, 9);
        let w = t.words_per_row() as u64;
        assert_eq!(w, n.words_per_row() as u64);
        for level in MemOptLevel::ALL {
            let r = scan_3hit(&t, &n, Alpha::PAPER, level);
            assert_eq!(
                r.stats.inner_reads,
                modeled_inner_reads(16, w, level),
                "{}",
                level.name()
            );
        }
    }

    #[test]
    fn splicing_reduces_words_and_preserves_semantics() {
        let (t, n) = random_matrices(10, 200, 80, 11);
        let full = scan_3hit(&t, &n, Alpha::PAPER, MemOptLevel::Prefetch2);
        // Cover the winner's samples and splice them out.
        let cov = t.cover_mask(&full.best.genes);
        let mut keep = t.full_mask();
        for (k, c) in keep.iter_mut().zip(cov.iter()) {
            *k &= !c;
        }
        let spliced = t.splice_columns(&keep);
        assert!(spliced.n_samples() < t.n_samples());
        // After splicing, the old winner's TP drops to zero.
        assert_eq!(spliced.count_all(&full.best.genes), 0);
        // And the next scan reads fewer tumor words per combination.
        let next = scan_3hit(&spliced, &n, Alpha::PAPER, MemOptLevel::Prefetch2);
        let reads = |s: &AccessStats| s.inner_reads + s.prefetch_reads;
        assert!(reads(&next.stats) <= reads(&full.stats));
    }
}
