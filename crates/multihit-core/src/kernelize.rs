//! Exact instance kernelization: shrink `(tumor, normal)` before any
//! enumeration, with a certificate mapping results back to the original
//! indices.
//!
//! The paper's real workload is `C(20000, 4) ≈ 6.6e15` combinations, but a
//! large fraction of a 20,000-gene universe is provably irrelevant to the
//! deterministic greedy argmax. Following the kernelization idea of van
//! Bevern et al. (serial and parallel kernelization of multiple hitting
//! set), this module applies *exact* reduction rules — the reduced
//! instance's greedy run selects the **same panel** (same F, same genes
//! after un-mapping) as the original, for both exclusion modes:
//!
//! * **Useless genes** — a gene with an all-zero tumor row can only produce
//!   TP = 0 combinations, which [`Alpha::score`] pins to 0; the greedy loop
//!   stalls before ever selecting one. Removed first.
//! * **Dominated genes** — gene `A` is removed when at least `H` distinct
//!   smaller-index genes `d` *dominate* it: `tumor(d) ⊇ tumor(A)` and
//!   `normal(d) ⊆ normal(A)`. Exchange argument: in any combination `C ∋ A`,
//!   some dominator `g ∉ C` exists (there are `H` of them and only `H−1`
//!   other members), and `C \ {A} ∪ {g}` is colex-earlier with TP′ ≥ TP and
//!   TN′ ≥ TN — so under [`Scored::cmp_det`] (ties go colex-earliest) the
//!   argmax never contains `A`. Chains of exchanges terminate at kept-only
//!   combinations because dominators of non-useless genes are non-useless
//!   and each step decreases colex rank. Note plain *pairwise* domination
//!   is **not** a sound removal rule here (the dominator and dominated gene
//!   can productively co-occur in one combination under intersection
//!   semantics); the ≥ `H` threshold is what makes the exchange available.
//!   Duplicate gene rows fall out of the same rule: of `> H` identical
//!   rows, the first `H` dominate all later copies.
//! * **Uncoverable tumor columns** — a tumor sample with no mutation in any
//!   *kept* gene row can never be covered by a kept-only combination, so it
//!   is removed and re-added to `uncovered`/`remaining` on un-mapping.
//! * **Zero normal columns** — a normal sample with no mutation in any kept
//!   row contributes +1 TN to every kept-only combination: a uniform score
//!   shift that preserves the argmax ordering. Removed; un-mapping adds the
//!   shift back.
//! * **All-ones normal columns** — covered by every kept-only combination,
//!   contributing 0 TN always. Removed with no shift.
//!
//! Two further reductions are **detected and reported but not applied**,
//! because they are unsound without weighted sample counting:
//!
//! * **Forced (all-ones) tumor columns** look removable, but deleting one
//!   shifts every TP by −1, which reorders combinations against the
//!   stall rule (`tp == 0` scores 0 regardless of TN).
//! * **Duplicate nonzero sample columns** could be merged under a
//!   per-column weight, but our scoring counts raw bits; merging reorders
//!   TP between combinations that split a duplicate group.
//!
//! Domination is computed on the *original* matrices and remains valid
//! across greedy iterations: both exclusion modes only ever restrict the
//! active tumor columns (⊇/⊆ survive taking column subsets), and the
//! normal matrix never changes.

use crate::bitmat::BitMatrix;
use crate::greedy::{self, GreedyConfig, GreedyResult, IterationRecord};
use crate::obs::Obs;
use crate::weight::{Alpha, Scored};
use std::time::Instant;

/// Reduction accounting, carried inside the certificate and reported by the
/// CLI / obs layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Genes in the original universe.
    pub orig_genes: u32,
    /// Genes surviving reduction.
    pub kept_genes: u32,
    /// Genes removed for an all-zero tumor row.
    pub useless_genes: u32,
    /// Genes removed by the ≥H-dominators rule.
    pub dominated_genes: u32,
    /// Tumor columns removed as uncoverable (zero over kept rows).
    pub zero_tumor_cols: u32,
    /// Normal columns removed as all-zero over kept rows.
    pub zero_normal_cols: u32,
    /// Normal columns removed as all-ones over kept rows.
    pub ones_normal_cols: u32,
    /// All-ones tumor columns detected (reported, **not** removed).
    pub forced_tumor_cols: u32,
    /// Nonzero duplicate tumor columns detected (reported, **not** removed).
    pub dup_tumor_cols: u32,
}

impl ReductionStats {
    /// Fraction of genes removed.
    #[must_use]
    pub fn gene_reduction(&self) -> f64 {
        if self.orig_genes == 0 {
            0.0
        } else {
            1.0 - f64::from(self.kept_genes) / f64::from(self.orig_genes)
        }
    }
}

/// Certificate mapping reduced-instance results back to original indices.
///
/// Produced by [`kernelize`]; consumed by the un-mapping methods and (in the
/// distributed driver) serialized on rank 0 and broadcast so every rank
/// reduces identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReductionCert {
    /// `gene_map[reduced] = original` gene index; strictly increasing, so
    /// sorted reduced combos stay sorted after un-mapping.
    gene_map: Vec<u32>,
    /// Original tumor/normal sample counts.
    orig_n_tumor: u32,
    orig_n_normal: u32,
    /// Reduction accounting.
    stats: ReductionStats,
}

impl ReductionCert {
    /// Number of genes in the reduced instance.
    #[must_use]
    pub fn kept_genes(&self) -> usize {
        self.gene_map.len()
    }

    /// Reduction accounting.
    #[must_use]
    pub fn stats(&self) -> &ReductionStats {
        &self.stats
    }

    /// Map a reduced gene index back to the original universe.
    ///
    /// # Panics
    /// Panics if `g` is out of range for the reduced instance.
    #[inline]
    #[must_use]
    pub fn unmap_gene(&self, g: u32) -> u32 {
        self.gene_map[g as usize]
    }

    /// Map a reduced combination back to original gene indices. The gene
    /// map is strictly increasing, so a sorted combo stays sorted.
    #[must_use]
    pub fn unmap_combo<const H: usize>(&self, genes: [u32; H]) -> [u32; H] {
        std::array::from_fn(|t| self.unmap_gene(genes[t]))
    }

    /// Map a reduced [`Scored`] back to the original instance: genes
    /// un-mapped, TN shifted by the removed zero normal columns (a kept-only
    /// combination covers none of them), score recomputed. TP is unchanged
    /// (removed tumor columns are uncoverable). The `NEG_INFINITY` sentinel
    /// and TP = 0 stalls pass through untouched.
    #[must_use]
    pub fn unmap_scored<const H: usize>(&self, s: Scored<H>, alpha: Alpha) -> Scored<H> {
        if s.tp == 0 {
            return s;
        }
        let tn = s.tn + self.stats.zero_normal_cols;
        Scored {
            score: alpha.score(s.tp, tn),
            tp: s.tp,
            tn,
            genes: self.unmap_combo(s.genes),
        }
    }

    /// Map a reduced greedy result back to the original instance: combos
    /// un-mapped, per-iteration records re-scored against the original
    /// totals, and the uncoverable tumor columns added back to
    /// `remaining`/`uncovered`.
    #[must_use]
    pub fn unmap_result<const H: usize>(
        &self,
        r: GreedyResult<H>,
        alpha: Alpha,
    ) -> GreedyResult<H> {
        let zt = self.stats.zero_tumor_cols;
        GreedyResult {
            combinations: r
                .combinations
                .into_iter()
                .map(|c| self.unmap_combo(c))
                .collect(),
            iterations: r
                .iterations
                .into_iter()
                .map(|it| {
                    let best = self.unmap_scored(it.best, alpha);
                    IterationRecord {
                        best,
                        f: best.f_value(alpha, self.orig_n_tumor, self.orig_n_normal),
                        newly_covered: it.newly_covered,
                        remaining: it.remaining + zt,
                        words_per_row: it.words_per_row,
                    }
                })
                .collect(),
            uncovered: r.uncovered + zt,
        }
    }

    /// Serialize for the rank-0 broadcast: fixed header + gene map.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let s = &self.stats;
        let mut out = Vec::with_capacity(4 * (11 + 1 + self.gene_map.len()));
        for v in [
            self.orig_n_tumor,
            self.orig_n_normal,
            s.orig_genes,
            s.kept_genes,
            s.useless_genes,
            s.dominated_genes,
            s.zero_tumor_cols,
            s.zero_normal_cols,
            s.ones_normal_cols,
            s.forced_tumor_cols,
            s.dup_tumor_cols,
            self.gene_map.len() as u32,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for &g in &self.gene_map {
            out.extend_from_slice(&g.to_le_bytes());
        }
        out
    }

    /// Inverse of [`Self::to_bytes`].
    ///
    /// # Errors
    /// Rejects a payload shorter than the 12-word header, or whose length
    /// is not exactly the header plus the gene count the header declares.
    pub fn from_bytes(bytes: &[u8]) -> Result<ReductionCert, String> {
        if bytes.len() < 48 {
            return Err(format!(
                "cert truncated: {} of 48 header bytes",
                bytes.len()
            ));
        }
        let word = |i: usize| {
            u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4-byte slice"))
        };
        let n = word(11) as usize;
        let expected = n.checked_add(12).and_then(|w| w.checked_mul(4));
        if expected != Some(bytes.len()) {
            return Err(format!(
                "cert length mismatch: {} bytes for {n} kept genes",
                bytes.len()
            ));
        }
        Ok(ReductionCert {
            orig_n_tumor: word(0),
            orig_n_normal: word(1),
            stats: ReductionStats {
                orig_genes: word(2),
                kept_genes: word(3),
                useless_genes: word(4),
                dominated_genes: word(5),
                zero_tumor_cols: word(6),
                zero_normal_cols: word(7),
                ones_normal_cols: word(8),
                forced_tumor_cols: word(9),
                dup_tumor_cols: word(10),
            },
            gene_map: (0..n).map(|i| word(12 + i)).collect(),
        })
    }
}

/// `true` iff gene `d` dominates gene `a`: `tumor(d) ⊇ tumor(a)` and
/// `normal(d) ⊆ normal(a)` (word-wise, with early mismatch exit).
fn dominates(tumor: &BitMatrix, normal: &BitMatrix, d: usize, a: usize) -> bool {
    let (dt, at) = (tumor.row(d), tumor.row(a));
    for (x, y) in at.iter().zip(dt) {
        if x & !y != 0 {
            return false;
        }
    }
    let (dn, an) = (normal.row(d), normal.row(a));
    for (x, y) in dn.iter().zip(an) {
        if x & !y != 0 {
            return false;
        }
    }
    true
}

/// Run the reduction passes. Returns the reduced matrices plus the
/// certificate; `h` is the combination size the reduced instance will be
/// scanned at (the domination threshold).
///
/// # Panics
/// Panics if the matrices disagree on gene count or `h == 0`.
#[must_use]
pub fn kernelize(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    h: usize,
) -> (BitMatrix, BitMatrix, ReductionCert) {
    assert_eq!(tumor.n_genes(), normal.n_genes(), "gene universes differ");
    assert!(h >= 1, "h must be positive");
    let g = tumor.n_genes();
    let mut stats = ReductionStats {
        orig_genes: g as u32,
        ..ReductionStats::default()
    };

    // Pass 1: useless genes (all-zero tumor row). Removing them first keeps
    // the exchange chains of the domination pass inside non-useless genes.
    let mut alive: Vec<u32> = Vec::with_capacity(g);
    for gene in 0..g {
        if tumor.row_popcount(gene) == 0 {
            stats.useless_genes += 1;
        } else {
            alive.push(gene as u32);
        }
    }

    // Pass 2: dominated genes. A popcount sort-key prefilter (a dominator
    // needs tumor popcount ≥ and normal popcount ≤ the candidate's) skips
    // most word-level subset checks; counting stops at `h` dominators.
    let pop_t: Vec<u32> = (0..g).map(|i| tumor.row_popcount(i)).collect();
    let pop_n: Vec<u32> = (0..g).map(|i| normal.row_popcount(i)).collect();
    let mut kept: Vec<u32> = Vec::with_capacity(alive.len());
    for (ai, &a) in alive.iter().enumerate() {
        let a = a as usize;
        let mut dominators = 0usize;
        for &d in &alive[..ai] {
            let d = d as usize;
            if pop_t[d] < pop_t[a] || pop_n[d] > pop_n[a] {
                continue;
            }
            if dominates(tumor, normal, d, a) {
                dominators += 1;
                if dominators >= h {
                    break;
                }
            }
        }
        if dominators >= h {
            stats.dominated_genes += 1;
        } else {
            kept.push(a as u32);
        }
    }
    stats.kept_genes = kept.len() as u32;

    let red_t = tumor.select_rows(&kept);
    let red_n = normal.select_rows(&kept);

    // Column classification over *kept* rows: OR-fold finds zero columns,
    // AND-fold finds all-ones columns.
    let fold = |m: &BitMatrix, init: u64, f: fn(u64, u64) -> u64| -> Vec<u64> {
        let mut acc = vec![init; m.words_per_row()];
        for gi in 0..m.n_genes() {
            for (a, &w) in acc.iter_mut().zip(m.row(gi)) {
                *a = f(*a, w);
            }
        }
        BitMatrix::trim_mask_tail(&mut acc, m.n_samples());
        acc
    };
    let t_or = fold(&red_t, 0, |a, b| a | b);
    let t_and = fold(&red_t, u64::MAX, |a, b| a & b);
    let n_or = fold(&red_n, 0, |a, b| a | b);
    let n_and = fold(&red_n, u64::MAX, |a, b| a & b);

    stats.zero_tumor_cols = tumor.n_samples() as u32 - BitMatrix::mask_popcount(&t_or);
    stats.forced_tumor_cols = BitMatrix::mask_popcount(&t_and);
    stats.zero_normal_cols = normal.n_samples() as u32 - BitMatrix::mask_popcount(&n_or);
    stats.ones_normal_cols = BitMatrix::mask_popcount(&n_and);

    // Duplicate nonzero tumor columns (detected only; see module docs).
    stats.dup_tumor_cols = count_dup_columns(&red_t, &t_or);

    // Pass 3: drop uncoverable tumor columns and zero/all-ones normal
    // columns. Degenerate kept-gene counts (< h) leave both matrices
    // as-is column-wise except for the exact rules above.
    let red_t = red_t.splice_columns(&t_or);
    let n_keep: Vec<u64> = n_or.iter().zip(&n_and).map(|(o, a)| o & !a).collect();
    let red_n = red_n.splice_columns(&n_keep);

    let cert = ReductionCert {
        gene_map: kept,
        orig_n_tumor: tumor.n_samples() as u32,
        orig_n_normal: normal.n_samples() as u32,
        stats,
    };
    (red_t, red_n, cert)
}

/// Count nonzero tumor columns that duplicate an earlier column (over kept
/// rows). Columns are keyed by their packed bit pattern down the gene axis.
fn count_dup_columns(m: &BitMatrix, or_mask: &[u64]) -> u32 {
    use std::collections::HashMap;
    let words = m.n_genes().div_ceil(64);
    let mut seen: HashMap<Vec<u64>, u32> = HashMap::new();
    let mut dups = 0u32;
    for s in BitMatrix::mask_indices(or_mask, m.n_samples()) {
        let mut key = vec![0u64; words];
        for gi in 0..m.n_genes() {
            if m.get(gi, s) {
                key[gi / 64] |= 1u64 << (gi % 64);
            }
        }
        if let Some(count) = seen.get_mut(&key) {
            *count += 1;
            dups += 1;
        } else {
            seen.insert(key, 0);
        }
    }
    dups
}

/// Kernelized greedy discovery: reduce, run [`greedy::discover_obs`] on the
/// reduced instance (with `cfg.kernelize` cleared to avoid recursion), and
/// un-map the result. Emits a `kernelize` span and point.
///
/// Selected panels are bit-identical to the unkernelized run by the
/// soundness argument in the module docs; the proptest suite asserts it
/// across random matrices and both exclusion modes.
#[must_use]
pub fn discover_kernelized_obs<const H: usize>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &GreedyConfig,
    obs: &Obs,
) -> GreedyResult<H> {
    let span = obs.span("kernelize");
    let start = Instant::now();
    let (red_t, red_n, cert) = kernelize(tumor, normal, H);
    let kernelize_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    emit_kernelize_obs(obs, &cert, kernelize_ns);
    drop(span);

    let inner = GreedyConfig {
        kernelize: false,
        ..*cfg
    };
    if cert.kept_genes() < H {
        // Fewer kept genes than a combination needs: every original
        // combination contains a removed gene, hence (by the exchange /
        // useless arguments) scores 0 — the unkernelized run stalls on
        // iteration 1 with an empty panel. Reproduce that outcome directly;
        // the scanner itself asserts H ≤ G.
        return GreedyResult {
            combinations: Vec::new(),
            iterations: Vec::new(),
            uncovered: tumor.n_samples() as u32,
        };
    }
    let reduced = greedy::discover_obs::<H>(&red_t, &red_n, &inner, obs);
    cert.unmap_result(reduced, cfg.alpha)
}

/// Emit the `kernelize` point: the reduction's wall time plus every
/// [`ReductionStats`] field of `cert`.
pub fn emit_kernelize_obs(obs: &Obs, cert: &ReductionCert, kernelize_ns: u64) {
    if !obs.is_enabled() {
        return;
    }
    let s = cert.stats();
    obs.point(
        "kernelize",
        &[
            ("kernelize_ns", kernelize_ns.into()),
            ("orig_genes", u64::from(s.orig_genes).into()),
            ("kept_genes", u64::from(s.kept_genes).into()),
            ("useless_genes", u64::from(s.useless_genes).into()),
            ("dominated_genes", u64::from(s.dominated_genes).into()),
            ("zero_tumor_cols", u64::from(s.zero_tumor_cols).into()),
            ("zero_normal_cols", u64::from(s.zero_normal_cols).into()),
            ("ones_normal_cols", u64::from(s.ones_normal_cols).into()),
            ("forced_tumor_cols", u64::from(s.forced_tumor_cols).into()),
            ("dup_tumor_cols", u64::from(s.dup_tumor_cols).into()),
            ("gene_reduction", s.gene_reduction().into()),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::discover;

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
                // Sparse-ish tumors so useless/dominated genes actually occur.
                if next() % 5 == 0 {
                    t.set(gene, s, true);
                }
            }
            for s in 0..nn {
                if next() % 11 == 0 {
                    n.set(gene, s, true);
                }
            }
        }
        (t, n)
    }

    fn run_both<const H: usize>(
        t: &BitMatrix,
        n: &BitMatrix,
        cfg: &GreedyConfig,
    ) -> (GreedyResult<H>, GreedyResult<H>) {
        let plain = discover::<H>(t, n, cfg);
        let kern = GreedyConfig {
            kernelize: true,
            ..*cfg
        };
        let kerned = discover::<H>(t, n, &kern);
        (plain, kerned)
    }

    fn assert_same_panels<const H: usize>(a: &GreedyResult<H>, b: &GreedyResult<H>) {
        assert_eq!(a.combinations, b.combinations);
        assert_eq!(a.uncovered, b.uncovered);
        assert_eq!(a.iterations.len(), b.iterations.len());
        for (x, y) in a.iterations.iter().zip(&b.iterations) {
            assert_eq!(x.best, y.best);
            assert!((x.f - y.f).abs() < 1e-12, "f {} vs {}", x.f, y.f);
            assert_eq!(x.newly_covered, y.newly_covered);
            assert_eq!(x.remaining, y.remaining);
        }
    }

    #[test]
    fn useless_genes_are_removed() {
        let mut t = BitMatrix::zeros(4, 10);
        let n = BitMatrix::zeros(4, 6);
        t.set(1, 0, true);
        t.set(3, 5, true);
        let (rt, _, cert) = kernelize(&t, &n, 2);
        assert_eq!(cert.stats().useless_genes, 2);
        assert_eq!(cert.kept_genes(), 2);
        assert_eq!(cert.unmap_gene(0), 1);
        assert_eq!(cert.unmap_gene(1), 3);
        assert_eq!(rt.n_genes(), 2);
    }

    #[test]
    fn duplicate_rows_beyond_h_are_dominated() {
        // Five identical genes, h = 2: the first two dominate the rest.
        let rows = vec![vec![0usize, 2, 4]; 5];
        let t = BitMatrix::from_rows(5, 6, &rows);
        let n = BitMatrix::zeros(5, 4);
        let (_, _, cert) = kernelize(&t, &n, 2);
        assert_eq!(cert.stats().dominated_genes, 3);
        assert_eq!(cert.kept_genes(), 2);
    }

    #[test]
    fn domination_requires_h_distinct_dominators() {
        // Gene 1 is pairwise-dominated by gene 0 only; with h = 2 a single
        // dominator is not enough, so gene 1 must survive.
        let t = BitMatrix::from_rows(2, 4, &[vec![0, 1, 2], vec![0, 1]]);
        let n = BitMatrix::zeros(2, 3);
        let (_, _, cert) = kernelize(&t, &n, 2);
        assert_eq!(cert.stats().dominated_genes, 0);
        assert_eq!(cert.kept_genes(), 2);
    }

    #[test]
    fn uncoverable_tumor_columns_come_back_as_uncovered() {
        // Column 3 touches no gene: removed, re-added on unmap.
        let t = BitMatrix::from_rows(3, 5, &[vec![0, 1], vec![0, 2], vec![1, 4]]);
        let n = BitMatrix::zeros(3, 4);
        let (rt, _, cert) = kernelize(&t, &n, 2);
        assert_eq!(cert.stats().zero_tumor_cols, 1);
        assert_eq!(rt.n_samples(), 4);
        let cfg = GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        };
        let (plain, kerned) = run_both::<2>(&t, &n, &cfg);
        assert_same_panels(&plain, &kerned);
        // Sample 3 (plus the two single-gene samples no pair can cover)
        // stays uncovered.
        assert_eq!(kerned.uncovered, 3);
    }

    #[test]
    fn normal_column_rules_shift_tn_uniformly() {
        let t = BitMatrix::from_rows(2, 3, &[vec![0, 1, 2], vec![0, 1]]);
        // Normal col 0: zero (removed, +1 TN shift). Col 2: all ones
        // (removed, no shift). Col 1: mixed (kept).
        let n = BitMatrix::from_rows(2, 3, &[vec![1, 2], vec![2]]);
        let (_, rn, cert) = kernelize(&t, &n, 1);
        assert_eq!(cert.stats().zero_normal_cols, 1);
        assert_eq!(cert.stats().ones_normal_cols, 1);
        assert_eq!(rn.n_samples(), 1);
        let s = Scored {
            score: Alpha::PAPER.score(2, 1),
            tp: 2,
            tn: 1,
            genes: [0u32],
        };
        let u = cert.unmap_scored(s, Alpha::PAPER);
        assert_eq!(u.tn, 2);
        assert_eq!(u.score, Alpha::PAPER.score(2, 2));
    }

    #[test]
    fn forced_and_duplicate_columns_are_detected_not_removed() {
        // Tumor col 0 is all-ones; cols 1 and 3 are equal and nonzero.
        let t = BitMatrix::from_rows(2, 4, &[vec![0, 1, 3], vec![0, 2]]);
        let n = BitMatrix::zeros(2, 2);
        let (rt, _, cert) = kernelize(&t, &n, 1);
        assert_eq!(cert.stats().forced_tumor_cols, 1);
        assert_eq!(cert.stats().dup_tumor_cols, 1);
        assert_eq!(rt.n_samples(), 4, "detect-only rules must not splice");
    }

    #[test]
    fn cert_roundtrips_through_bytes() {
        let (t, n) = lcg_matrices(40, 70, 30, 9);
        let (_, _, cert) = kernelize(&t, &n, 3);
        assert_eq!(ReductionCert::from_bytes(&cert.to_bytes()), Ok(cert));
    }

    #[test]
    fn malformed_cert_is_rejected_not_panicked_on() {
        let (t, n) = lcg_matrices(40, 70, 30, 9);
        let (_, _, cert) = kernelize(&t, &n, 3);
        let good = cert.to_bytes();
        assert!(cert.kept_genes() > 0, "need a gene map to truncate");

        assert!(ReductionCert::from_bytes(&[]).is_err(), "empty");
        assert!(ReductionCert::from_bytes(&good[..47]).is_err(), "header");
        // The header claims more genes than the payload carries.
        let mut overcount = good.clone();
        overcount[44..48].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ReductionCert::from_bytes(&overcount).is_err(), "count");
        assert!(ReductionCert::from_bytes(&good[..good.len() - 4]).is_err());
        let mut extra = good.clone();
        extra.extend_from_slice(&[0; 4]);
        assert!(ReductionCert::from_bytes(&extra).is_err(), "trailing word");
    }

    #[test]
    fn kernelized_discover_matches_plain_both_modes() {
        use crate::greedy::Exclusion;
        for seed in [1u64, 7, 23, 101] {
            let (t, n) = lcg_matrices(24, 80, 40, seed);
            for exclusion in [Exclusion::BitSplice, Exclusion::Mask] {
                let cfg = GreedyConfig {
                    parallel: false,
                    exclusion,
                    ..GreedyConfig::default()
                };
                let (plain, kerned) = run_both::<2>(&t, &n, &cfg);
                assert_same_panels(&plain, &kerned);
                let (plain, kerned) = run_both::<3>(&t, &n, &cfg);
                assert_same_panels(&plain, &kerned);
            }
        }
    }

    #[test]
    fn degenerate_reduction_below_h_stalls_like_plain() {
        // Two genes, both dominated to a single kept gene at h = 2... easier:
        // all genes useless except one; H = 2 needs two.
        let mut t = BitMatrix::zeros(3, 5);
        t.set(1, 2, true);
        let n = BitMatrix::zeros(3, 4);
        let cfg = GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        };
        let (plain, kerned) = run_both::<2>(&t, &n, &cfg);
        assert_same_panels(&plain, &kerned);
        assert_eq!(kerned.uncovered, 5);
        assert!(kerned.combinations.is_empty());
    }
}
