//! The greedy weighted-set-cover loop (§II-B) and a fast combination
//! scanner.
//!
//! Per iteration the algorithm (1) scores **every** `C(G,H)` combination,
//! (2) picks the deterministic argmax-F, (3) excludes the tumor samples that
//! combination covers, and repeats until every tumor sample is covered (or a
//! combination covers nothing new).
//!
//! The scan is the expensive part. [`ComboScanner`] walks combinations in
//! colex order keeping a stack of partial row-ANDs — when only the lowest
//! coordinate advances (the overwhelmingly common case), scoring one more
//! combination costs a single fused AND+popcount pass per matrix (via
//! [`crate::kernel`], runtime-dispatched to AVX2/POPCNT). This is the CPU
//! realization of the paper's MemOpt prefetching, generalized to every
//! level of the `H`-deep loop.
//!
//! Every scan — argmax or top-K, pruned or exhaustive, block-swept or
//! stepping — is the scanner's one private traversal (`walk`: score a leaf
//! run into a sink, advance to the next surviving subtree), and every scan
//! of colex ranges — all `C(G,H)`, or a cluster λ-slab ([`scan_slab4`]) —
//! goes through one driver (`scan_range`). On top of the incremental scan
//! sit two exact accelerations:
//!
//! * **Branch-and-bound pruning** ([`ComboScanner::scan_pruned`]): at colex
//!   level `t` the partial-AND popcount bounds TP for *every* completion of
//!   the lower coordinates, so `F_ub = (α·TP_partial + Nn)/(Nt+Nn)`; when
//!   `F_ub` cannot beat the running best, the entire subtree sharing that
//!   prefix — `C(c[t], t)` combinations — is skipped. A pruned whole-range
//!   scan walks the genes heaviest first (descending tumour popcount), so
//!   the first combinations it scores set a high floor and the bound cuts
//!   almost everything after them. Sinks still see caller gene ids, and a
//!   subtree tying the floor is cut only when every member is provably
//!   colex-later than the floor's holder, so the argmax is bit-identical to
//!   the un-pruned scan by construction; the test suite asserts it.
//! * **Work stealing** ([`best_combination`]): an atomic λ-cursor
//!   ([`crate::par::BlockQueue`]) hands out guided-size blocks so
//!   pruning- and splice-induced imbalance cannot stall workers on static
//!   chunks; per-worker winners fold with the deterministic
//!   [`Scored::max_det`]. Workers share their best score through an atomic,
//!   which only ever *increases* pruning power (strict-inequality cut), so
//!   the fold stays bit-identical to the sequential scan.
//!
//! Covered samples are excluded either by **BitSplicing** (physically
//! shrinking the tumor matrix, §III-D) or by carrying an active-column mask
//! (the unspliced baseline the Fig 5 ablation compares against). Both modes
//! produce identical combinations; tests assert it.

use crate::bitmat::{BitMatrix, SkipIndex};
use crate::combin::{binomial, unrank_tuple};
use crate::frontier::{self, Frontier, TopK};
use crate::kernel;
use crate::obs::Obs;
use crate::par::{self, BlockQueue};
use crate::reduce::fold_partials;
use crate::schemes::Scheme4;
use crate::weight::{Alpha, Combo, Scored};
use std::cmp::Reverse;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How covered tumor samples are excluded between iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exclusion {
    /// Physically remove covered columns (the paper's BitSplicing).
    BitSplice,
    /// Keep the matrix intact and AND an active mask into every score.
    Mask,
}

impl Exclusion {
    /// Stable name used in metric streams.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Exclusion::BitSplice => "BitSplice",
            Exclusion::Mask => "Mask",
        }
    }
}

/// When the scan uses the sparse (skip-list) partial-AND representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SparseMode {
    /// Measure the matrices' zero-word fraction and enable the sparse path
    /// when at least half (`SPARSE_AUTO_THRESHOLD`) of packed words are zero.
    Auto,
    /// Always scan sparse.
    On,
    /// Always scan dense.
    Off,
}

impl SparseMode {
    /// Stable name used in metric streams and CLI flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SparseMode::Auto => "auto",
            SparseMode::On => "on",
            SparseMode::Off => "off",
        }
    }
}

/// Zero-word fraction (across tumor + normal words) at which
/// [`SparseMode::Auto`] switches the scan to the sparse path.
const SPARSE_AUTO_THRESHOLD: f64 = 0.5;

/// Configuration for a greedy discovery run.
#[derive(Clone, Copy, Debug)]
pub struct GreedyConfig {
    /// True-positive weight α (paper: 0.1).
    pub alpha: Alpha,
    /// Exclusion strategy between iterations.
    pub exclusion: Exclusion,
    /// Stop after this many combinations even if tumors remain (0 = no cap).
    pub max_combinations: usize,
    /// Score combinations across work-stealing worker threads.
    pub parallel: bool,
    /// Skip subtrees whose F upper bound cannot beat the running best.
    /// Exact: the selected combinations are bit-identical either way.
    pub prune: bool,
    /// Lazy-greedy frontier size: retain the top-K combinations after a
    /// full scan and skip later scans whose argmax the frontier proves
    /// (see [`crate::frontier`]). 0 disables the frontier; the selected
    /// combinations are bit-identical either way.
    pub frontier_k: usize,
    /// Run the exact [`crate::kernelize()`] reduction before the greedy loop
    /// and un-map the result. The selected panel is bit-identical either
    /// way; defaults off so existing call sites keep their exact behavior.
    pub kernelize: bool,
    /// Sparse (skip-list) scan selection; bit-identical in every mode.
    pub sparse: SparseMode,
    /// Score level-0 sibling runs through the gene-tiled block kernels
    /// ([`kernel::and_popcount_block`]) instead of stepping one combination
    /// at a time. Bit-identical either way (level-0 siblings are never
    /// individually pruned); off restores the stepping reference path.
    pub block_sweep: bool,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig {
            alpha: Alpha::PAPER,
            exclusion: Exclusion::BitSplice,
            max_combinations: 0,
            parallel: true,
            prune: true,
            frontier_k: frontier::DEFAULT_FRONTIER_K,
            kernelize: false,
            sparse: SparseMode::Auto,
            block_sweep: true,
        }
    }
}

/// Work accounting of one combination scan (sequential or work-stealing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Combinations actually scored.
    pub scored: u64,
    /// Subtrees eliminated by the F upper bound.
    pub pruned_subtrees: u64,
    /// Combinations skipped inside pruned subtrees.
    pub pruned_combos: u64,
    /// λ-blocks dispatched by the work-stealing cursor.
    pub blocks: u64,
    /// Blocks beyond each worker's first (load rebalanced at runtime).
    pub steals: u64,
    /// All-zero 64-bit words the sparse scan never touched (0 when dense).
    pub words_skipped: u64,
    /// Level-0 block-kernel invocations (0 when stepping).
    pub block_sweeps: u64,
    /// Candidate gene rows scored through the block kernel.
    pub swept_rows: u64,
    /// Scanners constructed (allocation events) during this scan. Workers
    /// re-seek one scanner across stolen blocks, so this stays at one per
    /// participating worker no matter how many blocks churn.
    pub scanner_builds: u64,
}

impl ScanStats {
    /// Accumulate another worker's counters.
    pub fn merge(&mut self, other: &ScanStats) {
        self.scored += other.scored;
        self.pruned_subtrees += other.pruned_subtrees;
        self.pruned_combos += other.pruned_combos;
        self.blocks += other.blocks;
        self.steals += other.steals;
        self.words_skipped += other.words_skipped;
        self.block_sweeps += other.block_sweeps;
        self.swept_rows += other.swept_rows;
        self.scanner_builds += other.scanner_builds;
    }

    /// Fraction of the enumerated range eliminated without scoring.
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.scored + self.pruned_combos;
        if total == 0 {
            0.0
        } else {
            self.pruned_combos as f64 / total as f64
        }
    }
}

/// One greedy iteration's outcome.
#[derive(Clone, Copy, Debug)]
pub struct IterationRecord<const H: usize> {
    /// The winning combination of this iteration.
    pub best: Scored<H>,
    /// F value (Eq. 1) against the *original* cohort totals.
    pub f: f64,
    /// Newly covered tumor samples.
    pub newly_covered: u32,
    /// Tumor samples still uncovered after this iteration.
    pub remaining: u32,
    /// Tumor-matrix words per row when this iteration scanned (shows the
    /// BitSplicing shrinkage).
    pub words_per_row: usize,
}

/// Result of a full greedy run.
#[derive(Clone, Debug)]
pub struct GreedyResult<const H: usize> {
    /// The selected combinations, in selection order.
    pub combinations: Vec<Combo<H>>,
    /// Per-iteration diagnostics.
    pub iterations: Vec<IterationRecord<H>>,
    /// Tumor samples never covered (nonzero only if capped or stalled).
    pub uncovered: u32,
}

impl<const H: usize> GreedyResult<H> {
    /// Fraction of tumor samples covered by the selected set.
    #[must_use]
    pub fn coverage(&self, n_tumor: u32) -> f64 {
        if n_tumor == 0 {
            return 1.0;
        }
        f64::from(n_tumor - self.uncovered) / f64::from(n_tumor)
    }
}

/// What a traversal keeps of the combinations it scores, and the bound that
/// lets it skip the rest.
trait Sink<const H: usize> {
    /// Offer one scored combination; `true` when [`Self::floor`] may have
    /// risen.
    fn take(&mut self, s: Scored<H>) -> bool;
    /// The score a combination must exceed to get past what is already
    /// held, or `None` while anything offered would still be kept.
    fn floor(&self) -> Option<u64>;
    /// The highest gene id of the combination holding the floor; only
    /// meaningful while [`Self::floor`] is `Some`.
    fn floor_top(&self) -> u32;
    /// Whether every combination of the subtree whose fixed scan rows are
    /// `fixed` loses a tie with the floor holder. In colex scan order it
    /// does: the holder was scanned colex-earlier.
    #[inline]
    fn tie_loses(&self, _fixed: &[u32]) -> bool {
        true
    }
}

/// Argmax: the incumbent itself, replaced by whatever beats it.
impl<const H: usize> Sink<H> for Scored<H> {
    #[inline]
    fn take(&mut self, s: Scored<H>) -> bool {
        let better = s.beats(self);
        if better {
            *self = s;
        }
        better
    }

    #[inline]
    fn floor(&self) -> Option<u64> {
        Some(self.score)
    }

    #[inline]
    fn floor_top(&self) -> u32 {
        self.genes[H - 1]
    }
}

/// Top-K: the floor is the weakest entry, and only once K are held.
impl<const H: usize> Sink<H> for TopK<H> {
    #[inline]
    fn take(&mut self, s: Scored<H>) -> bool {
        self.offer(s) && self.is_full()
    }

    #[inline]
    fn floor(&self) -> Option<u64> {
        self.is_full().then(|| self.floor_score())
    }

    #[inline]
    fn floor_top(&self) -> u32 {
        self.weakest().map_or(u32::MAX, |s| s.genes[H - 1])
    }
}

/// A worker's sink seen through a scan-row order: the scanner walks
/// matrices whose row `r` is gene `genes[r]`, and `inner` only ever sees
/// caller gene ids, sorted — so the colex tie-break stays on gene ids.
struct Ordered<'a, S> {
    inner: &'a mut S,
    genes: &'a [u32],
}

impl<const H: usize, S: Sink<H>> Sink<H> for Ordered<'_, S> {
    #[inline]
    fn take(&mut self, mut s: Scored<H>) -> bool {
        // Most leaves lose on score alone; only the rest are mapped.
        if self.inner.floor().is_some_and(|f| s.score < f) {
            return false;
        }
        for g in &mut s.genes {
            *g = self.genes[*g as usize];
        }
        s.genes.sort_unstable();
        self.inner.take(s)
    }

    #[inline]
    fn floor(&self) -> Option<u64> {
        self.inner.floor()
    }

    #[inline]
    fn floor_top(&self) -> u32 {
        self.inner.floor_top()
    }

    /// The row order is not colex order on gene ids, so the holder may be
    /// colex-later than the subtree. Every member contains the fixed genes,
    /// so when the largest of them exceeds the holder's top gene, every
    /// member is colex-later and loses the tie.
    #[inline]
    fn tie_loses(&self, fixed: &[u32]) -> bool {
        let top = fixed.iter().map(|&r| self.genes[r as usize]).max();
        top.is_some_and(|g| g > self.inner.floor_top())
    }
}

/// Incremental colex-order scanner over all `C(G,H)` combinations.
///
/// Maintains, per level `t`, the AND of the rows of genes `c[t..H]`
/// (tumor and normal separately, plus an optional tumor column mask folded
/// into the top level). Advancing the combination recomputes only the
/// levels at or below the coordinate that moved.
pub struct ComboScanner<'a, const H: usize> {
    tumor: &'a BitMatrix,
    normal: &'a BitMatrix,
    tumor_mask: Option<&'a [u64]>,
    alpha: Alpha,
    g: u32,
    n_normal: u32,
    /// partial_t[t] = AND over tumor rows of genes c[t..H] (and the mask).
    /// Empty (unallocated) when scanning sparse.
    partial_t: Vec<Vec<u64>>,
    partial_n: Vec<Vec<u64>>,
    /// Sparse mode: per-gene skip lists over all-zero words. When set, the
    /// per-level partials are kept *compacted* as parallel (word index,
    /// word value) vectors instead of dense rows — the AND support only
    /// shrinks as the chain deepens, so deeper rebuilds touch fewer words.
    skip: Option<(&'a SkipIndex, &'a SkipIndex)>,
    sp_idx_t: Vec<Vec<u32>>,
    sp_val_t: Vec<Vec<u64>>,
    sp_idx_n: Vec<Vec<u32>>,
    sp_val_n: Vec<Vec<u64>>,
    /// Words a dense rebuild would have touched that the sparse path
    /// skipped (both matrices).
    words_skipped: u64,
    /// pop_t[t] = popcount of partial_t[t], maintained by the fused
    /// AND+store+popcount kernel during rebuilds. pop_t[0] is TP; every
    /// higher level is the branch-and-bound TP upper bound for its subtree.
    pop_t: [u32; H],
    pop_n: [u32; H],
    combo: [u32; H],
    /// Rows per level-0 block-kernel call; `<= 1` falls back to stepping.
    sweep_width: usize,
    /// Block-kernel invocations made by this scanner.
    block_sweeps: u64,
    /// Candidate rows scored through the block kernel.
    swept_rows: u64,
}

impl<'a, const H: usize> ComboScanner<'a, H> {
    /// Create a scanner positioned at combination rank `start`.
    ///
    /// `tumor_mask`, when given, restricts TP counting to active columns.
    ///
    /// # Panics
    /// Panics if the matrices disagree on gene count or `H > G`.
    #[must_use]
    pub fn new(
        tumor: &'a BitMatrix,
        normal: &'a BitMatrix,
        tumor_mask: Option<&'a [u64]>,
        alpha: Alpha,
        start: u64,
    ) -> Self {
        Self::build(tumor, normal, tumor_mask, alpha, start, None)
    }

    /// [`Self::new`] scanning through per-gene skip lists: partial ANDs are
    /// kept compacted and all-zero words are never touched. Bit-identical
    /// to the dense scanner (zero words contribute nothing to any AND or
    /// popcount); [`Self::words_skipped`] reports the saved word traffic.
    ///
    /// The indexes must have been built from exactly these matrices.
    ///
    /// # Panics
    /// Panics if the matrices disagree on gene count or `H > G`.
    #[must_use]
    pub fn with_skip(
        tumor: &'a BitMatrix,
        normal: &'a BitMatrix,
        tumor_mask: Option<&'a [u64]>,
        alpha: Alpha,
        start: u64,
        skip: (&'a SkipIndex, &'a SkipIndex),
    ) -> Self {
        Self::build(tumor, normal, tumor_mask, alpha, start, Some(skip))
    }

    fn build(
        tumor: &'a BitMatrix,
        normal: &'a BitMatrix,
        tumor_mask: Option<&'a [u64]>,
        alpha: Alpha,
        start: u64,
        skip: Option<(&'a SkipIndex, &'a SkipIndex)>,
    ) -> Self {
        assert_eq!(tumor.n_genes(), normal.n_genes(), "gene universes differ");
        let g = tumor.n_genes() as u32;
        assert!(H as u32 <= g, "H = {H} exceeds G = {g}");
        let sparse = skip.is_some();
        let dense_alloc = |words: usize| {
            if sparse {
                Vec::new()
            } else {
                vec![vec![0; words]; H]
            }
        };
        let sparse_idx = |words: usize| {
            if sparse {
                vec![Vec::with_capacity(words); H]
            } else {
                Vec::new()
            }
        };
        let sparse_val = |words: usize| {
            if sparse {
                vec![Vec::with_capacity(words); H]
            } else {
                Vec::new()
            }
        };
        let mut s = ComboScanner {
            tumor,
            normal,
            tumor_mask,
            alpha,
            g,
            n_normal: normal.n_samples() as u32,
            partial_t: dense_alloc(tumor.words_per_row()),
            partial_n: dense_alloc(normal.words_per_row()),
            skip,
            sp_idx_t: sparse_idx(tumor.words_per_row()),
            sp_val_t: sparse_val(tumor.words_per_row()),
            sp_idx_n: sparse_idx(normal.words_per_row()),
            sp_val_n: sparse_val(normal.words_per_row()),
            words_skipped: 0,
            pop_t: [0; H],
            pop_n: [0; H],
            combo: unrank_tuple::<H>(start),
            // Sweeping needs a fixed level-1 partial above the run; H = 1
            // has no such level, so it always steps.
            sweep_width: if H >= 2 { kernel::SWEEP_BLOCK } else { 1 },
            block_sweeps: 0,
            swept_rows: 0,
        };
        s.rebuild_from(H - 1);
        s
    }

    /// All-zero words the sparse path skipped so far (0 for dense scans).
    #[must_use]
    pub fn words_skipped(&self) -> u64 {
        self.words_skipped
    }

    /// Block-kernel invocations made so far (0 when stepping).
    #[must_use]
    pub fn block_sweeps(&self) -> u64 {
        self.block_sweeps
    }

    /// Candidate gene rows scored through the block kernel so far.
    #[must_use]
    pub fn swept_rows(&self) -> u64 {
        self.swept_rows
    }

    /// Cap the rows per level-0 block-kernel call. `width <= 1` disables the
    /// sweep (the stepping reference path); anything larger is clamped to
    /// [`kernel::SWEEP_BLOCK`]. The scanned results are bit-identical at
    /// every width.
    pub fn set_sweep_width(&mut self, width: usize) {
        let was_sweeping = self.sweep_enabled();
        self.sweep_width = if H >= 2 {
            width.clamp(1, kernel::SWEEP_BLOCK)
        } else {
            1
        };
        if was_sweeping && !self.sweep_enabled() {
            // Sweeping leaves the level-0 partial stale (it scores candidate
            // rows straight off level 1); stepping reads it, so refresh.
            self.rebuild_level(0);
        }
    }

    #[inline]
    fn sweep_enabled(&self) -> bool {
        H >= 2 && self.sweep_width > 1
    }

    /// Reposition the scanner at combination rank `start`, reusing every
    /// allocation. Equivalent to building a fresh scanner at `start` (the
    /// accumulated counters are deliberately kept — harvest them once at
    /// the end of a worker's life, not per block).
    fn reseek(&mut self, start: u64) {
        self.combo = unrank_tuple::<H>(start);
        self.rebuild_from(H - 1);
    }

    /// Recompute partial ANDs (and their popcounts) for levels `t..=0` after
    /// `combo[t..]` changed. While sweeping, level 0 is left untouched — the
    /// sweep scores candidate rows straight off the level-1 partial, so
    /// rebuilding the leaf would be pure waste (build and every per-block
    /// re-seek would pay it).
    fn rebuild_from(&mut self, t: usize) {
        let floor = usize::from(self.sweep_enabled());
        for level in (floor..=t).rev() {
            self.rebuild_level(level);
        }
    }

    /// Recompute one level's partial AND, assuming the level above is fresh.
    fn rebuild_level(&mut self, level: usize) {
        if self.skip.is_some() {
            self.rebuild_level_sparse(level);
            return;
        }
        let gene = self.combo[level] as usize;
        if level == H - 1 {
            let row_t = self.tumor.row(gene);
            match self.tumor_mask {
                Some(m) => {
                    self.pop_t[level] = kernel::and_store_popcount(
                        &mut self.partial_t[level],
                        row_t,
                        &m[..row_t.len()],
                    );
                }
                None => {
                    self.partial_t[level].copy_from_slice(row_t);
                    self.pop_t[level] = kernel::popcount(row_t);
                }
            }
            let row_n = self.normal.row(gene);
            self.partial_n[level].copy_from_slice(row_n);
            self.pop_n[level] = kernel::popcount(row_n);
        } else {
            let (lower_t, upper_t) = self.partial_t.split_at_mut(level + 1);
            self.pop_t[level] =
                kernel::and_store_popcount(&mut lower_t[level], self.tumor.row(gene), &upper_t[0]);
            let (lower_n, upper_n) = self.partial_n.split_at_mut(level + 1);
            self.pop_n[level] =
                kernel::and_store_popcount(&mut lower_n[level], self.normal.row(gene), &upper_n[0]);
        }
    }

    /// Sparse [`Self::rebuild_level`]: the top level seeds its compact
    /// partial from the gene's skip list (folding in the mask); lower
    /// levels AND their row into the level above's compact support via
    /// [`kernel::and_compact`], dropping words that go to zero.
    fn rebuild_level_sparse(&mut self, level: usize) {
        let gene = self.combo[level] as usize;
        let (t_skip, n_skip) = self.skip.expect("sparse rebuild without skip index");
        let wt = self.tumor.words_per_row() as u64;
        let wn = self.normal.words_per_row() as u64;
        if level == H - 1 {
            let row = self.tumor.row(gene);
            let list = t_skip.row(gene);
            let idx = &mut self.sp_idx_t[level];
            let val = &mut self.sp_val_t[level];
            idx.clear();
            val.clear();
            let mut pop = 0u32;
            match self.tumor_mask {
                Some(m) => {
                    for &wi in list {
                        let w = row[wi as usize] & m[wi as usize];
                        if w != 0 {
                            idx.push(wi);
                            val.push(w);
                            pop += w.count_ones();
                        }
                    }
                }
                None => {
                    for &wi in list {
                        let w = row[wi as usize];
                        idx.push(wi);
                        val.push(w);
                        pop += w.count_ones();
                    }
                }
            }
            self.pop_t[level] = pop;
            self.words_skipped += wt - list.len() as u64;

            let row = self.normal.row(gene);
            let list = n_skip.row(gene);
            let idx = &mut self.sp_idx_n[level];
            let val = &mut self.sp_val_n[level];
            idx.clear();
            val.clear();
            let mut pop = 0u32;
            for &wi in list {
                let w = row[wi as usize];
                idx.push(wi);
                val.push(w);
                pop += w.count_ones();
            }
            self.pop_n[level] = pop;
            self.words_skipped += wn - list.len() as u64;
        } else {
            let (lo_i, hi_i) = self.sp_idx_t.split_at_mut(level + 1);
            let (lo_v, hi_v) = self.sp_val_t.split_at_mut(level + 1);
            self.pop_t[level] = kernel::and_compact(
                &hi_i[0],
                &hi_v[0],
                self.tumor.row(gene),
                &mut lo_i[level],
                &mut lo_v[level],
            );
            self.words_skipped += wt - hi_i[0].len() as u64;

            let (lo_i, hi_i) = self.sp_idx_n.split_at_mut(level + 1);
            let (lo_v, hi_v) = self.sp_val_n.split_at_mut(level + 1);
            self.pop_n[level] = kernel::and_compact(
                &hi_i[0],
                &hi_v[0],
                self.normal.row(gene),
                &mut lo_i[level],
                &mut lo_v[level],
            );
            self.words_skipped += wn - hi_i[0].len() as u64;
        }
    }

    /// Score the current combination (O(1): popcounts are maintained by the
    /// rebuild kernel).
    #[inline]
    fn score_current(&self) -> Scored<H> {
        let tp = self.pop_t[0];
        let tn = self.n_normal - self.pop_n[0];
        Scored {
            score: self.alpha.score(tp, tn),
            tp,
            tn,
            genes: self.combo,
        }
    }

    /// Exclusive upper end of the current level-0 sibling run: the lowest
    /// coordinate sweeps `[combo[0], combo[1])` while every higher
    /// coordinate stays fixed. Only meaningful for `H >= 2`.
    #[inline]
    fn level0_limit(&self) -> u32 {
        self.combo[1]
    }

    /// Score the next `n` level-0 siblings `combo[0], combo[0]+1, ..` against
    /// the fixed level-1 partial through the gene-tiled block kernels,
    /// feeding each [`Scored`] to `f` in ascending gene order — exactly the
    /// colex enumeration order, so `max_det`/top-K folds over the callbacks
    /// tie-break identically to stepping. Leaves `combo[0]` at the last gene
    /// swept; the level-0 partial is left stale (sweeping never reads it).
    ///
    /// `n` must be at least 1 and not overrun the run
    /// (`combo[0] + n <= combo[1]`).
    fn sweep_level0<F: FnMut(Scored<H>)>(&mut self, n: usize, mut f: F) {
        debug_assert!(H >= 2);
        debug_assert!(n >= 1 && self.combo[0] + n as u32 <= self.level0_limit());
        let lo = self.combo[0] as usize;
        let tumor = self.tumor;
        let normal = self.normal;
        let sparse = self.skip.is_some();
        // Sparse accounting: each swept candidate would have touched every
        // word of both matrices in a dense rebuild, but only the compact
        // level-1 support is read.
        let skipped_per_row = if sparse {
            (tumor.words_per_row() as u64 - self.sp_idx_t[1].len() as u64)
                + (normal.words_per_row() as u64 - self.sp_idx_n[1].len() as u64)
        } else {
            0
        };
        let mut done = 0usize;
        while done < n {
            let chunk = (n - done).min(self.sweep_width);
            let base = lo + done;
            // Stream the *next* chunk's contiguous row slab toward L1 while
            // this chunk is being scored (MemOpt row prefetching); the block
            // kernels additionally prefetch row-to-row inside the chunk.
            let next_end = (base + 2 * chunk).min(lo + n);
            if base + chunk < next_end {
                kernel::prefetch_words(tumor.rows_slab(base + chunk, next_end));
            }
            let mut rows_t: [&[u64]; kernel::SWEEP_BLOCK] = [&[]; kernel::SWEEP_BLOCK];
            let mut rows_n: [&[u64]; kernel::SWEEP_BLOCK] = [&[]; kernel::SWEEP_BLOCK];
            for r in 0..chunk {
                rows_t[r] = tumor.row(base + r);
                rows_n[r] = normal.row(base + r);
            }
            let mut out_t = [0u32; kernel::SWEEP_BLOCK];
            let mut out_n = [0u32; kernel::SWEEP_BLOCK];
            if sparse {
                kernel::and_compact_popcount_block(
                    &self.sp_idx_t[1],
                    &self.sp_val_t[1],
                    &rows_t[..chunk],
                    &mut out_t,
                );
                kernel::and_compact_popcount_block(
                    &self.sp_idx_n[1],
                    &self.sp_val_n[1],
                    &rows_n[..chunk],
                    &mut out_n,
                );
                self.words_skipped += chunk as u64 * skipped_per_row;
            } else {
                kernel::and_popcount_block(&self.partial_t[1], &rows_t[..chunk], &mut out_t);
                kernel::and_popcount_block(&self.partial_n[1], &rows_n[..chunk], &mut out_n);
            }
            self.block_sweeps += 1;
            self.swept_rows += chunk as u64;
            for r in 0..chunk {
                let mut genes = self.combo;
                genes[0] = (base + r) as u32;
                let tp = out_t[r];
                let tn = self.n_normal - out_n[r];
                f(Scored {
                    score: self.alpha.score(tp, tn),
                    tp,
                    tn,
                    genes,
                });
            }
            done += chunk;
        }
        self.combo[0] = (lo + n - 1) as u32;
    }

    /// Score the leaves at the current position, feeding each to `f` in colex
    /// order, and return how many: the level-0 sibling run
    /// `[combo[0], combo[1])` clamped to `remaining` as block sweeps, or the
    /// current combination alone when stepping. Level-0 siblings are never
    /// individually pruned ([`Self::advance`] bound-checks levels `>= 1`
    /// only), so sweeping and stepping score exactly the same set.
    #[inline]
    fn leaf_run<F: FnMut(Scored<H>)>(&mut self, remaining: u64, mut f: F) -> u64 {
        if !self.sweep_enabled() {
            f(self.score_current());
            return 1;
        }
        let n = u64::from(self.level0_limit() - self.combo[0]).min(remaining);
        self.sweep_level0(n as usize, f);
        n
    }

    /// Move to the next combination in colex order whose subtree survives
    /// `cut`, charging every subtree skipped on the way to `stats` and to
    /// `remaining` (clamped, so a subtree overhanging the caller's range
    /// never over-counts). Returns `false` when the enumeration is
    /// exhausted; `remaining == 0` on return means the range ended inside a
    /// pruned subtree. `cut: None` is the exhaustive walk.
    ///
    /// A subtree is cut when its bound is below the sink's floor, or equal
    /// to it and the sink proves that a tie inside the subtree loses under
    /// [`Scored::cmp_det`] ([`Sink::tie_loses`]). `shared` carries floors
    /// published by other workers, whose holders may be colex-*later* than
    /// this subtree, so that cut needs the bound strictly below it.
    //
    // Out of line on purpose, as the three loops it replaced were: left to
    // the inliner it measured luad_h4/wall_s 2.68 s against 2.46 s as a call
    // (6 of 6 rotations; 2.63 s before the fold).
    #[inline(never)]
    fn advance<S: Sink<H>>(
        &mut self,
        remaining: &mut u64,
        cut: Option<&S>,
        shared: Option<&AtomicU64>,
        stats: &mut ScanStats,
    ) -> bool {
        // Lowest level to rebuild: the sweep scores candidates straight off
        // the level-1 partial and never reads the leaf's.
        let floor = usize::from(self.sweep_enabled());
        // Smallest level allowed to move; pruning at level `t` resumes the
        // colex enumeration at the first combination past the subtree, which
        // is exactly "advance at level >= t".
        let mut from = 0usize;
        'advance: loop {
            let mut moved = usize::MAX;
            for t in from..H {
                let limit = if t + 1 < H { self.combo[t + 1] } else { self.g };
                if self.combo[t] + 1 < limit {
                    self.combo[t] += 1;
                    for (low, c) in self.combo.iter_mut().enumerate().take(t) {
                        *c = low as u32;
                    }
                    moved = t;
                    break;
                }
            }
            if moved == usize::MAX {
                return false;
            }
            // Rebuild top-down, checking the F upper bound at every level
            // above the leaves. After the advance, coordinates below `level`
            // are minimal, so the C(c[level], level) combinations of the
            // subtree are exactly the next ones in colex order.
            for level in (floor..=moved).rev() {
                self.rebuild_level(level);
                if level == 0 {
                    break;
                }
                let Some(sink) = cut else { continue };
                let bound = self.alpha.score(self.pop_t[level], self.n_normal);
                if sink.floor().is_some_and(|f| {
                    bound < f || (bound == f && sink.tie_loses(&self.combo[level..]))
                }) || shared.is_some_and(|sh| bound < sh.load(Ordering::Relaxed))
                {
                    let subtree = binomial(u64::from(self.combo[level]), level as u64);
                    let skipped = subtree.min(*remaining);
                    stats.pruned_subtrees += 1;
                    stats.pruned_combos += skipped;
                    *remaining -= skipped;
                    if *remaining == 0 {
                        return true;
                    }
                    from = level;
                    continue 'advance;
                }
            }
            return true;
        }
    }

    /// The one traversal: score `count` combinations from the current
    /// position into `sink`, skipping bound-dominated subtrees when `prune`
    /// is set. Every combination of the range is either scored or counted
    /// in a pruned subtree. `shared`, when given, receives the sink's floor
    /// each time it may have risen and tightens [`Self::advance`]'s cut.
    fn walk<S: Sink<H>>(
        &mut self,
        count: u64,
        sink: &mut S,
        prune: bool,
        shared: Option<&AtomicU64>,
        stats: &mut ScanStats,
    ) {
        let mut remaining = count;
        while remaining > 0 {
            let n = self.leaf_run(remaining, |s| {
                if sink.take(s) {
                    if let (Some(sh), Some(floor)) = (shared, sink.floor()) {
                        sh.fetch_max(floor, Ordering::Relaxed);
                    }
                }
            });
            stats.scored += n;
            remaining -= n;
            if remaining == 0
                || !self.advance(&mut remaining, prune.then_some(&*sink), shared, stats)
            {
                break;
            }
        }
    }

    /// Scan `count` combinations starting at the current position, returning
    /// the deterministic best.
    #[must_use]
    pub fn scan(&mut self, count: u64) -> Scored<H> {
        let mut best = Scored::NEG_INFINITY;
        self.walk(count, &mut best, false, None, &mut ScanStats::default());
        best
    }

    /// Scan `count` combinations with branch-and-bound pruning. Returns the
    /// deterministic best of `seed` and the scanned range — bit-identical to
    /// `seed.max_det(self.scan(count))`.
    ///
    /// `seed` must come from combinations that are colex-*earlier* than this
    /// range (or be `NEG_INFINITY`): a subtree is cut when its bound cannot
    /// *strictly* beat the incumbent's score, which is exact because
    /// colex-later ties lose under [`Scored::cmp_det`]. `shared`, when
    /// given, carries the best score seen by *any* worker; that one may be
    /// colex-later than this range, so the shared cut requires the bound to
    /// be strictly below it.
    pub fn scan_pruned(
        &mut self,
        count: u64,
        seed: Scored<H>,
        shared: Option<&AtomicU64>,
        stats: &mut ScanStats,
    ) -> Scored<H> {
        let mut best = seed;
        self.walk(count, &mut best, true, shared, stats);
        best
    }
}

/// Find the argmax-F combination over all `C(G,H)` candidates.
///
/// Thin wrapper over [`best_combination_stats`] for callers that do not need
/// the scan accounting.
#[must_use]
pub fn best_combination<const H: usize>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    tumor_mask: Option<&[u64]>,
    cfg: &GreedyConfig,
) -> Scored<H> {
    best_combination_stats(tumor, normal, tumor_mask, cfg).0
}

/// The colex ranks `0..C(G, H)` a full scan of `g` genes walks.
///
/// # Panics
/// Panics when `C(G, H)` does not fit in `u64` (at H = 5, past
/// G = 18,580): `binomial` saturates there, and a scan of the saturated
/// range would skip the ranks above `u64::MAX` without a word.
fn full_space<const H: usize>(g: usize) -> std::ops::Range<u64> {
    let n = binomial(g as u64, H as u64);
    assert!(
        n < u64::MAX,
        "G = {g}, H = {H}: C({g}, {H}) colex ranks exceed u64::MAX; a full scan \
         needs C(G, H) < u64::MAX (G <= 18,580 at H = 5)"
    );
    0..n
}

/// Find the argmax-F combination and report how the scan got there.
///
/// With `cfg.parallel` the range is scanned by work-stealing workers that
/// share their pruning bound; per-worker winners fold with
/// [`fold_partials`], so the result is bit-identical to the sequential scan
/// regardless of schedule, and with `cfg.prune` off it is bit-identical to
/// the exhaustive reference.
///
/// # Panics
/// Panics when `C(G, H)` does not fit in `u64` (at H = 5, past G = 18,580).
#[must_use]
pub fn best_combination_stats<const H: usize>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    tumor_mask: Option<&[u64]>,
    cfg: &GreedyConfig,
) -> (Scored<H>, ScanStats) {
    let all = full_space::<H>(tumor.n_genes());
    let (bests, stats) = scan_range(tumor, normal, tumor_mask, cfg, 0, &[all], || {
        Scored::NEG_INFINITY
    });
    (fold_partials(bests), stats)
}

/// Resolve [`GreedyConfig::sparse`] for a scan over these matrices: build
/// the per-gene skip indexes (once per scan; splicing invalidates them) and
/// keep them only when forced on or the zero-word fraction clears
/// [`SPARSE_AUTO_THRESHOLD`].
fn build_skip(
    mode: SparseMode,
    tumor: &BitMatrix,
    normal: &BitMatrix,
) -> Option<(SkipIndex, SkipIndex)> {
    if mode == SparseMode::Off {
        return None;
    }
    let ts = SkipIndex::build(tumor);
    let ns = SkipIndex::build(normal);
    let frac = (ts.zero_word_fraction() + ns.zero_word_fraction()) / 2.0;
    (mode == SparseMode::On || frac >= SPARSE_AUTO_THRESHOLD).then_some((ts, ns))
}

/// Gene ids heaviest first: descending (masked) tumour popcount, ties by
/// ascending id. A row's popcount is the top-level bound of every
/// combination it heads, so in this order the bound only falls as the walk
/// proceeds and the heavy combinations are scored first.
fn popcount_order(tumor: &BitMatrix, tumor_mask: Option<&[u64]>) -> Vec<u32> {
    let weight = |g: usize| match tumor_mask {
        Some(m) => kernel::and_popcount(tumor.row(g), m),
        None => tumor.row_popcount(g),
    };
    let mut keyed: Vec<(Reverse<u32>, u32)> = (0..tumor.n_genes())
        .map(|g| (Reverse(weight(g)), g as u32))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, g)| g).collect()
}

/// Walk the combinations whose colex ranks lie in `ranges` into one sink
/// per worker.
///
/// With `cfg.parallel` a [`BlockQueue`] λ-cursor over the ranges laid end
/// to end hands guided-size blocks to one worker per core; each worker
/// threads its own sink through the blocks it takes, a block's pieces of
/// each range in turn, and, when pruning, publishes the sink's floor to a
/// shared atomic that tightens every worker's cut.
///
/// A pruned scan walks the genes heaviest first ([`popcount_order`]), over
/// row-permuted copies of both matrices, so that the first combinations
/// scored set a high floor and the bound cuts early; `ranges` rank
/// combinations of those permuted rows. Each worker's sink is wrapped in
/// [`Ordered`], which maps the scanned rows back to gene ids: over the
/// whole range the sinks come back holding exactly what an identity-order
/// scan leaves. An unpruned scan keeps the identity order and pays nothing.
///
/// `seed` hot-starts that shared bound. It must be a floor the **current**
/// matrices witness — as many combinations scoring at least `seed` as a
/// sink holds when full (one for the argmax, K for a top-K) — or 0: the
/// shared cut drops subtrees whose bound is strictly below it. Seeding never
/// changes what the sinks end up holding, only how soon the cut bites.
fn scan_range<const H: usize, S: Sink<H> + Send>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    tumor_mask: Option<&[u64]>,
    cfg: &GreedyConfig,
    seed: u64,
    ranges: &[Range<u64>],
    new_sink: impl Fn() -> S + Sync,
) -> (Vec<S>, ScanStats) {
    // Where each range ends, the ranges laid end to end.
    let ends: Vec<u64> = ranges
        .iter()
        .scan(0, |end, r| {
            *end += r.end - r.start;
            Some(*end)
        })
        .collect();
    let total = ends.last().copied().unwrap_or(0);
    let mut stats = ScanStats::default();
    if total == 0 {
        return (Vec::new(), stats);
    }
    // Never spawn more workers than there are min-grain blocks of work.
    let workers = if cfg.parallel {
        let cap = usize::try_from(total.div_ceil(par::DEFAULT_MIN_GRAIN)).unwrap_or(usize::MAX);
        par::default_workers().min(cap).max(1)
    } else {
        1
    };
    let order = cfg.prune.then(|| popcount_order(tumor, tumor_mask));
    let ordered = order
        .as_deref()
        .map(|o| (tumor.select_rows(o), normal.select_rows(o)));
    let (tumor, normal) = match &ordered {
        Some((t, n)) => (t, n),
        None => (tumor, normal),
    };
    let skip = build_skip(cfg.sparse, tumor, normal);
    let make_scanner = |start: u64| {
        let mut sc = match &skip {
            Some((ts, ns)) => {
                ComboScanner::<H>::with_skip(tumor, normal, tumor_mask, cfg.alpha, start, (ts, ns))
            }
            None => ComboScanner::<H>::new(tumor, normal, tumor_mask, cfg.alpha, start),
        };
        if !cfg.block_sweep {
            sc.set_sweep_width(1);
        }
        sc
    };
    // A lone worker takes all the ranges as one block.
    let min_grain = if workers == 1 {
        total
    } else {
        par::DEFAULT_MIN_GRAIN
    };
    let queue = BlockQueue::with_grain(total, workers, min_grain);
    // Only when somebody reads it: on a lone unseeded worker the bound is a
    // `fetch_max` per floor rise and a load per bound check for nothing
    // (luad_h4/wall_s +2.8 % when always on, 6 of 6 rotations).
    let shared = (cfg.prune && (workers > 1 || seed > 0)).then(|| AtomicU64::new(seed));
    let results = par::run_workers(workers, |_| {
        let mut sink = new_sink();
        let mut st = ScanStats::default();
        // One scanner per worker, re-seeked at every piece of every block:
        // block turnover must not re-allocate the per-level partial buffers.
        let mut scanner: Option<ComboScanner<H>> = None;
        while let Some((mut at, hi)) = queue.next() {
            st.blocks += 1;
            while at < hi {
                // The range holding `at`, and the block's piece of it.
                let i = ends.partition_point(|&e| e <= at);
                let end = ends[i].min(hi);
                let start = ranges[i].end - (ends[i] - at);
                let sc = match scanner.as_mut() {
                    Some(sc) => {
                        sc.reseek(start);
                        sc
                    }
                    None => {
                        st.scanner_builds += 1;
                        scanner.insert(make_scanner(start))
                    }
                };
                let (count, shared) = (end - at, shared.as_ref());
                match order.as_deref() {
                    Some(genes) => {
                        let mut sink = Ordered {
                            inner: &mut sink,
                            genes,
                        };
                        sc.walk(count, &mut sink, cfg.prune, shared, &mut st);
                    }
                    None => sc.walk(count, &mut sink, cfg.prune, shared, &mut st),
                }
                at = end;
            }
        }
        if let Some(sc) = &scanner {
            st.words_skipped = sc.words_skipped();
            st.block_sweeps = sc.block_sweeps();
            st.swept_rows = sc.swept_rows();
        }
        st.steals = st.blocks.saturating_sub(1);
        (sink, st)
    });
    let mut sinks = Vec::with_capacity(results.len());
    for (sink, st) in results {
        stats.merge(&st);
        sinks.push(sink);
    }
    // Block churn must never re-allocate scanners: one build per worker.
    debug_assert!(
        stats.scanner_builds <= workers as u64,
        "{} scanner builds for {workers} workers",
        stats.scanner_builds
    );
    (sinks, stats)
}

/// Full scan that also *builds* the lazy-greedy frontier: the global
/// top-`cfg.frontier_k` list (merged across workers with the same rule as
/// [`crate::reduce::merge_top_k`]) plus its K-th-score floor.
///
/// The returned argmax is bit-identical to [`best_combination_stats`]:
/// it is the head of the deterministic top-K. Pruning uses the weaker
/// full-heap-floor cut (a subtree may hold a top-K member even when it
/// cannot hold the argmax), so iteration-1 costs somewhat more than the
/// 1-best scan — the frontier pays that back on every skipped iteration.
/// `seed_floor` hot-starts the shared cut; it must be witnessed by
/// `cfg.frontier_k` current combinations (the rescored frontier's K-th
/// score qualifies) or be 0.
///
/// # Panics
/// Panics when `C(G, H)` does not fit in `u64` (at H = 5, past G = 18,580).
#[must_use]
pub fn best_combination_frontier<const H: usize>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    tumor_mask: Option<&[u64]>,
    cfg: &GreedyConfig,
    seed_floor: u64,
) -> (Scored<H>, ScanStats, Frontier<H>) {
    let k = cfg.frontier_k;
    let all = full_space::<H>(tumor.n_genes());
    let total = all.end;
    let (accs, stats) = scan_range(tumor, normal, tumor_mask, cfg, seed_floor, &[all], || {
        TopK::new(k)
    });
    let shards: Vec<_> = accs.into_iter().map(TopK::into_sorted).collect();
    let fr = Frontier::from_shards(&shards, k, total);
    (fr.best(), stats, fr)
}

/// Score the slab `[lo, hi)` of `scheme`'s threads — one GPU's share of a
/// distributed iteration — and return its `keep` best combinations, best
/// first (empty when the slab holds no combination).
///
/// The slab is its colex ranges ([`Scheme4::for_each_colex_range`]) of the
/// matrices' rows in the popcount order [`discover`]'s scans use, walked
/// by one dense pruned scanner into one top-K. Every rank holding these
/// matrices derives the same order, so the slabs of a partition still tile `C(G,4)`; the
/// result is [`crate::reduce::top_k`] over the slab's combinations, mapped
/// back to gene ids. Every combination is either scored or counted in a
/// pruned subtree, so `scored + pruned_combos` is the slab's scheduler area.
#[must_use]
pub fn scan_slab4(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    alpha: Alpha,
    scheme: Scheme4,
    lo: u64,
    hi: u64,
    keep: usize,
) -> (Vec<Scored<4>>, ScanStats) {
    let mut ranges = Vec::new();
    scheme.for_each_colex_range(lo, hi, tumor.n_genes() as u32, |r| ranges.push(r));
    let cfg = GreedyConfig {
        alpha,
        parallel: false,
        prune: true,
        sparse: SparseMode::Off,
        ..GreedyConfig::default()
    };
    let (mut accs, stats) = scan_range(tumor, normal, None, &cfg, 0, &ranges, || TopK::new(keep));
    (accs.pop().map_or_else(Vec::new, TopK::into_sorted), stats)
}

/// Run the full greedy weighted-set-cover discovery for `H`-hit
/// combinations.
#[must_use]
pub fn discover<const H: usize>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &GreedyConfig,
) -> GreedyResult<H> {
    discover_obs(tumor, normal, cfg, &Obs::disabled())
}

/// [`discover`] with per-iteration observability.
///
/// Emits one `greedy_iter` point per iteration (`scan_ns`, `combos_scored`,
/// `combos_per_sec`, `splice_ns`, coverage progress), all under a
/// `discover` span. With a disabled [`Obs`] the
/// instrumentation is branch-only and the selected combinations are
/// identical to [`discover`] by construction.
#[must_use]
pub fn discover_obs<const H: usize>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &GreedyConfig,
    obs: &Obs,
) -> GreedyResult<H> {
    if cfg.kernelize {
        // Reduce first, run the greedy loop on the reduced instance, and
        // un-map. Bit-identical panels either way (see `crate::kernelize`).
        return crate::kernelize::discover_kernelized_obs::<H>(tumor, normal, cfg, obs);
    }
    let _run_span = obs.span("discover");
    let n_tumor = tumor.n_samples() as u32;
    let n_normal = normal.n_samples() as u32;
    let mut work_tumor = tumor.clone();
    let mut mask = tumor.full_mask();
    let mut remaining = n_tumor;
    let mut combinations = Vec::new();
    let mut iterations = Vec::new();
    // Lazy-greedy frontier, carried across iterations (see `frontier`).
    let mut frontier_state: Option<Frontier<H>> = None;

    while remaining > 0 {
        if cfg.max_combinations != 0 && combinations.len() >= cfg.max_combinations {
            break;
        }
        let iter_span = obs.span("greedy_iter");
        let mask_arg = match cfg.exclusion {
            Exclusion::BitSplice => None,
            Exclusion::Mask => Some(mask.as_slice()),
        };
        let combos_scored = binomial(work_tumor.n_genes() as u64, H as u64);
        let mut frontier_hit = false;
        let mut frontier_rescored = 0u64;
        let scan_start = Instant::now();
        let (best, scan_stats) = if cfg.frontier_k > 0 {
            // Rescore the retained top-K; a strict floor clear proves the
            // global argmax without scanning. On a miss, rebuild the
            // frontier with the shared cut seeded from the rescored K-th
            // score (witnessed by K current combinations).
            let mut seed_floor = 0u64;
            let mut hit = None;
            if let Some(fr) = frontier_state.as_ref() {
                let r = fr.rescore(&work_tumor, normal, mask_arg, cfg.alpha);
                frontier_rescored = r.rescored;
                if fr.is_hit(&r.best) {
                    frontier_hit = true;
                    hit = Some((r.best, ScanStats::default()));
                } else {
                    seed_floor = r.kth_score;
                }
            }
            match hit {
                Some(found) => found,
                None => {
                    let (best, st, fr) = best_combination_frontier::<H>(
                        &work_tumor,
                        normal,
                        mask_arg,
                        cfg,
                        seed_floor,
                    );
                    frontier_state = Some(fr);
                    (best, st)
                }
            }
        } else {
            best_combination_stats::<H>(&work_tumor, normal, mask_arg, cfg)
        };
        let scan_ns = u64::try_from(scan_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if best.tp == 0 {
            // No combination covers any remaining tumor sample: stall.
            drop(iter_span);
            break;
        }
        let newly = best.tp;
        remaining -= newly;
        let words = work_tumor.words_per_row();
        let splice_start = Instant::now();
        let mut splice_words = 0u64;
        match cfg.exclusion {
            Exclusion::BitSplice => {
                let cov = work_tumor.cover_mask(&best.genes);
                let mut keep = work_tumor.full_mask();
                for (k, c) in keep.iter_mut().zip(cov.iter()) {
                    *k &= !c;
                }
                splice_words = work_tumor.splice_words_written(&keep);
                work_tumor = work_tumor.splice_columns(&keep);
            }
            Exclusion::Mask => {
                let cov = work_tumor.cover_mask(&best.genes);
                for (m, c) in mask.iter_mut().zip(cov.iter()) {
                    *m &= !c;
                }
            }
        }
        let splice_ns = u64::try_from(splice_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if obs.is_enabled() {
            let combos_per_sec = if scan_ns == 0 {
                0.0
            } else {
                combos_scored as f64 / (scan_ns as f64 / 1e9)
            };
            obs.point(
                "greedy_iter",
                &[
                    ("iter", iterations.len().into()),
                    ("scan_ns", scan_ns.into()),
                    ("combos_scored", combos_scored.into()),
                    ("combos_per_sec", combos_per_sec.into()),
                    ("exclusion", cfg.exclusion.name().into()),
                    ("splice_ns", splice_ns.into()),
                    ("splice_words", splice_words.into()),
                    ("newly_covered", u64::from(newly).into()),
                    ("remaining", u64::from(remaining).into()),
                    ("words_per_row", words.into()),
                    ("scan_scored", scan_stats.scored.into()),
                    ("pruned_combos", scan_stats.pruned_combos.into()),
                    ("pruned_subtrees", scan_stats.pruned_subtrees.into()),
                    ("steal_blocks", scan_stats.blocks.into()),
                    ("steals", scan_stats.steals.into()),
                    ("frontier_hit", u64::from(frontier_hit).into()),
                    ("frontier_rescored", frontier_rescored.into()),
                    ("words_skipped", scan_stats.words_skipped.into()),
                    ("block_sweeps", scan_stats.block_sweeps.into()),
                    ("swept_rows", scan_stats.swept_rows.into()),
                    ("kernel", kernel::active().name().into()),
                ],
            );
        }
        drop(iter_span);
        iterations.push(IterationRecord {
            best,
            f: best.f_value(cfg.alpha, n_tumor, n_normal),
            newly_covered: newly,
            remaining,
            words_per_row: words,
        });
        combinations.push(best.genes);
    }

    GreedyResult {
        combinations,
        iterations,
        uncovered: remaining,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::RunReport;
    use crate::weight::score_combo;

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
                if next() % 6 == 0 {
                    n.set(gene, s, true);
                }
            }
        }
        (t, n)
    }

    /// Empty matrices one gene past the largest G whose 5-hit space fits
    /// in `u64`: the refusal comes before any scan.
    fn past_five_hit_limit() -> (BitMatrix, BitMatrix) {
        (BitMatrix::zeros(18_581, 1), BitMatrix::zeros(18_581, 1))
    }

    #[test]
    #[should_panic(expected = "G = 18581, H = 5")]
    fn argmax_scan_refuses_a_space_past_u64() {
        let (t, n) = past_five_hit_limit();
        let _ = best_combination_stats::<5>(&t, &n, None, &GreedyConfig::default());
    }

    #[test]
    #[should_panic(expected = "G = 18581, H = 5")]
    fn frontier_scan_refuses_a_space_past_u64() {
        let (t, n) = past_five_hit_limit();
        let _ = best_combination_frontier::<5>(&t, &n, None, &GreedyConfig::default(), 0);
    }

    fn brute_best<const H: usize>(t: &BitMatrix, n: &BitMatrix, mask: Option<&[u64]>) -> Scored<H> {
        let g = t.n_genes() as u64;
        let mut best = Scored::NEG_INFINITY;
        for l in 0..binomial(g, H as u64) {
            let genes = unrank_tuple::<H>(l);
            let mut s = score_combo(t, n, &genes, Alpha::PAPER);
            if let Some(m) = mask {
                // Recount TP under the mask.
                let cov = t.cover_mask(&genes);
                let tp: u32 = cov.iter().zip(m).map(|(c, mm)| (c & mm).count_ones()).sum();
                s = Scored {
                    score: Alpha::PAPER.score(tp, s.tn),
                    tp,
                    tn: s.tn,
                    genes,
                };
            }
            best = best.max_det(s);
        }
        best
    }

    #[test]
    fn scanner_matches_brute_force_h2_h3_h4() {
        let (t, n) = lcg_matrices(11, 100, 60, 5);
        let cfg = GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        };
        assert_eq!(
            best_combination::<2>(&t, &n, None, &cfg),
            brute_best::<2>(&t, &n, None)
        );
        assert_eq!(
            best_combination::<3>(&t, &n, None, &cfg),
            brute_best::<3>(&t, &n, None)
        );
        assert_eq!(
            best_combination::<4>(&t, &n, None, &cfg),
            brute_best::<4>(&t, &n, None)
        );
    }

    #[test]
    fn parallel_equals_sequential() {
        let (t, n) = lcg_matrices(13, 128, 64, 21);
        let seq = GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        };
        let par = GreedyConfig {
            parallel: true,
            ..GreedyConfig::default()
        };
        for _ in 0..2 {
            assert_eq!(
                best_combination::<3>(&t, &n, None, &par),
                best_combination::<3>(&t, &n, None, &seq)
            );
        }
    }

    #[test]
    fn scanner_respects_mask() {
        let (t, n) = lcg_matrices(9, 70, 40, 2);
        // Mask off the first word of samples.
        let mut mask = t.full_mask();
        mask[0] = 0;
        let cfg = GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        };
        let got = best_combination::<2>(&t, &n, Some(&mask), &cfg);
        assert_eq!(got, brute_best::<2>(&t, &n, Some(&mask)));
    }

    #[test]
    fn scanner_chunked_start_positions() {
        // Starting mid-range must continue the same enumeration.
        let (t, n) = lcg_matrices(10, 64, 32, 8);
        let total = binomial(10, 3);
        let mut full = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
        let whole = full.scan(total);
        let mut a = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
        let first = a.scan(total / 2);
        let mut b = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, total / 2);
        let second = b.scan(total - total / 2);
        assert_eq!(first.max_det(second), whole);
    }

    #[test]
    fn sparse_scan_is_bit_identical_to_dense() {
        use crate::bitmat::SkipIndex;
        for seed in [4u64, 19, 73] {
            let (t, n) = lcg_matrices(12, 200, 130, seed);
            let total = binomial(12, 3);
            let ts = SkipIndex::build(&t);
            let ns = SkipIndex::build(&n);
            let mut dense = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
            let mut sparse =
                ComboScanner::<3>::with_skip(&t, &n, None, Alpha::PAPER, 0, (&ts, &ns));
            assert_eq!(sparse.scan(total), dense.scan(total));
            // Under a mask too.
            let mut mask = t.full_mask();
            mask[0] &= 0x0f0f_0f0f_0f0f_0f0f;
            let mut dense = ComboScanner::<3>::new(&t, &n, Some(&mask), Alpha::PAPER, 0);
            let mut sparse =
                ComboScanner::<3>::with_skip(&t, &n, Some(&mask), Alpha::PAPER, 0, (&ts, &ns));
            assert_eq!(sparse.scan(total), dense.scan(total));
        }
    }

    #[test]
    fn sparse_mode_on_matches_off_end_to_end() {
        let (t, n) = lcg_matrices(14, 150, 90, 33);
        let base = GreedyConfig {
            parallel: false,
            sparse: SparseMode::Off,
            ..GreedyConfig::default()
        };
        let on = GreedyConfig {
            sparse: SparseMode::On,
            ..base
        };
        let want = discover::<3>(&t, &n, &base);
        let got = discover::<3>(&t, &n, &on);
        assert_eq!(want.combinations, got.combinations);
        assert_eq!(want.uncovered, got.uncovered);
        // On a genuinely sparse input the sparse path must skip zero words
        // (and Auto must pick it up).
        let mut st = BitMatrix::zeros(8, 640);
        let mut sn = BitMatrix::zeros(8, 640);
        for g in 0..8 {
            st.set(g, g * 70, true);
            st.set(g, g * 70 + 3, true);
            sn.set(g, 639 - g, true);
        }
        let auto = GreedyConfig {
            sparse: SparseMode::Auto,
            ..base
        };
        let (_, stats) = best_combination_stats::<3>(&st, &sn, None, &auto);
        assert!(stats.words_skipped > 0, "stats: {stats:?}");
    }

    #[test]
    fn pruned_scan_is_bit_identical_to_unpruned() {
        for seed in [3u64, 17, 99] {
            let (t, n) = lcg_matrices(12, 120, 60, seed);
            let unpruned = GreedyConfig {
                parallel: false,
                prune: false,
                ..GreedyConfig::default()
            };
            let pruned = GreedyConfig {
                parallel: false,
                prune: true,
                ..GreedyConfig::default()
            };
            let (want, base) = best_combination_stats::<3>(&t, &n, None, &unpruned);
            let (got, st) = best_combination_stats::<3>(&t, &n, None, &pruned);
            assert_eq!(got, want);
            // Pruning must account for every enumerated combination exactly.
            assert_eq!(st.scored + st.pruned_combos, base.scored);
        }
    }

    #[test]
    fn pruned_scan_identical_under_mask() {
        let (t, n) = lcg_matrices(10, 90, 45, 41);
        let mut mask = t.full_mask();
        mask[0] &= 0x00ff_00ff_00ff_00ff;
        let unpruned = GreedyConfig {
            parallel: false,
            prune: false,
            ..GreedyConfig::default()
        };
        let pruned = GreedyConfig {
            parallel: false,
            prune: true,
            ..GreedyConfig::default()
        };
        assert_eq!(
            best_combination::<3>(&t, &n, Some(&mask), &pruned),
            best_combination::<3>(&t, &n, Some(&mask), &unpruned)
        );
    }

    #[test]
    fn pruned_scan_handles_all_zero_tumor() {
        // Every combination has TP = 0, so every subtree bound is 0 and the
        // scan prunes to a single scored combination — which must still be
        // the colex-first one the unpruned scan returns by tie-break.
        let t = BitMatrix::zeros(8, 50);
        let (_, n) = lcg_matrices(8, 50, 30, 7);
        let unpruned = GreedyConfig {
            parallel: false,
            prune: false,
            ..GreedyConfig::default()
        };
        let pruned = GreedyConfig {
            parallel: false,
            prune: true,
            ..GreedyConfig::default()
        };
        let want = best_combination::<3>(&t, &n, None, &unpruned);
        let (got, st) = best_combination_stats::<3>(&t, &n, None, &pruned);
        assert_eq!(got, want);
        assert_eq!(got.genes, [0, 1, 2]);
        assert_eq!(st.scored, 1, "everything after the first combo prunes");
    }

    #[test]
    fn pruned_scan_range_splits_compose() {
        // scan_pruned over [0, k) and [k, total) with threaded seed must
        // equal one scan over [0, total): the block-queue contract.
        let (t, n) = lcg_matrices(11, 80, 40, 23);
        let total = binomial(11, 3);
        let mut stats = ScanStats::default();
        let mut whole = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
        let want = whole.scan_pruned(total, Scored::NEG_INFINITY, None, &mut stats);
        for k in [1, 7, total / 3, total / 2, total - 1] {
            let mut st = ScanStats::default();
            let mut a = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
            let first = a.scan_pruned(k, Scored::NEG_INFINITY, None, &mut st);
            let mut b = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, k);
            let got = b.scan_pruned(total - k, first, None, &mut st);
            assert_eq!(got, want, "split at {k}");
            assert_eq!(st.scored + st.pruned_combos, total);
        }
    }

    #[test]
    fn parallel_pruned_equals_sequential_unpruned() {
        let (t, n) = lcg_matrices(13, 128, 64, 55);
        let reference = GreedyConfig {
            parallel: false,
            prune: false,
            ..GreedyConfig::default()
        };
        let accelerated = GreedyConfig {
            parallel: true,
            prune: true,
            ..GreedyConfig::default()
        };
        let want = best_combination::<3>(&t, &n, None, &reference);
        for _ in 0..3 {
            assert_eq!(best_combination::<3>(&t, &n, None, &accelerated), want);
        }
    }

    #[test]
    fn discover_agrees_across_all_scan_modes() {
        let (t, n) = lcg_matrices(10, 150, 80, 61);
        let reference = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                prune: false,
                ..GreedyConfig::default()
            },
        );
        for parallel in [false, true] {
            for exclusion in [Exclusion::BitSplice, Exclusion::Mask] {
                let got = discover::<2>(
                    &t,
                    &n,
                    &GreedyConfig {
                        parallel,
                        prune: true,
                        exclusion,
                        ..GreedyConfig::default()
                    },
                );
                assert_eq!(got.combinations, reference.combinations);
                assert_eq!(got.uncovered, reference.uncovered);
            }
        }
    }

    #[test]
    fn greedy_covers_all_tumors_on_easy_data() {
        // Plant two 2-hit combos that jointly cover everything.
        let mut t = BitMatrix::zeros(6, 80);
        let mut n = BitMatrix::zeros(6, 40);
        for s in 0..40 {
            t.set(0, s, true);
            t.set(1, s, true);
        }
        for s in 40..80 {
            t.set(2, s, true);
            t.set(3, s, true);
        }
        // Sprinkle normals with singleton mutations only.
        for s in 0..40 {
            n.set(4, s % 40, true);
        }
        let res = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                ..Default::default()
            },
        );
        assert_eq!(res.uncovered, 0);
        assert_eq!(res.combinations.len(), 2);
        let set: std::collections::HashSet<_> = res.combinations.iter().copied().collect();
        assert!(set.contains(&[0, 1]) && set.contains(&[2, 3]));
        assert!((res.coverage(80) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn splice_and_mask_modes_select_identical_combinations() {
        let (t, n) = lcg_matrices(10, 150, 80, 33);
        let a = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                exclusion: Exclusion::BitSplice,
                parallel: false,
                ..Default::default()
            },
        );
        let b = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                exclusion: Exclusion::Mask,
                parallel: false,
                ..Default::default()
            },
        );
        assert_eq!(a.combinations, b.combinations);
        assert_eq!(a.uncovered, b.uncovered);
        // Splicing shrinks rows over iterations; masking never does.
        let spliced_words: Vec<_> = a.iterations.iter().map(|r| r.words_per_row).collect();
        let masked_words: Vec<_> = b.iterations.iter().map(|r| r.words_per_row).collect();
        assert!(spliced_words.last().unwrap() <= spliced_words.first().unwrap());
        assert!(masked_words.iter().all(|&w| w == masked_words[0]));
    }

    #[test]
    fn greedy_iteration_records_are_consistent() {
        let (t, n) = lcg_matrices(8, 100, 50, 12);
        let res = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                ..Default::default()
            },
        );
        let mut covered = 0u32;
        for rec in &res.iterations {
            covered += rec.newly_covered;
            assert_eq!(rec.remaining, 100 - covered);
            assert!(rec.newly_covered > 0);
            assert!(rec.f > 0.0);
        }
        assert_eq!(res.uncovered, 100 - covered);
    }

    #[test]
    fn max_combinations_caps_the_run() {
        let (t, n) = lcg_matrices(8, 200, 50, 90);
        let res = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                max_combinations: 1,
                parallel: false,
                ..Default::default()
            },
        );
        assert_eq!(res.combinations.len(), 1);
    }

    #[test]
    fn frontier_scan_matches_stats_scan_and_brute_top_k() {
        use crate::reduce::top_k;
        for (k, seed) in [(1usize, 3u64), (4, 17), (64, 99)] {
            let (t, n) = lcg_matrices(12, 120, 60, seed);
            let cfg = GreedyConfig {
                parallel: false,
                frontier_k: k,
                ..GreedyConfig::default()
            };
            let (want, _) = best_combination_stats::<3>(&t, &n, None, &cfg);
            let (got, st, fr) = best_combination_frontier::<3>(&t, &n, None, &cfg, 0);
            assert_eq!(got, want, "k={k}");
            assert_eq!(fr.best(), want, "k={k}");
            // The pruned top-K scan must still account for every combination.
            let total = binomial(12, 3);
            assert_eq!(st.scored + st.pruned_combos, total, "k={k}");
            // And the retained entries are the exhaustive top-K.
            let all: Vec<Scored<3>> = (0..total)
                .map(|l| score_combo(&t, &n, &unrank_tuple::<3>(l), Alpha::PAPER))
                .collect();
            assert_eq!(fr.entries(), &top_k(&all, k)[..], "k={k}");
        }
    }

    /// The slab's combinations scored one by one through the scheme's own
    /// enumeration — what the exhaustive GPU kernel evaluates — over the
    /// popcount-ordered rows `scan_slab4` walks, mapped back to gene ids.
    fn slab_scores(
        t: &BitMatrix,
        n: &BitMatrix,
        scheme: Scheme4,
        lo: u64,
        hi: u64,
    ) -> Vec<Scored<4>> {
        let order = popcount_order(t, None);
        let (t, n) = (t.select_rows(&order), n.select_rows(&order));
        let mut all = Vec::new();
        for lambda in lo..hi {
            scheme.for_each_combo(lambda, t.n_genes() as u32, |rows| {
                let mut s = score_combo(&t, &n, &rows, Alpha::PAPER);
                s.genes = rows.map(|r| order[r as usize]);
                s.genes.sort_unstable();
                all.push(s);
            });
        }
        all
    }

    #[test]
    fn slab_scan_matches_exhaustive_top_k() {
        use crate::reduce::{merge_top_k, top_k};
        let g = 11;
        let (t, n) = lcg_matrices(g, 96, 64, 29);
        // Tie-heavy inputs, where a wrong cut rule or range order shows:
        // no tumour sample mutated at all (TP = 0 everywhere, the score is
        // TN alone), and three distinct gene rows repeated down the matrix.
        let mut dup_t = BitMatrix::zeros(g, 96);
        let mut dup_n = BitMatrix::zeros(g, 64);
        for gene in 0..g {
            for s in 0..96 {
                dup_t.set(gene, s, t.get(gene % 3, s));
            }
            for s in 0..64 {
                dup_n.set(gene, s, n.get(gene % 3, s));
            }
        }
        let fixtures = [
            ("random", t.clone(), n.clone()),
            ("zero tumour", BitMatrix::zeros(g, 96), n.clone()),
            ("duplicate rows", dup_t, dup_n),
        ];
        for (name, t, n) in &fixtures {
            let mut pruned = 0;
            for scheme in Scheme4::ALL {
                let total = scheme.thread_count(g as u32);
                let cuts = [0, total / 3, total / 2, total];
                for keep in [1usize, 8, 64] {
                    let ctx = format!("{name} {} keep={keep}", scheme.name());
                    let slabs = cuts.windows(2).map(|w| (w[0], w[1])).chain([(0, total)]);
                    let mut shards = Vec::new();
                    for (lo, hi) in slabs {
                        let all = slab_scores(t, n, scheme, lo, hi);
                        let (got, st) = scan_slab4(t, n, Alpha::PAPER, scheme, lo, hi, keep);
                        assert_eq!(got, top_k(&all, keep), "{ctx} [{lo}, {hi})");
                        assert_eq!(st.scored + st.pruned_combos, all.len() as u64, "{ctx}");
                        pruned += st.pruned_combos;
                        shards.push(got);
                    }
                    // The split slabs' shards merge to the whole slab's.
                    let whole = shards.pop().expect("the whole-range slab");
                    assert_eq!(merge_top_k(&shards, keep), whole, "{ctx}");
                }
            }
            assert!(pruned > 0, "{name}: the bound never cut anything");
        }
    }

    #[test]
    fn slab_without_combinations_scans_to_nothing() {
        let (t, n) = lcg_matrices(6, 40, 20, 5);
        let scheme = Scheme4::ThreeXOne;
        let total = scheme.thread_count(6);
        // An empty thread range, and a range whose threads all have an
        // empty tail loop (k = G − 1: no l above it).
        for (lo, hi) in [(7, 7), (total - 1, total)] {
            let (got, st) = scan_slab4(&t, &n, Alpha::PAPER, scheme, lo, hi, 4);
            assert!(got.is_empty(), "[{lo}, {hi})");
            assert_eq!(st, ScanStats::default(), "[{lo}, {hi})");
        }
        // Fewer genes than hits: no scanner can even be built.
        let (t3, n3) = lcg_matrices(3, 40, 20, 5);
        for scheme in Scheme4::ALL {
            let threads = scheme.thread_count(3);
            assert!(scan_slab4(&t3, &n3, Alpha::PAPER, scheme, 0, threads, 1)
                .0
                .is_empty());
        }
    }

    #[test]
    fn frontier_scan_parallel_equals_sequential() {
        let (t, n) = lcg_matrices(13, 128, 64, 31);
        for k in [1usize, 8, 64] {
            let seq = GreedyConfig {
                parallel: false,
                frontier_k: k,
                ..GreedyConfig::default()
            };
            let par = GreedyConfig {
                parallel: true,
                frontier_k: k,
                ..GreedyConfig::default()
            };
            let (wb, _, wf) = best_combination_frontier::<3>(&t, &n, None, &seq, 0);
            for _ in 0..2 {
                let (gb, _, gf) = best_combination_frontier::<3>(&t, &n, None, &par, 0);
                assert_eq!(gb, wb, "k={k}");
                assert_eq!(gf.entries(), wf.entries(), "k={k}");
                assert_eq!(gf.floor(), wf.floor(), "k={k}");
            }
        }
    }

    #[test]
    fn seeded_scan_matches_unseeded() {
        let (t, n) = lcg_matrices(12, 100, 50, 47);
        let serial = GreedyConfig {
            parallel: false,
            frontier_k: 1,
            ..GreedyConfig::default()
        };
        let (want, _) = best_combination_stats::<3>(&t, &n, None, &serial);
        // Any achieved score is a sound seed, including the argmax's own.
        let weaker = score_combo(&t, &n, &[0, 1, 2], Alpha::PAPER);
        for parallel in [false, true] {
            let cfg = GreedyConfig { parallel, ..serial };
            for seed in [0, weaker.score, want.score] {
                let (got, _, fr) = best_combination_frontier::<3>(&t, &n, None, &cfg, seed);
                assert_eq!(got, want, "seed={seed} parallel={parallel}");
                assert_eq!(fr.entries(), [want], "seed={seed} parallel={parallel}");
            }
        }
    }

    #[test]
    fn frontier_discovery_is_bit_identical_to_disabled() {
        let (t, n) = lcg_matrices(10, 150, 80, 61);
        for exclusion in [Exclusion::BitSplice, Exclusion::Mask] {
            let reference = discover::<2>(
                &t,
                &n,
                &GreedyConfig {
                    parallel: false,
                    frontier_k: 0,
                    exclusion,
                    ..GreedyConfig::default()
                },
            );
            for k in [1usize, 4, 64] {
                for parallel in [false, true] {
                    let got = discover::<2>(
                        &t,
                        &n,
                        &GreedyConfig {
                            parallel,
                            frontier_k: k,
                            exclusion,
                            ..GreedyConfig::default()
                        },
                    );
                    assert_eq!(
                        got.combinations, reference.combinations,
                        "k={k} parallel={parallel} {exclusion:?}"
                    );
                    assert_eq!(got.uncovered, reference.uncovered);
                }
            }
        }
    }

    #[test]
    fn frontier_counters_track_hits_and_misses() {
        let (t, n) = lcg_matrices(9, 140, 70, 13);
        // K = 1: the floor equals the old max, a rescored member can never
        // strictly clear it, so every iteration past the first must be a
        // full rescan (the fallback path fires).
        let obs = Obs::enabled();
        let res = discover_obs::<2>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                frontier_k: 1,
                ..GreedyConfig::default()
            },
            &obs,
        );
        let report = RunReport::from_events(&obs.events());
        let iters = res.iterations.len() as u64;
        assert!(iters >= 2, "need a multi-iteration run");
        assert_eq!(report.frontier_hits(), 0);
        assert_eq!(report.full_rescans(), iters);
        assert_eq!(report.total_frontier_rescored(), iters - 1);

        // K ≥ C(G,2): the frontier is complete after iteration 1 and every
        // later iteration is a hit with zero scan work.
        let obs = Obs::enabled();
        let res = discover_obs::<2>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                frontier_k: binomial(9, 2) as usize,
                ..GreedyConfig::default()
            },
            &obs,
        );
        let report = RunReport::from_events(&obs.events());
        let iters = res.iterations.len() as u64;
        assert_eq!(report.frontier_hits(), iters - 1);
        assert_eq!(report.full_rescans(), 1);
        let hit_iters: Vec<_> = obs
            .events()
            .iter()
            .filter(|e| e.name == "greedy_iter" && e.u64("frontier_hit") == Some(1))
            .map(|e| e.u64("scan_scored").unwrap())
            .collect();
        assert_eq!(hit_iters.len() as u64, iters - 1);
        assert!(hit_iters.iter().all(|&s| s == 0), "hits must not scan");
    }

    #[test]
    fn block_sweep_matches_stepping_every_width() {
        use crate::bitmat::SkipIndex;
        let (t, n) = lcg_matrices(13, 120, 60, 9);
        let total = binomial(13, 3);
        let ts = SkipIndex::build(&t);
        let ns = SkipIndex::build(&n);
        let mut mask = t.full_mask();
        mask[0] &= 0x0ff0_0ff0_0ff0_0ff0;
        for masked in [None, Some(&mask)] {
            for sparse in [false, true] {
                let build = |start: u64| {
                    let m = masked.map(|m| &m[..]);
                    if sparse {
                        ComboScanner::<3>::with_skip(&t, &n, m, Alpha::PAPER, start, (&ts, &ns))
                    } else {
                        ComboScanner::<3>::new(&t, &n, m, Alpha::PAPER, start)
                    }
                };
                // Stepping reference.
                let mut reference = build(0);
                reference.set_sweep_width(1);
                let want = reference.scan(total);
                assert_eq!(reference.block_sweeps(), 0);
                // Widths that do and do not divide typical run lengths.
                for width in [2usize, 3, 5, kernel::SWEEP_BLOCK] {
                    let mut sc = build(0);
                    sc.set_sweep_width(width);
                    assert_eq!(sc.scan(total), want, "width={width} sparse={sparse}");
                    assert!(sc.block_sweeps() > 0, "sweep never engaged");
                    assert_eq!(sc.swept_rows(), total, "every combo swept");
                    // Pruned sweep: same winner, exact accounting.
                    let mut st = ScanStats::default();
                    let mut sc = build(0);
                    sc.set_sweep_width(width);
                    let got = sc.scan_pruned(total, Scored::NEG_INFINITY, None, &mut st);
                    assert_eq!(got, want, "pruned width={width} sparse={sparse}");
                    assert_eq!(st.scored + st.pruned_combos, total);
                    assert_eq!(sc.swept_rows(), st.scored, "every scored combo swept");
                    // Mid-range start (scanner begins inside a run).
                    let k = total / 3 + 1;
                    let mut a = build(0);
                    a.set_sweep_width(width);
                    let first = a.scan(k);
                    let mut b = build(k);
                    b.set_sweep_width(width);
                    let second = b.scan(total - k);
                    assert_eq!(first.max_det(second), want, "split width={width}");
                }
            }
        }
    }

    #[test]
    fn block_sweep_sparse_words_skipped_matches_stepping() {
        use crate::bitmat::SkipIndex;
        // Sparse input so the skip lists actually drop words.
        let mut t = BitMatrix::zeros(10, 640);
        let mut n = BitMatrix::zeros(10, 640);
        for g in 0..10 {
            t.set(g, g * 60, true);
            t.set(g, g * 60 + 7, true);
            n.set(g, 639 - g, true);
        }
        let ts = SkipIndex::build(&t);
        let ns = SkipIndex::build(&n);
        let total = binomial(10, 3);
        let mut step = ComboScanner::<3>::with_skip(&t, &n, None, Alpha::PAPER, 0, (&ts, &ns));
        step.set_sweep_width(1);
        let want = step.scan(total);
        let mut swept = ComboScanner::<3>::with_skip(&t, &n, None, Alpha::PAPER, 0, (&ts, &ns));
        swept.set_sweep_width(kernel::SWEEP_BLOCK);
        assert_eq!(swept.scan(total), want);
        // Same per-combo accounting: every level-0 candidate charges the full
        // dense width minus the level-1 support, in both modes.
        assert_eq!(swept.words_skipped(), step.words_skipped());
    }

    #[test]
    fn block_sweep_topk_matches_stepping() {
        let (t, n) = lcg_matrices(12, 110, 55, 71);
        let total = binomial(12, 3);
        for k in [1usize, 8, 64] {
            for prune in [false, true] {
                let mut want = TopK::new(k);
                let mut st = ScanStats::default();
                let mut sc = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
                sc.set_sweep_width(1);
                sc.walk(total, &mut want, prune, None, &mut st);
                let mut got = TopK::new(k);
                let mut st2 = ScanStats::default();
                let mut sc = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
                sc.set_sweep_width(kernel::SWEEP_BLOCK);
                sc.walk(total, &mut got, prune, None, &mut st2);
                assert_eq!(got.into_sorted(), want.into_sorted(), "k={k} prune={prune}");
                assert_eq!(st2.scored + st2.pruned_combos, total);
            }
        }
    }

    #[test]
    fn block_sweep_discovery_bit_identical_across_modes() {
        let (t, n) = lcg_matrices(11, 150, 80, 29);
        for exclusion in [Exclusion::BitSplice, Exclusion::Mask] {
            let reference = discover::<3>(
                &t,
                &n,
                &GreedyConfig {
                    parallel: false,
                    block_sweep: false,
                    exclusion,
                    ..GreedyConfig::default()
                },
            );
            for parallel in [false, true] {
                let got = discover::<3>(
                    &t,
                    &n,
                    &GreedyConfig {
                        parallel,
                        block_sweep: true,
                        exclusion,
                        ..GreedyConfig::default()
                    },
                );
                assert_eq!(
                    got.combinations, reference.combinations,
                    "parallel={parallel} {exclusion:?}"
                );
                assert_eq!(got.uncovered, reference.uncovered);
            }
        }
    }

    #[test]
    fn reseek_reuses_allocations_and_matches_fresh_build() {
        let (t, n) = lcg_matrices(12, 100, 50, 83);
        let total = binomial(12, 3);
        let k = total / 2;
        let mut reused = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
        let _ = reused.scan(k);
        let bufs_before: Vec<*const u64> = reused.partial_t.iter().map(|b| b.as_ptr()).collect();
        reused.reseek(k);
        let bufs_after: Vec<*const u64> = reused.partial_t.iter().map(|b| b.as_ptr()).collect();
        assert_eq!(bufs_before, bufs_after, "reseek must not re-allocate");
        let mut fresh = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, k);
        assert_eq!(reused.scan(total - k), fresh.scan(total - k));
    }

    #[test]
    fn workers_build_at_most_one_scanner_each() {
        let (t, n) = lcg_matrices(40, 90, 45, 3);
        let cfg = GreedyConfig {
            parallel: true,
            prune: false,
            ..GreedyConfig::default()
        };
        let total = binomial(40, 3);
        let workers = par::default_workers()
            .min(usize::try_from(total.div_ceil(par::DEFAULT_MIN_GRAIN)).unwrap())
            .max(1);
        let (_, st) = best_combination_stats::<3>(&t, &n, None, &cfg);
        assert!(st.blocks >= 1);
        assert!(st.scanner_builds >= 1);
        assert!(
            st.scanner_builds <= workers as u64,
            "scan built {} scanners for {workers} workers ({} blocks)",
            st.scanner_builds,
            st.blocks
        );
    }

    #[test]
    fn scan_stats_merge_covers_every_counter() {
        let a = ScanStats {
            scored: 1,
            pruned_subtrees: 2,
            pruned_combos: 3,
            blocks: 4,
            steals: 5,
            words_skipped: 6,
            block_sweeps: 7,
            swept_rows: 8,
            scanner_builds: 9,
        };
        let mut m = a;
        m.merge(&a);
        assert_eq!(
            m,
            ScanStats {
                scored: 2,
                pruned_subtrees: 4,
                pruned_combos: 6,
                blocks: 8,
                steals: 10,
                words_skipped: 12,
                block_sweeps: 14,
                swept_rows: 16,
                scanner_builds: 18,
            }
        );
    }

    /// `(scored, pruned_subtrees, pruned_combos)` of every pruned scan shape
    /// at one sweep width: the argmax scan, the same scan under a shared
    /// bound already at the argmax's score, and the top-K scan (K = 1, 4,
    /// 64) over a range split between two scanners feeding one accumulator.
    fn cut_counts<const H: usize>(g: usize, seed: u64, width: usize) -> Vec<(u64, u64, u64)> {
        let (t, n) = lcg_matrices(g, 130, 70, seed);
        let total = binomial(g as u64, H as u64);
        let scanner = |start: u64| {
            let mut sc = ComboScanner::<H>::new(&t, &n, None, Alpha::PAPER, start);
            sc.set_sweep_width(width);
            sc
        };
        let triple = |st: &ScanStats| (st.scored, st.pruned_subtrees, st.pruned_combos);
        let mut out = Vec::new();
        let mut st = ScanStats::default();
        let best = scanner(0).scan_pruned(total, Scored::NEG_INFINITY, None, &mut st);
        out.push(triple(&st));
        let shared = AtomicU64::new(best.score);
        let mut st = ScanStats::default();
        let _ = scanner(0).scan_pruned(total, Scored::NEG_INFINITY, Some(&shared), &mut st);
        out.push(triple(&st));
        let split = total / 3 + 1;
        for k in [1usize, 4, 64] {
            let mut acc = TopK::new(k);
            let mut st = ScanStats::default();
            scanner(0).walk(split, &mut acc, true, None, &mut st);
            scanner(split).walk(total - split, &mut acc, true, None, &mut st);
            out.push(triple(&st));
        }
        out
    }

    #[test]
    fn cut_decisions_are_pinned() {
        // Recorded from the three separate scan loops that `walk` replaced:
        // a traversal that finds the right winners while cutting other
        // subtrees fails here. Sweeping and stepping must cut identically.
        for width in [1usize, kernel::SWEEP_BLOCK] {
            assert_eq!(
                cut_counts::<3>(30, 7, width),
                [
                    (2806, 103, 1254),
                    (2663, 128, 1397),
                    (2806, 103, 1254),
                    (3430, 56, 630),
                    (3922, 11, 138)
                ],
                "H=3 width={width}"
            );
            assert_eq!(
                cut_counts::<4>(16, 11, width),
                [
                    (893, 233, 927),
                    (783, 276, 1037),
                    (901, 232, 919),
                    (1139, 174, 681),
                    (1773, 22, 47)
                ],
                "H=4 width={width}"
            );
        }
    }

    /// `(scored, pruned_subtrees, pruned_combos)` of every pruned scan shape
    /// through `scan_range`, which walks in popcount order: the argmax scan,
    /// the same scan seeded with the argmax's score, and the top-K scan
    /// (K = 1, 4, 64).
    fn ordered_cut_counts<const H: usize>(
        g: usize,
        seed: u64,
        block_sweep: bool,
    ) -> Vec<(u64, u64, u64)> {
        let (t, n) = lcg_matrices(g, 130, 70, seed);
        let cfg = GreedyConfig {
            parallel: false,
            block_sweep,
            ..GreedyConfig::default()
        };
        let triple = |st: ScanStats| (st.scored, st.pruned_subtrees, st.pruned_combos);
        let all = 0..binomial(g as u64, H as u64);
        let argmax = |seed| {
            scan_range(&t, &n, None, &cfg, seed, std::slice::from_ref(&all), || {
                Scored::<H>::NEG_INFINITY
            })
        };
        let (bests, st) = argmax(0);
        let mut out = vec![triple(st), triple(argmax(bests[0].score).1)];
        for k in [1usize, 4, 64] {
            out.push(triple(
                scan_range(&t, &n, None, &cfg, 0, std::slice::from_ref(&all), || {
                    TopK::<H>::new(k)
                })
                .1,
            ));
        }
        out
    }

    #[test]
    fn ordered_cut_decisions_are_pinned() {
        // The popcount-ordered twin of `cut_decisions_are_pinned`, on the
        // same matrices: a change to the order, the `Ordered` adapter or the
        // tie rule that still finds the right winners fails here.
        for block_sweep in [false, true] {
            assert_eq!(
                ordered_cut_counts::<3>(30, 7, block_sweep),
                [
                    (2057, 128, 2003),
                    (2045, 129, 2015),
                    (2057, 128, 2003),
                    (2879, 66, 1181),
                    (3781, 13, 279)
                ],
                "H=3 block_sweep={block_sweep}"
            );
            assert_eq!(
                ordered_cut_counts::<4>(16, 11, block_sweep),
                [
                    (332, 320, 1488),
                    (332, 320, 1488),
                    (332, 320, 1488),
                    (463, 280, 1357),
                    (1193, 102, 627)
                ],
                "H=4 block_sweep={block_sweep}"
            );
        }
    }

    #[test]
    fn ordered_scan_lets_the_colex_earlier_tie_win() {
        // Gene 0 is the heaviest row, gene 2 the next, gene 1 the lightest,
        // so the ordered walk scores {0,2} (TP 4) first. The subtree that
        // holds {0,1} (TP 4 too, and colex-earlier) then has a bound equal
        // to the floor; cutting it as a colex-order walk would leaves {0,2}
        // the winner. No normal sample is mutated, so TN is always 4.
        let t = BitMatrix::from_rows(
            3,
            8,
            &[
                vec![0, 1, 2, 3, 4, 5],
                vec![0, 1, 2, 3],
                vec![0, 1, 2, 4, 6],
            ],
        );
        let n = BitMatrix::zeros(3, 4);
        assert_eq!(popcount_order(&t, None), [0, 2, 1]);
        let want = [0, 1];
        for block_sweep in [false, true] {
            let cfg = GreedyConfig {
                parallel: false,
                block_sweep,
                ..GreedyConfig::default()
            };
            let exhaustive = GreedyConfig {
                prune: false,
                ..cfg
            };
            assert_eq!(best_combination::<2>(&t, &n, None, &exhaustive).genes, want);
            let (got, st) = best_combination_stats::<2>(&t, &n, None, &cfg);
            assert_eq!(got.genes, want, "block_sweep={block_sweep}");
            assert_eq!((st.scored, st.pruned_combos), (3, 0));
            let top1 = GreedyConfig {
                frontier_k: 1,
                ..cfg
            };
            let (got, _, fr) = best_combination_frontier::<2>(&t, &n, None, &top1, 0);
            assert_eq!(got.genes, want, "top-1 block_sweep={block_sweep}");
            assert_eq!(fr.entries().len(), 1);
        }
    }

    #[test]
    fn run_report_counts_only_what_the_scans_enumerated() {
        // Frontier hits enumerate nothing, so neither the scored count nor
        // the pruned fraction may charge them C(G,H).
        let (t, n) = lcg_matrices(40, 130, 70, 5);
        let obs = Obs::enabled();
        let cfg = GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        };
        let _ = discover_obs::<3>(&t, &n, &cfg, &obs);
        let report = RunReport::from_events(&obs.events());
        assert!(report.frontier_hits() > 0, "need a run with frontier hits");
        for i in &report.greedy_iters {
            let enumerated = i.scan_scored + i.pruned_combos;
            let want = if i.frontier_hit == 1 {
                0
            } else {
                i.combos_scored
            };
            assert_eq!(enumerated, want, "iteration {}", i.iter);
        }
        let scored: u64 = report.greedy_iters.iter().map(|i| i.scan_scored).sum();
        let pruned = report.total_pruned_combos();
        assert_eq!(report.total_combos_scored(), scored);
        assert_eq!(
            report.pruned_fraction(),
            pruned as f64 / (scored + pruned) as f64
        );
    }

    #[test]
    fn greedy_f_is_nonincreasing() {
        // Each iteration's F (on the shrinking tumor set) cannot beat the
        // previous pick's F: the previous argmax dominated the same pool plus
        // covered samples.
        let (t, n) = lcg_matrices(9, 120, 60, 77);
        let res = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                ..Default::default()
            },
        );
        for w in res.iterations.windows(2) {
            assert!(w[1].f <= w[0].f + 1e-12);
        }
    }
}
