//! Persistent top-K frontier for exact lazy greedy (Minoux-style).
//!
//! After one full scan, the top-K scored combinations plus the K-th score
//! (the *floor*) are enough to decide later iterations without rescanning:
//! the normal matrix never changes (TN is constant per combination) and
//! excluding covered tumor columns can only *lower* TP, so every
//! combination's integer numerator `α.num·TP + α.den·TN` is monotonically
//! non-increasing across iterations. The denominator `q·(Nt+Nn)` is shared
//! within an iteration, so numerator order is score order.
//!
//! **Floor check.** Let `floor` be the K-th numerator at build time. Any
//! combination *outside* the frontier satisfies
//! `score_now ≤ score_at_build ≤ floor`. If the best *rescored* frontier
//! member has `score_now > floor` (strictly), it beats every non-frontier
//! combination outright — no tie ambiguity — and the deterministic
//! [`Scored::max_det`] fold over the rescored frontier resolves intra-
//! frontier ties, so the result is bit-identical to a full rescan. The
//! check stays valid across consecutive hit iterations without rebuilding:
//! the stale floor remains an upper bound because scores only decrease.
//!
//! On a miss the caller falls back to a pruned full scan, seeded with the
//! K-th *rescored* frontier score: all K rescored members are actual
//! current combinations scoring at least that seed, so a subtree whose
//! bound is strictly below it cannot contribute a top-K member.
//!
//! **Splice remap rule.** BitSplicing drops tumor *columns* (samples),
//! never gene rows, so cached gene ids stay valid verbatim: rescoring a
//! frontier member just re-reads the current (shorter) tumor rows. Mask
//! mode instead ANDs the active-column mask into the TP count.

use crate::bitmat::BitMatrix;
use crate::kernel;
use crate::reduce::merge_top_k;
use crate::weight::{Alpha, Combo, Scored};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default frontier size. Large enough that the winner's neighborhood
/// usually survives a cover step, small enough that a rescore is ~free
/// next to a `C(G,H)` scan.
pub const DEFAULT_FRONTIER_K: usize = 64;

/// A bounded best-K accumulator under the deterministic total order.
///
/// Entry rule matches [`crate::reduce::top_k`] exactly: while not full,
/// everything enters; once full, a candidate enters iff it
/// [`Scored::beats`] the current weakest (so colex-later ties lose).
/// The scan uses the weakest-of-full-heap score as its pruning floor.
pub struct TopK<const H: usize> {
    k: usize,
    heap: BinaryHeap<Reverse<Scored<H>>>,
}

impl<const H: usize> TopK<H> {
    /// An empty accumulator keeping at most `k` entries.
    #[must_use]
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offer a candidate; returns `true` iff it was admitted.
    #[inline]
    pub fn offer(&mut self, s: Scored<H>) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(Reverse(s));
            return true;
        }
        let Some(Reverse(weakest)) = self.heap.peek() else {
            return false;
        };
        if s.beats(weakest) {
            self.heap.pop();
            self.heap.push(Reverse(s));
            return true;
        }
        false
    }

    /// True once `k` entries are held (the floor is then meaningful).
    #[inline]
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.k > 0 && self.heap.len() >= self.k
    }

    /// The weakest retained score (0 while empty).
    #[inline]
    #[must_use]
    pub fn floor_score(&self) -> u64 {
        self.weakest().map_or(0, |s| s.score)
    }

    /// The weakest retained entry: the one a candidate must beat once full.
    #[inline]
    pub(crate) fn weakest(&self) -> Option<&Scored<H>> {
        self.heap.peek().map(|Reverse(s)| s)
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff nothing has been admitted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drain into a best-first sorted list (same order as
    /// [`crate::reduce::top_k`]).
    #[must_use]
    pub fn into_sorted(self) -> Vec<Scored<H>> {
        let mut v: Vec<Scored<H>> = self.heap.into_iter().map(|Reverse(s)| s).collect();
        v.sort_by(|a, b| b.cmp_det(a));
        v
    }
}

/// Rescore one combination against the current (possibly spliced) tumor
/// matrix and the normal matrix, with an optional active-column tumor mask.
///
/// Identical to [`crate::weight::score_combo`] plus the mask rule the
/// scanner applies, via the same fused AND+popcount kernels.
#[must_use]
pub fn rescore_combo<const H: usize>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    tumor_mask: Option<&[u64]>,
    genes: &Combo<H>,
    alpha: Alpha,
) -> Scored<H> {
    let words = tumor.words_per_row();
    let mut rows: Vec<&[u64]> = Vec::with_capacity(H + 1);
    for &g in genes {
        rows.push(tumor.row(g as usize));
    }
    if let Some(m) = tumor_mask {
        rows.push(&m[..words]);
    }
    let tp = kernel::and_rows_popcount(&rows);
    let n_rows: Vec<&[u64]> = genes.iter().map(|&g| normal.row(g as usize)).collect();
    let covered = kernel::and_rows_popcount(&n_rows);
    let tn = normal.n_samples() as u32 - covered;
    Scored {
        score: alpha.score(tp, tn),
        tp,
        tn,
        genes: *genes,
    }
}

/// Outcome of rescoring a frontier against the current matrices.
#[derive(Clone, Copy, Debug)]
pub struct RescoredFrontier<const H: usize> {
    /// Deterministic best of the rescored members.
    pub best: Scored<H>,
    /// The K-th (minimum) *rescored* score — a sound seed for the fallback
    /// scan's shared pruning bound (every member is a real current combo
    /// scoring at least this).
    pub kth_score: u64,
    /// Members rescored (= frontier size).
    pub rescored: u64,
}

/// The persistent frontier: top-K combinations plus the build-time floor.
#[derive(Clone, Debug)]
pub struct Frontier<const H: usize> {
    entries: Vec<Scored<H>>,
    floor: u64,
    complete: bool,
}

impl<const H: usize> Frontier<H> {
    /// Build from an already-merged, best-first top-K list.
    ///
    /// `total` is the size of the full enumeration the list was selected
    /// from; when the list holds *all* of it the frontier is `complete`
    /// and every later rescore is a hit by construction.
    #[must_use]
    pub fn new(entries: Vec<Scored<H>>, total: u64) -> Self {
        let complete = entries.len() as u64 >= total;
        let floor = if complete {
            0
        } else {
            entries.last().map_or(0, |s| s.score)
        };
        Frontier {
            entries,
            floor,
            complete,
        }
    }

    /// Merge per-worker (or per-rank) top-K shards into the global
    /// frontier, exactly as [`crate::reduce::merge_top_k`] would.
    #[must_use]
    pub fn from_shards(shards: &[Vec<Scored<H>>], k: usize, total: u64) -> Self {
        Frontier::new(merge_top_k(shards, k), total)
    }

    /// The retained combinations, best first.
    #[must_use]
    pub fn entries(&self) -> &[Scored<H>] {
        &self.entries
    }

    /// The K-th score at build time (0 when `complete`).
    #[must_use]
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// True iff the frontier holds the whole enumeration.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// The build-time best (head of the sorted entries).
    #[must_use]
    pub fn best(&self) -> Scored<H> {
        self.entries
            .first()
            .copied()
            .unwrap_or(Scored::NEG_INFINITY)
    }

    /// The floor check: is `rescored_best` provably the global argmax?
    ///
    /// Strict `>` — an equal score could tie a colex-earlier outside
    /// combination, so only a strict clear skips the scan.
    #[must_use]
    pub fn is_hit(&self, rescored_best: &Scored<H>) -> bool {
        self.complete || rescored_best.score > self.floor
    }

    /// Rescore every member against the current matrices.
    #[must_use]
    pub fn rescore(
        &self,
        tumor: &BitMatrix,
        normal: &BitMatrix,
        tumor_mask: Option<&[u64]>,
        alpha: Alpha,
    ) -> RescoredFrontier<H> {
        let mut best = Scored::NEG_INFINITY;
        let mut kth = u64::MAX;
        for e in &self.entries {
            let s = rescore_combo(tumor, normal, tumor_mask, &e.genes, alpha);
            best = best.max_det(s);
            kth = kth.min(s.score);
        }
        RescoredFrontier {
            best,
            kth_score: if self.entries.is_empty() { 0 } else { kth },
            rescored: self.entries.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::top_k;

    fn scored(score: u64, g0: u32) -> Scored<2> {
        Scored {
            score,
            tp: 1,
            tn: 0,
            genes: [g0, g0 + 1],
        }
    }

    #[test]
    fn topk_matches_reduce_top_k() {
        let scores: Vec<Scored<2>> = (0..200u32)
            .map(|i| scored(u64::from(i.wrapping_mul(48271) % 97), i % 150))
            .collect();
        for k in [0usize, 1, 5, 64, 200, 300] {
            let mut acc = TopK::new(k);
            for &s in &scores {
                acc.offer(s);
            }
            assert_eq!(acc.into_sorted(), top_k(&scores, k), "k={k}");
        }
    }

    #[test]
    fn topk_floor_is_weakest_of_full_heap() {
        let mut acc = TopK::new(3);
        assert_eq!(acc.floor_score(), 0);
        for (v, g) in [(5u64, 0u32), (9, 1), (7, 2)] {
            acc.offer(scored(v, g));
        }
        assert!(acc.is_full());
        assert_eq!(acc.floor_score(), 5);
        // A stronger entry evicts the weakest and raises the floor.
        assert!(acc.offer(scored(8, 3)));
        assert_eq!(acc.floor_score(), 7);
        // A tie with the weakest loses (colex-later offered last).
        assert!(!acc.offer(scored(7, 9)));
    }

    #[test]
    fn frontier_floor_and_complete() {
        let entries = top_k(&[scored(9, 0), scored(7, 1), scored(5, 2)], 2);
        let f = Frontier::new(entries, 10);
        assert_eq!(f.floor(), 7);
        assert!(!f.complete());
        assert!(f.is_hit(&scored(8, 4)));
        assert!(!f.is_hit(&scored(7, 4)), "ties must not hit");

        let all = top_k(&[scored(9, 0), scored(7, 1)], 8);
        let c = Frontier::new(all, 2);
        assert!(c.complete());
        assert!(c.is_hit(&scored(0, 5)), "complete frontiers always hit");
    }

    #[test]
    fn rescore_combo_matches_score_combo() {
        use crate::weight::score_combo;
        let tumor = BitMatrix::from_rows(
            4,
            6,
            &[vec![0, 1, 2, 3], vec![0, 1, 2], vec![1, 2, 4], vec![5]],
        );
        let normal = BitMatrix::from_rows(4, 4, &[vec![0], vec![0, 1], vec![2], vec![]]);
        for genes in [[0u32, 1], [1, 2], [0, 3]] {
            assert_eq!(
                rescore_combo(&tumor, &normal, None, &genes, Alpha::PAPER),
                score_combo(&tumor, &normal, &genes, Alpha::PAPER),
            );
        }
        // Masking off every tumor column zeroes TP (and thus the score).
        let mask = vec![0u64; tumor.words_per_row()];
        let s = rescore_combo(&tumor, &normal, Some(&mask), &[0, 1], Alpha::PAPER);
        assert_eq!((s.tp, s.score), (0, 0));
    }

    #[test]
    fn rescore_reports_min_as_seed() {
        let tumor = BitMatrix::from_rows(3, 8, &[vec![0, 1, 2, 3], vec![0, 1], vec![0]]);
        let normal = BitMatrix::from_rows(3, 4, &[vec![], vec![], vec![]]);
        let entries = top_k(
            &[
                rescore_combo(&tumor, &normal, None, &[0, 1], Alpha::PAPER),
                rescore_combo(&tumor, &normal, None, &[0, 2], Alpha::PAPER),
            ],
            2,
        );
        let f = Frontier::new(entries, 3);
        let r = f.rescore(&tumor, &normal, None, Alpha::PAPER);
        assert_eq!(r.rescored, 2);
        assert_eq!(r.best, f.best());
        assert_eq!(
            r.kth_score,
            f.entries().iter().map(|e| e.score).min().unwrap()
        );
    }

    #[test]
    fn empty_frontier_rescore_is_identity() {
        let tumor = BitMatrix::zeros(3, 4);
        let normal = BitMatrix::zeros(3, 4);
        let f = Frontier::<2>::new(Vec::new(), 5);
        let r = f.rescore(&tumor, &normal, None, Alpha::PAPER);
        assert_eq!(r.best, Scored::NEG_INFINITY);
        assert_eq!(r.kth_score, 0);
        assert_eq!(r.rescored, 0);
    }
}
