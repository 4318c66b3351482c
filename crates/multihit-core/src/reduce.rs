//! Multi-stage, multi-kernel parallel max-reduction (§III-E).
//!
//! Storing one 20-byte record per 4-hit combination would need ~24 TB for
//! BRCA. The paper instead:
//!
//! 1. **`maxF` kernel** — every thread scores its combinations, then each
//!    *block* (512 threads) performs a single-stage shared-memory reduction
//!    and writes exactly one record: a 512× cut (24.3 TB → 47.5 GB).
//! 2. **`parallelReduceMax` kernel** — a multi-stage tree reduction over the
//!    per-block records within each GPU.
//! 3. Each MPI rank returns one 20-byte record to rank 0, which reduces over
//!    ranks.
//!
//! Here the same three stages are implemented over [`Scored`] values with the
//! deterministic `max_det` combiner, so every stage — and any regrouping of
//! blocks — produces bit-identical winners. The functions also report how
//! many intermediate records each stage materializes, which the benches use
//! to reproduce the paper's memory-footprint arithmetic.

use crate::weight::Scored;

/// Outcome of a staged reduction: the winner plus footprint accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReduceStats {
    /// Records materialized after the block stage (one per block).
    pub block_records: u64,
    /// Tree-reduction stages executed in the second kernel.
    pub tree_stages: u32,
}

/// Stage 1: block-level single-stage reduction.
///
/// Partitions `scores` into chunks of `block_size` (the final block may be
/// short) and reduces each chunk to one record — what `maxF` writes to
/// global memory.
#[must_use]
pub fn block_reduce<const H: usize>(scores: &[Scored<H>], block_size: usize) -> Vec<Scored<H>> {
    assert!(block_size > 0, "block size must be positive");
    scores
        .chunks(block_size)
        .map(|chunk| {
            chunk
                .iter()
                .copied()
                .fold(Scored::NEG_INFINITY, Scored::max_det)
        })
        .collect()
}

/// Stage 2: multi-stage (tree) reduction of per-block records, as
/// `parallelReduceMax` performs within one GPU. Pairwise halving until a
/// single record remains. Returns the winner and the number of stages.
#[must_use]
pub fn tree_reduce<const H: usize>(mut records: Vec<Scored<H>>) -> (Scored<H>, u32) {
    if records.is_empty() {
        return (Scored::NEG_INFINITY, 0);
    }
    let mut stages = 0;
    while records.len() > 1 {
        let half = records.len().div_ceil(2);
        for idx in 0..records.len() / 2 {
            let hi = records[half + idx];
            records[idx] = records[idx].max_det(hi);
        }
        records.truncate(half);
        stages += 1;
    }
    (records[0], stages)
}

/// The full two-kernel pipeline for one GPU's scores: block reduce then tree
/// reduce. Returns the GPU's single record plus stats.
#[must_use]
pub fn gpu_reduce<const H: usize>(
    scores: &[Scored<H>],
    block_size: usize,
) -> (Scored<H>, ReduceStats) {
    let blocks = block_reduce(scores, block_size);
    let block_records = blocks.len() as u64;
    let (winner, tree_stages) = tree_reduce(blocks);
    (
        winner,
        ReduceStats {
            block_records,
            tree_stages,
        },
    )
}

/// Stage 3: rank-0 reduction over the single records returned by each MPI
/// process.
#[must_use]
pub fn rank0_reduce<const H: usize>(per_rank: &[Scored<H>]) -> Scored<H> {
    per_rank
        .iter()
        .copied()
        .fold(Scored::NEG_INFINITY, Scored::max_det)
}

/// Fold any stream of partial winners — per-worker, per-GPU, per-rank —
/// under the deterministic total order. The fold order is irrelevant because
/// [`Scored::cmp_det`] is total, which is what lets the work-stealing scan's
/// nondeterministic schedule still return a bit-identical argmax.
#[must_use]
pub fn fold_partials<const H: usize>(parts: impl IntoIterator<Item = Scored<H>>) -> Scored<H> {
    parts
        .into_iter()
        .fold(Scored::NEG_INFINITY, Scored::max_det)
}

/// Bytes of intermediate storage the unreduced candidate list would need
/// (`n_combos` 20-byte records) versus after the block stage — the paper's
/// 24.34 TB → 47.5 GB computation for BRCA.
#[must_use]
pub fn footprint_bytes(n_combos: u64, block_size: u64) -> (u64, u64) {
    let record = crate::weight::PAPER_RECORD_BYTES as u64;
    let full = n_combos * record;
    let blocked = n_combos.div_ceil(block_size) * record;
    (full, blocked)
}

/// Deterministic top-`k` selection under the same total order as
/// [`Scored::max_det`] — the ranked candidate list a downstream analyst
/// wants alongside the argmax (the paper's supporting tables list every
/// chosen combination; exploratory use wants the runners-up too).
///
/// Returns at most `k` records, best first. `O(n log k)` via a bounded
/// binary heap of losers.
///
/// ```
/// use multihit_core::reduce::top_k;
/// use multihit_core::weight::Scored;
/// let mk = |score, g| Scored::<2> { score, tp: 0, tn: 0, genes: [g, g + 1] };
/// let best = top_k(&[mk(3, 0), mk(9, 1), mk(5, 2)], 2);
/// assert_eq!(best[0].score, 9);
/// assert_eq!(best[1].score, 5);
/// ```
#[must_use]
pub fn top_k<const H: usize>(scores: &[Scored<H>], k: usize) -> Vec<Scored<H>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    if k == 0 {
        return Vec::new();
    }
    // Min-heap keyed by the deterministic order: the root is the weakest
    // of the current top-k.
    let mut heap: BinaryHeap<Reverse<Scored<H>>> = BinaryHeap::with_capacity(k + 1);
    for &s in scores {
        if heap.len() < k {
            heap.push(Reverse(s));
        } else if let Some(Reverse(weakest)) = heap.peek() {
            if s.beats(weakest) {
                heap.pop();
                heap.push(Reverse(s));
            }
        }
    }
    let mut v: Vec<Scored<H>> = heap.into_iter().map(|Reverse(s)| s).collect();
    v.sort_by(|a, b| b.cmp_det(a));
    v
}

/// Merge several per-shard top-`k` lists into a global top-`k` (each shard
/// list need not be sorted). Equivalent to `top_k` over the concatenation.
#[must_use]
pub fn merge_top_k<const H: usize>(shards: &[Vec<Scored<H>>], k: usize) -> Vec<Scored<H>> {
    let flat: Vec<Scored<H>> = shards.iter().flatten().copied().collect();
    top_k(&flat, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combin::binomial;

    fn scored(score: u64, g0: u32) -> Scored<2> {
        Scored {
            score,
            tp: 0,
            tn: 0,
            genes: [g0, g0 + 1],
        }
    }

    #[test]
    fn block_reduce_takes_chunk_maxima() {
        let scores = vec![
            scored(1, 0),
            scored(9, 1),
            scored(4, 2),
            scored(7, 3),
            scored(2, 4),
        ];
        let blocks = block_reduce(&scores, 2);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].score, 9);
        assert_eq!(blocks[1].score, 7);
        assert_eq!(blocks[2].score, 2);
    }

    #[test]
    fn tree_reduce_finds_global_max() {
        let recs: Vec<_> = (0..100u32)
            .map(|i| scored(u64::from(i * 7 % 83), i))
            .collect();
        let expect = recs.iter().copied().max().unwrap();
        let (win, stages) = tree_reduce(recs);
        assert_eq!(win, expect);
        assert_eq!(stages, 7); // ceil(log2(100))
    }

    #[test]
    fn empty_inputs_yield_identity() {
        let (w, stats) = gpu_reduce::<2>(&[], 512);
        assert_eq!(w, Scored::NEG_INFINITY);
        assert_eq!(stats.block_records, 0);
        assert_eq!(rank0_reduce::<2>(&[]), Scored::NEG_INFINITY);
    }

    #[test]
    fn staged_equals_flat_reduction() {
        // The winner must not depend on block size.
        let scores: Vec<_> = (0..1000u32)
            .map(|i| scored(u64::from((i * 131 + 17) % 997), i))
            .collect();
        let flat = scores.iter().copied().max().unwrap();
        for bs in [1, 3, 32, 512, 1000, 4096] {
            let (w, _) = gpu_reduce(&scores, bs);
            assert_eq!(w, flat, "block size {bs}");
        }
    }

    #[test]
    fn staged_respects_deterministic_ties() {
        // Two equal scores: the colex-smaller combination must win under
        // every blocking, exactly like the flat deterministic fold.
        let mut scores = vec![scored(5, 10); 600];
        scores[37] = scored(5, 3);
        scores[555] = scored(5, 3);
        for bs in [2, 7, 512] {
            let (w, _) = gpu_reduce(&scores, bs);
            assert_eq!(w.genes, [3, 4], "block size {bs}");
        }
    }

    #[test]
    fn three_stage_pipeline_matches_flat() {
        // blocks → GPU records → rank records → rank0.
        let scores: Vec<_> = (0..5000u32)
            .map(|i| {
                scored(
                    u64::from(i.wrapping_mul(2654435761).wrapping_mul(i) % 4999),
                    i % 4000,
                )
            })
            .collect();
        let flat = scores.iter().copied().max().unwrap();
        let per_rank: Vec<_> = scores
            .chunks(1250) // 4 "ranks"
            .map(|r| gpu_reduce(r, 512).0)
            .collect();
        assert_eq!(rank0_reduce(&per_rank), flat);
    }

    #[test]
    fn footprint_matches_paper_brca_numbers() {
        // BRCA: G = 19411 under the 3x1 scheme ⇒ C(G,3) ≈ 1.22e12 per-thread
        // records ⇒ 24.34 TB unreduced; block size 512 ⇒ ~47.5 GB (§III-E).
        let combos = binomial(19411, 3);
        let (full, blocked) = footprint_bytes(combos, 512);
        assert!((full as f64 / 1e12 - 24.34).abs() < 0.5, "full = {full}");
        assert!(
            (blocked as f64 / 1e9 - 47.5).abs() < 1.0,
            "blocked = {blocked}"
        );
    }

    #[test]
    fn top_k_matches_sort() {
        let scores: Vec<Scored<2>> = (0..500u32)
            .map(|i| scored(u64::from(i.wrapping_mul(48271) % 337), i % 300))
            .collect();
        for k in [0usize, 1, 3, 10, 499, 500, 600] {
            let got = top_k(&scores, k);
            let mut expect = scores.clone();
            expect.sort_by(|a, b| b.cmp_det(a));
            expect.truncate(k);
            assert_eq!(got, expect, "k={k}");
        }
    }

    #[test]
    fn top_k_head_is_the_argmax() {
        let scores: Vec<Scored<2>> = (0..100u32)
            .map(|i| scored(u64::from(i * 13 % 71), i))
            .collect();
        let flat = scores
            .iter()
            .copied()
            .fold(Scored::NEG_INFINITY, Scored::max_det);
        assert_eq!(top_k(&scores, 5)[0], flat);
    }

    #[test]
    fn sharded_top_k_equals_global() {
        let scores: Vec<Scored<2>> = (0..400u32)
            .map(|i| scored(u64::from(i.wrapping_mul(2654435761) % 991), i % 350))
            .collect();
        let shards: Vec<Vec<Scored<2>>> = scores.chunks(97).map(|c| top_k(c, 10)).collect();
        assert_eq!(merge_top_k(&shards, 10), top_k(&scores, 10));
    }

    #[test]
    fn top_k_ties_resolve_colex_smaller_first() {
        // Equal scores everywhere: the retained k and their order must be
        // exactly the colex-smallest combinations, matching `cmp_det`.
        let scores: Vec<Scored<2>> = (0..50u32).rev().map(|g| scored(7, g)).collect();
        let got = top_k(&scores, 5);
        let genes: Vec<[u32; 2]> = got.iter().map(|s| s.genes).collect();
        assert_eq!(genes, vec![[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]);
    }

    #[test]
    fn shard_merge_order_never_changes_kth_identity() {
        // The frontier floor is the K-th element: its *identity* (not just
        // its score) must be invariant under how shards are formed and in
        // what order they merge, even with heavy score ties straddling the
        // K boundary.
        let scores: Vec<Scored<2>> = (0..300u32)
            .map(|i| scored(u64::from(i % 5), i % 280)) // only 5 distinct scores
            .collect();
        for k in [1usize, 4, 64] {
            let want = top_k(&scores, k);
            for chunk in [29usize, 50, 97, 150] {
                let mut shards: Vec<Vec<Scored<2>>> =
                    scores.chunks(chunk).map(|c| top_k(c, k)).collect();
                let orders: Vec<Vec<Vec<Scored<2>>>> =
                    vec![shards.clone(), shards.iter().rev().cloned().collect(), {
                        shards.rotate_left(1);
                        shards.clone()
                    }];
                for (o, sh) in orders.iter().enumerate() {
                    let got = merge_top_k(sh, k);
                    assert_eq!(got, want, "k={k} chunk={chunk} order={o}");
                    assert_eq!(
                        got.last().map(|s| s.genes),
                        want.last().map(|s| s.genes),
                        "k-th identity k={k} chunk={chunk} order={o}"
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_stats_block_count() {
        let scores = vec![scored(0, 0); 1025];
        let (_, stats) = gpu_reduce(&scores, 512);
        assert_eq!(stats.block_records, 3);
        assert_eq!(stats.tree_stages, 2);
    }
}
