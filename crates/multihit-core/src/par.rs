//! Work-stealing execution over λ-ranges and indexed work lists.
//!
//! The static `threads*8` chunking the scan used to ship with assumed every
//! λ costs the same. Branch-and-bound pruning and BitSplicing break that
//! assumption badly: one chunk may prune to nothing while its neighbour
//! scores every combination, so static chunks stall the whole scan on the
//! unluckiest worker. [`BlockQueue`] replaces them with an atomic λ-cursor
//! handing out *guided* blocks — each grab takes a fraction of the
//! remaining range (large blocks early for low overhead, small blocks late
//! for balance), clamped to a minimum grain so the cursor never becomes the
//! bottleneck. The queue never hands out an empty or out-of-range block, so
//! workers need no per-block range guards (the old `start >= total`
//! overshoot check lived in every worker; the invariant now lives here).
//!
//! Results stay deterministic because callers fold per-worker partials with
//! a total order ([`crate::weight::Scored::max_det`]); the *schedule* is
//! nondeterministic, the *answer* is not.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Fraction of the remaining range a single grab takes: `remaining /
/// (workers * GUIDED_DIVISOR)`. 4 gives each worker several opportunities
/// to rebalance per order of magnitude of remaining work.
const GUIDED_DIVISOR: u64 = 4;

/// Default minimum λs per block; amortizes scanner re-seek (`O(H·words)`)
/// and the cursor CAS against useful scan work.
pub const DEFAULT_MIN_GRAIN: u64 = 1024;

/// Scheduling counters of one work-stealing run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Blocks handed out by the cursor.
    pub blocks: u64,
    /// Blocks beyond each participating worker's first — the "steals" that
    /// static chunking would have left stranded on a stalled worker.
    pub steals: u64,
}

/// An atomic λ-cursor dispensing adaptive, guided-size blocks of `0..total`.
#[derive(Debug)]
pub struct BlockQueue {
    cursor: AtomicU64,
    total: u64,
    workers: u64,
    min_grain: u64,
    blocks: AtomicU64,
}

impl BlockQueue {
    /// Queue over `0..total` for `workers` consumers with the default grain.
    #[must_use]
    pub fn new(total: u64, workers: usize) -> Self {
        Self::with_grain(total, workers, DEFAULT_MIN_GRAIN)
    }

    /// Queue with an explicit minimum grain (clamped to ≥ 1).
    #[must_use]
    pub fn with_grain(total: u64, workers: usize, min_grain: u64) -> Self {
        BlockQueue {
            cursor: AtomicU64::new(0),
            total,
            workers: workers.max(1) as u64,
            min_grain: min_grain.max(1),
            blocks: AtomicU64::new(0),
        }
    }

    /// Grab the next block. Returns `None` when the range is exhausted;
    /// never returns an empty block.
    pub fn next(&self) -> Option<(u64, u64)> {
        loop {
            let cur = self.cursor.load(Ordering::Relaxed);
            if cur >= self.total {
                return None;
            }
            let remaining = self.total - cur;
            let grain = (remaining / (self.workers * GUIDED_DIVISOR))
                .max(self.min_grain)
                .min(remaining);
            let end = cur + grain;
            if self
                .cursor
                .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.blocks.fetch_add(1, Ordering::Relaxed);
                return Some((cur, end));
            }
        }
    }

    /// Blocks dispatched so far.
    #[must_use]
    pub fn blocks_dispatched(&self) -> u64 {
        self.blocks.load(Ordering::Relaxed)
    }
}

/// Run `workers` scoped worker threads, returning their results in worker
/// order. With one worker the closure runs on the calling thread — no spawn
/// cost on the sequential path.
///
/// # Panics
/// Propagates worker panics.
pub fn run_workers<T, F>(workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1);
    if workers == 1 {
        return vec![f(0)];
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || f(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// Worker threads available to a parallel scan (one per core).
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Map `f` over `0..n` with work stealing (grain 1), preserving index order
/// in the output. The right shape for short lists of *uneven* items — GPU
/// λ-partitions, per-rank kernel launches — where one heavy item must not
/// serialize the rest behind a static round-robin.
pub fn par_map_indexed<T, F>(n: usize, max_workers: usize, f: F) -> (Vec<T>, StealStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = max_workers.max(1).min(n.max(1));
    let cursor = AtomicUsize::new(0);
    let active = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = run_workers(workers, |_| {
        let mut got = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if got.is_empty() {
                active.fetch_add(1, Ordering::Relaxed);
            }
            got.push((i, f(i)));
        }
        got
    });
    let blocks = n as u64;
    let participating = active.load(Ordering::Relaxed) as u64;
    let stats = StealStats {
        blocks,
        steals: blocks.saturating_sub(participating),
    };
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in per_worker.into_iter().flatten() {
        out[i] = Some(v);
    }
    (
        out.into_iter()
            .map(|o| o.expect("every index produced"))
            .collect(),
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_covers_range_exactly_once() {
        let q = BlockQueue::with_grain(10_000, 4, 16);
        let mut seen = 0u64;
        let mut last_hi = 0u64;
        while let Some((lo, hi)) = q.next() {
            assert!(lo < hi, "empty block");
            assert_eq!(lo, last_hi, "gap or overlap");
            seen += hi - lo;
            last_hi = hi;
        }
        assert_eq!(seen, 10_000);
        assert!(q.blocks_dispatched() >= 2);
    }

    #[test]
    fn queue_handles_zero_and_tiny_ranges() {
        let q = BlockQueue::new(0, 8);
        assert_eq!(q.next(), None);
        let q = BlockQueue::with_grain(3, 8, 1024);
        assert_eq!(q.next(), Some((0, 3)));
        assert_eq!(q.next(), None);
    }

    #[test]
    fn guided_blocks_shrink() {
        let q = BlockQueue::with_grain(1 << 20, 2, 64);
        let (a_lo, a_hi) = q.next().unwrap();
        let first = a_hi - a_lo;
        let mut last = first;
        while let Some((lo, hi)) = q.next() {
            last = hi - lo;
        }
        assert!(first > last, "guided grain should decay: {first} vs {last}");
    }

    #[test]
    fn concurrent_consumption_is_a_partition() {
        let q = BlockQueue::with_grain(100_000, 8, 8);
        let covered: Vec<u64> = run_workers(8, |_| {
            let mut sum = 0u64;
            while let Some((lo, hi)) = q.next() {
                sum += hi - lo;
            }
            sum
        });
        assert_eq!(covered.iter().sum::<u64>(), 100_000);
    }

    #[test]
    fn par_map_indexed_preserves_order() {
        let (v, stats) = par_map_indexed(100, 4, |i| i * i);
        assert_eq!(v, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(stats.blocks, 100);
    }

    #[test]
    fn par_map_indexed_empty() {
        let (v, stats) = par_map_indexed(0, 4, |i| i);
        assert!(v.is_empty());
        assert_eq!(stats.blocks, 0);
    }
}
