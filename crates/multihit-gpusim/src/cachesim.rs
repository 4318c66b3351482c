//! Trace-based LRU cache simulation over gene-row accesses.
//!
//! Why does the Fig 5 ablation buy ~3× on a V100 but little wall time on a
//! host CPU? The optimizations cut *row fetches* 3:2:1 (audited in
//! [`multihit_core::memopt`]), but whether a fetch costs DRAM time depends
//! on where the row lives. This module replays the 3-hit kernel's row-access
//! trace through an LRU cache of configurable capacity:
//!
//! * at executed scale the whole matrix fits any host L2/L3 — hit rates are
//!   ~100% at every optimization level, so the CPU sees only the reduced
//!   instruction count;
//! * even with a small cache, LRU keeps the per-thread hot rows (`i`, `j`)
//!   resident, so *miss* counts are nearly identical across levels — the
//!   simulation demonstrates that MemOpt's 3:2:1 saving is **cache/DRAM
//!   access bandwidth**, not miss count. On a V100 the kernel is throughput-
//!   bound on exactly that bandwidth (§IV-C), which is what the cost model
//!   charges; on a CPU the L1 absorbs the extra accesses almost for free.
//!
//! LRU has the inclusion property, so miss counts are monotone in capacity
//! (tested), making the two regimes directly comparable.

use multihit_core::combin::tri;
use multihit_core::memopt::MemOptLevel;
use std::collections::HashMap;

/// Aggregate statistics of one trace replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Row accesses replayed.
    pub accesses: u64,
    /// Accesses served by the cache.
    pub hits: u64,
    /// Accesses that went to the next level (DRAM).
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of accesses that missed.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A fully associative LRU cache over opaque row ids.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    clock: u64,
    stamp: HashMap<u64, u64>,
    pub(crate) stats: CacheStats,
}

impl LruCache {
    /// A cache holding `capacity` rows (0 = everything misses).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            clock: 0,
            stamp: HashMap::with_capacity(capacity + 1),
            stats: CacheStats::default(),
        }
    }

    /// Access a row; returns true on hit.
    pub fn access(&mut self, row: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        if self.capacity == 0 {
            self.stats.misses += 1;
            return false;
        }
        let hit = self.stamp.contains_key(&row);
        self.stamp.insert(row, self.clock);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            if self.stamp.len() > self.capacity {
                // Evict the least recently used entry.
                let (&victim, _) = self
                    .stamp
                    .iter()
                    .min_by_key(|&(_, &t)| t)
                    .expect("non-empty cache");
                self.stamp.remove(&victim);
            }
        }
        hit
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Replay the 3-hit kernel's row-access trace (2x1 scheme, all threads)
/// through a cache of `capacity` rows, at the given optimization level.
///
/// Row ids: tumor row `g` = `g`, normal row `g` = `G + g`. Prefetched rows
/// live in thread-local memory and do not touch the cache inside the inner
/// loop — exactly the traffic the audit counts.
#[must_use]
pub fn simulate_3hit(g: u32, level: MemOptLevel, capacity: usize) -> CacheStats {
    let mut cache = LruCache::new(capacity);
    let gu = u64::from(g);
    for lambda in 0..tri(gu) {
        let (i, j) = multihit_core::combin::unrank_pair_fast(lambda);
        // Prefetch phase (counts as cold fetches once per thread).
        match level {
            MemOptLevel::NoOpt => {}
            MemOptLevel::Prefetch1 => {
                cache.access(u64::from(i));
                cache.access(gu + u64::from(i));
            }
            MemOptLevel::Prefetch2 => {
                for gene in [i, j] {
                    cache.access(u64::from(gene));
                    cache.access(gu + u64::from(gene));
                }
            }
        }
        for k in j + 1..g {
            match level {
                MemOptLevel::NoOpt => {
                    for gene in [i, j, k] {
                        cache.access(u64::from(gene));
                        cache.access(gu + u64::from(gene));
                    }
                }
                MemOptLevel::Prefetch1 => {
                    for gene in [j, k] {
                        cache.access(u64::from(gene));
                        cache.access(gu + u64::from(gene));
                    }
                }
                MemOptLevel::Prefetch2 => {
                    cache.access(u64::from(k));
                    cache.access(gu + u64::from(k));
                }
            }
        }
    }
    cache.stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_basics() {
        let mut c = LruCache::new(2);
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(c.access(1)); // hit
        assert!(!c.access(3)); // evicts 2 (LRU)
        assert!(c.access(1));
        assert!(!c.access(2)); // 2 was evicted
        assert_eq!(c.stats().accesses, 6);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut c = LruCache::new(0);
        assert!(!c.access(1));
        assert!(!c.access(1));
        assert_eq!(c.stats().miss_rate(), 1.0);
    }

    #[test]
    fn lru_inclusion_property() {
        // More capacity never increases misses (LRU stack property).
        let trace: Vec<u64> = (0..4000u64).map(|i| (i * 37 + i * i / 7) % 97).collect();
        let mut last = u64::MAX;
        for cap in [4usize, 16, 48, 97] {
            let mut c = LruCache::new(cap);
            for &r in &trace {
                c.access(r);
            }
            assert!(c.stats().misses <= last, "cap {cap}");
            last = c.stats().misses;
        }
    }

    #[test]
    fn access_counts_match_the_audit_ratio() {
        // Inner accesses are 3:2:1 across levels (prefetch adds a small
        // per-thread term).
        let g = 40;
        let s0 = simulate_3hit(g, MemOptLevel::NoOpt, 10);
        let s1 = simulate_3hit(g, MemOptLevel::Prefetch1, 10);
        let s2 = simulate_3hit(g, MemOptLevel::Prefetch2, 10);
        let inner0 = s0.accesses;
        let threads = tri(u64::from(g));
        let inner1 = s1.accesses - 2 * threads;
        let inner2 = s2.accesses - 4 * threads;
        assert_eq!(inner0 % 3, 0);
        assert_eq!(inner0 / 3, inner2);
        assert_eq!(inner1, 2 * inner2);
    }

    #[test]
    fn big_cache_hits_everything_small_cache_does_not() {
        // Executed scale: the whole matrix (2G rows) fits a host cache —
        // hit rates near 1 at every level; a tiny cache misses plenty.
        let g = 60u32;
        for level in MemOptLevel::ALL {
            let big = simulate_3hit(g, level, 2 * g as usize);
            assert!(
                big.miss_rate() < 0.01,
                "{}: big-cache miss rate {}",
                level.name(),
                big.miss_rate()
            );
            let small = simulate_3hit(g, level, 6);
            assert!(
                small.miss_rate() > 0.2,
                "{}: small-cache miss rate {}",
                level.name(),
                small.miss_rate()
            );
        }
    }

    #[test]
    fn prefetch_saves_bandwidth_not_misses() {
        // The module's headline finding: with any cache that can hold a
        // thread's working set, NoOpt's extra accesses hit (LRU keeps i,j
        // resident) — misses stay comparable while total cache traffic
        // drops ~3×. The GPU gain is therefore bandwidth relief, which the
        // cost model charges; a CPU's L1 hides it.
        let g = 60u32;
        let cap = 8usize;
        let s0 = simulate_3hit(g, MemOptLevel::NoOpt, cap);
        let s2 = simulate_3hit(g, MemOptLevel::Prefetch2, cap);
        let miss_ratio = s0.misses as f64 / s2.misses as f64;
        assert!((0.7..1.5).contains(&miss_ratio), "miss ratio {miss_ratio}");
        let access_ratio = s0.accesses as f64 / s2.accesses as f64;
        assert!(access_ratio > 2.5, "access ratio {access_ratio}");
    }
}
