//! Discrete workload levels — the structure the equi-area scheduler exploits.
//!
//! Under both flattened schemes, threads whose tuple shares the same *top*
//! coordinate form a contiguous λ-run with identical workload:
//!
//! * `2x2`: all pairs with top coordinate `j` occupy `λ ∈ [C(j,2), C(j+1,2))`
//!   (`j` threads) and each performs `C(G−1−j, 2)` combinations;
//! * `3x1`: all triples with top coordinate `k` occupy `λ ∈ [C(k,3), C(k+1,3))`
//!   (`C(k,2)` threads) and each performs `G−1−k` combinations.
//!
//! So the whole `O(C(G,3))`-thread workload curve compresses into `O(G)`
//! [`Level`] records — this is what turns the naive tens-of-hours schedule
//! computation into the paper's sub-minute `O(G)` scheduler (§III-C).

use crate::combin::{tet, tri};
use crate::schemes::Scheme4;

/// A maximal run of consecutive threads with identical workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Level {
    /// First thread id (λ) of the run.
    pub lambda_start: u64,
    /// Number of threads in the run.
    pub n_threads: u64,
    /// Combinations evaluated by each thread in the run.
    pub work_per_thread: u64,
}

impl Level {
    /// Total combinations contributed by the run.
    #[inline]
    #[must_use]
    pub fn area(&self) -> u64 {
        self.n_threads * self.work_per_thread
    }

    /// One-past-the-end thread id.
    #[inline]
    #[must_use]
    fn lambda_end(&self) -> u64 {
        self.lambda_start + self.n_threads
    }
}

/// The workload levels of a 4-hit scheme, in ascending λ order.
///
/// `1x3` yields one level per thread (each thread has a distinct workload);
/// `4x1` yields a single flat level. Level counts are `O(G)` for the two
/// schemes the scheduler targets.
#[must_use]
pub fn levels_scheme4(scheme: Scheme4, g: u32) -> Vec<Level> {
    let gu = u64::from(g);
    match scheme {
        Scheme4::OneXThree => (0..gu)
            .map(|i| Level {
                lambda_start: i,
                n_threads: 1,
                work_per_thread: crate::combin::binomial(gu - 1 - i, 3),
            })
            .collect(),
        Scheme4::TwoXTwo => (1..gu)
            .map(|j| Level {
                lambda_start: tri(j),
                n_threads: j,
                work_per_thread: tri(gu - 1 - j),
            })
            .collect(),
        Scheme4::ThreeXOne => (2..gu)
            .map(|k| Level {
                lambda_start: tet(k),
                n_threads: tri(k),
                work_per_thread: gu - 1 - k,
            })
            .collect(),
        Scheme4::FourXOne => vec![Level {
            lambda_start: 0,
            n_threads: crate::combin::binomial(gu, 4),
            work_per_thread: 1,
        }],
    }
}

/// Total workload (combinations) across a level set.
#[must_use]
pub fn total_area(levels: &[Level]) -> u64 {
    levels.iter().map(Level::area).sum()
}

/// Total threads across a level set.
#[must_use]
pub fn total_threads(levels: &[Level]) -> u64 {
    levels.iter().map(|l| l.n_threads).sum()
}

/// Workload of the contiguous thread range `[lo, hi)` computed from levels in
/// `O(levels)` — the primitive both schedulers and their audits use.
#[must_use]
pub fn range_area(levels: &[Level], lo: u64, hi: u64) -> u64 {
    let mut acc = 0u64;
    for lv in levels {
        let s = lv.lambda_start.max(lo);
        let e = lv.lambda_end().min(hi);
        if s < e {
            acc += (e - s) * lv.work_per_thread;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combin::binomial;

    #[test]
    fn levels_partition_the_thread_range() {
        for scheme in Scheme4::ALL {
            let g = 23;
            let lv = levels_scheme4(scheme, g);
            let mut expect_start = 0u64;
            for l in &lv {
                assert_eq!(l.lambda_start, expect_start, "{}", scheme.name());
                expect_start = l.lambda_end();
            }
            assert_eq!(expect_start, scheme.thread_count(g), "{}", scheme.name());
        }
    }

    #[test]
    fn level_workloads_match_scheme_workloads() {
        let g = 19;
        for scheme in Scheme4::ALL {
            for l in levels_scheme4(scheme, g) {
                for lambda in [l.lambda_start, l.lambda_end() - 1] {
                    assert_eq!(
                        scheme.workload(lambda, g),
                        l.work_per_thread,
                        "{} λ={lambda}",
                        scheme.name()
                    );
                }
            }
        }
    }

    #[test]
    fn total_area_equals_total_combinations() {
        let g = 31;
        for scheme in Scheme4::ALL {
            assert_eq!(
                total_area(&levels_scheme4(scheme, g)),
                binomial(u64::from(g), 4),
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    fn level_count_is_linear_in_g() {
        let g = 19411;
        assert_eq!(levels_scheme4(Scheme4::ThreeXOne, g).len(), g as usize - 2);
        assert_eq!(levels_scheme4(Scheme4::TwoXTwo, g).len(), g as usize - 1);
    }

    #[test]
    fn range_area_matches_direct_sum() {
        let g = 17;
        let levels = levels_scheme4(Scheme4::ThreeXOne, g);
        let n = total_threads(&levels);
        let direct =
            |lo: u64, hi: u64| -> u64 { (lo..hi).map(|l| Scheme4::ThreeXOne.workload(l, g)).sum() };
        for (lo, hi) in [(0, n), (5, 100), (100, 101), (n - 1, n), (7, 7)] {
            assert_eq!(range_area(&levels, lo, hi), direct(lo, hi), "[{lo},{hi})");
        }
    }
}
