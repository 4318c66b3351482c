//! Workload schedulers: equi-distance (ED) and equi-area (EA) partitioning
//! of the λ thread range across GPUs (§III-C).
//!
//! ED gives every GPU the same *number of threads*; because per-thread
//! workload decays polynomially with λ, the first partition carries vastly
//! more combinations (Fig 3a) — the paper measured ED 3× slower end-to-end.
//! EA instead cuts the range so every partition carries (approximately) the
//! same *workload area* (Fig 3b,c).
//!
//! Two EA implementations are provided:
//!
//! * [`schedule_ea_naive`] — the paper's strawman: walk threads one by one
//!   accumulating workload until the per-GPU average is reached. `O(N)` in
//!   the number of threads (`N = C(G,3) ≈ 1.2·10¹²` for BRCA — "tens of
//!   hours and out of memory" at scale); usable here only at test sizes.
//! * [`schedule_ea_fast`] — the paper's `O(G)` scheduler: exploit the `G`
//!   discrete workload levels (threads per level `C(k,2)`, workload per
//!   thread `G−1−k`) to jump level by level, computing how many threads of
//!   the current level each partition still needs in constant time.
//!
//! Both produce identical partitions (tested exhaustively at small `G`).

use multihit_core::sweep::{range_area, total_area, total_threads, Level};

/// Structured scheduler error: partition sets that fail to tile the
/// λ-range, and slab moves that would break the tiling. Carries the exact
/// boundary values so recovery code can log *which* λ-range went missing
/// instead of a pre-formatted string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// An empty partition set can tile nothing.
    NoPartitions,
    /// The λ-lowest partition starts after 0, leaking the range head.
    LateStart {
        /// Observed first start.
        lo: u64,
    },
    /// Adjacent partitions (in λ order) leave a gap or overlap.
    GapOrOverlap {
        /// Index (in λ order) of the left partition.
        index: usize,
        /// Where the left partition ends.
        end: u64,
        /// Where the right partition starts.
        next_start: u64,
    },
    /// The λ-highest partition misses the end of the range.
    ShortEnd {
        /// Observed last end.
        hi: u64,
        /// Expected end of the range.
        total: u64,
    },
    /// A slab move targeted a donor index that does not exist.
    NoSuchDonor {
        /// Requested donor index.
        donor: usize,
        /// Number of partitions.
        parts: usize,
    },
    /// A slab move would leave the moved slabs no longer tiling the range
    /// exactly (the wrapped violation says where).
    UntileableMove(Box<SchedError>),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoPartitions => write!(f, "no partitions"),
            SchedError::LateStart { lo } => {
                write!(f, "first partition starts at {lo}, not 0")
            }
            SchedError::GapOrOverlap {
                index,
                end,
                next_start,
            } => write!(
                f,
                "partition {index} ends at {end} but partition {} starts at {next_start}",
                index + 1
            ),
            SchedError::ShortEnd { hi, total } => {
                write!(f, "last partition ends at {hi}, not {total}")
            }
            SchedError::NoSuchDonor { donor, parts } => {
                write!(
                    f,
                    "slab-move donor {donor} out of range ({parts} partitions)"
                )
            }
            SchedError::UntileableMove(inner) => {
                write!(f, "un-tileable slab move: {inner}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// A contiguous λ-range assigned to one GPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// First thread id.
    pub lo: u64,
    /// One past the last thread id.
    pub hi: u64,
}

impl Partition {
    /// Threads in the partition.
    #[must_use]
    pub fn n_threads(&self) -> u64 {
        self.hi - self.lo
    }
}

/// Flatten a schedule into the `(lo, hi)` pairs
/// [`multihit_gpusim::profile::profile_partitions`] takes.
#[must_use]
pub fn partitions_to_ranges(parts: &[Partition]) -> Vec<(u64, u64)> {
    parts.iter().map(|p| (p.lo, p.hi)).collect()
}

/// Equi-distance: equal thread counts (the naive baseline).
///
/// # Panics
/// Panics if `parts == 0`.
#[must_use]
pub fn schedule_ed(n_threads: u64, parts: usize) -> Vec<Partition> {
    assert!(parts > 0, "at least one partition required");
    let p = parts as u64;
    let base = n_threads / p;
    let extra = n_threads % p;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0u64;
    for i in 0..p {
        let len = base + u64::from(i < extra);
        out.push(Partition { lo, hi: lo + len });
        lo += len;
    }
    out
}

/// Equi-area, naive `O(N)`: accumulate per-thread workload until each
/// partition reaches its proportional share of the total area.
///
/// `workload(λ)` must match the level table used by the fast scheduler.
#[must_use]
pub fn schedule_ea_naive<F: Fn(u64) -> u64>(
    n_threads: u64,
    total: u64,
    parts: usize,
    workload: F,
) -> Vec<Partition> {
    assert!(parts > 0, "at least one partition required");
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0u64;
    let mut cum = 0u64;
    let mut next_part = 1u64;
    for lambda in 0..n_threads {
        cum += workload(lambda);
        // Cut after this thread once the cumulative area reaches the
        // proportional target ceil(part * total / parts).
        while next_part < parts as u64
            && u128::from(cum) * parts as u128 >= u128::from(total) * u128::from(next_part)
        {
            out.push(Partition { lo, hi: lambda + 1 });
            lo = lambda + 1;
            next_part += 1;
        }
    }
    while out.len() < parts {
        out.push(Partition { lo, hi: n_threads });
        lo = n_threads;
    }
    out
}

/// Equi-area, fast `O(G + P)`: jump across workload levels.
///
/// Within a level every thread contributes `w` area, so the number of
/// threads a partition still needs from the level is a division — no
/// per-thread walk. Levels with zero workload are swept into the current
/// partition (they cost nothing wherever they land; keeping λ contiguous).
///
/// ```
/// use multihit_cluster::sched::{partition_areas, schedule_ea_fast};
/// use multihit_core::schemes::Scheme4;
/// use multihit_core::sweep::levels_scheme4;
///
/// let levels = levels_scheme4(Scheme4::ThreeXOne, 50);
/// let parts = schedule_ea_fast(&levels, 30); // Fig 3: 5 nodes × 6 GPUs
/// let areas = partition_areas(&levels, &parts);
/// let mean = areas.iter().sum::<u64>() / 30;
/// assert!(areas.iter().all(|&a| a.abs_diff(mean) < mean / 4));
/// ```
#[must_use]
pub fn schedule_ea_fast(levels: &[Level], parts: usize) -> Vec<Partition> {
    assert!(parts > 0, "at least one partition required");
    let n_threads = total_threads(levels);
    let total = u128::from(total_area(levels));
    let parts_w = parts as u128;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0u64;
    let mut cum: u128 = 0; // area before the current level
    let mut next_part: u128 = 1;

    for lv in levels {
        // Zero-weight threads never trigger a cut (they add no area); they
        // flow into whichever partition the surrounding boundaries imply.
        if lv.work_per_thread == 0 || lv.n_threads == 0 {
            continue;
        }
        let w = u128::from(lv.work_per_thread);
        while next_part < parts_w {
            // The cut for partition p lies after the smallest thread count
            // t with (cum + w·t)·parts ≥ total·p, i.e. cum + w·t ≥
            // ceil(total·p/parts) — identical rounding to the naive walk.
            let target = (total * next_part).div_ceil(parts_w);
            debug_assert!(cum < target, "level-entry invariant violated");
            let need = target - cum;
            let t_min = need.div_ceil(w);
            if t_min <= u128::from(lv.n_threads) {
                let hi = lv.lambda_start + u64::try_from(t_min).expect("boundary overflow");
                out.push(Partition { lo, hi });
                lo = hi;
                next_part += 1;
            } else {
                break; // boundary falls in a later level
            }
        }
        cum += w * u128::from(lv.n_threads);
    }
    while out.len() < parts {
        out.push(Partition { lo, hi: n_threads });
        lo = n_threads;
    }
    out
}

/// Per-partition workload areas (for audits and Fig 3c).
#[must_use]
pub fn partition_areas(levels: &[Level], parts: &[Partition]) -> Vec<u64> {
    parts
        .iter()
        .map(|p| range_area(levels, p.lo, p.hi))
        .collect()
}

/// Check that `parts` exactly tile `[0, total)`: starts at 0, ends at
/// `total`, no gaps, no overlaps. The functional driver asserts this on
/// every re-partitioning — losing λ-range on recovery would silently change
/// the discovered combinations.
///
/// # Errors
/// A [`SchedError`] naming the first violation.
pub fn validate_partitions(parts: &[Partition], total: u64) -> Result<(), SchedError> {
    let Some(first) = parts.first() else {
        return Err(SchedError::NoPartitions);
    };
    if first.lo != 0 {
        return Err(SchedError::LateStart { lo: first.lo });
    }
    for (i, w) in parts.windows(2).enumerate() {
        if w[0].hi != w[1].lo {
            return Err(SchedError::GapOrOverlap {
                index: i,
                end: w[0].hi,
                next_start: w[1].lo,
            });
        }
    }
    let last = parts.last().expect("non-empty");
    if last.hi != total {
        return Err(SchedError::ShortEnd { hi: last.hi, total });
    }
    Ok(())
}

/// [`validate_partitions`] for partition sets whose λ-order no longer
/// matches their GPU-id order (after slab moves, joiner ranges sit in the
/// middle of the λ-range but at the end of the roster). Sorts a copy by
/// `lo` and validates the tiling of that.
///
/// # Errors
/// A [`SchedError`] naming the first violation in λ order.
pub fn validate_cover(parts: &[Partition], total: u64) -> Result<(), SchedError> {
    let mut sorted = parts.to_vec();
    sorted.sort_unstable_by_key(|p| (p.lo, p.hi));
    validate_partitions(&sorted, total)
}

/// One boundary slab handed from a donor partition to a joining GPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabMove {
    /// Index (GPU id) of the partition that shrank.
    pub donor: usize,
    /// Index (GPU id) the moved slab now belongs to.
    pub joiner: usize,
    /// First thread id of the moved slab.
    pub lo: u64,
    /// One past the last thread id of the moved slab.
    pub hi: u64,
    /// Workload area of the moved slab.
    pub area: u64,
}

/// Smallest cut point `c ∈ [p.lo, p.hi]` whose head `[p.lo, c)` carries at
/// least half the partition's area — the EA midpoint of the slab.
fn ea_midpoint(levels: &[Level], p: Partition) -> u64 {
    let half = range_area(levels, p.lo, p.hi).div_ceil(2);
    let (mut lo, mut hi) = (p.lo, p.hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if range_area(levels, p.lo, mid) >= half {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Incremental re-partitioning for elastic joins: instead of re-sharding
/// the whole λ-range (which would move every boundary and invalidate every
/// rank's locality), each of the `joiners` new GPUs takes the *high half*
/// (by EA area) of the currently largest partition. Only one boundary moves
/// per joiner, the donor's load never increases, and the maximum per-GPU
/// area is non-increasing — an iteration's makespan cannot get worse from
/// absorbing a joiner.
///
/// Returns the extended partition vector (joiners appended in admission
/// order) plus the slab moves performed. The result is proven to still tile
/// `[0, total_threads)` exactly via [`validate_cover`]; a violation is
/// reported as [`SchedError::UntileableMove`] rather than asserted, so the
/// driver can refuse the join instead of corrupting the λ-range.
///
/// # Errors
/// [`SchedError::NoPartitions`] when there is nothing to split, or
/// [`SchedError::UntileableMove`] when the moved slabs no longer tile the
/// range.
pub fn rebalance_join(
    levels: &[Level],
    parts: &[Partition],
    joiners: usize,
) -> Result<(Vec<Partition>, Vec<SlabMove>), SchedError> {
    if parts.is_empty() {
        return Err(SchedError::NoPartitions);
    }
    let mut out = parts.to_vec();
    let mut areas = partition_areas(levels, &out);
    let mut moves = Vec::with_capacity(joiners);
    for _ in 0..joiners {
        let donor = areas
            .iter()
            .enumerate()
            .max_by_key(|&(i, &a)| (a, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .expect("non-empty partition set");
        let d = out[donor];
        let cut = ea_midpoint(levels, d);
        let joiner = out.len();
        out[donor] = Partition { lo: d.lo, hi: cut };
        let slab = Partition { lo: cut, hi: d.hi };
        out.push(slab);
        let slab_area = range_area(levels, slab.lo, slab.hi);
        areas[donor] -= slab_area;
        areas.push(slab_area);
        moves.push(SlabMove {
            donor,
            joiner,
            lo: slab.lo,
            hi: slab.hi,
            area: slab_area,
        });
    }
    validate_cover(&out, total_threads(levels))
        .map_err(|e| SchedError::UntileableMove(Box::new(e)))?;
    Ok((out, moves))
}

/// Load-imbalance ratio: max partition area / mean partition area. 1.0 is
/// perfect balance; ED's ratio is what costs it the paper's 3× slowdown.
#[must_use]
pub fn imbalance(levels: &[Level], parts: &[Partition]) -> f64 {
    let areas = partition_areas(levels, parts);
    let max = areas.iter().copied().max().unwrap_or(0) as f64;
    let mean = areas.iter().sum::<u64>() as f64 / areas.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihit_core::schemes::Scheme4;
    use multihit_core::sweep::levels_scheme4;

    /// Propagates the structured validation error instead of unwrapping, so
    /// a failing tiling names the violated boundary in the test output.
    fn check_partitioning(parts: &[Partition], n: u64) -> Result<(), SchedError> {
        validate_partitions(parts, n)
    }

    #[test]
    fn validate_partitions_catches_violations() {
        let p = |lo, hi| Partition { lo, hi };
        assert!(validate_partitions(&[p(0, 5), p(5, 9)], 9).is_ok());
        assert_eq!(validate_partitions(&[], 9), Err(SchedError::NoPartitions));
        assert_eq!(
            validate_partitions(&[p(1, 9)], 9),
            Err(SchedError::LateStart { lo: 1 })
        );
        assert_eq!(
            validate_partitions(&[p(0, 4), p(5, 9)], 9),
            Err(SchedError::GapOrOverlap {
                index: 0,
                end: 4,
                next_start: 5
            })
        );
        assert_eq!(
            validate_partitions(&[p(0, 6), p(5, 9)], 9),
            Err(SchedError::GapOrOverlap {
                index: 0,
                end: 6,
                next_start: 5
            })
        );
        assert_eq!(
            validate_partitions(&[p(0, 8)], 9),
            Err(SchedError::ShortEnd { hi: 8, total: 9 })
        );
        // The Display impl keeps the old human-readable messages.
        assert_eq!(
            SchedError::LateStart { lo: 1 }.to_string(),
            "first partition starts at 1, not 0"
        );
    }

    #[test]
    fn ed_splits_evenly() -> Result<(), SchedError> {
        let parts = schedule_ed(103, 10);
        check_partitioning(&parts, 103)?;
        for p in &parts {
            assert!(p.n_threads() == 10 || p.n_threads() == 11);
        }
        Ok(())
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_parts_panics() {
        let _ = schedule_ed(10, 0);
    }

    #[test]
    fn ea_fast_equals_ea_naive_exhaustively() {
        for g in [10u32, 17, 25, 50] {
            for parts in [1usize, 2, 3, 5, 7, 30] {
                for scheme in [Scheme4::TwoXTwo, Scheme4::ThreeXOne] {
                    let levels = levels_scheme4(scheme, g);
                    let n = total_threads(&levels);
                    let total = total_area(&levels);
                    let naive = schedule_ea_naive(n, total, parts, |l| scheme.workload(l, g));
                    let fast = schedule_ea_fast(&levels, parts);
                    assert_eq!(naive, fast, "g={g} parts={parts} scheme={}", scheme.name());
                }
            }
        }
    }

    #[test]
    fn ea_partitions_cover_range() -> Result<(), SchedError> {
        let levels = levels_scheme4(Scheme4::ThreeXOne, 50);
        for parts in [1, 2, 6, 30, 100] {
            let p = schedule_ea_fast(&levels, parts);
            assert_eq!(p.len(), parts);
            check_partitioning(&p, total_threads(&levels))?;
        }
        Ok(())
    }

    #[test]
    fn ea_balances_better_than_ed_fig3() {
        // The paper's Fig 3 setting: G = 50, 5 nodes × 6 GPUs = 30 GPUs.
        let g = 50;
        let levels = levels_scheme4(Scheme4::ThreeXOne, g);
        let n = total_threads(&levels);
        let ed = schedule_ed(n, 30);
        let ea = schedule_ea_fast(&levels, 30);
        let imb_ed = imbalance(&levels, &ed);
        let imb_ea = imbalance(&levels, &ea);
        assert!(imb_ea < imb_ed, "EA {imb_ea} vs ED {imb_ed}");
        assert!(imb_ea < 1.25, "EA imbalance {imb_ea}");
        assert!(imb_ed > 2.0, "ED imbalance {imb_ed}");
    }

    #[test]
    fn ea_area_spread_is_tight_at_scale() -> Result<(), SchedError> {
        // Paper scale (BRCA, 3x1, 6000 GPUs): areas must all be within a
        // fraction of a percent of the mean — one thread's workload ≤ G.
        let g = 19411;
        let levels = levels_scheme4(Scheme4::ThreeXOne, g);
        let parts = schedule_ea_fast(&levels, 6000);
        let areas = partition_areas(&levels, &parts);
        let mean = areas.iter().sum::<u64>() as f64 / 6000.0;
        for (i, &a) in areas.iter().enumerate() {
            assert!(
                (a as f64 - mean).abs() / mean < 0.001,
                "partition {i}: {a} vs mean {mean}"
            );
        }
        check_partitioning(&parts, total_threads(&levels))
    }

    #[test]
    fn ea_fast_is_o_g_fast() {
        // The paper: naive takes tens of hours; level-based takes < 1 min.
        // Ours must do paper scale in well under a second.
        let g = 19411;
        let levels = levels_scheme4(Scheme4::ThreeXOne, g);
        let t0 = std::time::Instant::now();
        let parts = schedule_ea_fast(&levels, 6000);
        assert_eq!(parts.len(), 6000);
        assert!(t0.elapsed().as_secs_f64() < 1.0);
    }

    #[test]
    fn single_partition_takes_everything() {
        let levels = levels_scheme4(Scheme4::ThreeXOne, 20);
        let p = schedule_ea_fast(&levels, 1);
        assert_eq!(
            p,
            vec![Partition {
                lo: 0,
                hi: total_threads(&levels)
            }]
        );
    }

    #[test]
    fn more_partitions_than_threads_yields_empty_tails() -> Result<(), SchedError> {
        let levels = levels_scheme4(Scheme4::ThreeXOne, 5); // C(5,3) = 10 threads
        let p = schedule_ea_fast(&levels, 16);
        check_partitioning(&p, 10)?;
        assert!(p.iter().filter(|q| q.n_threads() == 0).count() >= 6);
        Ok(())
    }

    #[test]
    fn rebalance_join_moves_only_boundary_slabs() -> Result<(), SchedError> {
        let levels = levels_scheme4(Scheme4::ThreeXOne, 50);
        let total = total_threads(&levels);
        for joiners in [1usize, 2, 5] {
            let base = schedule_ea_fast(&levels, 6);
            let (grown, moves) = rebalance_join(&levels, &base, joiners)?;
            assert_eq!(grown.len(), 6 + joiners);
            assert_eq!(moves.len(), joiners);
            // The moved slabs still tile C(G,4) exactly.
            validate_cover(&grown, total)?;
            // Each joiner owns exactly the slab its move describes, cut from
            // the donor's high boundary — donors only ever shrink in place.
            for m in &moves {
                assert_eq!(grown[m.joiner], Partition { lo: m.lo, hi: m.hi });
                assert_eq!(grown[m.donor].hi, m.lo);
            }
            // Every original boundary that did not donate is untouched.
            let donors: Vec<usize> = moves.iter().map(|m| m.donor).collect();
            for (i, p) in base.iter().enumerate() {
                if !donors.contains(&i) {
                    assert_eq!(grown[i], *p);
                }
            }
        }
        Ok(())
    }

    #[test]
    fn rebalance_join_never_raises_the_max_load() -> Result<(), SchedError> {
        let levels = levels_scheme4(Scheme4::ThreeXOne, 80);
        let base = schedule_ea_fast(&levels, 12);
        let max_before = partition_areas(&levels, &base).into_iter().max().unwrap();
        let (grown, _) = rebalance_join(&levels, &base, 4)?;
        let areas = partition_areas(&levels, &grown);
        let max_after = areas.iter().copied().max().unwrap();
        assert!(
            max_after <= max_before,
            "join raised the makespan bound: {max_after} > {max_before}"
        );
        // Splitting the largest partition in half per joiner keeps the
        // imbalance within the (P+g)/P envelope (plus one thread of slack).
        let mean = areas.iter().sum::<u64>() as f64 / areas.len() as f64;
        assert!(max_after as f64 / mean < (12.0 + 4.0) / 12.0 + 0.1);
        Ok(())
    }

    #[test]
    fn rebalance_join_is_deterministic_and_composable() -> Result<(), SchedError> {
        // Admitting two joiners at once equals admitting them one at a time:
        // the protocol's roster growth is order-deterministic.
        let levels = levels_scheme4(Scheme4::TwoXTwo, 40);
        let base = schedule_ea_fast(&levels, 4);
        let (both, _) = rebalance_join(&levels, &base, 2)?;
        let (one, _) = rebalance_join(&levels, &base, 1)?;
        let (then_two, _) = rebalance_join(&levels, &one, 1)?;
        assert_eq!(both, then_two);
        Ok(())
    }

    #[test]
    fn rebalance_join_handles_empty_donors() -> Result<(), SchedError> {
        // More GPUs than threads: the largest partitions still split; once
        // everything is empty the joiner legitimately receives zero work.
        let levels = levels_scheme4(Scheme4::ThreeXOne, 5); // 10 threads
        let base = schedule_ea_fast(&levels, 8);
        let (grown, moves) = rebalance_join(&levels, &base, 6)?;
        validate_cover(&grown, total_threads(&levels))?;
        assert_eq!(grown.len(), 14);
        assert_eq!(moves.len(), 6);
        Ok(())
    }

    #[test]
    fn rebalance_join_rejects_empty_roster() {
        let levels = levels_scheme4(Scheme4::ThreeXOne, 20);
        assert_eq!(
            rebalance_join(&levels, &[], 1).unwrap_err(),
            SchedError::NoPartitions
        );
    }

    #[test]
    fn untileable_move_is_a_structured_error() {
        // A partition set that never tiled the range cannot survive a slab
        // move; the scheduler reports the violation instead of asserting.
        let levels = levels_scheme4(Scheme4::ThreeXOne, 20);
        let broken = [Partition { lo: 5, hi: 50 }];
        let err = rebalance_join(&levels, &broken, 1).unwrap_err();
        assert!(matches!(err, SchedError::UntileableMove(_)), "{err:?}");
        assert!(err.to_string().contains("un-tileable slab move"));
    }

    #[test]
    fn ed_imbalance_grows_with_partitions_2x2() {
        // The granularity pathology: narrower ED partitions concentrate the
        // heavy head threads, worsening max/mean.
        let g = 200;
        let levels = levels_scheme4(Scheme4::TwoXTwo, g);
        let n = total_threads(&levels);
        let i10 = imbalance(&levels, &schedule_ed(n, 10));
        let i100 = imbalance(&levels, &schedule_ed(n, 100));
        assert!(i100 > i10);
    }
}
