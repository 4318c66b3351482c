//! Cost-weighted equi-area scheduling — the paper's §V improvement idea (4):
//! "Incorporate memory latency into the scheduling algorithm".
//!
//! Plain EA equalizes *combination counts*, but a combination's true cost
//! varies with its thread's inner-loop length `T`: short threads pay the
//! per-thread setup (λ index math, prefetches) over few combinations and
//! stream poorly. This scheduler equalizes a *modeled cost* instead:
//!
//! ```text
//! cost(thread at level T) = T            (combinations)
//!                         + κ_setup      (index math + launch share)
//!                         + κ_prefetch·ρ (prefetched rows)
//! ```
//!
//! with the cost expressed in combination-equivalents so the same `O(G)`
//! level-walk applies. The ablation (bench + `figures tbl-sched-mem`)
//! compares straggler times under plain EA and weighted EA.

use crate::sched::Partition;
use multihit_core::sweep::Level;

/// Cost weights, in combination-equivalents per thread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostWeights {
    /// Per-thread fixed cost (index math, reduction slot).
    pub setup: f64,
    /// Per-prefetched-row cost.
    pub prefetch: f64,
    /// Rows prefetched per thread (3 for the 3x1 scheme).
    pub prefetch_rows: f64,
}

impl CostWeights {
    /// Weights derived from the V100 cost model: the §III-F index math plus
    /// three prefetched rows cost roughly as much as ~4 inner combinations.
    #[must_use]
    pub fn v100_3x1() -> Self {
        CostWeights {
            setup: 1.5,
            prefetch: 1.0,
            prefetch_rows: 3.0,
        }
    }

    /// Modeled cost of one thread with inner length `t`, scaled ×1000 to an
    /// integer so the exact-arithmetic level walk applies.
    #[must_use]
    fn thread_cost_milli(&self, t: u64) -> u64 {
        let c = t as f64 + self.setup + self.prefetch * self.prefetch_rows;
        (c * 1000.0).round() as u64
    }
}

/// Equi-cost scheduling: the `O(G)` level walk of
/// [`crate::sched::schedule_ea_fast`] applied to modeled thread costs
/// rather than raw combination counts.
#[must_use]
pub fn schedule_ea_weighted(
    levels: &[Level],
    parts: usize,
    weights: &CostWeights,
) -> Vec<Partition> {
    // Re-express each level with cost-units as its "work", then reuse the
    // exact-area partitioner.
    let cost_levels: Vec<Level> = levels
        .iter()
        .map(|lv| Level {
            lambda_start: lv.lambda_start,
            n_threads: lv.n_threads,
            work_per_thread: weights.thread_cost_milli(lv.work_per_thread),
        })
        .collect();
    crate::sched::schedule_ea_fast(&cost_levels, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{partition_areas, schedule_ea_fast};
    use multihit_core::schemes::Scheme4;
    use multihit_core::sweep::{levels_scheme4, total_threads};

    #[test]
    fn weighted_partitions_cover_the_range() {
        let levels = levels_scheme4(Scheme4::ThreeXOne, 80);
        let parts = schedule_ea_weighted(&levels, 12, &CostWeights::v100_3x1());
        assert_eq!(parts.len(), 12);
        assert_eq!(parts[0].lo, 0);
        assert_eq!(parts.last().unwrap().hi, total_threads(&levels));
        for w in parts.windows(2) {
            assert_eq!(w[0].hi, w[1].lo);
        }
    }

    #[test]
    fn weighted_tail_partitions_shrink() {
        // Weighted EA charges short threads their setup cost, so the tail
        // partitions (many short threads) must receive FEWER threads than
        // under plain EA.
        let levels = levels_scheme4(Scheme4::ThreeXOne, 300);
        let plain = schedule_ea_fast(&levels, 30);
        let weighted = schedule_ea_weighted(&levels, 30, &CostWeights::v100_3x1());
        let plain_tail = plain.last().unwrap().n_threads();
        let weighted_tail = weighted.last().unwrap().n_threads();
        assert!(
            weighted_tail < plain_tail,
            "weighted tail {weighted_tail} vs plain {plain_tail}"
        );
    }

    #[test]
    fn zero_extra_weight_degenerates_to_plain_ea() {
        let levels = levels_scheme4(Scheme4::ThreeXOne, 60);
        let zero = CostWeights {
            setup: 0.0,
            prefetch: 0.0,
            prefetch_rows: 0.0,
        };
        let weighted = schedule_ea_weighted(&levels, 7, &zero);
        let plain = schedule_ea_fast(&levels, 7);
        assert_eq!(weighted, plain);
    }

    #[test]
    fn weighted_cost_balance_is_tight() {
        let levels = levels_scheme4(Scheme4::ThreeXOne, 500);
        let w = CostWeights::v100_3x1();
        let parts = schedule_ea_weighted(&levels, 24, &w);
        // Audit in cost units.
        let cost_levels: Vec<Level> = levels
            .iter()
            .map(|lv| Level {
                lambda_start: lv.lambda_start,
                n_threads: lv.n_threads,
                work_per_thread: w.thread_cost_milli(lv.work_per_thread),
            })
            .collect();
        let areas = partition_areas(&cost_levels, &parts);
        let max = *areas.iter().max().unwrap() as f64;
        let mean = areas.iter().sum::<u64>() as f64 / areas.len() as f64;
        assert!(max / mean < 1.01, "cost imbalance {}", max / mean);
    }
}
