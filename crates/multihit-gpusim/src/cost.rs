//! The GPU cycle/memory cost model.
//!
//! Maps a [`crate::profile::WorkProfile`] to execution time and
//! NVPROF-style metrics. The model is deliberately simple and *structural* —
//! every input comes from the kernel's own arithmetic (ops, bytes, thread
//! counts, inner-loop lengths), and the few device constants live in
//! [`crate::device::GpuSpec`], fixed once for all experiments:
//!
//! * **compute time** = ops / aggregate integer throughput;
//! * **memory time** = bytes / achieved bandwidth, where achieved bandwidth
//!   degrades with (a) low *occupancy* — too few resident threads to hide
//!   HBM latency (the head of an equi-area 2x2 partition has a handful of
//!   monster threads) — and (b) short inner loops — dependent, uncoalesced
//!   row fetches that cannot stream (the tail of any partition);
//! * **setup time** = per-thread index math (λ→(i,j,k), §III-F) divided by
//!   the device's concurrency;
//! * total = max(compute, memory) + setup + launch overhead.
//!
//! These two degradation terms are exactly the paper's §IV-C diagnosis:
//! "compute utilization primarily depends on memory read/write throughput",
//! with the processor transitioning between memory- and compute-bound
//! regimes across GPU index.

use crate::device::GpuSpec;
use crate::profile::WorkProfile;

/// Streaming-efficiency knee: inner loops of length `T` reach
/// `T/(T + STREAM_KNEE)` of streaming bandwidth.
const STREAM_KNEE: f64 = 4.0;

/// Modeled execution of one kernel launch on one GPU.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GpuCost {
    /// Wall time, seconds.
    pub time_s: f64,
    /// Cycles doing useful integer work.
    pub compute_cycles: f64,
    /// Cycles the memory system needs for the kernel's traffic.
    pub memory_cycles: f64,
    /// Cycles of per-thread setup (index math, prefetch issue).
    pub setup_cycles: f64,
    /// Global bytes moved.
    pub bytes: u64,
    /// Occupancy: resident threads / device target, capped at 1.
    pub occupancy: f64,
    /// Achieved fraction of peak DRAM bandwidth.
    pub bw_fraction: f64,
}

impl GpuCost {
    /// Achieved DRAM read/write throughput, GB/s (Fig 6b's y-axis).
    #[must_use]
    pub fn dram_gbps(&self) -> f64 {
        if self.time_s <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / self.time_s / 1e9
        }
    }

    /// Instruction-issue efficiency: fraction of cycles retiring useful ops.
    #[must_use]
    pub fn issue_efficiency(&self) -> f64 {
        let total = self.total_cycles();
        if total <= 0.0 {
            0.0
        } else {
            (self.compute_cycles / total).min(1.0)
        }
    }

    /// All cycles the launch occupies.
    #[must_use]
    fn total_cycles(&self) -> f64 {
        self.compute_cycles.max(self.memory_cycles) + self.setup_cycles
    }
}

/// Breakdown of stalled warp cycles by cause (Fig 6c).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StallBreakdown {
    /// Stalls waiting on outstanding loads (memory dependency).
    pub memory_dependency: f64,
    /// Stalls because the memory pipeline is saturated (memory throttle).
    pub memory_throttle: f64,
    /// Stalls waiting on prior arithmetic (execution dependency).
    pub execution_dependency: f64,
    /// Everything else (sync, not-selected, …).
    pub other: f64,
}

impl StallBreakdown {
    /// Fractions sum to 1 for a non-empty launch.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.memory_dependency + self.memory_throttle + self.execution_dependency + self.other
    }
}

/// The cost model over a fixed device spec.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Device constants.
    pub spec: GpuSpec,
}

impl CostModel {
    /// Model over the given device.
    #[must_use]
    pub fn new(spec: GpuSpec) -> Self {
        CostModel { spec }
    }

    /// Latency-hiding factor from occupancy: `occ / (occ + knee)`, scaled so
    /// that full occupancy reaches 1.
    #[must_use]
    fn latency_hiding(&self, occupancy: f64) -> f64 {
        let k = self.spec.occupancy_knee;
        (occupancy / (occupancy + k)) * (1.0 + k)
    }

    /// Streaming factor from mean inner-loop length.
    #[must_use]
    fn stream_factor(&self, mean_inner: f64) -> f64 {
        if mean_inner <= 0.0 {
            1.0 / (1.0 + STREAM_KNEE)
        } else {
            mean_inner / (mean_inner + STREAM_KNEE)
        }
    }

    /// Evaluate one launch.
    #[must_use]
    pub fn evaluate(&self, p: &WorkProfile) -> GpuCost {
        if p.n_threads == 0 {
            return GpuCost {
                time_s: self.spec.launch_overhead_s,
                ..GpuCost::default()
            };
        }
        let occupancy = (p.n_threads as f64 / self.spec.occupancy_target() as f64).min(1.0);
        let bw_fraction = self.spec.bw_efficiency_peak
            * self.latency_hiding(occupancy)
            * self.stream_factor(p.mean_inner_len());
        let bytes = p.total_bytes();
        let memory_cycles = bytes as f64 / (self.spec.bytes_per_cycle() * bw_fraction);
        let compute_cycles = p.ops as f64 / self.spec.int_ops_per_cycle;
        let concurrency = (p.n_threads as f64).min(self.spec.occupancy_target() as f64);
        let setup_cycles =
            p.n_threads as f64 * self.spec.thread_setup_cycles / concurrency.max(1.0);
        let total = compute_cycles.max(memory_cycles) + setup_cycles;
        GpuCost {
            time_s: total / self.spec.clock_hz + self.spec.launch_overhead_s,
            compute_cycles,
            memory_cycles,
            setup_cycles,
            bytes,
            occupancy,
            bw_fraction,
        }
    }

    /// Classify the stalled cycles of a launch (Fig 6c). The stall share is
    /// `1 − issue_efficiency`; it is attributed to memory dependency in
    /// proportion to un-hidden latency, to memory throttle in proportion to
    /// bandwidth saturation, and to execution dependency as the remainder's
    /// arithmetic-dependency share.
    #[must_use]
    pub fn stalls(&self, cost: &GpuCost) -> StallBreakdown {
        let stall = 1.0 - cost.issue_efficiency();
        if stall <= 0.0 {
            return StallBreakdown::default();
        }
        let latency_miss = 1.0 - self.latency_hiding(cost.occupancy).min(1.0);
        let throttle = cost.bw_fraction / self.spec.bw_efficiency_peak;
        // Raw weights → normalized to the stall share.
        let w_dep = 1.0 + 3.0 * latency_miss;
        let w_thr = 2.0 * throttle;
        let w_exe = 0.6;
        let w_oth = 0.25;
        let sum = w_dep + w_thr + w_exe + w_oth;
        StallBreakdown {
            memory_dependency: stall * w_dep / sum,
            memory_throttle: stall * w_thr / sum,
            execution_dependency: stall * w_exe / sum,
            other: stall * w_oth / sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_range4;
    use multihit_core::schemes::Scheme4;

    fn model() -> CostModel {
        CostModel::new(GpuSpec::v100_summit())
    }

    #[test]
    fn empty_launch_costs_only_overhead() {
        let m = model();
        let c = m.evaluate(&WorkProfile::default());
        assert_eq!(c.time_s, m.spec.launch_overhead_s);
        assert_eq!(c.bytes, 0);
    }

    #[test]
    fn more_work_takes_longer() {
        let m = model();
        let g = 400;
        let n = Scheme4::ThreeXOne.thread_count(g);
        let small = m.evaluate(&profile_range4(Scheme4::ThreeXOne, g, 4, 0, n / 4));
        let large = m.evaluate(&profile_range4(Scheme4::ThreeXOne, g, 4, 0, n));
        assert!(large.time_s > small.time_s);
    }

    #[test]
    fn kernel_is_memory_bound_at_realistic_shapes() {
        // The paper's §IV-C: this workload is dominated by memory behavior.
        let m = model();
        let g = 2000;
        let n = Scheme4::ThreeXOne.thread_count(g);
        let c = m.evaluate(&profile_range4(Scheme4::ThreeXOne, g, 20, 0, n));
        assert!(
            c.memory_cycles > c.compute_cycles,
            "memory pipe is the critical path"
        );
        assert!(c.issue_efficiency() < 0.5);
    }

    #[test]
    fn low_occupancy_head_partition_is_slower_per_byte() {
        // 2x2 head partitions have few, heavy threads: latency-bound.
        let m = model();
        let g = 8354; // ACC
        let scheme = Scheme4::TwoXTwo;
        // Head: the first ~9.6k threads (few); tail: the last million.
        let n = scheme.thread_count(g);
        let head = m.evaluate(&profile_range4(scheme, g, 8, 0, 9_600));
        let tail = m.evaluate(&profile_range4(scheme, g, 8, n - 1_000_000, n));
        assert!(head.occupancy < 0.1);
        assert!((tail.occupancy - 1.0).abs() < 1e-12);
        let head_spb = head.time_s / head.bytes as f64;
        let tail_spb = tail.time_s / tail.bytes as f64;
        assert!(
            head_spb > 1.5 * tail_spb,
            "head {head_spb:e} vs tail {tail_spb:e}"
        );
        // And its achieved DRAM throughput is lower (Fig 6 inverse
        // correlation: the straggler shows low read/write throughput).
        assert!(head.dram_gbps() < tail.dram_gbps());
    }

    #[test]
    fn latency_hiding_saturates() {
        let m = model();
        assert!((m.latency_hiding(1.0) - 1.0).abs() < 1e-12);
        assert!(m.latency_hiding(0.05) < 0.75);
        assert!(m.latency_hiding(0.5) > m.latency_hiding(0.1));
    }

    #[test]
    fn stream_factor_penalizes_short_loops() {
        let m = model();
        assert!(m.stream_factor(1.0) < 0.3);
        assert!(m.stream_factor(100.0) > 0.95);
        assert!(m.stream_factor(0.0) > 0.0);
    }

    #[test]
    fn stall_breakdown_normalizes() {
        let m = model();
        let g = 3000;
        let n = Scheme4::ThreeXOne.thread_count(g);
        let c = m.evaluate(&profile_range4(Scheme4::ThreeXOne, g, 16, 0, n / 2));
        let s = m.stalls(&c);
        let expected = 1.0 - c.issue_efficiency();
        assert!((s.total() - expected).abs() < 1e-9);
        assert!(s.memory_dependency > s.execution_dependency);
    }

    #[test]
    fn dram_throughput_below_peak() {
        let m = model();
        let g = 5000;
        let n = Scheme4::ThreeXOne.thread_count(g);
        let c = m.evaluate(&profile_range4(Scheme4::ThreeXOne, g, 16, 0, n));
        assert!(c.dram_gbps() < 900.0);
        assert!(c.dram_gbps() > 50.0);
    }
}
