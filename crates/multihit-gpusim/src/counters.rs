//! NVPROF-style run metrics across a fleet of simulated GPUs (§III-H: the
//! paper profiles with NVPROF; Figs 6 and 7 chart these quantities per GPU).
//!
//! *Compute utilization* follows the paper's operational definition (§IV-C):
//! a GPU that finishes early idles while the straggler runs, so utilization
//! of GPU `g` is `time_g / max_g time_g` — the straggler reads 100%.

use crate::cost::{CostModel, GpuCost, StallBreakdown};
use multihit_core::obs::Obs;

/// The full per-GPU profile row of one run.
#[derive(Clone, Copy, Debug)]
pub struct GpuRunMetrics {
    /// GPU index within the run (the x-axis of Figs 6–7).
    pub gpu_index: usize,
    /// Modeled launch cost.
    pub cost: GpuCost,
    /// Compute utilization relative to the run's straggler.
    pub utilization: f64,
    /// Achieved DRAM read+write throughput, GB/s.
    pub dram_gbps: f64,
    /// Warp-stall attribution.
    pub stalls: StallBreakdown,
}

/// Assemble per-GPU metrics from per-GPU launch costs.
#[must_use]
pub fn run_metrics(model: &CostModel, costs: &[GpuCost]) -> Vec<GpuRunMetrics> {
    let max_t = costs.iter().map(|c| c.time_s).fold(0.0f64, f64::max);
    costs
        .iter()
        .enumerate()
        .map(|(gpu_index, cost)| GpuRunMetrics {
            gpu_index,
            cost: *cost,
            utilization: if max_t > 0.0 {
                cost.time_s / max_t
            } else {
                0.0
            },
            dram_gbps: cost.dram_gbps(),
            stalls: model.stalls(cost),
        })
        .collect()
}

/// Publish a run's [`GpuRunMetrics`] onto an observability stream: one
/// `gpu_metrics` point per GPU. This is the single funnel from the
/// NVPROF-style profile rows to the metrics JSON — consumers read the
/// stream instead of re-deriving the numbers from raw costs.
pub fn record_run_metrics(obs: &Obs, metrics: &[GpuRunMetrics]) {
    if !obs.is_enabled() || metrics.is_empty() {
        return;
    }
    for m in metrics {
        let time_ns = (m.cost.time_s * 1e9) as u64;
        obs.point(
            "gpu_metrics",
            &[
                ("gpu", m.gpu_index.into()),
                ("time_ns", time_ns.into()),
                ("utilization", m.utilization.into()),
                ("dram_gbps", m.dram_gbps.into()),
                ("bytes", m.cost.bytes.into()),
                ("occupancy", m.cost.occupancy.into()),
                ("stall_mem_dep", m.stalls.memory_dependency.into()),
                ("stall_mem_throttle", m.stalls.memory_throttle.into()),
                ("stall_exec_dep", m.stalls.execution_dependency.into()),
                ("stall_other", m.stalls.other.into()),
            ],
        );
    }
}

/// Multiplicative per-GPU performance jitter (node-to-node variability: OS
/// noise, clock/thermal throttling). Deterministic in the seed; amplitude
/// `a` yields factors in `[1−a, 1+a]`. This is what puts the paper's Fig 6
/// spikes (GPU #372, #504, #560) into an otherwise smooth model.
#[must_use]
fn jitter_factors(n: usize, amplitude: f64, seed: u64) -> Vec<f64> {
    assert!(
        (0.0..1.0).contains(&amplitude),
        "amplitude must be in [0,1)"
    );
    let mut state = seed ^ 0x5DEECE66D;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            1.0 + amplitude * (2.0 * u - 1.0)
        })
        .collect()
}

/// Apply jitter to launch times (scales `time_s` only).
#[must_use]
pub fn apply_jitter(costs: &[GpuCost], amplitude: f64, seed: u64) -> Vec<GpuCost> {
    let f = jitter_factors(costs.len(), amplitude, seed);
    costs
        .iter()
        .zip(f)
        .map(|(c, factor)| GpuCost {
            time_s: c.time_s * factor,
            ..*c
        })
        .collect()
}

/// Summary statistics of a utilization series (mean, min, max).
#[must_use]
pub fn utilization_summary(metrics: &[GpuRunMetrics]) -> (f64, f64, f64) {
    if metrics.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    let mut sum = 0.0;
    for m in metrics {
        min = min.min(m.utilization);
        max = max.max(m.utilization);
        sum += m.utilization;
    }
    (sum / metrics.len() as f64, min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::GpuSpec;
    use crate::profile::profile_range4;
    use multihit_core::schemes::Scheme4;

    fn costs_for(scheme: Scheme4, g: u32, gpus: usize) -> (CostModel, Vec<GpuCost>) {
        let model = CostModel::new(GpuSpec::v100_summit());
        let n = scheme.thread_count(g);
        let per = n / gpus as u64;
        let costs: Vec<GpuCost> = (0..gpus)
            .map(|i| {
                let lo = i as u64 * per;
                let hi = if i == gpus - 1 { n } else { lo + per };
                model.evaluate(&profile_range4(scheme, g, 8, lo, hi))
            })
            .collect();
        (model, costs)
    }

    #[test]
    fn straggler_reads_full_utilization() {
        let (model, costs) = costs_for(Scheme4::TwoXTwo, 3000, 30);
        let m = run_metrics(&model, &costs);
        let max_u = m.iter().map(|x| x.utilization).fold(0.0f64, f64::max);
        assert!((max_u - 1.0).abs() < 1e-12);
        assert!(m
            .iter()
            .all(|x| x.utilization > 0.0 && x.utilization <= 1.0));
    }

    #[test]
    fn equidistance_2x2_utilization_decreases_with_index() {
        // Under equal-thread (ED) partitions the head GPUs hold the heavy
        // threads and straggle: utilization decays steeply with index (the
        // load imbalance §III-C motivates EA with). The EA-mode inverse
        // utilization/throughput correlation of Fig 6 is asserted in the
        // cluster crate, where the real scheduler builds the partitions.
        let (model, costs) = costs_for(Scheme4::TwoXTwo, 3000, 30);
        let m = run_metrics(&model, &costs);
        assert!((m[0].utilization - 1.0).abs() < 1e-12, "GPU 0 straggles");
        assert!(m.last().unwrap().utilization < 0.2);
        // Tail partitions are overhead-dominated: tiny traffic, low GB/s.
        assert!(m[0].dram_gbps > m.last().unwrap().dram_gbps);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let a = jitter_factors(1000, 0.03, 7);
        let b = jitter_factors(1000, 0.03, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&f| (0.97..=1.03).contains(&f)));
        let mean = a.iter().sum::<f64>() / 1000.0;
        assert!((mean - 1.0).abs() < 0.005);
    }

    #[test]
    fn apply_jitter_scales_only_time() {
        let (model, costs) = costs_for(Scheme4::ThreeXOne, 500, 6);
        let j = apply_jitter(&costs, 0.05, 3);
        for (a, b) in costs.iter().zip(&j) {
            assert_eq!(a.bytes, b.bytes);
            assert!((b.time_s / a.time_s - 1.0).abs() <= 0.05 + 1e-12);
        }
        let _ = run_metrics(&model, &j);
    }

    #[test]
    fn summary_bounds() {
        let (model, costs) = costs_for(Scheme4::ThreeXOne, 800, 12);
        let m = run_metrics(&model, &costs);
        let (mean, min, max) = utilization_summary(&m);
        assert!(min <= mean && mean <= max);
        assert!((max - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn bad_amplitude_panics() {
        let _ = jitter_factors(5, 1.5, 0);
    }
}
