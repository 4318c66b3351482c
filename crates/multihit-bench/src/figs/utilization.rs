//! Fig 6 (2x2 compute utilization, DRAM throughput, stall breakdown on ACC)
//! and Fig 7 (3x1 utilization on BRCA).

use crate::report::{pct, Table};
use multihit_cluster::driver::{model_run_obs, ModelConfig};
use multihit_core::obs::Obs;
use multihit_core::schemes::Scheme4;

/// One `gpu_metrics` point read back from the observability stream.
struct GpuProfileRow {
    gpu: u64,
    utilization: f64,
    dram_gbps: f64,
    stall_mem_dep: f64,
    stall_mem_throttle: f64,
    stall_exec_dep: f64,
}

/// Run the first modeled iteration with observability on and read the
/// per-GPU profile back out of the stream — the figures consume the same
/// `gpu_metrics` points `--metrics-out` writes, not a parallel accounting.
fn first_iteration_rows(cfg: &ModelConfig) -> Vec<GpuProfileRow> {
    let mut one = cfg.clone();
    one.coverage = vec![1.0];
    let obs = Obs::enabled();
    let _ = model_run_obs(&one, &obs);
    obs.events()
        .iter()
        .filter(|e| e.name == "gpu_metrics")
        .map(|e| GpuProfileRow {
            gpu: e.u64("gpu").unwrap_or(0),
            utilization: e.f64("utilization").unwrap_or(0.0),
            dram_gbps: e.f64("dram_gbps").unwrap_or(0.0),
            stall_mem_dep: e.f64("stall_mem_dep").unwrap_or(0.0),
            stall_mem_throttle: e.f64("stall_mem_throttle").unwrap_or(0.0),
            stall_exec_dep: e.f64("stall_exec_dep").unwrap_or(0.0),
        })
        .collect()
}

fn utilization_stats(rows: &[GpuProfileRow]) -> (f64, f64, f64) {
    if rows.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    let mut sum = 0.0;
    for r in rows {
        min = min.min(r.utilization);
        max = max.max(r.utilization);
        sum += r.utilization;
    }
    (sum / rows.len() as f64, min, max)
}

/// Fig 6: per-GPU compute utilization (a), DRAM read/write throughput (b)
/// and warp-stall breakdown (c) for the 2x2 scheme on ACC at 100 nodes
/// (600 GPUs).
#[must_use]
pub fn fig6() -> Vec<Table> {
    let mut cfg = ModelConfig::acc(100);
    cfg.scheme = Scheme4::TwoXTwo;
    let metrics = first_iteration_rows(&cfg);

    let mut t = Table::new(
        "Fig 6 — per-GPU profile, ACC, 2x2 scheme, 600 GPUs (modeled)",
        &[
            "gpu",
            "utilization",
            "dram_gbps",
            "stall_mem_dep",
            "stall_mem_throttle",
            "stall_exec_dep",
        ],
    );
    for m in &metrics {
        t.row(&[
            m.gpu.to_string(),
            format!("{:.4}", m.utilization),
            format!("{:.1}", m.dram_gbps),
            format!("{:.4}", m.stall_mem_dep),
            format!("{:.4}", m.stall_mem_throttle),
            format!("{:.4}", m.stall_exec_dep),
        ]);
    }
    let (mean, min, max) = utilization_stats(&metrics);
    let mut s = Table::new("Fig 6 — summary", &["metric", "value"]);
    s.row(&["gpus".into(), metrics.len().to_string()]);
    s.row(&["utilization mean".into(), pct(mean)]);
    s.row(&["utilization min".into(), pct(min)]);
    s.row(&["utilization max".into(), pct(max)]);
    // The paper's headline observation: utilization is inversely correlated
    // with DRAM throughput across the memory-bound region.
    let corr = pearson(
        &metrics.iter().map(|m| m.utilization).collect::<Vec<_>>(),
        &metrics.iter().map(|m| m.dram_gbps).collect::<Vec<_>>(),
    );
    s.row(&["corr(utilization, dram_gbps)".into(), format!("{corr:.3}")]);
    vec![t, s]
}

/// Fig 7: per-GPU compute utilization for the 3x1 scheme on BRCA at 100
/// nodes — balanced, unlike Fig 6.
#[must_use]
pub fn fig7() -> Vec<Table> {
    let cfg = ModelConfig::brca(100);
    let metrics = first_iteration_rows(&cfg);
    let mut t = Table::new(
        "Fig 7 — per-GPU utilization, BRCA, 3x1 scheme, 600 GPUs (modeled)",
        &["gpu", "utilization", "dram_gbps"],
    );
    for m in &metrics {
        t.row(&[
            m.gpu.to_string(),
            format!("{:.4}", m.utilization),
            format!("{:.1}", m.dram_gbps),
        ]);
    }
    let (mean, min, max) = utilization_stats(&metrics);
    let mut s = Table::new(
        "Fig 7 — summary (balanced utilization)",
        &["metric", "value"],
    );
    s.row(&["utilization mean".into(), pct(mean)]);
    s.row(&["utilization min".into(), pct(min)]);
    s.row(&["utilization max".into(), pct(max)]);
    vec![t, s]
}

/// Pearson correlation of two equal-length series.
#[must_use]
fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_basics() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn fig6_shows_imbalance_and_inverse_correlation() {
        let t = fig6();
        let corr: f64 = t[1].rows.last().unwrap()[1].parse().unwrap();
        assert!(corr < 0.0, "expected inverse correlation, got {corr}");
        let min: f64 = t[1].rows[2][1].trim_end_matches('%').parse().unwrap();
        assert!(
            min < 80.0,
            "2x2 should show low-utilization GPUs, min={min}%"
        );
    }

    #[test]
    fn fig7_is_more_balanced_than_fig6() {
        let f6 = fig6();
        let f7 = fig7();
        let min6: f64 = f6[1].rows[2][1].trim_end_matches('%').parse().unwrap();
        let min7: f64 = f7[1].rows[1][1].trim_end_matches('%').parse().unwrap();
        assert!(min7 > min6, "3x1 min {min7}% vs 2x2 min {min6}%");
    }
}
