//! Gantt-style timeline of a modeled run (discrete-event simulation): one
//! row per busy interval — the raw material behind Fig 8, exported so the
//! schedule can be inspected visually.

use crate::report::{run_report_tables, Table};
use multihit_cluster::des::Activity;
use multihit_cluster::timing::{timeline_run_obs, ModelConfig};
use multihit_core::obs::{Obs, RunReport};

/// Emit the first-iteration timeline of a small (20-node) BRCA run: every
/// kernel, reduce-send, and broadcast-forward interval with its owner.
/// The per-rank attribution tables at the end come from the observability
/// stream the run emits — the same `rank` points `--metrics-out` writes.
#[must_use]
pub fn timeline(nodes: usize) -> Vec<Table> {
    let mut cfg = ModelConfig::brca(nodes);
    cfg.coverage = vec![1.0];
    let obs = Obs::enabled();
    let tls = timeline_run_obs(&cfg, &obs);
    let tl = &tls[0];
    let mut t = Table::new(
        &format!("Timeline — first iteration, {nodes}-node BRCA run (DES Gantt rows)"),
        &["entity", "activity", "start_s", "end_s"],
    );
    for iv in &tl.intervals {
        let (entity, activity) = match iv.activity {
            Activity::Kernel { gpu } => (format!("gpu{gpu}"), "kernel"),
            Activity::Reduce { rank } => (format!("rank{rank}"), "reduce_send"),
            Activity::Broadcast { rank } => (format!("rank{rank}"), "broadcast"),
        };
        t.row(&[
            entity,
            activity.to_string(),
            format!("{:.6}", iv.start),
            format!("{:.6}", iv.end),
        ]);
    }
    let mut s = Table::new("Timeline — summary", &["metric", "value"]);
    s.row(&["makespan_s".into(), format!("{:.6}", tl.makespan)]);
    s.row(&["intervals".into(), tl.intervals.len().to_string()]);
    let kernels = tl
        .intervals
        .iter()
        .filter(|iv| matches!(iv.activity, Activity::Kernel { .. }))
        .count();
    s.row(&["kernel intervals".into(), kernels.to_string()]);
    s.row(&[
        "comm intervals".into(),
        (tl.intervals.len() - kernels).to_string(),
    ]);
    let mut out = vec![t, s];
    let report = RunReport::from_events(&obs.events());
    out.extend(run_report_tables(&report));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_has_one_kernel_row_per_gpu() {
        let t = timeline(5);
        let kernel_rows = t[0].rows.iter().filter(|r| r[1] == "kernel").count();
        assert_eq!(kernel_rows, 30);
        // Reduce sends: every rank but 0 sends exactly once → 4 rows.
        let reduce_rows = t[0].rows.iter().filter(|r| r[1] == "reduce_send").count();
        assert_eq!(reduce_rows, 4);
        // Makespan covers every interval's end.
        let makespan: f64 = t[1].rows[0][1].parse().unwrap();
        for r in &t[0].rows {
            let end: f64 = r[3].parse().unwrap();
            // Both values round to 1e-6 in the table; compare at that grain.
            assert!(end <= makespan + 1e-5);
        }
    }
}
