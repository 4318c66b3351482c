//! Fig 4 (strong/weak scaling), Fig 8 (computation vs communication time),
//! and the runtime tables (ED vs EA; historical projections).

use crate::report::{fmt_secs, pct, Table};
use multihit_cluster::driver::{model_run, timeline_run_obs, ModelConfig, SchedulerKind};
use multihit_cluster::timing::{
    average_efficiency, project, strong_scaling_sweep, weak_scaling_sweep,
};
use multihit_core::obs::{Obs, RunReport};
use multihit_core::schemes::Scheme4;

/// Fig 4(a): strong scaling of the modeled BRCA 4-hit run, 100→1000 nodes.
#[must_use]
pub fn fig4a() -> Vec<Table> {
    let nodes: Vec<usize> = (1..=10).map(|i| i * 100).collect();
    let pts = strong_scaling_sweep(ModelConfig::brca, &nodes);
    let mut t = Table::new(
        "Fig 4(a) — strong scaling, BRCA, 3x1, 100→1000 nodes (modeled)",
        &["nodes", "gpus", "time", "efficiency", "paper"],
    );
    let paper: &[(usize, &str)] = &[(1000, "84.18%")];
    for p in &pts {
        let pp = paper
            .iter()
            .find(|(n, _)| *n == p.nodes)
            .map_or("-", |(_, v)| v);
        t.row(&[
            p.nodes.to_string(),
            (p.nodes * 6).to_string(),
            fmt_secs(p.time_s),
            pct(p.efficiency),
            pp.to_string(),
        ]);
    }
    let mut s = Table::new("Fig 4(a) — summary", &["metric", "modeled", "paper"]);
    s.row(&[
        "avg efficiency 200-1000".into(),
        pct(average_efficiency(&pts)),
        "90.14%".into(),
    ]);
    s.row(&[
        "efficiency @1000".into(),
        pct(pts.last().unwrap().efficiency),
        "84.18%".into(),
    ]);
    vec![t, s]
}

/// Fig 4(b): weak scaling (first iteration, fixed per-GPU workload),
/// 100→500 nodes.
#[must_use]
pub fn fig4b() -> Vec<Table> {
    let nodes = [100usize, 200, 300, 400, 500];
    let pts = weak_scaling_sweep(ModelConfig::brca, &nodes);
    let mut t = Table::new(
        "Fig 4(b) — weak scaling, BRCA, 3x1, 100→500 nodes (modeled)",
        &["nodes", "time", "efficiency", "paper"],
    );
    let paper: &[(usize, &str)] = &[(500, "90%")];
    for p in &pts {
        let pp = paper
            .iter()
            .find(|(n, _)| *n == p.nodes)
            .map_or("-", |(_, v)| v);
        t.row(&[
            p.nodes.to_string(),
            fmt_secs(p.time_s),
            pct(p.efficiency),
            pp.to_string(),
        ]);
    }
    let mut s = Table::new("Fig 4(b) — summary", &["metric", "modeled", "paper"]);
    let avg = pts[1..].iter().map(|p| p.efficiency).sum::<f64>() / (pts.len() - 1) as f64;
    s.row(&["avg efficiency 200-500".into(), pct(avg), "94.6%".into()]);
    vec![t, s]
}

/// Fig 8: per-rank computation and communication time for a 1000-node run,
/// attributed by the discrete-event simulation of the reduce/broadcast
/// trees.
#[must_use]
pub fn fig8() -> Vec<Table> {
    let cfg = ModelConfig::brca(1000);
    // Run the DES with observability on and build every number from the
    // metrics stream — the same per-rank `rank` points `--metrics-out`
    // writes — instead of re-walking the timelines.
    let obs = Obs::enabled();
    let _ = timeline_run_obs(&cfg, &obs);
    let report = RunReport::from_events(&obs.events());
    let ranks = report.ranks.len();
    let gpus = cfg.shape.gpus_per_node as f64;
    let comp: Vec<f64> = report
        .ranks
        .iter()
        .map(|r| r.kernel_ns as f64 / 1e9 / gpus)
        .collect();
    let comm: Vec<f64> = report
        .ranks
        .iter()
        .map(|r| r.comm_ns as f64 / 1e9)
        .collect();
    let idle: Vec<f64> = report
        .ranks
        .iter()
        .map(|r| r.idle_ns as f64 / 1e9)
        .collect();
    let mut t = Table::new(
        "Fig 8 — per-rank computation / communication / idle, 1000-node BRCA run (DES)",
        &["rank", "comp_s", "comm_s", "idle_s"],
    );
    for r in 0..ranks {
        t.row(&[
            r.to_string(),
            format!("{:.3}", comp[r]),
            format!("{:.6}", comm[r]),
            format!("{:.3}", idle[r]),
        ]);
    }
    let flat_comm = obs.sum("model_iter", "comm_ns") as f64 / 1e9;
    let max = comp.iter().cloned().fold(0.0f64, f64::max);
    let min = comp.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = comp.iter().sum::<f64>() / ranks as f64;
    let mut s = Table::new(
        "Fig 8 — summary (communication hidden by computation)",
        &["metric", "value"],
    );
    s.row(&["ranks".into(), ranks.to_string()]);
    s.row(&["comp max".into(), fmt_secs(max)]);
    s.row(&["comp mean".into(), fmt_secs(mean)]);
    s.row(&["comp min".into(), fmt_secs(min)]);
    s.row(&[
        "comm max per rank (DES)".into(),
        fmt_secs(comm.iter().cloned().fold(0.0, f64::max)),
    ]);
    s.row(&["comm total (flat model)".into(), fmt_secs(flat_comm)]);
    s.row(&["comm / comp max".into(), pct(flat_comm / max)]);
    s.row(&[
        "makespan Σ (DES)".into(),
        fmt_secs(report.makespan_ns.iter().sum::<u64>() as f64 / 1e9),
    ]);
    vec![t, s]
}

/// Table: ED vs EA scheduler runtimes (paper §IV-B: 13943 s vs 4607 s at
/// 100 nodes, 2x2 scheme — a 3.03× speedup).
#[must_use]
pub fn tbl_ed_ea() -> Vec<Table> {
    let mut cfg = ModelConfig::brca(100);
    cfg.scheme = Scheme4::TwoXTwo;
    let mut t = Table::new(
        "Table — ED vs EA, BRCA, 2x2, 100 nodes (modeled; paper: 13943 s / 4607 s)",
        &["scheduler", "total_time", "speedup", "paper_time"],
    );
    let mut base = 0.0;
    for (name, kind, paper) in [
        ("equi-distance", SchedulerKind::EquiDistance, "13943 s"),
        ("equi-area", SchedulerKind::EquiArea, "4607 s"),
    ] {
        cfg.scheduler = kind;
        let run = model_run(&cfg);
        if base == 0.0 {
            base = run.total_s;
        }
        t.row(&[
            name.to_string(),
            fmt_secs(run.total_s),
            format!("{:.2}x", base / run.total_s),
            paper.to_string(),
        ]);
    }
    vec![t]
}

/// Table: the ESCA anecdote — the 2x2 scheme's strong-scaling collapse
/// (paper: 36% at 500 vs 100 nodes) against 3x1 on the same cohort.
#[must_use]
pub fn tbl_esca() -> Vec<Table> {
    let esca = |scheme: Scheme4| {
        move |nodes: usize| {
            let mut c = ModelConfig::brca(nodes);
            c.g = 14018;
            c.n_tumor = 182;
            c.scheme = scheme;
            c.coverage = multihit_cluster::driver::coverage_profile(182, 0.55);
            c
        }
    };
    let mut t = Table::new(
        "Table — ESCA strong scaling 100→500 nodes, 2x2 vs 3x1 (modeled; paper: 2x2 = 36%)",
        &["scheme", "t(100)", "t(500)", "efficiency@500"],
    );
    for scheme in [Scheme4::TwoXTwo, Scheme4::ThreeXOne] {
        let pts = strong_scaling_sweep(esca(scheme), &[100, 500]);
        t.row(&[
            scheme.name().to_string(),
            fmt_secs(pts[0].time_s),
            fmt_secs(pts[1].time_s),
            pct(pts[1].efficiency),
        ]);
    }
    vec![t]
}

/// Table: historical projections (intro): 3-hit CPU/GPU minutes, 4-hit
/// single-GPU days, and the 6000-GPU speedup.
#[must_use]
pub fn tbl_history() -> Vec<Table> {
    let cfg = ModelConfig::brca(1000);
    let p = project(&cfg, 3.0e8);
    let mut t = Table::new(
        "Table — runtime projections, BRCA 4-hit first iteration (modeled vs paper)",
        &["configuration", "modeled", "paper"],
    );
    t.row(&[
        "single CPU core".into(),
        fmt_secs(p.single_cpu_s),
        "> 500 years (estimate)".into(),
    ]);
    t.row(&[
        "single V100 GPU".into(),
        fmt_secs(p.single_gpu_s),
        "> 40 days (estimate)".into(),
    ]);
    t.row(&[
        "1000 nodes (6000 GPUs)".into(),
        fmt_secs(p.cluster_s),
        "-".into(),
    ]);
    t.row(&[
        "speedup 6000 GPUs vs 1 GPU".into(),
        format!("{:.0}x", p.cluster_speedup),
        "~7192x".into(),
    ]);
    vec![t]
}

/// Table: modeled 1000-node 4-hit run for every four-plus-hit cancer type —
/// the paper's deliverable is exactly this sweep ("allowing us to identify
/// 4-hit combinations for the 11 cancer types").
#[must_use]
pub fn tbl_allcancers() -> Vec<Table> {
    use multihit_data::presets::CancerType;
    let mut t = Table::new(
        "Table — modeled 1000-node 4-hit runs, all 11 study cancer types",
        &[
            "cancer",
            "genes",
            "tumors",
            "iterations",
            "total time",
            "combos/iter",
        ],
    );
    for cancer in CancerType::FOUR_HIT_STUDY {
        let (n_tumor, n_normal, g) = cancer.dimensions();
        let mut cfg = ModelConfig::brca(1000);
        cfg.g = g as u32;
        cfg.n_tumor = n_tumor as u32;
        cfg.n_normal = n_normal as u32;
        cfg.coverage = multihit_cluster::driver::coverage_profile(n_tumor as u32, 0.55);
        let run = model_run(&cfg);
        t.row(&[
            cancer.code().to_string(),
            g.to_string(),
            n_tumor.to_string(),
            run.iterations.len().to_string(),
            fmt_secs(run.total_s),
            format!(
                "{:.2e}",
                multihit_core::combin::binomial(g as u64, 4) as f64
            ),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allcancers_covers_eleven() {
        let t = tbl_allcancers();
        assert_eq!(t[0].rows.len(), 11);
        // Bigger gene universes cost more: LUAD (G=18012) beats ACC (G=8354).
        let time = |code: &str| -> f64 {
            let row = t[0].rows.iter().find(|r| r[0] == code).unwrap();
            let v = &row[4];
            let num: f64 = v.split_whitespace().next().unwrap().parse().unwrap();
            match v.split_whitespace().nth(1).unwrap() {
                "d" => num * 86400.0,
                "h" => num * 3600.0,
                "s" => num,
                _ => num / 1000.0,
            }
        };
        assert!(time("LUAD") > time("ACC"));
    }

    #[test]
    fn fig4a_has_ten_points_and_high_efficiency() {
        let t = fig4a();
        assert_eq!(t[0].rows.len(), 10);
        assert_eq!(t[0].rows[0][0], "100");
        assert_eq!(t[0].rows[9][1], "6000");
    }

    #[test]
    fn ed_ea_table_shows_speedup() {
        let t = tbl_ed_ea();
        let speedup: f64 = t[0].rows[1][2].trim_end_matches('x').parse().unwrap();
        assert!(speedup > 2.0, "EA speedup {speedup}");
    }

    #[test]
    fn esca_2x2_scales_worse_than_3x1() {
        let t = tbl_esca();
        let eff =
            |row: &Vec<String>| -> f64 { row[3].trim_end_matches('%').parse::<f64>().unwrap() };
        assert!(eff(&t[0].rows[0]) < eff(&t[0].rows[1]));
    }
}
