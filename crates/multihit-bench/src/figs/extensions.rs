//! Extension experiments beyond the paper's evaluation — the §V discussion
//! items, each built and measured rather than speculated:
//!
//! * mutation-level (site) analysis with recurrence filtering;
//! * the memory-latency-aware scheduler (§V idea 4);
//! * five-hit discovery (the "each additional hit" cost law);
//! * the full-Summit projection (§V idea 1: 27,648 GPUs).

use crate::report::{fmt_secs, pct, Table};
use multihit_cluster::driver::SchedulerKind;
use multihit_cluster::timing::{model_run, ModelConfig};
use multihit_core::combin::binomial;
use multihit_core::greedy::{discover, GreedyConfig};
use multihit_data::mutations::{expand, filter_recurrent, ExpansionSpec};
use multihit_data::synth::{generate, CohortSpec};
use std::time::Instant;

/// Mutation-level analysis: expand genes → sites, filter by recurrence,
/// rediscover — the discovered combinations must name specific hotspot
/// sites. Plus the paper's compute-scaling arithmetic for site-level h=4.
#[must_use]
pub fn tbl_mutation() -> Vec<Table> {
    let cohort = generate(&CohortSpec {
        n_genes: 30,
        n_tumor: 120,
        n_normal: 80,
        n_driver_combos: 2,
        hits_per_combo: 2,
        driver_penetrance: 1.0,
        passenger_rate_tumor: 0.04,
        passenger_rate_normal: 0.02,
        seed: 77,
    });
    let mc = expand(&cohort, &ExpansionSpec::default());
    let (filtered, kept) = filter_recurrent(&mc, 5);
    let result = discover::<2>(
        &filtered.tumor,
        &filtered.normal,
        &GreedyConfig {
            max_combinations: 4,
            ..GreedyConfig::default()
        },
    );
    let mut t = Table::new(
        "Extension — mutation-level discovery (executed)",
        &["metric", "value"],
    );
    t.row(&["gene universe".into(), "30".into()]);
    t.row(&["mutation sites".into(), mc.sites.len().to_string()]);
    t.row(&[
        "expansion factor".into(),
        format!("{:.1}x", mc.expansion_factor(30)),
    ]);
    t.row(&["sites kept (recurrence ≥ 5 tumors)".into(), pct(kept)]);
    let discovered: Vec<String> = result
        .combinations
        .iter()
        .map(|c| {
            c.iter()
                .map(|&r| {
                    let s = filtered.sites[r as usize];
                    format!("G{}:{}", s.gene, s.position)
                })
                .collect::<Vec<_>>()
                .join("+")
        })
        .collect();
    t.row(&["discovered site combos".into(), discovered.join("  ")]);
    let hits = filtered
        .driver_sites
        .iter()
        .filter(|d| {
            result
                .combinations
                .iter()
                .flatten()
                .any(|&r| filtered.sites[r as usize] == **d)
        })
        .count();
    t.row(&[
        "planted hotspot sites pinpointed".into(),
        format!("{hits}/{}", filtered.driver_sites.len()),
    ]);

    // §V arithmetic: 2e4 genes → 4e5 protein-altering mutations needs a
    // ~1e5 speedup relative to the gene-level 4-hit run.
    let mut m = Table::new(
        "Extension — §V compute scaling to mutation level (analytic)",
        &["quantity", "value"],
    );
    let gene_m = binomial(20_000, 4) as f64;
    let site_m = (4.0e5f64 / 2.0e4).powi(4) * gene_m;
    m.row(&["C(2e4 genes, 4)".into(), format!("{gene_m:.2e}")]);
    m.row(&["C(4e5 sites, 4) (approx)".into(), format!("{site_m:.2e}")]);
    m.row(&[
        "required speedup (paper: ~1e5)".into(),
        format!("{:.1e}", site_m / gene_m),
    ]);
    vec![t, m]
}

/// §V idea (4): equalize modeled cost instead of combination count. Compares
/// straggler GPU time (= iteration time) under EA and EquiCost at 1000
/// nodes, where the tail partitions are thinnest.
#[must_use]
pub fn tbl_sched_mem() -> Vec<Table> {
    let mut t = Table::new(
        "Extension — memory-aware (equi-cost) vs plain equi-area scheduling, BRCA 3x1 (modeled)",
        &["nodes", "scheduler", "first-iteration time", "vs EA"],
    );
    for nodes in [100usize, 1000] {
        let mut base = 0.0f64;
        for (name, kind) in [
            ("equi-area", SchedulerKind::EquiArea),
            ("equi-cost", SchedulerKind::EquiCost),
        ] {
            let mut cfg = ModelConfig::brca(nodes);
            cfg.scheduler = kind;
            cfg.jitter = 0.0;
            cfg.coverage = vec![1.0];
            let run = model_run(&cfg);
            let time = run.iterations[0].time_s;
            if base == 0.0 {
                base = time;
            }
            t.row(&[
                nodes.to_string(),
                name.to_string(),
                fmt_secs(time),
                format!("{:+.2}%", 100.0 * (time / base - 1.0)),
            ]);
        }
    }
    vec![t]
}

/// Five-hit discovery: executed at small G through the generic scanner, and
/// the paper's cost law (each extra hit ≈ ×G/h more combinations).
#[must_use]
pub fn tbl_5hit() -> Vec<Table> {
    let cohort = generate(&CohortSpec {
        n_genes: 22,
        n_tumor: 100,
        n_normal: 60,
        n_driver_combos: 2,
        hits_per_combo: 5,
        driver_penetrance: 1.0,
        passenger_rate_tumor: 0.04,
        passenger_rate_normal: 0.015,
        seed: 5,
    });
    let t0 = Instant::now();
    let result = discover::<5>(
        &cohort.tumor,
        &cohort.normal,
        &GreedyConfig {
            max_combinations: 3,
            ..GreedyConfig::default()
        },
    );
    let dt = t0.elapsed().as_secs_f64();
    let recovered = cohort
        .planted
        .iter()
        .filter(|p| {
            result
                .combinations
                .iter()
                .any(|c| p.iter().all(|g| c.contains(g)))
        })
        .count();
    let mut t = Table::new(
        "Extension — 5-hit discovery (executed, G=22)",
        &["metric", "value"],
    );
    t.row(&["C(22,5) per iteration".into(), binomial(22, 5).to_string()]);
    t.row(&[
        "combinations found".into(),
        result.combinations.len().to_string(),
    ]);
    t.row(&[
        "planted 5-hit combos recovered".into(),
        format!("{recovered}/2"),
    ]);
    t.row(&["wall time".into(), fmt_secs(dt)]);

    let mut m = Table::new(
        "Extension — cost of each additional hit at G = 19411 (analytic)",
        &["h", "C(G,h)", "x vs h-1"],
    );
    // C(19411, 5) overflows u64; use float arithmetic for the table.
    let binom_f =
        |n: f64, h: u64| -> f64 { (0..h).map(|d| (n - d as f64) / (h - d) as f64).product() };
    let mut prev = 0f64;
    for h in 2..=6u64 {
        let c = binom_f(19411.0, h);
        m.row(&[
            h.to_string(),
            format!("{c:.3e}"),
            if prev > 0.0 {
                format!("{:.0}x", c / prev)
            } else {
                "-".into()
            },
        ]);
        prev = c;
    }
    vec![t, m]
}

/// §V idea (1): scale to all 27,648 V100s of Summit (4608 nodes).
#[must_use]
pub fn tbl_fullsummit() -> Vec<Table> {
    let mut t = Table::new(
        "Extension — full-Summit projection, BRCA 4-hit (modeled)",
        &["nodes", "gpus", "total time", "efficiency vs 100 nodes"],
    );
    let base = model_run(&ModelConfig::brca(100)).total_s;
    for nodes in [100usize, 1000, 2000, 4608] {
        let run = model_run(&ModelConfig::brca(nodes));
        t.row(&[
            nodes.to_string(),
            (nodes * 6).to_string(),
            fmt_secs(run.total_s),
            pct(base * 100.0 / (run.total_s * nodes as f64)),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_table_pinpoints_hotspots() {
        let t = tbl_mutation();
        let pinpointed = &t[0].rows.last().unwrap()[1];
        let (hits, total) = pinpointed.split_once('/').unwrap();
        let hits: usize = hits.parse().unwrap();
        let total: usize = total.parse().unwrap();
        assert!(hits + 1 >= total, "{pinpointed}");
        // The §V speedup arithmetic lands near 1e5.
        let speedup: f64 = t[1].rows[2][1].parse().unwrap();
        assert!(speedup > 5.0e4 && speedup < 1.0e6);
    }

    #[test]
    fn five_hit_recovers_planted() {
        let t = tbl_5hit();
        assert_eq!(t[0].rows[2][1], "2/2");
        // C(G,5)/C(G,4) = (G-4)/5 ≈ 3881 — the gene-scale analogue of the
        // paper's "additional 4e5" at mutation scale.
        let factor: f64 = t[1].rows[3][2].trim_end_matches('x').parse().unwrap();
        assert!((3800.0..3950.0).contains(&factor), "{factor}");
    }

    #[test]
    fn fullsummit_extends_scaling() {
        let t = tbl_fullsummit();
        assert_eq!(t[0].rows.last().unwrap()[1], "27648");
    }
}
