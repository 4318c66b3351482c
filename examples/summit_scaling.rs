//! Paper-scale scale-out study: model the BRCA 4-hit run on 100–1000
//! Summit nodes — strong scaling, the ED-vs-EA scheduler comparison, and
//! the per-GPU utilization contrast between the 2x2 and 3x1 schemes.
//!
//! ```text
//! cargo run --example summit_scaling --release
//! ```

use multihit::cluster::driver::SchedulerKind;
use multihit::cluster::timing::{average_efficiency, model_run, strong_scaling_sweep, ModelConfig};
use multihit::core::schemes::Scheme4;
use multihit::gpusim::counters::{run_metrics, utilization_summary};
use multihit::gpusim::CostModel;

fn main() {
    // Strong scaling, 100 → 1000 nodes (Fig 4a).
    println!("strong scaling, BRCA 4-hit, 3x1 scheme (modeled):");
    let nodes: Vec<usize> = (1..=10).map(|i| i * 100).collect();
    let pts = strong_scaling_sweep(ModelConfig::brca, &nodes);
    for p in &pts {
        println!(
            "  {:>4} nodes ({:>4} GPUs): {:>8.1} s  efficiency {:>6.2}%",
            p.nodes,
            p.nodes * 6,
            p.time_s,
            100.0 * p.efficiency
        );
    }
    println!(
        "  average efficiency 200-1000 nodes: {:.2}% (paper: 90.14%)",
        100.0 * average_efficiency(&pts)
    );

    // ED vs EA (§IV-B: paper measured 13943 s vs 4607 s with 2x2).
    println!("\nED vs EA scheduler, 2x2 scheme, 100 nodes (modeled):");
    let mut cfg = ModelConfig::brca(100);
    cfg.scheme = Scheme4::TwoXTwo;
    cfg.scheduler = SchedulerKind::EquiDistance;
    let ed = model_run(&cfg).total_s;
    cfg.scheduler = SchedulerKind::EquiArea;
    let ea = model_run(&cfg).total_s;
    println!("  equi-distance: {ed:>9.1} s");
    println!("  equi-area:     {ea:>9.1} s   ({:.2}x speedup)", ed / ea);

    // Per-GPU utilization: 2x2 vs 3x1 (Figs 6 and 7).
    println!("\nper-GPU utilization across 600 GPUs, first iteration (modeled):");
    for scheme in [Scheme4::TwoXTwo, Scheme4::ThreeXOne] {
        let mut c = ModelConfig::brca(100);
        c.scheme = scheme;
        c.coverage = vec![1.0];
        let run = model_run(&c);
        let model = CostModel::new(c.node.gpu.clone());
        let metrics = run_metrics(&model, &run.iterations[0].per_gpu);
        let (mean, min, max) = utilization_summary(&metrics);
        println!(
            "  {}: mean {:>6.2}%  min {:>6.2}%  max {:>6.2}%",
            scheme.name(),
            100.0 * mean,
            100.0 * min,
            100.0 * max
        );
    }
}
