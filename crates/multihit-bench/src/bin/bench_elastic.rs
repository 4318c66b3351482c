//! Record the elastic-membership recovery bill into `BENCH_elastic.json`.
//!
//! ```text
//! bench_elastic [--out FILE] [--genes G] [--reps R]
//! ```
//!
//! Two halves, one file:
//!
//! 1. **Executed** — the functional driver runs a 4-rank discovery three
//!    ways: fault-free, survivor-shrink (a rank dies and the survivors
//!    re-shard), and elastic (the dead rank is replaced at the next
//!    iteration barrier via the JOIN epoch protocol, receiving boundary
//!    slabs and a frontier shard). All three panels must be bit-identical;
//!    any divergence exits nonzero so CI fails loudly.
//! 2. **Modeled** — the paper-scale churn bill at 1000 nodes / 6000 GPUs
//!    under the Summit MTBF: expected makespans for abort-and-restart,
//!    survivor-shrink, and elastic-replace. The headline `speedup_*` keys
//!    are the modeled abort/elastic and shrink/elastic ratios, which the
//!    `bench_compare` regression gate tracks; the required ordering
//!    elastic < shrink < abort is asserted here too.

use multihit_cluster::driver::{
    distributed_discover4, distributed_discover4_ft, DistributedConfig, ModelConfig,
};
use multihit_cluster::fault::{FaultPlan, FaultState, FtParams};
use multihit_cluster::timing::{churn_bill, ChurnParams};
use multihit_cluster::topology::ClusterShape;
use multihit_core::obs::Obs;
use multihit_data::synth::{generate, CohortSpec};
use std::time::Instant;

const N_TUMOR: usize = 90;
const N_NORMAL: usize = 60;

struct Arm {
    name: &'static str,
    plan: &'static str,
    best_ns: u128,
    dead_ranks: usize,
    joined_ranks: usize,
    membership_epochs: u64,
    re_executed_combos: u64,
    moved_slab_area: u64,
    frontier_records_moved: u64,
    panel: Vec<[u32; 4]>,
}

fn run_arm(
    name: &'static str,
    plan: &'static str,
    reps: usize,
    t: &multihit_core::BitMatrix,
    n: &multihit_core::BitMatrix,
    cfg: &DistributedConfig,
) -> Arm {
    let mut best_ns = u128::MAX;
    let mut last = None;
    for _ in 0..reps {
        let obs = Obs::enabled();
        let faults = (!plan.is_empty())
            .then(|| FaultState::new(FaultPlan::parse(plan, 5).expect("bad plan"), &obs));
        let start = Instant::now();
        let ft = distributed_discover4_ft(t, n, cfg, faults.as_ref(), FtParams::fast_test(), &obs);
        best_ns = best_ns.min(start.elapsed().as_nanos());
        last = Some((ft, obs));
    }
    let (ft, obs) = last.expect("reps >= 1");
    let counters = obs.counters();
    let counter = |k: &str| counters.get(k).copied().unwrap_or(0);
    Arm {
        name,
        plan,
        best_ns,
        dead_ranks: ft.recovery.dead_ranks.len(),
        joined_ranks: ft.recovery.joined_ranks.len(),
        membership_epochs: ft.recovery.membership_epochs,
        re_executed_combos: ft.recovery.re_executed_combos,
        moved_slab_area: counter("elastic.moved_slab_area"),
        frontier_records_moved: counter("elastic.frontier_records_moved"),
        panel: ft.result.combinations,
    }
}

fn arm_json(a: &Arm) -> String {
    format!(
        "    {{\n      \"name\": \"{}\",\n      \"plan\": \"{}\",\n      \
         \"best_ns\": {},\n      \"dead_ranks\": {},\n      \
         \"joined_ranks\": {},\n      \"membership_epochs\": {},\n      \
         \"re_executed_combos\": {},\n      \"moved_slab_area\": {},\n      \
         \"frontier_records_moved\": {},\n      \"panel_size\": {}\n    }}",
        a.name,
        a.plan,
        a.best_ns,
        a.dead_ranks,
        a.joined_ranks,
        a.membership_epochs,
        a.re_executed_combos,
        a.moved_slab_area,
        a.frontier_records_moved,
        a.panel.len(),
    )
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_elastic.json");
    let mut genes = 18usize;
    let mut reps = 3usize;
    let take = |flag: &str, args: &mut Vec<String>| -> Option<String> {
        let pos = args.iter().position(|a| a == flag)?;
        if pos + 1 >= args.len() {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        }
        let v = args.remove(pos + 1);
        args.remove(pos);
        Some(v)
    };
    if let Some(v) = take("--out", &mut args) {
        out = v;
    }
    if let Some(v) = take("--genes", &mut args) {
        genes = v.parse().expect("--genes expects an integer");
    }
    if let Some(v) = take("--reps", &mut args) {
        reps = v
            .parse::<usize>()
            .expect("--reps expects an integer")
            .max(1);
    }
    if !args.is_empty() {
        eprintln!("unknown arguments: {args:?}");
        std::process::exit(2);
    }

    let cohort = generate(&CohortSpec {
        n_genes: genes,
        n_tumor: N_TUMOR,
        n_normal: N_NORMAL,
        n_driver_combos: 3,
        hits_per_combo: 4,
        driver_penetrance: 0.9,
        passenger_rate_tumor: 0.05,
        passenger_rate_normal: 0.02,
        seed: 11,
    });
    let cfg = DistributedConfig {
        shape: ClusterShape {
            nodes: 4,
            gpus_per_node: 2,
        },
        max_combinations: 3,
        ..DistributedConfig::default()
    };
    let reference = distributed_discover4(&cohort.tumor, &cohort.normal, &cfg);
    eprintln!("bench_elastic: G={genes} H=4 Nt={N_TUMOR} Nn={N_NORMAL} ranks=4x2 reps={reps}");

    let arms = [
        ("fault_free", ""),
        ("survivor_shrink", "rank-kill=2@1"),
        ("elastic_replace", "rank-kill=2@1, rank-join=2-2"),
    ]
    .map(|(name, plan)| {
        let arm = run_arm(name, plan, reps, &cohort.tumor, &cohort.normal, &cfg);
        eprintln!(
            "  {:16} {:>8.1} ms  dead={} joined={} epochs={} re_executed={} \
             slab_area={} frontier_moved={}",
            arm.name,
            arm.best_ns as f64 / 1e6,
            arm.dead_ranks,
            arm.joined_ranks,
            arm.membership_epochs,
            arm.re_executed_combos,
            arm.moved_slab_area,
            arm.frontier_records_moved,
        );
        arm
    });

    let identical = arms.iter().all(|a| a.panel == reference.combinations);
    let elastic_joined = arms[2].joined_ranks == 1 && arms[2].membership_epochs == 1;

    // The modeled paper-scale bill: 1000 nodes / 6000 GPUs under churn.
    let params = ChurnParams::summit_like();
    let run_s = multihit_cluster::driver::model_run(&ModelConfig::brca(1000)).total_s;
    let bill = churn_bill(&params, 1000, 6000, run_s);
    let ordered = bill.elastic_s < bill.shrink_s && bill.shrink_s < bill.abort_s;
    let speedup_elastic_vs_abort = bill.abort_s / bill.elastic_s;
    let speedup_elastic_vs_shrink = bill.shrink_s / bill.elastic_s;
    eprintln!(
        "  modeled @6000 GPUs: abort {:.0}s  shrink {:.0}s  elastic {:.0}s  \
         (elastic vs abort {speedup_elastic_vs_abort:.3}x, vs shrink \
         {speedup_elastic_vs_shrink:.3}x)  identical={identical} ordered={ordered}",
        bill.abort_s, bill.shrink_s, bill.elastic_s,
    );

    let body: Vec<String> = arms.iter().map(arm_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"elastic_membership_h4\",\n  \"genes\": {genes},\n  \
         \"hits\": 4,\n  \"n_tumor\": {N_TUMOR},\n  \"n_normal\": {N_NORMAL},\n  \
         \"ranks\": 4,\n  \"gpus_per_rank\": 2,\n  \"reps\": {reps},\n  \
         \"arms\": [\n{}\n  ],\n  \"modeled_nodes\": {},\n  \
         \"modeled_gpus\": {},\n  \"modeled_run_s\": {run_s:.3},\n  \
         \"modeled_expected_failures\": {:.3},\n  \"modeled_abort_s\": {:.3},\n  \
         \"modeled_shrink_s\": {:.3},\n  \"modeled_elastic_s\": {:.3},\n  \
         \"speedup_elastic_vs_abort\": {speedup_elastic_vs_abort:.3},\n  \
         \"speedup_elastic_vs_shrink\": {speedup_elastic_vs_shrink:.3},\n  \
         \"identical\": {identical}\n}}\n",
        body.join(",\n"),
        bill.nodes,
        bill.gpus,
        bill.expected_failures,
        bill.abort_s,
        bill.shrink_s,
        bill.elastic_s,
    );
    std::fs::write(&out, json).expect("write BENCH_elastic.json");
    eprintln!("  wrote {out}");

    if !identical {
        eprintln!("FAIL: a churned panel diverged from the fault-free reference");
        std::process::exit(1);
    }
    if !elastic_joined {
        eprintln!("FAIL: the elastic arm did not admit the replacement rank");
        std::process::exit(1);
    }
    if !ordered {
        eprintln!("FAIL: modeled recovery bill is not elastic < shrink < abort");
        std::process::exit(1);
    }
}
