//! Tier-1 coverage of the distributed driver's recovery and liveness rules,
//! through the `multihit::cluster` facade: a rank killed at any point leaves
//! the panel of the fault-free run, and a rank that is merely slow is never
//! evicted.

use multihit::cluster::driver::{
    distributed_discover4, distributed_discover4_ft, DistributedConfig, SchedulerKind,
};
use multihit::cluster::fault::{FaultPlan, FaultState, FtParams};
use multihit::cluster::topology::ClusterShape;
use multihit::core::greedy::{discover, GreedyConfig};
use multihit::core::obs::Obs;
use multihit::data::synth::{generate, CohortSpec};
use std::time::Duration;

fn cohort(n_genes: usize) -> multihit::data::synth::Cohort {
    generate(&CohortSpec {
        n_genes,
        n_tumor: 90,
        n_normal: 60,
        n_driver_combos: 3,
        hits_per_combo: 4,
        driver_penetrance: 0.9,
        passenger_rate_tumor: 0.05,
        passenger_rate_normal: 0.02,
        seed: 2021,
    })
}

#[test]
fn killing_each_rank_early_matches_the_fault_free_run() {
    let cohort = cohort(14);
    let cfg = DistributedConfig {
        shape: ClusterShape {
            nodes: 4,
            gpus_per_node: 2,
        },
        max_combinations: 3,
        ..DistributedConfig::default()
    };
    let fault_free = distributed_discover4(&cohort.tumor, &cohort.normal, &cfg);
    assert!(fault_free.iterations.len() >= 2, "fixture should iterate");
    for iter in 0..2 {
        for rank in 0..cfg.shape.nodes {
            let spec = format!("rank-kill={rank}@{iter}");
            let obs = Obs::disabled();
            let faults = FaultState::new(FaultPlan::parse(&spec, 7).unwrap(), &obs);
            let ft = distributed_discover4_ft(
                &cohort.tumor,
                &cohort.normal,
                &cfg,
                Some(&faults),
                FtParams::fast_test(),
                &obs,
            );
            assert_eq!(ft.result.combinations, fault_free.combinations, "{spec}");
            assert_eq!(ft.result.uncovered, fault_free.uncovered, "{spec}");
            assert_eq!(ft.recovery.dead_ranks, vec![rank], "{spec}");
            assert!(ft.recovery.re_executed_iterations >= 1, "{spec}");
        }
    }
}

#[test]
fn an_imbalanced_fault_free_run_evicts_nobody() {
    // Equi-distance scheduling leaves the two ranks' workloads far apart and
    // the probe interval is 1 ms, so one rank outwaits it many times over.
    let cohort = cohort(60);
    let cfg = DistributedConfig {
        shape: ClusterShape {
            nodes: 2,
            gpus_per_node: 1,
        },
        scheduler: SchedulerKind::EquiDistance,
        max_combinations: 2,
        ..DistributedConfig::default()
    };
    let params = FtParams {
        timeout: Duration::from_millis(1),
        backoff: 1.0,
    };
    let obs = Obs::disabled();
    let ft = distributed_discover4_ft(&cohort.tumor, &cohort.normal, &cfg, None, params, &obs);
    assert_eq!(ft.recovery.dead_ranks, Vec::<usize>::new());
    assert_eq!(ft.recovery.re_executed_iterations, 0);
    let single = discover::<4>(
        &cohort.tumor,
        &cohort.normal,
        &GreedyConfig {
            max_combinations: cfg.max_combinations,
            ..GreedyConfig::default()
        },
    );
    assert_eq!(ft.result.combinations, single.combinations);
}
