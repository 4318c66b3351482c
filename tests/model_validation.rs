//! Cross-validation of the modeled substrate against executed runs: the
//! free parameters of the timing model must be consistent with what the
//! real algorithm does at executable scale.

use multihit::cluster::timing::{coverage_profile, model_run, ModelConfig};
use multihit::core::greedy::{discover, GreedyConfig};
use multihit::data::synth::{generate, CohortSpec};

/// The modeled runs assume geometric coverage decay. Executed greedy runs
/// on a BRCA-sized synthetic cohort must (a) converge to full cover and
/// (b) do so in a combo count within small factors of the paper's ~14 per
/// cohort (151 over 11 cancers) — the quantity the iteration model is
/// anchored to. (The exact decay rate depends on driver prevalence, which
/// synthetic cohorts set by construction; only its order matters to the
/// timing model.)
#[test]
fn executed_runs_converge_in_paper_order_combo_counts() {
    let cohort = generate(&CohortSpec {
        n_genes: 40,
        n_tumor: 911,
        n_normal: 329,
        n_driver_combos: 8,
        hits_per_combo: 3,
        driver_penetrance: 0.9,
        passenger_rate_tumor: 0.03,
        passenger_rate_normal: 0.01,
        seed: 404,
    });
    let run = discover::<3>(&cohort.tumor, &cohort.normal, &GreedyConfig::default());
    // Tumors carrying fewer than 3 mutations (imperfect penetrance, sparse
    // passengers) are uncoverable by any 3-hit combination; the greedy must
    // stall on exactly that residue, not loop. Keep it a small minority.
    assert!(
        run.uncovered <= 911 / 20,
        "greedy left {} of 911 tumors uncovered",
        run.uncovered
    );
    // Executed runs grow a long tail of 1–2-sample combos covering
    // passenger stragglers (cheap: the spliced matrix is tiny by then); the
    // time-relevant head must dominate like the model's geometric profile.
    assert!(
        (5..=120).contains(&run.combinations.len()),
        "{} combinations for 911 tumors",
        run.combinations.len()
    );
    let early: u32 = run.iterations.iter().take(5).map(|r| r.newly_covered).sum();
    assert!(early > 911 / 2, "first 5 combos cover only {early}/911");
    let head: u32 = run
        .iterations
        .iter()
        .take(12)
        .map(|r| r.newly_covered)
        .sum();
    assert!(head > 911 * 3 / 4, "first 12 combos cover only {head}/911");
}

/// The modeled iteration count for BRCA must match the coverage profile's
/// length, and both must be in the plausible range implied by the paper's
/// 151 combinations over 11 cancer types (~14 per cohort).
#[test]
fn modeled_iteration_counts_are_plausible() {
    let profile = coverage_profile(911, 0.55);
    assert!(
        (8..=20).contains(&profile.len()),
        "BRCA profile has {} iterations",
        profile.len()
    );
    let run = model_run(&ModelConfig::brca(100));
    assert_eq!(run.iterations.len(), profile.len());
}

/// Executed distributed runs and the modeled scheduler must agree on the
/// workload split: the EA schedule used by the model is the same one the
/// functional driver audits.
#[test]
fn functional_combo_audit_matches_modeled_partitions() {
    use multihit::cluster::driver::{distributed_discover4, DistributedConfig, SchedulerKind};
    use multihit::cluster::sched::partition_areas;
    use multihit::cluster::topology::ClusterShape;
    use multihit::core::schemes::Scheme4;
    use multihit::core::sweep::levels_scheme4;

    let cohort = generate(&CohortSpec {
        n_genes: 13,
        n_tumor: 80,
        n_normal: 40,
        n_driver_combos: 2,
        hits_per_combo: 4,
        ..CohortSpec::default()
    });
    let shape = ClusterShape {
        nodes: 2,
        gpus_per_node: 3,
    };
    let cfg = DistributedConfig {
        shape,
        scheme: Scheme4::ThreeXOne,
        scheduler: SchedulerKind::EquiArea,
        max_combinations: 1,
        ..DistributedConfig::default()
    };
    let dist = distributed_discover4(&cohort.tumor, &cohort.normal, &cfg);
    let levels = levels_scheme4(Scheme4::ThreeXOne, 13);
    let parts = SchedulerKind::EquiArea.partitions(Scheme4::ThreeXOne, 13, 6);
    let areas = partition_areas(&levels, &parts);
    assert_eq!(dist.iterations[0].combos_per_gpu, areas);
}

/// The cost model's efficiency claims must be self-consistent: summing the
/// modeled per-GPU busy time over a run can never exceed GPUs × makespan.
#[test]
fn modeled_busy_time_never_exceeds_capacity() {
    for nodes in [100usize, 500, 1000] {
        let run = model_run(&ModelConfig::brca(nodes));
        for it in &run.iterations {
            let busy: f64 = it.per_gpu.iter().map(|c| c.time_s).sum();
            let cap = it.time_s * (nodes * 6) as f64;
            assert!(busy <= cap * (1.0 + 1e-9), "{nodes} nodes: {busy} > {cap}");
        }
    }
}
