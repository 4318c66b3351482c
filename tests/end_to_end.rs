//! Cross-crate integration tests: the full paper pipeline from synthetic
//! MAF text down to distributed discovery and held-out classification.

use multihit::cluster::driver::{
    distributed_discover4, distributed_discover4_ft, DistributedConfig, SchedulerKind,
};
use multihit::cluster::fault::FtParams;
use multihit::cluster::topology::ClusterShape;
use multihit::core::combin::binomial;
use multihit::core::greedy::{discover, GreedyConfig};
use multihit::core::obs::Obs;
use multihit::core::schemes::Scheme4;
use multihit::data::classify::ComboClassifier;
use multihit::data::maf::{matrix_to_records, parse_maf, summarize, write_maf};
use multihit::data::presets::CancerType;
use multihit::data::split::split_cohort;
use multihit::data::synth::{gene_symbols, generate, CohortSpec};
use std::collections::HashMap;

fn small_cohort(seed: u64) -> multihit::data::synth::Cohort {
    generate(&CohortSpec {
        n_genes: 24,
        n_tumor: 100,
        n_normal: 60,
        n_driver_combos: 3,
        hits_per_combo: 3,
        driver_penetrance: 0.95,
        passenger_rate_tumor: 0.04,
        passenger_rate_normal: 0.015,
        seed,
    })
}

#[test]
fn maf_pipeline_feeds_discovery() {
    // generate → MAF text → parse → summarize → discover: the discovered
    // combinations must match those from the original matrix for the
    // samples that survive (all-zero columns drop out of MAF).
    let cohort = small_cohort(11);
    let names = gene_symbols(&cohort);
    let gi: HashMap<String, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), i))
        .collect();

    let maf = write_maf(&matrix_to_records(&cohort.tumor, &names, "T"));
    let tumor2 = summarize(&parse_maf(&maf).unwrap(), &gi).matrix;
    let maf_n = write_maf(&matrix_to_records(&cohort.normal, &names, "N"));
    let normal2 = summarize(&parse_maf(&maf_n).unwrap(), &gi).matrix;

    let cfg = GreedyConfig {
        max_combinations: 2,
        ..GreedyConfig::default()
    };
    let direct = discover::<3>(&cohort.tumor, &cohort.normal, &cfg);
    let roundtrip = discover::<3>(&tumor2, &normal2, &cfg);
    // With dense driver implants every tumor sample carries ≥1 mutation, so
    // no tumor columns were dropped and TP counts agree exactly. Normals may
    // drop empty columns, which only changes TN by a constant per combo —
    // the argmax is preserved.
    assert_eq!(direct.combinations, roundtrip.combinations);
}

#[test]
fn planted_truth_survives_the_whole_stack() {
    // Ground truth planted by multihit-data must be recovered by
    // multihit-core's greedy AND by multihit-cluster's distributed driver.
    let cohort = small_cohort(5);
    let single = discover::<3>(&cohort.tumor, &cohort.normal, &GreedyConfig::default());
    for planted in &cohort.planted {
        assert!(
            single
                .combinations
                .iter()
                .any(|c| planted.iter().all(|g| c.contains(g))),
            "planted {planted:?} not recovered"
        );
    }
}

#[test]
fn distributed_equals_local_across_schedulers_and_schemes() {
    let cohort = generate(&CohortSpec {
        n_genes: 12,
        n_tumor: 90,
        n_normal: 50,
        n_driver_combos: 2,
        hits_per_combo: 4,
        ..CohortSpec::default()
    });
    let reference = discover::<4>(
        &cohort.tumor,
        &cohort.normal,
        &GreedyConfig {
            max_combinations: 2,
            parallel: false,
            ..GreedyConfig::default()
        },
    );
    for nodes in [1usize, 2, 5] {
        for scheduler in [SchedulerKind::EquiArea, SchedulerKind::EquiDistance] {
            let cfg = DistributedConfig {
                shape: ClusterShape {
                    nodes,
                    gpus_per_node: 2,
                },
                scheme: Scheme4::ThreeXOne,
                scheduler,
                max_combinations: 2,
                ..DistributedConfig::default()
            };
            let dist = distributed_discover4(&cohort.tumor, &cohort.normal, &cfg);
            assert_eq!(
                dist.combinations, reference.combinations,
                "{nodes} nodes, {scheduler:?}"
            );
        }
    }
}

/// Cluster ranks score their λ-slabs with the bound-pruned core scanner,
/// each on its own incumbent. The panel must still be the one an
/// exhaustive, frontier-less single-process scan selects, and what the
/// ranks scored plus what they cut must tile `C(G,4)` on every kernel round.
#[test]
fn cluster_ranks_prune_yet_select_the_exhaustive_panel() {
    let cohort = generate(&CohortSpec {
        n_genes: 14,
        n_tumor: 90,
        n_normal: 50,
        n_driver_combos: 2,
        hits_per_combo: 4,
        ..CohortSpec::default()
    });
    let total = binomial(14, 4);
    let reference = discover::<4>(
        &cohort.tumor,
        &cohort.normal,
        &GreedyConfig {
            max_combinations: 3,
            parallel: false,
            prune: false,
            frontier_k: 0,
            ..GreedyConfig::default()
        },
    );
    for scheme in [Scheme4::ThreeXOne, Scheme4::TwoXTwo] {
        for frontier_k in [0usize, 64] {
            let cfg = DistributedConfig {
                shape: ClusterShape {
                    nodes: 3,
                    gpus_per_node: 2,
                },
                scheme,
                max_combinations: 3,
                frontier_k,
                ..DistributedConfig::default()
            };
            let obs = Obs::enabled();
            let dist = distributed_discover4_ft(
                &cohort.tumor,
                &cohort.normal,
                &cfg,
                None,
                FtParams::default(),
                &obs,
            )
            .result;
            let ctx = format!("{} k={frontier_k}", scheme.name());
            assert_eq!(dist.combinations, reference.combinations, "{ctx}");
            let mut audited = 0;
            for it in &dist.iterations {
                let sum: u64 = it.combos_per_gpu.iter().sum();
                assert!(sum == total || (frontier_k > 0 && sum == 0), "{ctx}: {sum}");
                audited += sum;
            }
            let (scored, pruned) = (
                obs.sum("rank_exec", "scored"),
                obs.sum("rank_exec", "pruned_combos"),
            );
            // Every iteration runs one rank round, kernels or a frontier hit
            // that scans nothing, so the rank points and the per-iteration
            // audit see the same scans.
            assert_eq!(scored + pruned, audited, "{ctx}");
            assert!(
                pruned > 0,
                "{ctx}: the ranks scored all {scored} exhaustively"
            );
        }
    }
}

#[test]
fn train_test_protocol_produces_useful_classifier() {
    let spec = CancerType::Gbm.mini_spec(30, 77);
    let cohort = generate(&spec);
    let split = split_cohort(&cohort.tumor, &cohort.normal, 0.75, 4242);
    let result = discover::<4>(
        &split.train_tumor,
        &split.train_normal,
        &GreedyConfig::default(),
    );
    assert!(!result.combinations.is_empty());
    let clf = ComboClassifier::from_fixed(&result.combinations);
    let perf = clf.evaluate(&split.test_tumor, &split.test_normal);
    // On synthetic data with planted signal the classifier must clearly
    // beat chance on both axes.
    assert!(
        perf.sensitivity.value() > 0.5,
        "sens {}",
        perf.sensitivity.value()
    );
    assert!(
        perf.specificity.value() > 0.7,
        "spec {}",
        perf.specificity.value()
    );
}

#[test]
fn facade_reexports_are_usable() {
    // The `multihit` facade exposes all four member crates.
    let _ = multihit::core::combin::binomial(10, 4);
    let _ = multihit::gpusim::GpuSpec::v100_summit();
    let _ = multihit::cluster::ClusterShape::summit(10);
    let _ = multihit::data::CancerType::Brca.dimensions();
}
