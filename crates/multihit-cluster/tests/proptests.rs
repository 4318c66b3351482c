//! Property-based tests for the cluster substrate: scheduler invariants
//! over random workload structures, collective correctness over random rank
//! counts, checkpoint format round-trips, and modeled-run sanity.

use multihit_cluster::checkpoint::Checkpoint;
use multihit_cluster::comm::run_ranks;
use multihit_cluster::sched::{partition_areas, schedule_ea_fast, schedule_ea_naive, schedule_ed};
use multihit_cluster::sched_weighted::{schedule_ea_weighted, CostWeights};
use multihit_core::bitmat::BitMatrix;
use multihit_core::schemes::Scheme4;
use multihit_core::sweep::{levels_scheme4, total_area, total_threads, Level};
use proptest::prelude::*;

/// A random `g`-gene cohort of 70 tumor and 40 normal samples: each tumor
/// bit is set with probability `1/density`, each normal bit with
/// `1/(density + 2)`.
fn random_cohort(g: usize, seed: u64, density: u64) -> (BitMatrix, BitMatrix) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 33
    };
    let mut t = BitMatrix::zeros(g, 70);
    let mut n = BitMatrix::zeros(g, 40);
    for gene in 0..g {
        for s in 0..70 {
            if next() % density == 0 {
                t.set(gene, s, true);
            }
        }
        for s in 0..40 {
            if next() % (density + 2) == 0 {
                n.set(gene, s, true);
            }
        }
    }
    (t, n)
}

/// Random synthetic level structures (not just the schemes' shapes): the
/// schedulers must work for any monotone-λ level table.
fn arb_levels() -> impl Strategy<Value = Vec<Level>> {
    prop::collection::vec((1u64..200, 0u64..50), 1..40).prop_map(|raw| {
        let mut lambda = 0;
        raw.into_iter()
            .map(|(n_threads, work)| {
                let lv = Level {
                    lambda_start: lambda,
                    n_threads,
                    work_per_thread: work,
                };
                lambda += n_threads;
                lv
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ea_fast_equals_naive_on_random_levels(levels in arb_levels(), parts in 1usize..20) {
        let n = total_threads(&levels);
        let total = total_area(&levels);
        let workload = |l: u64| {
            levels
                .iter()
                .find(|lv| l >= lv.lambda_start && l < lv.lambda_start + lv.n_threads)
                .map_or(0, |lv| lv.work_per_thread)
        };
        let naive = schedule_ea_naive(n, total, parts, workload);
        let fast = schedule_ea_fast(&levels, parts);
        prop_assert_eq!(naive, fast);
    }

    #[test]
    fn partitions_always_cover_exactly(levels in arb_levels(), parts in 1usize..30) {
        let n = total_threads(&levels);
        for p in [
            schedule_ea_fast(&levels, parts),
            schedule_ed(n, parts),
            schedule_ea_weighted(&levels, parts, &CostWeights::v100_3x1()),
        ] {
            prop_assert_eq!(p.len(), parts);
            prop_assert_eq!(p[0].lo, 0);
            prop_assert_eq!(p.last().unwrap().hi, n);
            for w in p.windows(2) {
                prop_assert_eq!(w[0].hi, w[1].lo);
            }
        }
    }

    #[test]
    fn ea_areas_bounded_by_one_thread(levels in arb_levels(), parts in 1usize..16) {
        // Every EA partition's area exceeds the target share by at most one
        // thread's workload (the partitioner cannot split a thread).
        let areas = partition_areas(&levels, &schedule_ea_fast(&levels, parts));
        let total = total_area(&levels);
        let max_w = levels.iter().map(|l| l.work_per_thread).max().unwrap_or(0);
        let share = total as f64 / parts as f64;
        for (i, &a) in areas.iter().enumerate() {
            prop_assert!(
                (a as f64) <= share + max_w as f64 + 1.0,
                "partition {i}: area {a}, share {share}, max thread {max_w}"
            );
        }
    }

    #[test]
    fn ea_beats_or_ties_ed_on_scheme_workloads(g in 8u32..120, parts in 1usize..24) {
        let levels = levels_scheme4(Scheme4::ThreeXOne, g);
        let n = total_threads(&levels);
        let max_area = |p: &[multihit_cluster::sched::Partition]| {
            partition_areas(&levels, p).into_iter().max().unwrap_or(0)
        };
        let ea = max_area(&schedule_ea_fast(&levels, parts));
        let ed = max_area(&schedule_ed(n, parts));
        prop_assert!(ea <= ed, "EA straggler {ea} > ED {ed}");
    }
}

/// Random well-formed checkpoints: mask word count must match the tumor
/// count and combo gene ids must fit the universe, mirroring what a real
/// run can produce.
fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
    (1usize..300, 1usize..200).prop_flat_map(|(n_genes, n_tumor)| {
        let words = n_tumor.div_ceil(64);
        let mask = prop::collection::vec(any::<u64>(), words).prop_map(move |mut m| {
            // Clear padding bits past n_tumor in the final word.
            let used = n_tumor % 64;
            if used != 0 {
                *m.last_mut().unwrap() &= (1u64 << used) - 1;
            }
            m
        });
        let g = n_genes as u32;
        let combos = prop::collection::vec(
            (0..g, 0..g, 0..g, 0..g).prop_map(|(a, b, c, d)| [a, b, c, d]),
            0..12,
        );
        (mask, combos).prop_map(move |(uncovered_mask, chosen)| Checkpoint {
            n_genes,
            n_tumor,
            chosen,
            uncovered_mask,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn checkpoint_text_round_trips(ckpt in arb_checkpoint()) {
        let text = ckpt.to_text();
        let back = match Checkpoint::from_text(&text) {
            Ok(b) => b,
            Err(e) => return Err(format!("round-trip rejected: {e}")),
        };
        prop_assert_eq!(back, ckpt);
    }

    #[test]
    fn truncated_checkpoint_never_parses_to_a_different_state(
        ckpt in arb_checkpoint(),
        cut in 1usize..64,
    ) {
        // Chop off the tail (at least one byte): either the parser rejects
        // it, or — if a prefix happens to still be well-formed — it must
        // reproduce the original state exactly. It must never resume a
        // silently different run.
        let text = ckpt.to_text();
        let keep = text.len().saturating_sub(cut);
        if let Ok(parsed) = Checkpoint::from_text(&text[..keep]) {
            prop_assert_eq!(parsed, ckpt);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every rank prunes on its own incumbent over its own slabs, yet any
    /// cluster shape, scheme and frontier size selects the panel of the
    /// exhaustive, frontier-less single-process scan — and on every kernel
    /// round the per-GPU audit (scored + cut) tiles `C(G,4)` exactly.
    #[test]
    fn distributed_discovery_equals_reference_on_random_cohorts(
        seed in 0u64..10_000,
        nodes in 1usize..=4,
        gpus in 1usize..=3,
        density in 2u64..5,
        scheme in prop::sample::select(vec![Scheme4::TwoXTwo, Scheme4::ThreeXOne]),
        frontier_k in prop::sample::select(vec![0usize, 4, 64]),
        kernelize in any::<bool>(),
    ) {
        use multihit_cluster::driver::{distributed_discover4, DistributedConfig, SchedulerKind};
        use multihit_cluster::topology::ClusterShape;
        use multihit_core::combin::binomial;
        use multihit_core::greedy::{discover, GreedyConfig};

        let g = 10usize;
        let (t, n) = random_cohort(g, seed, density);
        let reference = discover::<4>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                prune: false,
                frontier_k: 0,
                max_combinations: 3,
                ..GreedyConfig::default()
            },
        );
        let dist = distributed_discover4(
            &t,
            &n,
            &DistributedConfig {
                shape: ClusterShape { nodes, gpus_per_node: gpus },
                scheme,
                scheduler: SchedulerKind::EquiArea,
                max_combinations: 3,
                frontier_k,
                kernelize,
                ..DistributedConfig::default()
            },
        );
        prop_assert_eq!(dist.combinations, reference.combinations);
        prop_assert_eq!(dist.uncovered, reference.uncovered);
        // The ranks scan the kernelized instance when there is one.
        let scanned_genes = if kernelize {
            multihit_core::kernelize::kernelize(&t, &n, 4).2.kept_genes()
        } else {
            g
        };
        let total = binomial(scanned_genes as u64, 4);
        for (i, it) in dist.iterations.iter().enumerate() {
            prop_assert_eq!(it.combos_per_gpu.len(), nodes * gpus);
            let audited: u64 = it.combos_per_gpu.iter().sum();
            // A frontier hit skips the kernels; any other round scans it all.
            prop_assert!(
                audited == total || (frontier_k > 0 && i > 0 && audited == 0),
                "iteration {i} audited {audited} of {total}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn frontier_distributed_discovery_equals_disabled_frontier(
        seed in 0u64..10_000,
        density in 2u64..5,
    ) {
        use multihit_cluster::driver::{distributed_discover4, DistributedConfig};
        use multihit_cluster::topology::ClusterShape;

        let (t, n) = random_cohort(10, seed, density);
        for nodes in [1usize, 4] {
            let base = DistributedConfig {
                shape: ClusterShape { nodes, gpus_per_node: 2 },
                max_combinations: 3,
                frontier_k: 0,
                ..DistributedConfig::default()
            };
            let reference = distributed_discover4(&t, &n, &base);
            // K = 1 can never strictly clear its own floor (every frontier
            // check misses and the round runs the kernels); larger K gets
            // genuine hits.
            for k in [1usize, 4, 64] {
                let lazy = distributed_discover4(
                    &t,
                    &n,
                    &DistributedConfig { frontier_k: k, ..base },
                );
                prop_assert!(
                    lazy.combinations == reference.combinations,
                    "diverged at nodes {nodes} k {k}"
                );
                prop_assert_eq!(lazy.uncovered, reference.uncovered);
            }
        }
    }

    /// The driver checks its frontier with the calls single-process
    /// discovery makes, on the same global top-K, so it hits on exactly the
    /// iterations `discover_obs` does, whatever the cluster shape.
    #[test]
    fn distributed_frontier_hits_where_single_process_discovery_does(
        seed in 0u64..10_000,
        nodes in 1usize..=4,
        gpus in 1usize..=2,
        density in 2u64..5,
    ) {
        use multihit_cluster::driver::{distributed_discover4_ft, DistributedConfig};
        use multihit_cluster::fault::FtParams;
        use multihit_cluster::topology::ClusterShape;
        use multihit_core::greedy::{discover_obs, Exclusion, GreedyConfig};
        use multihit_core::obs::{EventKind, Obs};

        let hits = |obs: &Obs, point: &str| -> Vec<u64> {
            obs.events()
                .iter()
                .filter(|e| e.kind == EventKind::Point && e.name == point)
                .filter_map(|e| e.u64("frontier_hit"))
                .collect()
        };
        let (t, n) = random_cohort(10, seed, density);
        for k in [1usize, 4, 64] {
            let single = Obs::enabled();
            let reference = discover_obs::<4>(
                &t,
                &n,
                &GreedyConfig {
                    exclusion: Exclusion::BitSplice,
                    parallel: false,
                    kernelize: false,
                    frontier_k: k,
                    max_combinations: 3,
                    ..GreedyConfig::default()
                },
                &single,
            );
            let dist_obs = Obs::enabled();
            let dist = distributed_discover4_ft(
                &t,
                &n,
                &DistributedConfig {
                    shape: ClusterShape { nodes, gpus_per_node: gpus },
                    frontier_k: k,
                    max_combinations: 3,
                    ..DistributedConfig::default()
                },
                None,
                FtParams::default(),
                &dist_obs,
            )
            .result;
            prop_assert!(dist.combinations == reference.combinations, "diverged at k {k}");
            let (dist_hits, single_hits) = (hits(&dist_obs, "dist_iter"), hits(&single, "greedy_iter"));
            prop_assert!(
                dist_hits == single_hits,
                "k {k}: driver hits {dist_hits:?}, single-process {single_hits:?}"
            );
        }
    }

    /// One rank with one GPU holds the whole λ-range, which is the single
    /// colex range `discover` scans, in the same popcount order: its first
    /// kernel round scores exactly what the first single-process scan
    /// scores, and the run as a whole stays within 1.5x of it (later rounds
    /// are not seeded with the rescored frontier's floor, as `discover`'s
    /// are).
    #[test]
    fn one_rank_scans_what_single_process_discovery_scans(
        seed in 0u64..10_000,
        density in 2u64..5,
    ) {
        use multihit_cluster::driver::{distributed_discover4_ft, DistributedConfig};
        use multihit_cluster::fault::FtParams;
        use multihit_cluster::topology::ClusterShape;
        use multihit_core::greedy::{discover_obs, Exclusion, GreedyConfig};
        use multihit_core::obs::{EventKind, Obs};

        let scored = |obs: &Obs, point: &str, field: &str| -> Vec<u64> {
            obs.events()
                .iter()
                .filter(|e| e.kind == EventKind::Point && e.name == point)
                .filter_map(|e| e.u64(field))
                .collect()
        };
        let (t, n) = random_cohort(24, seed, density);
        for k in [1usize, 4, 64] {
            let single = Obs::enabled();
            let reference = discover_obs::<4>(
                &t,
                &n,
                &GreedyConfig {
                    exclusion: Exclusion::BitSplice,
                    parallel: false,
                    kernelize: false,
                    frontier_k: k,
                    ..GreedyConfig::default()
                },
                &single,
            );
            let dist_obs = Obs::enabled();
            let dist = distributed_discover4_ft(
                &t,
                &n,
                &DistributedConfig {
                    shape: ClusterShape { nodes: 1, gpus_per_node: 1 },
                    frontier_k: k,
                    ..DistributedConfig::default()
                },
                None,
                FtParams::default(),
                &dist_obs,
            )
            .result;
            prop_assert!(dist.combinations == reference.combinations, "diverged at k {k}");
            let ranks = scored(&dist_obs, "rank_exec", "scored");
            let scans = scored(&single, "greedy_iter", "scan_scored");
            prop_assert!(
                ranks[0] == scans[0],
                "k {k}: the first kernel round scored {}, the first scan {}",
                ranks[0],
                scans[0]
            );
            let (ranks, scans): (u64, u64) = (ranks.iter().sum(), scans.iter().sum());
            prop_assert!(
                ranks as f64 <= 1.5 * scans as f64,
                "k {k}: the rank scored {ranks}, single-process discovery {scans}"
            );
        }
    }

    #[test]
    fn kernelized_distributed_discovery_equals_unkernelized(
        seed in 0u64..10_000,
        density in 2u64..6,
    ) {
        use multihit_cluster::driver::{distributed_discover4, DistributedConfig};
        use multihit_cluster::topology::ClusterShape;

        // Sparser than the reference-identity cohort so the reduction has
        // useless genes and dominated rows to actually remove.
        let g = 12usize;
        let (mut t, mut n) = random_cohort(g, seed, density);
        // Every fourth gene is emptied: guaranteed useless rows.
        for gene in (3..g).step_by(4) {
            (0..70).for_each(|s| t.set(gene, s, false));
            (0..40).for_each(|s| n.set(gene, s, false));
        }
        for nodes in [1usize, 3] {
            let base = DistributedConfig {
                shape: ClusterShape { nodes, gpus_per_node: 2 },
                max_combinations: 3,
                ..DistributedConfig::default()
            };
            let reference = distributed_discover4(&t, &n, &base);
            let kern = distributed_discover4(
                &t,
                &n,
                &DistributedConfig { kernelize: true, ..base },
            );
            prop_assert!(
                kern.combinations == reference.combinations,
                "diverged at nodes {nodes}"
            );
            prop_assert_eq!(kern.uncovered, reference.uncovered);
        }
    }

    #[test]
    fn reduce_to_root_is_order_independent(
        size in 1usize..10,
        values in prop::collection::vec(0u64..1000, 10),
    ) {
        let vals = values.clone();
        let out = run_ranks(size, |ctx| {
            let v = vals[ctx.rank % vals.len()];
            ctx.reduce_to_root(
                v,
                u64::max,
                |x| x.to_le_bytes().to_vec(),
                |b| u64::from_le_bytes(b.try_into().unwrap()),
            )
        });
        let expect = (0..size).map(|r| values[r % values.len()]).max().unwrap();
        prop_assert_eq!(out[0], Some(expect));
        for r in &out[1..] {
            prop_assert!(r.is_none());
        }
    }

    #[test]
    fn broadcast_delivers_to_every_rank(size in 1usize..12, payload in prop::collection::vec(any::<u8>(), 1..64)) {
        let p = payload.clone();
        let out = run_ranks(size, |ctx| {
            let v = if ctx.rank == 0 { Some(p.clone()) } else { None };
            ctx.broadcast(v)
        });
        for o in out {
            prop_assert_eq!(&o, &payload);
        }
    }
}
