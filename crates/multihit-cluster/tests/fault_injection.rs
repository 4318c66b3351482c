//! End-to-end fault-injection tests for the distributed driver: every
//! recoverable fault class must leave the discovered combinations
//! bit-identical to the single-process reference, a healthy rank is never
//! evicted for being slow, and a zero-fault run shows no trace of the
//! recovery machinery in its metrics stream.

use multihit_cluster::driver::{distributed_discover4_ft, DistributedConfig, SchedulerKind};
use multihit_cluster::fault::{FaultPlan, FaultState, FtParams};
use multihit_cluster::topology::ClusterShape;
use multihit_core::bitmat::BitMatrix;
use multihit_core::greedy::{discover, GreedyConfig};
use multihit_core::obs::{Obs, RunReport};
use std::time::Duration;

fn lcg_matrices(g: usize, nt: usize, nn: usize, seed: u64) -> (BitMatrix, BitMatrix) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut t = BitMatrix::zeros(g, nt);
    let mut n = BitMatrix::zeros(g, nn);
    for gene in 0..g {
        for s in 0..nt {
            if next() % 2 == 0 {
                t.set(gene, s, true);
            }
        }
        for s in 0..nn {
            if next() % 6 == 0 {
                n.set(gene, s, true);
            }
        }
    }
    (t, n)
}

fn four_rank_config() -> DistributedConfig {
    DistributedConfig {
        shape: ClusterShape {
            nodes: 4,
            gpus_per_node: 2,
        },
        max_combinations: 3,
        ..DistributedConfig::default()
    }
}

fn reference(t: &BitMatrix, n: &BitMatrix, max: usize) -> Vec<[u32; 4]> {
    discover::<4>(
        t,
        n,
        &GreedyConfig {
            parallel: false,
            max_combinations: max,
            ..GreedyConfig::default()
        },
    )
    .combinations
}

/// Satellite (d): kill each rank of a 4-rank run, once per iteration index.
/// Every run must finish with the survivors and produce combinations
/// bit-identical to the single-process reference.
#[test]
fn killing_any_rank_at_any_iteration_preserves_the_answer() {
    let (t, n) = lcg_matrices(11, 90, 60, 13);
    // frontier_k: 0 pins the kernel-recovery path: with the lazy-greedy
    // frontier on, a kill landing in a frontier-hit round wastes zero
    // kernel combos by design (covered by the frontier-specific fault tests).
    let cfg = DistributedConfig {
        frontier_k: 0,
        ..four_rank_config()
    };
    let expect = reference(&t, &n, cfg.max_combinations);
    assert_eq!(expect.len(), 3, "fixture should run 3 iterations");

    for iter in 0..expect.len() {
        for rank in 0..cfg.shape.nodes {
            let spec = format!("rank-kill={rank}@{iter}");
            let plan = FaultPlan::parse(&spec, 7).unwrap();
            let obs = Obs::enabled();
            let faults = FaultState::new(plan, &obs);
            let ft =
                distributed_discover4_ft(&t, &n, &cfg, Some(&faults), FtParams::fast_test(), &obs);
            assert_eq!(ft.result.combinations, expect, "{spec}");
            assert_eq!(ft.recovery.dead_ranks, vec![rank], "{spec}");
            assert!(ft.recovery.re_executed_iterations >= 1, "{spec}");
            assert!(ft.recovery.re_executed_combos > 0, "{spec}");
            assert_eq!(faults.fired().len(), 1, "{spec}: kill did not fire");
            // The recovery is visible in the report the CLI builds.
            let report = multihit_core::RunReport::from_json_lines(&obs.to_json_lines()).unwrap();
            assert_eq!(report.dead_ranks(), 1, "{spec}");
            assert!(report.re_executed_combos() > 0, "{spec}");
        }
    }
}

/// Frontier-enabled fault runs: with the lazy-greedy frontier on (the
/// default), killing each rank at each iteration must still produce
/// combinations bit-identical to the single-process reference — any failed
/// attempt, a frontier-hit round included, drops the frontier and the
/// survivors re-run the full kernels.
#[test]
fn frontier_fault_runs_stay_bit_identical() {
    let (t, n) = lcg_matrices(11, 90, 60, 13);
    let cfg = four_rank_config();
    assert!(cfg.frontier_k > 0, "frontier should default on");
    let expect = reference(&t, &n, cfg.max_combinations);

    for iter in 0..expect.len() {
        for rank in 0..cfg.shape.nodes {
            let spec = format!("rank-kill={rank}@{iter}");
            let plan = FaultPlan::parse(&spec, 7).unwrap();
            let faults = FaultState::new(plan, &Obs::disabled());
            let ft = distributed_discover4_ft(
                &t,
                &n,
                &cfg,
                Some(&faults),
                FtParams::fast_test(),
                &Obs::disabled(),
            );
            assert_eq!(ft.result.combinations, expect, "{spec}");
            assert_eq!(ft.recovery.dead_ranks, vec![rank], "{spec}");
            assert!(ft.recovery.re_executed_iterations >= 1, "{spec}");
        }
    }
}

/// Two ranks dying in different iterations: the mesh shrinks twice and the
/// answer still matches.
#[test]
fn successive_rank_deaths_shrink_the_mesh_and_preserve_the_answer() {
    let (t, n) = lcg_matrices(11, 90, 60, 13);
    let cfg = four_rank_config();
    let expect = reference(&t, &n, cfg.max_combinations);
    let plan = FaultPlan::parse("rank-kill=3@0, rank-kill=1@2", 7).unwrap();
    let faults = FaultState::new(plan, &Obs::disabled());
    let ft = distributed_discover4_ft(
        &t,
        &n,
        &cfg,
        Some(&faults),
        FtParams::fast_test(),
        &Obs::disabled(),
    );
    assert_eq!(ft.result.combinations, expect);
    assert_eq!(ft.recovery.dead_ranks, vec![3, 1]);
    assert_eq!(ft.recovery.re_executed_iterations, 2);
}

/// Dropped and corrupted reduce frames are retransmitted, not recovered by
/// re-execution: the answer matches with zero re-executed iterations.
#[test]
fn wire_faults_are_healed_by_retransmission() {
    let (t, n) = lcg_matrices(11, 90, 60, 13);
    let cfg = four_rank_config();
    let expect = reference(&t, &n, cfg.max_combinations);
    let plan = FaultPlan::parse("msg-drop=1-0, msg-corrupt=3-2, msg-drop=2-0@2", 7).unwrap();
    let faults = FaultState::new(plan, &Obs::disabled());
    let ft = distributed_discover4_ft(
        &t,
        &n,
        &cfg,
        Some(&faults),
        FtParams::fast_test(),
        &Obs::disabled(),
    );
    assert_eq!(ft.result.combinations, expect);
    assert_eq!(ft.recovery.re_executed_iterations, 0);
    assert_eq!(ft.recovery.dead_ranks, Vec::<usize>::new());
    assert!(ft.recovery.ft.retransmits >= 3, "{:?}", ft.recovery.ft);
    assert!(ft.recovery.ft.crc_failures >= 1, "{:?}", ft.recovery.ft);
}

/// The 150-gene, 2 ranks x 1 GPU, equi-distance shape the eviction cases
/// share: ED leaves the two ranks' workloads far apart (the imbalance of the
/// paper's Figs 2 and 8), so one rank waits on the other for many probe
/// intervals. Both ranks' scans must outlast several 1 ms probes even in an
/// optimised build, where the bound cuts almost every combination of a
/// slab: at 150 genes the lighter rank still scans for a few milliseconds.
fn imbalanced_two_rank_case() -> (BitMatrix, BitMatrix, DistributedConfig) {
    let (t, n) = lcg_matrices(150, 90, 60, 13);
    let cfg = DistributedConfig {
        shape: ClusterShape {
            nodes: 2,
            gpus_per_node: 1,
        },
        scheduler: SchedulerKind::EquiDistance,
        max_combinations: 2,
        ..DistributedConfig::default()
    };
    (t, n, cfg)
}

/// A 1 ms probe interval that never grows: any wait on an imbalanced peer
/// spans many probes.
const IMPATIENT: FtParams = FtParams {
    timeout: Duration::from_millis(1),
    backoff: 1.0,
};

/// Regression: elapsed time is not evidence of death. With no fault plan a
/// healthy rank that merely finishes much later than its peer must not be
/// evicted (and its iteration re-executed), whatever the probe interval.
#[test]
fn slow_healthy_ranks_are_never_evicted() {
    let (t, n, cfg) = imbalanced_two_rank_case();
    let ft = distributed_discover4_ft(&t, &n, &cfg, None, IMPATIENT, &Obs::disabled());
    assert_eq!(ft.recovery.dead_ranks, Vec::<usize>::new());
    assert_eq!(ft.recovery.re_executed_iterations, 0);
    assert_eq!(
        ft.result.combinations,
        reference(&t, &n, cfg.max_combinations)
    );
    assert!(
        ft.recovery.ft.timeouts > 0,
        "the case should outwait the probe interval"
    );
}

/// A straggling rank slows the run down but changes nothing about the
/// result, and nobody is declared dead however long it takes to answer:
/// the second input's delay (over 10 ms, asserted) is many times its 1 ms
/// probe interval.
#[test]
fn stragglers_are_tolerated_without_eviction() {
    let (t11, n11) = lcg_matrices(11, 90, 60, 13);
    let (t150, n150, cfg150) = imbalanced_two_rank_case();
    for (t, n, cfg, spec, params, min_delay_ns) in [
        (
            &t11,
            &n11,
            four_rank_config(),
            "straggler=2@8.0",
            FtParams::fast_test(),
            0,
        ),
        (
            &t150,
            &n150,
            cfg150,
            "straggler=1@12.0",
            IMPATIENT,
            10_000_000,
        ),
    ] {
        let expect = reference(t, n, cfg.max_combinations);
        let obs = Obs::enabled();
        let faults = FaultState::new(FaultPlan::parse(spec, 7).unwrap(), &obs);
        let ft = distributed_discover4_ft(t, n, &cfg, Some(&faults), params, &obs);
        assert_eq!(ft.result.combinations, expect, "{spec}");
        assert_eq!(ft.recovery.dead_ranks, Vec::<usize>::new(), "{spec}");
        assert_eq!(ft.recovery.re_executed_iterations, 0, "{spec}");
        let longest = obs
            .events()
            .iter()
            .filter(|e| e.name == "fault")
            .filter_map(|e| e.u64("delay_ns"))
            .max();
        assert!(longest > Some(min_delay_ns), "{spec}: delayed {longest:?}");
    }
}

/// Zero-fault acceptance: with no plan the metrics stream has exactly the
/// fault-free event shape — per iteration one rank round (a
/// `sched_partition` when the kernels run, then one `rank_exec` per rank)
/// and the `dist_iter` record, the run span last — every `rank_exec`
/// carries the same fields, and there are no fault or recovery points and
/// no FT counters.
#[test]
fn zero_fault_run_has_the_fault_free_event_shape() {
    let (t, n) = lcg_matrices(11, 90, 60, 13);
    let cfg = four_rank_config();
    let obs = Obs::enabled();
    let ft = distributed_discover4_ft(&t, &n, &cfg, None, FtParams::default(), &obs);
    assert_eq!(
        ft.result.combinations,
        reference(&t, &n, cfg.max_combinations)
    );

    let events = obs.events();
    let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    let ranks = vec!["rank_exec"; cfg.shape.nodes];
    let mut rest = names.as_slice();
    for iter in 0..ft.result.iterations.len() {
        // A frontier hit runs no kernels and so partitions nothing;
        // iteration 0 has no frontier to hit.
        if rest[0] == "sched_partition" {
            rest = &rest[1..];
        } else {
            assert!(iter > 0, "iteration 0 must run the kernels");
        }
        assert_eq!(rest[..ranks.len()], ranks[..], "rank round of {iter}");
        rest = &rest[ranks.len()..];
        assert_eq!(rest[0], "dist_iter", "record of {iter}");
        rest = &rest[1..];
    }
    assert_eq!(rest, ["distributed_discover"]);

    for e in events.iter().filter(|e| e.name == "rank_exec") {
        for field in [
            "iter",
            "rank",
            "busy_ns",
            "comm_ns",
            "combos",
            "scored",
            "pruned_combos",
            "pruned_subtrees",
            "steal_blocks",
            "steals",
            "block_sweeps",
        ] {
            assert!(e.u64(field).is_some(), "rank_exec without {field}: {e:?}");
        }
    }
    // What the ranks scored plus what their bound cut is what they audited.
    let audited: u64 = ft
        .result
        .iterations
        .iter()
        .flat_map(|it| &it.combos_per_gpu)
        .sum();
    assert_eq!(
        obs.sum("rank_exec", "scored") + obs.sum("rank_exec", "pruned_combos"),
        audited
    );
    let report = RunReport::from_events(&events);
    assert!(report.recoveries.is_empty() && report.retransmits() == 0);
}

/// The elastic smoke matrix: kill rank R at iteration I, admit a
/// replacement for R at the next iteration barrier, for every (rank,
/// iteration) pair. Every churned run must stay bit-identical to the
/// fault-free reference, and the recovery report must show exactly one
/// death, one join, and one membership epoch.
#[test]
fn kill_then_rejoin_matrix_stays_bit_identical() {
    let (t, n) = lcg_matrices(11, 90, 60, 13);
    let cfg = four_rank_config();
    let expect = reference(&t, &n, cfg.max_combinations);
    assert_eq!(expect.len(), 3, "fixture should run 3 iterations");

    // The join must land at a barrier the run still reaches, so the last
    // kill iteration is len − 2 (its join lands at the final iteration).
    for iter in 0..expect.len() - 1 {
        for rank in 0..cfg.shape.nodes {
            let spec = format!("rank-kill={rank}@{iter}, rank-join={rank}-{}", iter + 1);
            let plan = FaultPlan::parse(&spec, 7).unwrap();
            let obs = Obs::enabled();
            let faults = FaultState::new(plan, &obs);
            let ft =
                distributed_discover4_ft(&t, &n, &cfg, Some(&faults), FtParams::fast_test(), &obs);
            assert_eq!(ft.result.combinations, expect, "{spec}");
            assert_eq!(ft.recovery.dead_ranks, vec![rank], "{spec}");
            assert_eq!(ft.recovery.joined_ranks, vec![rank], "{spec}");
            assert_eq!(ft.recovery.membership_epochs, 1, "{spec}");
            assert_eq!(faults.fired().len(), 2, "{spec}: kill + join must fire");
            let report = RunReport::from_events(&obs.events());
            assert_eq!(report.joined_ranks(), 1, "{spec}");
        }
    }
}

/// A join with no preceding death scales the roster up mid-run — the new
/// rank gets boundary slabs instead of forcing a full re-shard, and the
/// answer is bit-identical with zero re-executed iterations.
#[test]
fn scale_up_join_is_incremental_and_preserves_the_answer() {
    let (t, n) = lcg_matrices(11, 90, 60, 13);
    let cfg = four_rank_config();
    let expect = reference(&t, &n, cfg.max_combinations);
    // Rank id 5 is outside the launch roster 0..4: a genuinely new node.
    let plan = FaultPlan::parse("rank-join=5-1", 7).unwrap();
    let obs = Obs::enabled();
    let faults = FaultState::new(plan, &obs);
    let ft = distributed_discover4_ft(&t, &n, &cfg, Some(&faults), FtParams::fast_test(), &obs);
    assert_eq!(ft.result.combinations, expect);
    assert_eq!(ft.recovery.dead_ranks, Vec::<usize>::new());
    assert_eq!(ft.recovery.joined_ranks, vec![5]);
    assert_eq!(ft.recovery.membership_epochs, 1);
    assert_eq!(
        ft.recovery.re_executed_iterations, 0,
        "a join discards no work"
    );
    let report = RunReport::from_events(&obs.events());
    assert_eq!(report.joined_ranks(), 1);
    assert_eq!(report.membership_epochs(), 1);
    let epoch = &report.memberships[0];
    assert!(
        epoch.moved_area > 0,
        "the joiner must receive boundary slabs: {epoch:?}"
    );
    assert!(
        epoch.incremental,
        "a clean join must not degrade to a re-shard: {epoch:?}"
    );
}

/// Per-iteration `frontier_hit` flags of a run's `dist_iter` points.
fn frontier_hits(obs: &Obs) -> Vec<u64> {
    obs.events()
        .iter()
        .filter(|e| e.name == "dist_iter")
        .map(|e| {
            e.u64("frontier_hit")
                .expect("dist_iter carries frontier_hit")
        })
        .collect()
}

/// The frontier is the global top-K, not a per-rank holding: a join moves
/// boundary slabs and leaves it alone, so every iteration hits or misses
/// exactly where the fault-free run does, and the panel is the reference.
#[test]
fn join_leaves_the_frontier_hits_of_the_fault_free_run() {
    let (t, n) = lcg_matrices(11, 90, 60, 13);
    let cfg = four_rank_config();
    assert!(cfg.frontier_k > 0, "frontier should default on");
    let expect = reference(&t, &n, cfg.max_combinations);
    let clean = Obs::enabled();
    let _ = distributed_discover4_ft(&t, &n, &cfg, None, FtParams::fast_test(), &clean);
    let clean_hits = frontier_hits(&clean);
    assert_eq!(clean_hits.len(), expect.len());
    for (spec, join_iter) in [("rank-join=4-1", 1), ("rank-join=4-2", 2)] {
        assert!(
            clean_hits[join_iter..].contains(&1),
            "{spec}: the fixture should hit the frontier after the join"
        );
        let obs = Obs::enabled();
        let faults = FaultState::new(FaultPlan::parse(spec, 7).unwrap(), &obs);
        let ft = distributed_discover4_ft(&t, &n, &cfg, Some(&faults), FtParams::fast_test(), &obs);
        assert_eq!(ft.result.combinations, expect, "{spec}");
        assert_eq!(ft.recovery.joined_ranks, vec![4], "{spec}");
        assert_eq!(frontier_hits(&obs), clean_hits, "{spec}");
        let report = RunReport::from_events(&obs.events());
        assert!(report.memberships[0].incremental, "{spec}");
    }
}

/// A kill and a join of the same rank at the same barrier: the join is
/// admitted first (the rank is still alive, so it is a no-op) and the kill
/// then fires — the run degrades to plain survivor-shrink recovery.
#[test]
fn same_barrier_kill_and_join_is_a_noop_join() {
    let (t, n) = lcg_matrices(11, 90, 60, 13);
    let cfg = four_rank_config();
    let expect = reference(&t, &n, cfg.max_combinations);
    let plan = FaultPlan::parse("rank-kill=2@1, rank-join=2-1", 7).unwrap();
    let faults = FaultState::new(plan, &Obs::disabled());
    let ft = distributed_discover4_ft(
        &t,
        &n,
        &cfg,
        Some(&faults),
        FtParams::fast_test(),
        &Obs::disabled(),
    );
    assert_eq!(ft.result.combinations, expect);
    assert_eq!(ft.recovery.dead_ranks, vec![2]);
    assert_eq!(ft.recovery.joined_ranks, Vec::<usize>::new());
    assert_eq!(ft.recovery.membership_epochs, 0);
    assert_eq!(faults.fired().len(), 2, "both specs still fire");
}

/// Joins compose with every other fault class in one plan: a death, a
/// fresh-node join, a straggler, and a dropped frame together still
/// produce the reference answer.
#[test]
fn joins_compose_with_kills_stragglers_and_drops() {
    let (t, n) = lcg_matrices(11, 90, 60, 13);
    let cfg = four_rank_config();
    let expect = reference(&t, &n, cfg.max_combinations);
    let plan = FaultPlan::parse(
        "rank-kill=3@0, rank-join=4-1, straggler=1@4.0, msg-drop=0-1",
        7,
    )
    .unwrap();
    let faults = FaultState::new(plan, &Obs::disabled());
    let ft = distributed_discover4_ft(
        &t,
        &n,
        &cfg,
        Some(&faults),
        FtParams::fast_test(),
        &Obs::disabled(),
    );
    assert_eq!(ft.result.combinations, expect);
    assert_eq!(ft.recovery.dead_ranks, vec![3]);
    assert_eq!(ft.recovery.joined_ranks, vec![4]);
    assert_eq!(ft.recovery.membership_epochs, 1);
}

/// The killed-rank path also survives under the equi-distance scheduler
/// (the recovery re-partitions with whatever scheduler the run was
/// configured with).
#[test]
fn recovery_works_under_equi_distance_scheduling() {
    let (t, n) = lcg_matrices(11, 90, 60, 13);
    let cfg = DistributedConfig {
        scheduler: SchedulerKind::EquiDistance,
        ..four_rank_config()
    };
    let expect = reference(&t, &n, cfg.max_combinations);
    let plan = FaultPlan::parse("rank-kill=2@1", 7).unwrap();
    let faults = FaultState::new(plan, &Obs::disabled());
    let ft = distributed_discover4_ft(
        &t,
        &n,
        &cfg,
        Some(&faults),
        FtParams::fast_test(),
        &Obs::disabled(),
    );
    assert_eq!(ft.result.combinations, expect);
    assert_eq!(ft.recovery.dead_ranks, vec![2]);
}
