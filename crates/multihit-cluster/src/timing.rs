//! Scaling-efficiency arithmetic and runtime projections (§IV-A, Fig 4,
//! and the introduction's single-CPU / single-GPU estimates).

use crate::driver::{model_run, ModelConfig};

/// Strong scaling efficiency of `(nodes, time)` against a baseline
/// `(base_nodes, base_time)`: `ideal/actual = base_time·base_nodes /
/// (time·nodes)`.
#[must_use]
fn strong_efficiency(base_nodes: usize, base_time: f64, nodes: usize, time: f64) -> f64 {
    (base_time * base_nodes as f64) / (time * nodes as f64)
}

/// Weak scaling efficiency: fixed per-processor workload, so ideal time is
/// constant — `base_time / time`.
#[must_use]
fn weak_efficiency(base_time: f64, time: f64) -> f64 {
    base_time / time
}

/// One point of a strong-scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// Node count.
    pub nodes: usize,
    /// Modeled run time, seconds.
    pub time_s: f64,
    /// Efficiency vs the sweep's baseline.
    pub efficiency: f64,
}

/// Run a strong-scaling sweep of the modeled BRCA run over `node_counts`
/// (the first entry is the baseline, the paper uses 100 nodes).
#[must_use]
pub fn strong_scaling_sweep(
    make: impl Fn(usize) -> ModelConfig,
    node_counts: &[usize],
) -> Vec<ScalingPoint> {
    assert!(!node_counts.is_empty());
    let base_nodes = node_counts[0];
    let base_time = model_run(&make(base_nodes)).total_s;
    node_counts
        .iter()
        .map(|&nodes| {
            let time_s = if nodes == base_nodes {
                base_time
            } else {
                model_run(&make(nodes)).total_s
            };
            ScalingPoint {
                nodes,
                time_s,
                efficiency: strong_efficiency(base_nodes, base_time, nodes, time_s),
            }
        })
        .collect()
}

/// Aggregate efficiency over the non-baseline points (the paper's "average
/// strong scaling efficiency of 90.14% for 200–1000 nodes").
#[must_use]
pub fn average_efficiency(points: &[ScalingPoint]) -> f64 {
    let tail = &points[1..];
    if tail.is_empty() {
        return 1.0;
    }
    tail.iter().map(|p| p.efficiency).sum::<f64>() / tail.len() as f64
}

/// Run a weak-scaling sweep (§IV-A, Fig 4b): fixed workload **per GPU**,
/// limited to the first iteration exactly as the paper does (later
/// iterations produce node-count-dependent workloads).
///
/// The per-GPU workload is fixed at the largest configuration's equi-area
/// share: the λ-range is EA-partitioned for `max(node_counts)` nodes, and a
/// run at `P` nodes processes the first `P·gpus_per_node` partitions. Ideal
/// time is therefore constant; efficiency = base time / time.
#[must_use]
pub fn weak_scaling_sweep(
    make: impl Fn(usize) -> ModelConfig,
    node_counts: &[usize],
) -> Vec<ScalingPoint> {
    use multihit_gpusim::counters::apply_jitter;
    use multihit_gpusim::profile::{kernel_levels4, prefetch_depth4, profile_partitions};
    use multihit_gpusim::CostModel;

    assert!(!node_counts.is_empty());
    let max_nodes = *node_counts.iter().max().unwrap();
    let cfg = make(max_nodes);
    let total_gpus = cfg.shape.total_gpus();
    let parts = cfg.scheduler.partitions(cfg.scheme, cfg.g, total_gpus);
    let levels = kernel_levels4(cfg.scheme, cfg.g);
    let w = u64::from(cfg.n_tumor.div_ceil(64)) + u64::from(cfg.n_normal.div_ceil(64));
    let mid = matches!(
        cfg.scheme,
        multihit_core::schemes::Scheme4::TwoXTwo | multihit_core::schemes::Scheme4::OneXThree
    );
    let bounds: Vec<(u64, u64)> = parts.iter().map(|p| (p.lo, p.hi)).collect();
    let model = CostModel::new(cfg.node.gpu.clone());
    let all_costs: Vec<_> =
        profile_partitions(&levels, &bounds, w, prefetch_depth4(cfg.scheme), mid)
            .iter()
            .map(|pr| model.evaluate(pr))
            .collect();
    let all_costs = if cfg.jitter > 0.0 {
        apply_jitter(&all_costs, cfg.jitter, cfg.seed)
    } else {
        all_costs
    };

    let time_at = |nodes: usize| -> f64 {
        let gpus = nodes * cfg.shape.gpus_per_node;
        let comp = all_costs[..gpus]
            .iter()
            .map(|c| c.time_s)
            .fold(0.0f64, f64::max);
        comp + cfg.comm.reduce(32, nodes) + cfg.comm.broadcast(32, nodes)
    };
    let base_time = time_at(node_counts[0]);
    node_counts
        .iter()
        .map(|&nodes| {
            let time_s = time_at(nodes);
            ScalingPoint {
                nodes,
                time_s,
                efficiency: weak_efficiency(base_time, time_s),
            }
        })
        .collect()
}

/// Projections of the intro's runtime anecdotes from the cost model:
/// single-GPU and single-CPU full-scan estimates.
#[derive(Clone, Copy, Debug)]
pub struct Projections {
    /// Modeled single-GPU time for the full first iteration, seconds.
    pub single_gpu_s: f64,
    /// Estimated single-CPU-core time, seconds (ops / CPU throughput).
    pub single_cpu_s: f64,
    /// Modeled cluster time for the same iteration, seconds.
    pub cluster_s: f64,
    /// Speedup of the cluster over one GPU.
    pub cluster_speedup: f64,
}

/// Project single-device runtimes for the first iteration of a config.
/// `cpu_ops_per_s` is the scalar-core op throughput (defaults in callers to
/// ~5 GHz-equivalent ops/s for a Power9-class core).
#[must_use]
pub fn project(cfg: &ModelConfig, cpu_ops_per_s: f64) -> Projections {
    let mut one = cfg.clone();
    one.coverage = vec![1.0];
    let cluster = model_run(&one);
    let mut single = one.clone();
    single.shape = crate::topology::ClusterShape {
        nodes: 1,
        gpus_per_node: 1,
    };
    single.jitter = 0.0;
    let single_run = model_run(&single);
    // CPU estimate: the same op count executed by one scalar core.
    let wt = u64::from(cfg.n_tumor.div_ceil(64));
    let wn = u64::from(cfg.n_normal.div_ceil(64));
    let p = multihit_gpusim::profile::profile_range4(
        cfg.scheme,
        cfg.g,
        wt + wn,
        0,
        cfg.scheme.thread_count(cfg.g),
    );
    let single_cpu_s = p.ops as f64 / cpu_ops_per_s;
    Projections {
        single_gpu_s: single_run.total_s,
        single_cpu_s,
        cluster_s: cluster.total_s,
        cluster_speedup: single_run.total_s / cluster.total_s,
    }
}

// ---------------------------------------------------------------------------
// Failure modeling: MTBF, optimal checkpoint interval, expected overhead.
// ---------------------------------------------------------------------------

/// MTBF-driven failure model for a production allocation: what failures
/// cost, and what checkpointing to survive them costs.
#[derive(Clone, Copy, Debug)]
pub struct FailureModel {
    /// Mean time between failures of one node, seconds.
    pub node_mtbf_s: f64,
    /// Wall time of one checkpoint write, seconds (the checkpoint is tiny —
    /// tens of bytes per iteration — so this is dominated by filesystem
    /// latency, not bandwidth).
    pub ckpt_write_s: f64,
    /// Restart latency after a failure (failure detection, respawn,
    /// checkpoint read, re-partitioning), seconds.
    pub recovery_s: f64,
}

impl FailureModel {
    /// Summit-like defaults: node MTBF ≈ 46 days (a 1000-node job then sees
    /// a failure every ~66 minutes), 1 s checkpoint writes (parallel
    /// filesystem latency), 2 min restart.
    #[must_use]
    pub fn summit_like() -> Self {
        FailureModel {
            node_mtbf_s: 4.0e6,
            ckpt_write_s: 1.0,
            recovery_s: 120.0,
        }
    }

    /// System MTBF of a `nodes`-node allocation (failures are independent,
    /// so rates add).
    #[must_use]
    pub fn system_mtbf_s(&self, nodes: usize) -> f64 {
        self.node_mtbf_s / nodes.max(1) as f64
    }

    /// Young's optimal checkpoint interval: `√(2 · ckpt_cost · MTBF_sys)`.
    #[must_use]
    pub fn young_interval_s(&self, nodes: usize) -> f64 {
        (2.0 * self.ckpt_write_s * self.system_mtbf_s(nodes)).sqrt()
    }

    /// Expected cost of running `run_s` of useful work on `nodes` nodes
    /// while checkpointing every `interval_s`.
    #[must_use]
    pub fn expected_overhead(&self, nodes: usize, run_s: f64, interval_s: f64) -> FailureOverhead {
        let mtbf = self.system_mtbf_s(nodes);
        let expected_failures = run_s / mtbf;
        let ckpt_cost_s = (run_s / interval_s) * self.ckpt_write_s;
        // Each failure loses, on average, half a checkpoint interval of
        // work plus the restart latency.
        let rework_s = expected_failures * (interval_s / 2.0);
        let restart_s = expected_failures * self.recovery_s;
        let total_overhead_s = ckpt_cost_s + rework_s + restart_s;
        FailureOverhead {
            interval_s,
            expected_failures,
            ckpt_cost_s,
            rework_s,
            restart_s,
            total_overhead_s,
            overhead_fraction: total_overhead_s / run_s,
        }
    }
}

/// Expected checkpoint-and-failure overhead of a run
/// ([`FailureModel::expected_overhead`]).
#[derive(Clone, Copy, Debug)]
pub struct FailureOverhead {
    /// Checkpoint interval assessed, seconds.
    pub interval_s: f64,
    /// Expected failure count over the run.
    pub expected_failures: f64,
    /// Time spent writing checkpoints, seconds.
    pub ckpt_cost_s: f64,
    /// Expected re-executed work, seconds.
    pub rework_s: f64,
    /// Expected restart latency, seconds.
    pub restart_s: f64,
    /// Sum of the above, seconds.
    pub total_overhead_s: f64,
    /// Overhead as a fraction of the useful run time.
    pub overhead_fraction: f64,
}

// ---------------------------------------------------------------------------
// Churn modeling: what a failure actually bills under three recovery
// policies — abort (restart from scratch), survivor-shrink (the pre-elastic
// driver: re-shard over the survivors and finish degraded), and
// elastic-replace (admit a replacement rank at the next iteration barrier
// and move boundary slabs to it).
// ---------------------------------------------------------------------------

/// Costs specific to elastic recovery, layered on a [`FailureModel`].
#[derive(Clone, Copy, Debug)]
pub struct ChurnParams {
    /// Base failure model (MTBF, checkpoint write, detect-and-restart).
    pub model: FailureModel,
    /// Time to provision a replacement node and run the JOIN epoch
    /// agreement, seconds. Cheaper than a full restart because the
    /// survivors keep running state in memory.
    pub replace_s: f64,
    /// Time to move boundary slabs to the joiner, seconds. Slab moves are
    /// O(1) metadata, so this is latency-dominated.
    pub rebalance_s: f64,
}

impl ChurnParams {
    /// Summit-like defaults: spare-pool node replacement in ~90 s (no cold
    /// scheduler round-trip), slab moves in ~10 s.
    #[must_use]
    pub fn summit_like() -> Self {
        ChurnParams {
            model: FailureModel::summit_like(),
            replace_s: 90.0,
            rebalance_s: 10.0,
        }
    }
}

/// Modeled recovery bill of one run under churn, per policy. All arms see
/// the same failure process; they differ only in what each failure costs.
#[derive(Clone, Copy, Debug)]
pub struct ChurnBill {
    /// Node count of the allocation.
    pub nodes: usize,
    /// GPU count (`nodes × gpus_per_node`).
    pub gpus: usize,
    /// Fault-free useful run time at full capacity, seconds.
    pub run_s: f64,
    /// Expected failures over the elastic-arm makespan.
    pub expected_failures: f64,
    /// Makespan when any failure aborts the job and it restarts from
    /// scratch (no checkpointing), seconds.
    pub abort_s: f64,
    /// Makespan when failures shrink the roster: checkpointed, but the
    /// remaining work runs on fewer GPUs after every loss, seconds.
    pub shrink_s: f64,
    /// Makespan with elastic replacement: checkpointed, capacity restored
    /// after `replace_s + rebalance_s` per failure, seconds.
    pub elastic_s: f64,
}

impl ChurnBill {
    /// Overhead of an arm as a fraction of the fault-free run time.
    #[must_use]
    pub fn overhead_fraction(&self, makespan_s: f64) -> f64 {
        (makespan_s - self.run_s) / self.run_s
    }
}

/// Price one run of `run_s` useful seconds on `nodes` nodes (`gpus` total
/// GPUs) under MTBF-driven churn, for all three recovery policies.
#[must_use]
fn churn_bill(params: &ChurnParams, nodes: usize, gpus: usize, run_s: f64) -> ChurnBill {
    let fm = &params.model;
    let mtbf = fm.system_mtbf_s(nodes);
    let interval = fm.young_interval_s(nodes);
    // Checkpoint writes stretch every wall second of useful work.
    let ckpt_factor = 1.0 + fm.ckpt_write_s / interval;

    // Abort: memoryless failures, restart from scratch. The classic
    // expected completion time E[T] = (M + r)·(e^{run/M} − 1) where M is
    // the system MTBF and r the restart latency.
    let abort_s = (mtbf + fm.recovery_s) * ((run_s / mtbf).exp() - 1.0);

    // Elastic-replace: every failure bills detection + replacement +
    // rebalance + half a checkpoint interval of rework, and full capacity
    // returns. In expectation, each wall second loses a `per_failure/MTBF`
    // fraction to recovery, so T = run·ckpt_factor / (1 − per_failure/M).
    let per_failure_elastic = params.replace_s + params.rebalance_s + interval / 2.0;
    let elastic_s = if per_failure_elastic < mtbf {
        run_s * ckpt_factor / (1.0 - per_failure_elastic / mtbf)
    } else {
        f64::INFINITY
    };

    // Survivor-shrink: same expected-failure process, but lost nodes are
    // never replaced, so the roster decays as e^{−t/MTBF_node} and the
    // remaining work runs ever slower. Integrate the useful-work rate
    // until `run_s` full-capacity seconds have accumulated. Per-failure
    // the arm bills the full detect-and-re-shard latency plus the same
    // half-interval rework as the elastic arm.
    let per_failure_shrink = fm.recovery_s + interval / 2.0;
    let dt = mtbf / 64.0;
    let mut shrink_s = f64::INFINITY;
    let mut t = 0.0_f64;
    let mut done = 0.0_f64;
    while t < 50.0 * fm.node_mtbf_s {
        let alive_frac = (-t / fm.node_mtbf_s).exp();
        let fail_rate = nodes as f64 * alive_frac / fm.node_mtbf_s;
        let rate = (alive_frac / ckpt_factor) * (1.0 - fail_rate * per_failure_shrink).max(0.0);
        if rate <= 0.0 {
            break; // recovery eats every wall second: never finishes
        }
        if done + rate * dt >= run_s {
            shrink_s = t + (run_s - done) / rate;
            break;
        }
        done += rate * dt;
        t += dt;
    }

    ChurnBill {
        nodes,
        gpus,
        run_s,
        expected_failures: elastic_s / mtbf,
        abort_s,
        shrink_s,
        elastic_s,
    }
}

/// The paper-scale churn sweep: price the modeled run at each node count
/// under MTBF-driven churn (the largest entry should reach the paper's
/// 1000 nodes / 6000 GPUs). Returns one [`ChurnBill`] per node count.
#[must_use]
pub fn churn_sweep(
    make: impl Fn(usize) -> ModelConfig,
    params: &ChurnParams,
    node_counts: &[usize],
) -> Vec<ChurnBill> {
    node_counts
        .iter()
        .map(|&nodes| {
            let cfg = make(nodes);
            let gpus = cfg.shape.total_gpus();
            let run_s = model_run(&cfg).total_s;
            churn_bill(params, nodes, gpus, run_s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_model_shapes() {
        let fm = FailureModel::summit_like();
        // Rates add: 1000 nodes fail 1000× as often as one.
        assert!((fm.system_mtbf_s(1000) - fm.node_mtbf_s / 1000.0).abs() < 1e-9);
        // Young's interval shrinks with the square root of the node count.
        let i100 = fm.young_interval_s(100);
        let i400 = fm.young_interval_s(400);
        assert!((i100 / i400 - 2.0).abs() < 1e-9);
        // At the optimal interval the checkpoint cost ≈ the rework cost.
        let run_s = 86_400.0;
        let ov = fm.expected_overhead(1000, run_s, fm.young_interval_s(1000));
        assert!((ov.ckpt_cost_s / ov.rework_s - 1.0).abs() < 1e-9);
        // …and any other interval is worse (checking a coarse grid).
        for scale in [0.25, 0.5, 2.0, 4.0] {
            let other = fm.expected_overhead(1000, run_s, fm.young_interval_s(1000) * scale);
            assert!(
                other.ckpt_cost_s + other.rework_s > ov.ckpt_cost_s + ov.rework_s,
                "interval ×{scale} should cost more"
            );
        }
        // Summit-scale multi-day run: failures are certain, overhead small.
        assert!(ov.expected_failures > 10.0);
        assert!(ov.overhead_fraction > 0.0 && ov.overhead_fraction < 0.2);
    }

    #[test]
    fn churn_orders_the_arms_at_six_thousand_gpus() {
        // The ISSUE's acceptance bar: at 1000 nodes / 6000 GPUs under
        // MTBF-driven churn, elastic-replace < survivor-shrink < abort.
        let params = ChurnParams::summit_like();
        let bills = churn_sweep(ModelConfig::brca, &params, &[100, 200, 500, 1000]);
        let top = bills.last().unwrap();
        assert_eq!(top.nodes, 1000);
        assert_eq!(top.gpus, 6000, "paper scale is 6000 V100s");
        assert!(
            top.elastic_s < top.shrink_s && top.shrink_s < top.abort_s,
            "elastic {} < shrink {} < abort {}",
            top.elastic_s,
            top.shrink_s,
            top.abort_s
        );
        // The modeled ~26-minute run against a ~67-minute system MTBF sees
        // a substantial fractional expected failure; a day-long campaign at
        // the same scale sees dozens, and the ordering is preserved.
        assert!(top.expected_failures > 0.3, "{}", top.expected_failures);
        let day = churn_bill(&params, 1000, 6000, 86_400.0);
        assert!(day.expected_failures > 10.0, "{}", day.expected_failures);
        assert!(
            day.elastic_s < day.shrink_s && day.shrink_s < day.abort_s,
            "{day:?}"
        );
        let elastic_ov = top.overhead_fraction(top.elastic_s);
        assert!(
            elastic_ov > 0.0 && elastic_ov < 0.15,
            "elastic overhead {elastic_ov}"
        );
        // The ordering holds at every swept scale, and every makespan is
        // at least the fault-free run.
        for b in &bills {
            assert!(
                b.elastic_s <= b.shrink_s && b.shrink_s <= b.abort_s,
                "{b:?}"
            );
            assert!(b.elastic_s >= b.run_s, "{b:?}");
        }
        // The abort penalty explodes with scale; elastic degrades gently.
        let low = &bills[0];
        assert!(
            top.overhead_fraction(top.abort_s) > low.overhead_fraction(low.abort_s),
            "abort bill should grow with node count"
        );
    }

    #[test]
    fn churn_bill_edge_cases() {
        let params = ChurnParams::summit_like();
        // A run far shorter than the system MTBF: every arm degenerates to
        // (nearly) the checkpointed fault-free time.
        let b = churn_bill(&params, 10, 60, 100.0);
        let interval = params.model.young_interval_s(10);
        let expect = 100.0 * (1.0 + params.model.ckpt_write_s / interval);
        assert!(
            b.shrink_s >= expect && b.shrink_s < expect * 1.01,
            "{b:?} vs {expect}"
        );
        assert!(b.elastic_s.is_finite() && b.abort_s.is_finite());
        // Replacement latency beyond the system MTBF means elastic can
        // never catch up: the model reports an unbounded makespan rather
        // than a nonsense negative one.
        let mut slow = params;
        slow.replace_s = params.model.system_mtbf_s(1000) + 1.0;
        assert!(churn_bill(&slow, 1000, 6000, 1e4).elastic_s.is_infinite());
    }

    #[test]
    fn efficiency_formulas() {
        assert!((strong_efficiency(100, 1000.0, 1000, 100.0) - 1.0).abs() < 1e-12);
        assert!((strong_efficiency(100, 1000.0, 1000, 200.0) - 0.5).abs() < 1e-12);
        assert!((weak_efficiency(10.0, 12.5) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn strong_scaling_sweep_brca_shape() {
        // Fig 4a: efficiency stays high but degrades as nodes grow; the
        // paper reports 80.96–97.96% over 200–1000 nodes (avg 90.14%) and
        // 84.18% at 1000. Assert the band, not the exact figures.
        let pts = strong_scaling_sweep(ModelConfig::brca, &[100, 200, 500, 1000]);
        assert!((pts[0].efficiency - 1.0).abs() < 1e-9);
        for p in &pts[1..] {
            assert!(
                p.efficiency > 0.70 && p.efficiency <= 1.02,
                "{} nodes: {}",
                p.nodes,
                p.efficiency
            );
        }
        // Efficiency at 1000 nodes is lower than at 200 nodes.
        assert!(pts.last().unwrap().efficiency < pts[1].efficiency);
        let avg = average_efficiency(&pts);
        assert!(avg > 0.75 && avg < 1.0, "avg {avg}");
    }

    #[test]
    fn runtime_decreases_with_nodes() {
        let pts = strong_scaling_sweep(ModelConfig::brca, &[100, 500, 1000]);
        assert!(pts[1].time_s < pts[0].time_s);
        assert!(pts[2].time_s < pts[1].time_s);
    }

    #[test]
    fn weak_scaling_brca_shape() {
        // Fig 4b: 90% weak efficiency at 500 nodes, 94.6% average over
        // 200–500. Assert the band.
        let pts = weak_scaling_sweep(ModelConfig::brca, &[100, 200, 300, 400, 500]);
        assert!((pts[0].efficiency - 1.0).abs() < 1e-9);
        for p in &pts[1..] {
            assert!(
                p.efficiency > 0.75 && p.efficiency <= 1.05,
                "{} nodes: {}",
                p.nodes,
                p.efficiency
            );
        }
    }

    #[test]
    fn projections_reproduce_intro_magnitudes() {
        // Intro: 4-hit on one GPU ≈ 40+ days; 6000 GPUs ⇒ ~7192× speedup.
        let cfg = ModelConfig::brca(1000);
        // Effective scalar-core word-op throughput chosen to match the
        // paper's *measured* 3-hit CPU/GPU gap (13860 min vs 23 min ≈ 600×):
        // one Power9-class core sustains ~3·10⁸ AND+popcount word-ops/s on
        // this access pattern.
        let p = project(&cfg, 3.0e8);
        assert!(
            p.single_gpu_s > 10.0 * 86400.0,
            "single GPU {} days",
            p.single_gpu_s / 86400.0
        );
        // CPU ≫ GPU (paper: 500+ years vs 40+ days ⇒ ≳400×).
        assert!(p.single_cpu_s > 50.0 * p.single_gpu_s);
        // Cluster speedup within the right order of magnitude.
        assert!(
            p.cluster_speedup > 2000.0 && p.cluster_speedup < 20000.0,
            "speedup {}",
            p.cluster_speedup
        );
    }
}
