//! The modeled half of the cluster: paper-scale runs priced instead of
//! executed (§IV, Figs 4 and 6–8, the ED-vs-EA table), and the arithmetic
//! built on them.
//!
//! * [`model_run`] prices the functional driver's schedule — the same
//!   scheduler partitions, one reduce and one broadcast per iteration — with
//!   the gpusim cost model and the α–β [`CommModel`], at paper scale
//!   (`G = 19411`, 6000 GPUs) where execution would take 6000 GPU-days.
//!   [`timeline_run_obs`] replays it through the discrete-event simulator
//!   and [`model_run_faulty`] prices MTBF-driven failures into it.
//! * The strong and weak scaling sweeps (Fig 4), the introduction's
//!   single-CPU / single-GPU projections, and the closed-form failure and
//!   churn models.

use crate::des::{self, Timeline};
use crate::driver::SchedulerKind;
use crate::sched::{partitions_to_ranges, Partition};
use crate::topology::ClusterShape;
use multihit_core::obs::Obs;
use multihit_core::schemes::Scheme4;
use multihit_gpusim::counters::{apply_jitter, record_run_metrics, run_metrics};
use multihit_gpusim::device::NodeSpec;
use multihit_gpusim::profile::{kernel_levels4, prefetch_depth4, profile_partitions};
use multihit_gpusim::{CostModel, GpuCost};

/// α–β cost model for the modeled cluster (latency + inverse bandwidth).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommModel {
    /// Per-message latency, seconds (α).
    pub latency_s: f64,
    /// Per-byte transfer time, seconds (β = 1/bandwidth).
    pub per_byte_s: f64,
}

impl CommModel {
    /// Summit-like fat-tree interconnect: ~2 µs MPI latency, ~23 GB/s
    /// effective per-link bandwidth.
    #[must_use]
    pub fn summit() -> Self {
        CommModel {
            latency_s: 2.0e-6,
            per_byte_s: 1.0 / 23.0e9,
        }
    }

    /// Time for one point-to-point message of `bytes`.
    #[must_use]
    pub fn p2p(&self, bytes: u64) -> f64 {
        self.latency_s + self.per_byte_s * bytes as f64
    }

    /// Binomial-tree reduce of a `bytes`-sized record across `ranks`:
    /// `ceil(log₂ ranks)` sequential rounds.
    #[must_use]
    pub fn reduce(&self, bytes: u64, ranks: usize) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let rounds = usize::BITS - (ranks - 1).leading_zeros();
        f64::from(rounds) * self.p2p(bytes)
    }

    /// Broadcast cost (same tree shape as reduce).
    #[must_use]
    pub fn broadcast(&self, bytes: u64, ranks: usize) -> f64 {
        self.reduce(bytes, ranks)
    }
}

/// Configuration of a modeled paper-scale run.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Cluster allocation.
    pub shape: ClusterShape,
    /// Parallelization scheme.
    pub scheme: Scheme4,
    /// λ-range scheduler.
    pub scheduler: SchedulerKind,
    /// Gene universe size.
    pub g: u32,
    /// Tumor samples (drives word counts and BitSplicing shrinkage).
    pub n_tumor: u32,
    /// Normal samples.
    pub n_normal: u32,
    /// Node hardware.
    pub node: NodeSpec,
    /// Interconnect model.
    pub comm: CommModel,
    /// Node-to-node performance jitter amplitude (0 disables).
    pub jitter: f64,
    /// Jitter seed.
    pub seed: u64,
    /// Fraction of tumor samples still uncovered at the start of each
    /// iteration (first entry normally 1.0); its length is the iteration
    /// count. See [`coverage_profile`].
    pub coverage: Vec<f64>,
}

impl ModelConfig {
    /// The BRCA production configuration on `nodes` Summit nodes.
    #[must_use]
    pub fn brca(nodes: usize) -> Self {
        ModelConfig {
            shape: ClusterShape::summit(nodes),
            scheme: Scheme4::ThreeXOne,
            scheduler: SchedulerKind::EquiArea,
            g: 19411,
            n_tumor: 911,
            n_normal: 329,
            node: NodeSpec::summit(),
            comm: CommModel::summit(),
            jitter: 0.03,
            seed: 2021,
            coverage: coverage_profile(911, 0.55),
        }
    }

    /// The ACC configuration (smallest dataset; Fig 6's subject).
    #[must_use]
    pub fn acc(nodes: usize) -> Self {
        ModelConfig {
            g: 8354,
            n_tumor: 77,
            n_normal: 329,
            coverage: coverage_profile(77, 0.55),
            ..ModelConfig::brca(nodes)
        }
    }
}

/// Geometric coverage decay: iteration `i` starts with `ratio^i` of the
/// tumor samples uncovered; stops when fewer than one sample remains.
/// `ratio` is the fraction *not* covered by each winning combination.
#[must_use]
pub fn coverage_profile(n_tumor: u32, ratio: f64) -> Vec<f64> {
    assert!((0.0..1.0).contains(&ratio), "ratio must be in [0,1)");
    let mut v = Vec::new();
    let mut frac = 1.0f64;
    while frac * f64::from(n_tumor) >= 1.0 {
        v.push(frac);
        frac *= ratio;
    }
    if v.is_empty() {
        v.push(1.0);
    }
    v
}

/// Modeled cost of one iteration.
#[derive(Clone, Debug)]
pub struct ModeledIteration {
    /// Per-GPU launch costs (jittered), in global GPU order.
    pub per_gpu: Vec<GpuCost>,
    /// Per-rank computation time (max of its GPUs).
    pub per_rank_comp: Vec<f64>,
    /// Communication time of the reduce+broadcast pair.
    pub comm_s: f64,
    /// Iteration wall time: straggler rank + communication.
    pub time_s: f64,
}

/// Modeled cost of a whole run.
#[derive(Clone, Debug)]
pub struct ModeledRun {
    /// Iterations in order.
    pub iterations: Vec<ModeledIteration>,
    /// End-to-end wall time.
    pub total_s: f64,
}

/// Convert a duration in seconds to nanoseconds, saturating at the `u64`
/// range. Durations must be well-formed: debug builds assert against NaN
/// and (beyond float round-off) negative inputs instead of silently mapping
/// them to 0; release builds saturate (NaN/negative → 0, +∞ → `u64::MAX`).
fn secs_to_ns(s: f64) -> u64 {
    debug_assert!(!s.is_nan(), "NaN duration");
    debug_assert!(s >= -1e-9, "negative duration: {s}");
    if s.is_nan() || s <= 0.0 {
        return 0;
    }
    let ns = (s * 1e9).round();
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns as u64
    }
}

/// Price one iteration's GPUs, in global GPU order: profile each
/// partition's λ-range over a matrix with `remaining` tumor samples left,
/// evaluate every profile under the cost model, then jitter with `seed`.
fn price_gpus(cfg: &ModelConfig, parts: &[Partition], remaining: u32, seed: u64) -> Vec<GpuCost> {
    let w = u64::from(remaining.div_ceil(64).max(1)) + u64::from(cfg.n_normal.div_ceil(64));
    let mid = matches!(cfg.scheme, Scheme4::TwoXTwo | Scheme4::OneXThree);
    let levels = kernel_levels4(cfg.scheme, cfg.g);
    let bounds = partitions_to_ranges(parts);
    let model = CostModel::new(cfg.node.gpu.clone());
    let costs: Vec<GpuCost> =
        profile_partitions(&levels, &bounds, w, prefetch_depth4(cfg.scheme), mid)
            .iter()
            .map(|pr| model.evaluate(pr))
            .collect();
    if cfg.jitter > 0.0 {
        apply_jitter(&costs, cfg.jitter, seed)
    } else {
        costs
    }
}

/// Price a full run under the cost models. `O(iterations × gpus × G)`.
#[must_use]
pub fn model_run(cfg: &ModelConfig) -> ModeledRun {
    model_run_obs(cfg, &Obs::disabled())
}

/// [`model_run`] with observability: scheduler timing (`sched_partition`),
/// one `model_iter` point per iteration (modeled compute/comm/wall
/// nanoseconds), and — for the first iteration, where the matrix is whole —
/// the full per-GPU NVPROF-style profile via
/// [`multihit_gpusim::counters::record_run_metrics`]. Modeled times are
/// emitted in nanoseconds so the stream is unit-uniform with measured spans.
#[must_use]
pub fn model_run_obs(cfg: &ModelConfig, obs: &Obs) -> ModeledRun {
    let _run_span = obs.span("model_run");
    let parts = cfg
        .scheduler
        .partitions_obs(cfg.scheme, cfg.g, cfg.shape.total_gpus(), obs);

    let mut iterations = Vec::with_capacity(cfg.coverage.len());
    let mut total_s = 0.0;
    for (it_idx, frac) in cfg.coverage.iter().enumerate() {
        // BitSplicing: the tumor matrix shrinks with coverage.
        let remaining = (f64::from(cfg.n_tumor) * frac).ceil() as u32;
        let costs = price_gpus(cfg, &parts, remaining, cfg.seed.wrapping_add(it_idx as u64));
        // GPUs of a node run concurrently; the rank waits on its slowest.
        let per_rank_comp: Vec<f64> = (0..cfg.shape.nodes)
            .map(|r| {
                cfg.shape
                    .gpus_of_rank(r)
                    .map(|gi| costs[gi].time_s)
                    .fold(0.0f64, f64::max)
            })
            .collect();
        let comp = per_rank_comp.iter().copied().fold(0.0f64, f64::max);
        let comm_s = cfg.comm.reduce(32, cfg.shape.nodes) + cfg.comm.broadcast(32, cfg.shape.nodes);
        let time_s = comp + comm_s;
        total_s += time_s;
        if obs.is_enabled() {
            obs.point(
                "model_iter",
                &[
                    ("iter", it_idx.into()),
                    ("remaining", u64::from(remaining).into()),
                    ("comp_ns", secs_to_ns(comp).into()),
                    ("comm_ns", secs_to_ns(comm_s).into()),
                    ("time_ns", secs_to_ns(time_s).into()),
                ],
            );
            if it_idx == 0 {
                // Per-GPU profile rows only for the representative first
                // iteration: paper-scale fleets would otherwise dominate
                // the stream (6000 GPUs × ~15 iterations).
                let model = CostModel::new(cfg.node.gpu.clone());
                record_run_metrics(obs, &run_metrics(&model, &costs));
            }
        }
        iterations.push(ModeledIteration {
            per_gpu: costs,
            per_rank_comp,
            comm_s,
            time_s,
        });
    }
    ModeledRun {
        iterations,
        total_s,
    }
}

/// Replay a modeled run through the discrete-event simulator
/// ([`crate::des`]): one [`Timeline`] per iteration,
/// built from the same per-GPU costs `model_run` prices. Gives per-rank
/// busy/idle/communication attribution instead of aggregate times.
///
/// With `obs` enabled: one `rank` point per rank per
/// iteration attributing the makespan into `busy_ns` (concurrent kernel
/// wall + communication), `idle_ns` (waiting on the straggler) and
/// `comm_ns`, plus one `timeline_iter` point per iteration. By the DES
/// accounting, `busy_ns + idle_ns = makespan_ns` per rank (up to clamping
/// and nanosecond rounding), as `rank_points_account_for_makespan` asserts.
#[must_use]
pub fn timeline_run_obs(cfg: &ModelConfig, obs: &Obs) -> Vec<Timeline> {
    let run = model_run_obs(cfg, obs);
    run.iterations
        .iter()
        .enumerate()
        .map(|(it_idx, it)| {
            let times: Vec<f64> = it.per_gpu.iter().map(|c| c.time_s).collect();
            let tl = des::simulate_iteration(&times, &cfg.shape, &cfg.comm, 32);
            if obs.is_enabled() {
                for rank in 0..cfg.shape.nodes {
                    let kernel_ns = secs_to_ns(tl.rank_kernel_time(&cfg.shape, rank));
                    let comm_ns = secs_to_ns(tl.rank_comm_time(rank));
                    let idle_ns = secs_to_ns(tl.rank_idle_time(&cfg.shape, rank));
                    let makespan_ns = secs_to_ns(tl.makespan);
                    let busy_ns = makespan_ns.saturating_sub(idle_ns);
                    obs.point(
                        "rank",
                        &[
                            ("iter", it_idx.into()),
                            ("rank", rank.into()),
                            ("busy_ns", busy_ns.into()),
                            ("idle_ns", idle_ns.into()),
                            ("comm_ns", comm_ns.into()),
                            ("kernel_ns", kernel_ns.into()),
                            ("makespan_ns", makespan_ns.into()),
                        ],
                    );
                }
                obs.point(
                    "timeline_iter",
                    &[
                        ("iter", it_idx.into()),
                        ("makespan_ns", secs_to_ns(tl.makespan).into()),
                    ],
                );
            }
            tl
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Modeled failures
// ---------------------------------------------------------------------------

/// A modeled paper-scale run with MTBF-driven failures priced in
/// ([`model_run_faulty`]).
#[derive(Clone, Debug)]
pub struct FaultyModeledRun {
    /// The fault-free modeled run.
    pub base: ModeledRun,
    /// Sampled failure times on the useful-work clock, seconds.
    pub failures: Vec<f64>,
    /// Checkpoint cost over the run (one write per iteration), seconds.
    pub ckpt_cost_s: f64,
    /// Work lost to failures and re-executed, seconds.
    pub rework_s: f64,
    /// Restart latency paid across failures, seconds.
    pub restart_s: f64,
    /// End-to-end wall time including all overheads.
    pub total_s: f64,
    /// Closed-form expected overhead at Young's optimal checkpoint
    /// interval, for comparison with the per-iteration policy.
    pub expected: FailureOverhead,
}

impl FaultyModeledRun {
    /// Overhead of failures + checkpointing relative to the useful time.
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        (self.total_s - self.base.total_s) / self.base.total_s
    }
}

/// Price a paper-scale run under failures: the fault-free iterations come
/// from [`model_run`], failure events are sampled from the MTBF by
/// [`des::sample_failures`], and every failure costs the restart
/// latency plus re-execution of the interrupted iteration from its start
/// (the greedy loop checkpoints after every iteration, so at most one
/// iteration of work is ever lost). Emits one `fault` point per sampled
/// failure and a `recovery` summary point.
#[must_use]
pub fn model_run_faulty(cfg: &ModelConfig, fm: &FailureModel, obs: &Obs) -> FaultyModeledRun {
    let base = model_run_obs(cfg, obs);
    let mtbf = fm.system_mtbf_s(cfg.shape.nodes);
    let failures = des::sample_failures(mtbf, base.total_s, cfg.seed);
    let ckpt_cost_s = base.iterations.len() as f64 * fm.ckpt_write_s;
    let mut rework_s = 0.0f64;
    for &t in &failures {
        // Locate the iteration the failure interrupts; the time already
        // spent in it is lost and re-executed.
        let mut start = 0.0f64;
        let mut lost = 0.0f64;
        let mut iter_idx = base.iterations.len().saturating_sub(1);
        for (i, it) in base.iterations.iter().enumerate() {
            if t < start + it.time_s {
                lost = t - start;
                iter_idx = i;
                break;
            }
            start += it.time_s;
        }
        rework_s += lost;
        if obs.is_enabled() {
            obs.point(
                "fault",
                &[
                    ("kind", "node_failure".into()),
                    ("iter", iter_idx.into()),
                    ("t_ns", secs_to_ns(t).into()),
                    ("lost_ns", secs_to_ns(lost).into()),
                ],
            );
        }
    }
    let restart_s = failures.len() as f64 * fm.recovery_s;
    let total_s = base.total_s + ckpt_cost_s + rework_s + restart_s;
    let expected = fm.expected_overhead(
        cfg.shape.nodes,
        base.total_s,
        fm.young_interval_s(cfg.shape.nodes),
    );
    if obs.is_enabled() {
        obs.point(
            "recovery",
            &[
                ("kind", "modeled".into()),
                ("failures", failures.len().into()),
                ("ckpt_cost_ns", secs_to_ns(ckpt_cost_s).into()),
                ("rework_ns", secs_to_ns(rework_s).into()),
                ("restart_ns", secs_to_ns(restart_s).into()),
                (
                    "overhead_fraction",
                    ((total_s - base.total_s) / base.total_s).into(),
                ),
            ],
        );
    }
    FaultyModeledRun {
        base,
        failures,
        ckpt_cost_s,
        rework_s,
        restart_s,
        total_s,
        expected,
    }
}

// ---------------------------------------------------------------------------
// Scaling sweeps and projections
// ---------------------------------------------------------------------------

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
    assert!(!node_counts.is_empty());
    let max_nodes = *node_counts.iter().max().unwrap();
    let cfg = make(max_nodes);
    let parts = cfg
        .scheduler
        .partitions(cfg.scheme, cfg.g, cfg.shape.total_gpus());
    let all_costs = price_gpus(&cfg, &parts, cfg.n_tumor, cfg.seed);

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
    single.shape = ClusterShape {
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
        FailureOverhead {
            interval_s,
            expected_failures,
            ckpt_cost_s,
            rework_s,
            restart_s,
            overhead_fraction: (ckpt_cost_s + rework_s + restart_s) / run_s,
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
    /// The three costs above as a fraction of the useful run time.
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

    #[test]
    fn secs_to_ns_saturates_cleanly() {
        assert_eq!(secs_to_ns(1.5), 1_500_000_000);
        assert_eq!(secs_to_ns(0.0), 0);
        assert_eq!(secs_to_ns(-0.0), 0);
        // Float round-off below zero saturates to 0 instead of wrapping.
        assert_eq!(secs_to_ns(-1e-12), 0);
        assert_eq!(secs_to_ns(f64::INFINITY), u64::MAX);
        assert_eq!(secs_to_ns(1e300), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "NaN duration")]
    #[cfg(debug_assertions)]
    fn secs_to_ns_rejects_nan_in_debug() {
        let _ = secs_to_ns(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    #[cfg(debug_assertions)]
    fn secs_to_ns_rejects_negative_in_debug() {
        let _ = secs_to_ns(-1.0);
    }

    #[test]
    fn coverage_profile_shapes() {
        let p = coverage_profile(911, 0.55);
        assert_eq!(p[0], 1.0);
        assert!(p.len() > 5 && p.len() < 30);
        assert!(p.windows(2).all(|w| w[1] < w[0]));
        assert_eq!(coverage_profile(1, 0.5), vec![1.0]);
    }

    #[test]
    fn model_run_produces_finite_times() {
        let run = model_run(&ModelConfig::brca(100));
        assert!(run.total_s.is_finite() && run.total_s > 0.0);
        assert_eq!(run.iterations[0].per_gpu.len(), 600);
        assert_eq!(run.iterations[0].per_rank_comp.len(), 100);
        // Later iterations are cheaper (BitSplicing shrinks the matrix).
        let t0 = run.iterations[0].time_s;
        let tl = run.iterations.last().unwrap().time_s;
        assert!(tl < t0);
    }

    #[test]
    fn modeled_failures_price_sanely() {
        let cfg = ModelConfig::brca(100);
        // Astronomical MTBF → no failures, overhead is checkpointing only.
        let calm = FailureModel {
            node_mtbf_s: 1e18,
            ..FailureModel::summit_like()
        };
        let quiet = model_run_faulty(&cfg, &calm, &Obs::disabled());
        assert!(quiet.failures.is_empty());
        assert!((quiet.rework_s, quiet.restart_s) == (0.0, 0.0));
        assert!(quiet.total_s >= quiet.base.total_s);
        // Absurdly failure-prone cluster → failures land, overhead grows,
        // and the run is deterministic in the seed.
        let frail = FailureModel {
            node_mtbf_s: cfg.shape.nodes as f64 * quiet.base.total_s / 5.0,
            ..FailureModel::summit_like()
        };
        let rough = model_run_faulty(&cfg, &frail, &Obs::disabled());
        assert!(!rough.failures.is_empty());
        assert!(rough.total_s > rough.base.total_s);
        assert!(rough.overhead_fraction() > 0.0);
        let again = model_run_faulty(&cfg, &frail, &Obs::disabled());
        assert_eq!(rough.failures, again.failures);
        // The closed-form expectation agrees on the failure count scale.
        assert!(rough.expected.expected_failures > 0.0);
    }

    #[test]
    fn modeled_ea_beats_ed() {
        // The paper's §IV-B: EA ≈ 3× faster than ED for 2x2 at 100 nodes.
        let mut cfg = ModelConfig::brca(100);
        cfg.scheme = Scheme4::TwoXTwo;
        cfg.jitter = 0.0;
        cfg.coverage = vec![1.0];
        let ea = model_run(&cfg).total_s;
        cfg.scheduler = SchedulerKind::EquiDistance;
        let ed = model_run(&cfg).total_s;
        let speedup = ed / ea;
        assert!(speedup > 2.0, "EA speedup only {speedup:.2}×");
    }

    #[test]
    fn des_timeline_agrees_with_flat_model() {
        // Per iteration, the DES makespan brackets the flat estimate:
        // ≥ max(comp), ≤ max(comp) + full tree cost.
        let cfg = ModelConfig::brca(100);
        let run = model_run(&cfg);
        let timelines = timeline_run_obs(&cfg, &Obs::disabled());
        assert_eq!(timelines.len(), run.iterations.len());
        for (tl, it) in timelines.iter().zip(&run.iterations) {
            let comp = it.per_rank_comp.iter().copied().fold(0.0f64, f64::max);
            assert!(tl.makespan >= comp - 1e-9);
            assert!(tl.makespan <= comp + it.comm_s + 1e-9);
        }
    }

    #[test]
    fn rank_points_account_for_makespan() {
        // Per iteration and per rank, the `rank` points in the metrics
        // stream must satisfy busy_ns + idle_ns = makespan_ns: the stream
        // is a complete attribution of each rank's wall clock.
        let cfg = ModelConfig::brca(20);
        let obs = Obs::enabled();
        let tls = timeline_run_obs(&cfg, &obs);
        let events = obs.events();
        let rank_points: Vec<_> = events.iter().filter(|e| e.name == "rank").collect();
        assert_eq!(rank_points.len(), tls.len() * cfg.shape.nodes);
        for p in &rank_points {
            // Guarded defaults: a partial metrics stream (e.g. a rank killed
            // mid-iteration dropped a field) degrades to 0 and fails the
            // attribution check below with the offending point named,
            // instead of panicking the aggregation.
            let busy = p.u64("busy_ns").unwrap_or(0);
            let idle = p.u64("idle_ns").unwrap_or(0);
            let makespan = p.u64("makespan_ns").unwrap_or(0);
            assert!(makespan > 0, "rank point missing makespan_ns: {p:?}");
            let sum = busy + idle;
            let diff = sum.abs_diff(makespan);
            assert!(
                diff <= 1,
                "busy {busy} + idle {idle} != makespan {makespan}"
            );
        }
        // Aggregated the same way RunReport does: mean utilization is a
        // genuine ratio and some rank is fully busy each iteration.
        let report = multihit_core::obs::RunReport::from_events(&events);
        assert_eq!(report.ranks.len(), cfg.shape.nodes);
        let util = report.mean_rank_utilization();
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
        assert!(report.rank_imbalance() >= 1.0);
        assert_eq!(report.makespan_ns.len(), tls.len());
    }

    #[test]
    fn obs_run_matches_plain_run() {
        // Instrumentation must not perturb the model: same iterations,
        // same makespans, bit-identical schedule.
        let cfg = ModelConfig::brca(20);
        let plain = timeline_run_obs(&cfg, &Obs::disabled());
        let observed = timeline_run_obs(&cfg, &Obs::enabled());
        assert_eq!(plain.len(), observed.len());
        for (a, b) in plain.iter().zip(&observed) {
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
            assert_eq!(a.intervals.len(), b.intervals.len());
        }
    }

    #[test]
    fn comm_is_hidden_by_computation() {
        // Fig 8: message-passing overhead is dwarfed by computation.
        let run = model_run(&ModelConfig::brca(1000));
        let comp: f64 = run
            .iterations
            .iter()
            .map(|i| i.per_rank_comp.iter().copied().fold(0.0f64, f64::max))
            .sum();
        let comm: f64 = run.iterations.iter().map(|i| i.comm_s).sum();
        assert!(comm < 0.01 * comp);
    }

    #[test]
    fn comm_model_scaling() {
        let m = CommModel::summit();
        assert_eq!(m.reduce(20, 1), 0.0);
        // log2 rounds: 1000 ranks → 10 rounds.
        let t1000 = m.reduce(20, 1000);
        let t100 = m.reduce(20, 100);
        assert!((t1000 / m.p2p(20) - 10.0).abs() < 1e-9);
        assert!((t100 / m.p2p(20) - 7.0).abs() < 1e-9);
        // 20-byte messages are latency-dominated.
        assert!(m.p2p(20) < 3.0e-6);
    }
}
