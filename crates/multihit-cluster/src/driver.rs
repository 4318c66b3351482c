//! The distributed greedy driver, in two halves:
//!
//! * [`distributed_discover4_ft`] — **functional**: real rank threads, each
//!   GPU's λ-slab really scored (by the core scan driver `discover` uses, in
//!   its popcount order and bound-pruned — see [`scan_slab4`]), real
//!   binomial-tree reduction to rank 0, BitSplicing between iterations.
//!   There is one driver: a per-rank state machine (iteration barrier →
//!   admit joiners → frontier check → one rank round: kernels unless the
//!   frontier hit, reduce, winner broadcast → splice → record) over the
//!   fault-tolerant collectives of [`FtCtx`], and a fault-free run
//!   ([`distributed_discover4`]) is that machine with an empty fault plan.
//!   Produces exactly the combinations the single-process reference
//!   produces (tested), at any cluster shape, whoever dies or joins.
//! * [`model_run`] — **modeled**: the same schedule and communication
//!   pattern priced by the gpusim cost model and the α–β comm model, usable
//!   at paper scale (`G = 19411`, 6000 GPUs) where functional execution
//!   would take 6000 GPU-days. This is what regenerates the paper's scaling
//!   figures.

use crate::comm::{run_ranks, BcastMsg, CommModel, FtCtx, FtStats};
use crate::fault::{FaultState, FtParams};
use crate::sched::{rebalance_join, schedule_ea_fast, schedule_ed, validate_cover, Partition};
use crate::topology::ClusterShape;
use multihit_core::bitmat::BitMatrix;
use multihit_core::combin::binomial;
use multihit_core::frontier::{self, Frontier};
use multihit_core::greedy::{scan_slab4, ScanStats};
use multihit_core::kernelize::{emit_kernelize_obs, kernelize, ReductionCert};
use multihit_core::obs::Obs;
use multihit_core::par::{default_workers, par_map_indexed, StealStats};
use multihit_core::reduce::merge_top_k;
use multihit_core::schemes::Scheme4;
use multihit_core::sweep::levels_scheme4;
use multihit_core::weight::{Alpha, Scored};
use multihit_gpusim::counters::{apply_jitter, record_run_metrics, run_metrics};
use multihit_gpusim::device::NodeSpec;
use multihit_gpusim::profile::{kernel_levels4, prefetch_depth4, profile_partitions};
use multihit_gpusim::{CostModel, GpuCost};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
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

/// Which scheduler partitions the λ-range across GPUs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Equal thread counts per GPU.
    EquiDistance,
    /// Equal workload areas per GPU (the paper's scheduler).
    EquiArea,
    /// Equal modeled cost per GPU (the §V memory-latency-aware extension;
    /// see [`crate::sched_weighted`]).
    EquiCost,
}

impl SchedulerKind {
    /// Stable name used in metric streams and figure labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::EquiDistance => "ED",
            SchedulerKind::EquiArea => "EA",
            SchedulerKind::EquiCost => "EC",
        }
    }

    /// Partition the scheme's λ-range for `parts` GPUs.
    #[must_use]
    pub fn partitions(self, scheme: Scheme4, g: u32, parts: usize) -> Vec<Partition> {
        match self {
            SchedulerKind::EquiDistance => schedule_ed(scheme.thread_count(g), parts),
            SchedulerKind::EquiArea => schedule_ea_fast(&levels_scheme4(scheme, g), parts),
            SchedulerKind::EquiCost => crate::sched_weighted::schedule_ea_weighted(
                &levels_scheme4(scheme, g),
                parts,
                &crate::sched_weighted::CostWeights::v100_3x1(),
            ),
        }
    }

    /// [`SchedulerKind::partitions`] with observability: wall time of the
    /// scheduler itself (`partition_ns`) plus the EA-area imbalance of the
    /// partitioning it produced, as a `sched_partition` point.
    #[must_use]
    fn partitions_obs(self, scheme: Scheme4, g: u32, parts: usize, obs: &Obs) -> Vec<Partition> {
        let start = Instant::now();
        let partitions = self.partitions(scheme, g, parts);
        let partition_ns = elapsed_ns(start);
        if obs.is_enabled() {
            let levels = levels_scheme4(scheme, g);
            let imbalance = crate::sched::imbalance(&levels, &partitions);
            obs.point(
                "sched_partition",
                &[
                    ("scheduler", self.name().into()),
                    ("scheme", scheme.name().into()),
                    ("parts", parts.into()),
                    ("partition_ns", partition_ns.into()),
                    ("imbalance", imbalance.into()),
                ],
            );
        }
        partitions
    }
}

/// Configuration of a functional distributed run.
#[derive(Clone, Copy, Debug)]
pub struct DistributedConfig {
    /// Cluster allocation.
    pub shape: ClusterShape,
    /// Parallelization scheme (paper: `3x1` in production, `2x2` earlier).
    pub scheme: Scheme4,
    /// λ-range scheduler.
    pub scheduler: SchedulerKind,
    /// TP weight α.
    pub alpha: Alpha,
    /// CUDA block size of the audited exhaustive kernel
    /// ([`multihit_gpusim::exec::run_maxf4`]) that probes and benches run
    /// over this configuration's slabs. The functional driver does not
    /// read it: its ranks score through [`scan_slab4`], which has no block
    /// reduction.
    pub block_size: usize,
    /// Cap on discovered combinations (0 = run to full cover).
    pub max_combinations: usize,
    /// Lazy-greedy frontier size: the global top-K that rank 0 reduces and
    /// the driver keeps (0 disables the frontier; the selected combinations
    /// are bit-identical either way).
    pub frontier_k: usize,
    /// Kernelize the instance once on rank 0 and broadcast the reduction
    /// certificate before the main loop (see [`multihit_core::kernelize()`]).
    /// The selected combinations are bit-identical either way.
    pub kernelize: bool,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            shape: ClusterShape::summit(2),
            scheme: Scheme4::ThreeXOne,
            scheduler: SchedulerKind::EquiArea,
            alpha: Alpha::PAPER,
            block_size: 512,
            max_combinations: 0,
            frontier_k: frontier::DEFAULT_FRONTIER_K,
            kernelize: false,
        }
    }
}

/// Per-iteration record of a functional distributed run.
#[derive(Clone, Debug)]
pub struct DistIteration {
    /// The globally reduced winner.
    pub best: Scored<4>,
    /// Tumor samples still uncovered after splicing.
    pub remaining: u32,
    /// Combinations per GPU, scored or cut by the bound (workload audit:
    /// each equals the GPU's scheduler area).
    pub combos_per_gpu: Vec<u64>,
}

/// Result of a functional distributed run.
#[derive(Clone, Debug)]
pub struct DistResult {
    /// Selected combinations in order.
    pub combinations: Vec<[u32; 4]>,
    /// Per-iteration records.
    pub iterations: Vec<DistIteration>,
    /// Tumor samples never covered.
    pub uncovered: u32,
}

fn ser_scored(s: &Scored<4>) -> Vec<u8> {
    let mut b = Vec::with_capacity(32);
    b.extend_from_slice(&s.score.to_le_bytes());
    b.extend_from_slice(&s.tp.to_le_bytes());
    b.extend_from_slice(&s.tn.to_le_bytes());
    for g in s.genes {
        b.extend_from_slice(&g.to_le_bytes());
    }
    b
}

fn de_scored(b: &[u8]) -> Scored<4> {
    let score = u64::from_le_bytes(b[0..8].try_into().unwrap());
    let tp = u32::from_le_bytes(b[8..12].try_into().unwrap());
    let tn = u32::from_le_bytes(b[12..16].try_into().unwrap());
    let mut genes = [0u32; 4];
    for (i, g) in genes.iter_mut().enumerate() {
        *g = u32::from_le_bytes(b[16 + 4 * i..20 + 4 * i].try_into().unwrap());
    }
    Scored {
        score,
        tp,
        tn,
        genes,
    }
}

/// Serialize a rank's contribution to the reduce — its K best, its
/// winner, or nothing on a frontier hit: a `u32` count followed by `count`
/// 32-byte [`Scored`] records.
fn ser_scored_list(l: &Vec<Scored<4>>) -> Vec<u8> {
    let mut b = Vec::with_capacity(4 + 32 * l.len());
    b.extend_from_slice(
        &u32::try_from(l.len())
            .expect("shard fits u32")
            .to_le_bytes(),
    );
    for s in l {
        b.extend_from_slice(&ser_scored(s));
    }
    b
}

fn de_scored_list(b: &[u8]) -> Vec<Scored<4>> {
    let n = u32::from_le_bytes(b[0..4].try_into().unwrap()) as usize;
    (0..n)
        .map(|i| de_scored(&b[4 + 32 * i..4 + 32 * (i + 1)]))
        .collect()
}

/// Kernelize the instance once on rank 0 and broadcast the serialized
/// [`ReductionCert`] to every rank over the same binomial broadcast tree
/// the winner takes each iteration — the distributed analogue of
/// "preprocess on the driver, ship the certificate". Every rank checks the
/// received certificate against the root's (the simulation shares memory;
/// the assert stands in for the MPI-world invariant that all ranks reduce
/// identically). Emits the `kernelize` point via the core module, plus a
/// `cert_broadcast` point carrying the certificate's wire size.
///
/// # Panics
/// Panics, naming the rank, if a rank receives a malformed or diverging
/// certificate.
fn kernelize_broadcast(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &DistributedConfig,
    obs: &Obs,
) -> (BitMatrix, BitMatrix, ReductionCert) {
    let span = obs.span("kernelize");
    let start = Instant::now();
    let (red_t, red_n, cert) = kernelize(tumor, normal, 4);
    let bytes = cert.to_bytes();
    let bytes_ref = &bytes;
    let received: Vec<Vec<u8>> = run_ranks(cfg.shape.nodes, |ctx| {
        ctx.broadcast((ctx.rank == 0).then(|| bytes_ref.clone()))
    });
    for (rank, got) in received.iter().enumerate() {
        match ReductionCert::from_bytes(got) {
            Ok(got) => assert_eq!(got, cert, "rank {rank} received a diverging certificate"),
            Err(e) => panic!("rank {rank} received a malformed certificate: {e}"),
        }
    }
    emit_kernelize_obs(obs, &cert, elapsed_ns(start));
    drop(span);
    obs.point("cert_broadcast", &[("cert_bytes", bytes.len().into())]);
    (red_t, red_n, cert)
}

/// Map a reduced-instance [`DistResult`] back to original indices: combos
/// un-mapped through the certificate, per-iteration winners re-scored with
/// the zero-normal TN shift, and the uncoverable tumor columns re-added to
/// `remaining`/`uncovered`.
fn unmap_dist_result(r: DistResult, cert: &ReductionCert, alpha: Alpha) -> DistResult {
    let zt = cert.stats().zero_tumor_cols;
    DistResult {
        combinations: r
            .combinations
            .into_iter()
            .map(|c| cert.unmap_combo(c))
            .collect(),
        iterations: r
            .iterations
            .into_iter()
            .map(|it| DistIteration {
                best: cert.unmap_scored(it.best, alpha),
                remaining: it.remaining + zt,
                combos_per_gpu: it.combos_per_gpu,
            })
            .collect(),
        uncovered: r.uncovered + zt,
    }
}

/// Recovery bookkeeping of a functional run: how much λ-work was
/// re-executed, what the protocol retried, and who died or joined. All
/// zero/empty on a run nothing went wrong in.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// Iteration attempts that had to be re-executed.
    pub re_executed_iterations: u64,
    /// Combinations evaluated on attempts whose results were discarded
    /// (the re-executed λ-work).
    pub re_executed_combos: u64,
    /// Ranks declared dead, by original id, in death order.
    pub dead_ranks: Vec<usize>,
    /// Ranks admitted mid-run, by original id, in admission order.
    pub joined_ranks: Vec<usize>,
    /// Membership epochs consumed: one per roster change (admission
    /// barrier), so a churn-free run reports 0.
    pub membership_epochs: u64,
    /// Merged per-rank protocol counters (retransmits, CRC rejects, …).
    pub ft: FtStats,
}

/// Result of a functional run together with what recovery cost.
#[derive(Clone, Debug)]
pub struct FtDistResult {
    /// The discovery result — bit-identical to the fault-free reference
    /// whenever the run completes.
    pub result: DistResult,
    /// What recovery cost.
    pub recovery: RecoveryStats,
}

/// How one rank left one attempt of one iteration.
enum RankOutcome {
    /// Normal completion: the broadcast verdict and this rank's audit data.
    Done {
        /// The broadcast winner.
        verdict: Scored<4>,
        /// Rank 0's reduced list (`None` elsewhere): the global top-K on a
        /// top-K kernel round.
        reduced: Option<Vec<Scored<4>>>,
        combos: Vec<u64>,
        stats: FtStats,
    },
    /// The rank was killed by the fault plan (analog of a process death the
    /// MPI runtime reports).
    Crashed,
    /// The iteration aborted on this rank; `dead` holds the original ids of
    /// the ranks it learned are gone.
    Aborted {
        dead: Vec<usize>,
        combos: Vec<u64>,
        stats: FtStats,
    },
}

/// Membership epoch protocol: admit `joiners` (original rank ids — freshly
/// provisioned replacements or scale-up slots) into the roster at the
/// iteration barrier before `iter_idx`. Already-alive ids are ignored.
///
/// The admission has two legs:
///
/// 1. **JOIN announcement** — rank 0 broadcasts a [`BcastMsg::Join`]
///    carrying the bumped epoch and the roster (in compact-rank order)
///    through the same CRC-framed, retransmitted FT broadcast the
///    FAIL/Abort verdicts take; every rank confirms the announced roster
///    against its own view, so the whole mesh converges on one epoch.
/// 2. **Incremental re-partitioning** — each new GPU takes the high half of
///    the currently largest λ-partition ([`rebalance_join`]): only joiner
///    boundaries move, the donors' loads never grow, and
///    [`crate::sched::validate_cover`] proves the moved slabs still tile
///    `C(G,4)` exactly.
///
/// If either leg fails (an announcement that never converges under wire
/// faults, an un-tileable slab move) the join degrades instead of
/// corrupting state: the roster keeps the joiners but the driver falls back
/// to a full re-shard — always correct, just not incremental. Neither kind
/// of join touches the lazy-greedy frontier: it is the global top-K, which
/// does not depend on who holds which slab.
#[allow(clippy::too_many_arguments)]
fn admit_joiners(
    cfg: &DistributedConfig,
    faults: Option<&FaultState>,
    params: FtParams,
    obs: &Obs,
    g: u32,
    iter_idx: usize,
    joiners: &[usize],
    alive: &mut Vec<usize>,
    epoch: &mut u32,
    elastic_parts: &mut Option<Vec<Partition>>,
    recovery: &mut RecoveryStats,
) {
    let admitted: Vec<usize> = joiners
        .iter()
        .copied()
        .filter(|r| !alive.contains(r))
        .collect();
    if admitted.is_empty() {
        return;
    }
    let n_prev_gpus = alive.len() * cfg.shape.gpus_per_node;
    alive.extend(admitted.iter().copied());
    *epoch += 1;
    recovery.membership_epochs += 1;
    recovery.joined_ranks.extend(admitted.iter().copied());

    // Leg 1: the JOIN control frame, agreed on at the barrier.
    let announce = BcastMsg::Join {
        epoch: *epoch,
        roster: alive.clone(),
    };
    let confirmations: Vec<(bool, FtStats)> = run_ranks(alive.len(), |ctx| {
        let mut ft = FtCtx::new(&ctx, params, faults, iter_idx);
        let root = (ctx.rank == 0).then(|| announce.clone());
        let ok = match ft.broadcast(root) {
            Ok((msg, suspects)) => suspects.is_empty() && msg == announce,
            Err(_) => false,
        };
        (ok, ft.stats)
    });
    let mut converged = true;
    for (ok, stats) in &confirmations {
        converged &= *ok;
        recovery.ft.merge(stats);
    }

    // Leg 2: boundary slab moves instead of a full re-shard. A degraded
    // join leaves no incremental partitions, so the next attempt re-shards.
    let base = elastic_parts.take();
    let mut incremental = false;
    let mut slab_moves = 0usize;
    let mut moved_area = 0u64;
    if converged {
        let base = base.unwrap_or_else(|| {
            cfg.scheduler
                .partitions_obs(cfg.scheme, g, n_prev_gpus, obs)
        });
        let levels = levels_scheme4(cfg.scheme, g);
        if let Ok((parts, moves)) =
            rebalance_join(&levels, &base, admitted.len() * cfg.shape.gpus_per_node)
        {
            incremental = true;
            slab_moves = moves.len();
            moved_area = moves.iter().map(|m| m.area).sum();
            *elastic_parts = Some(parts);
        }
    }

    if obs.is_enabled() {
        obs.point(
            "membership",
            &[
                ("iter", iter_idx.into()),
                ("epoch", u64::from(*epoch).into()),
                ("joined", admitted.len().into()),
                ("roster", alive.len().into()),
                ("incremental", u64::from(incremental).into()),
                ("slab_moves", slab_moves.into()),
                ("moved_area", moved_area.into()),
            ],
        );
    }
}

/// Run 4-hit greedy discovery functionally across simulated ranks and GPUs:
/// [`distributed_discover4_ft`] with no fault plan and no metrics stream.
#[must_use]
pub fn distributed_discover4(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &DistributedConfig,
) -> DistResult {
    distributed_discover4_obs(tumor, normal, cfg, &Obs::disabled())
}

/// [`distributed_discover4`] with the metrics stream
/// [`distributed_discover4_ft`] describes. The discovered combinations are
/// identical to the uninstrumented run by construction.
#[must_use]
pub fn distributed_discover4_obs(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &DistributedConfig,
    obs: &Obs,
) -> DistResult {
    distributed_discover4_ft(tumor, normal, cfg, None, FtParams::default(), obs).result
}

/// The functional distributed driver: 4-hit greedy discovery across
/// simulated ranks and GPUs, tolerating rank crashes, stragglers,
/// lost/corrupt messages and mid-run joins.
///
/// Each iteration first checks the driver's lazy-greedy frontier — the
/// global top-K rank 0 reduced on the last kernel round — exactly as
/// single-process discovery does ([`Frontier::rescore`], then
/// [`Frontier::is_hit`]). Then every alive rank runs one round: unless the
/// frontier hit, it scores the λ-slab of each of its node's GPUs through
/// the core scan driver ([`scan_slab4`]; the slab areas, and so the
/// `combos_per_gpu` audit, are the scheduler's to the combination); it
/// takes part in the binomial-tree reduction of its best records to rank 0;
/// rank 0 broadcasts the 32-byte winner (the frontier's on a hit) and every
/// rank splices covered samples: the communication structure of §III-E,
/// over the framed collectives of [`FtCtx`]. If any rank dies or the
/// verdict is an abort, the dead ranks are removed and the **same
/// iteration is re-executed** with the survivors — the full λ-range is
/// re-partitioned across the remaining GPUs by the configured scheduler,
/// so (by associativity + commutativity of the deterministic max) the
/// chosen combinations are bit-identical to the fault-free reference no
/// matter who died when. A failed attempt
/// also drops the frontier, so the retry runs the kernels. With
/// `faults: None` nothing dies and every iteration takes one attempt.
///
/// The metrics stream: scheduler timing (`sched_partition`), one
/// `rank_exec` point per rank per attempt (kernel wall time vs.
/// reduce+broadcast wall time, combinations scored vs. cut by the bound; the
/// same fields on hit, top-K and argmax rounds), one `dist_iter` point
/// per iteration (with the frontier's `frontier_hit` and
/// `frontier_rescored`), `membership` and `recovery`
/// points on churn. `ft.*` and `recovery.*` counters appear only when
/// nonzero.
///
/// # Panics
/// Panics if iterations repeatedly fail without identifying a dead rank
/// (cannot happen under the injection model: bounded message faults are
/// always recovered by retransmission).
#[must_use]
pub fn distributed_discover4_ft(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &DistributedConfig,
    faults: Option<&FaultState>,
    params: FtParams,
    obs: &Obs,
) -> FtDistResult {
    if cfg.kernelize {
        let (red_t, red_n, cert) = kernelize_broadcast(tumor, normal, cfg, obs);
        if cert.kept_genes() < 4 {
            // Every original combination contains a removed gene, so the
            // unkernelized run stalls on iteration 1 with an empty panel.
            return FtDistResult {
                result: DistResult {
                    combinations: Vec::new(),
                    iterations: Vec::new(),
                    uncovered: tumor.n_samples() as u32,
                },
                recovery: RecoveryStats::default(),
            };
        }
        let inner = DistributedConfig {
            kernelize: false,
            ..*cfg
        };
        let mut r = distributed_discover4_ft(&red_t, &red_n, &inner, faults, params, obs);
        r.result = unmap_dist_result(r.result, &cert, cfg.alpha);
        return r;
    }
    let _run_span = obs.span("distributed_discover");
    let g = tumor.n_genes() as u32;
    let gpn = cfg.shape.gpus_per_node;
    let total_threads = cfg.scheme.thread_count(g);
    let total_combos = binomial(u64::from(g), 4);
    let k = cfg.frontier_k;
    let mut work_tumor = tumor.clone();
    let mut remaining = tumor.n_samples() as u32;
    let mut combinations = Vec::new();
    let mut iterations = Vec::new();
    let mut recovery = RecoveryStats::default();
    // Original rank ids still alive; position in this vector is the compact
    // rank id inside the current mesh.
    let mut alive: Vec<usize> = (0..cfg.shape.nodes).collect();
    // The global top-K rank 0 reduced on the last top-K kernel round.
    let mut frontier_state: Option<Frontier<4>> = None;
    let mut membership_epoch: u32 = 0;
    // λ-partitions maintained incrementally across joins. `None` means
    // re-shard from scratch each attempt — the launch state, and the state
    // after any death (survivors re-partition the full range).
    let mut elastic_parts: Option<Vec<Partition>> = None;

    'outer: while remaining > 0 && !alive.is_empty() {
        if cfg.max_combinations != 0 && combinations.len() >= cfg.max_combinations {
            break;
        }
        let iter_idx = iterations.len();
        let iter_start = Instant::now();
        // Elastic membership: planned joiners are admitted here, at the
        // iteration barrier, before any attempt of this iteration runs.
        if let Some(f) = faults {
            admit_joiners(
                cfg,
                faults,
                params,
                obs,
                g,
                iter_idx,
                &f.take_joins(iter_idx),
                &mut alive,
                &mut membership_epoch,
                &mut elastic_parts,
                &mut recovery,
            );
        }
        // The lazy-greedy check, with the two calls single-process
        // `discover_obs` makes: rescore the frontier against the spliced
        // matrix, and a strict floor clear proves the global argmax.
        let mut frontier_rescored = 0u64;
        let mut hit: Option<Scored<4>> = None;
        if let Some(fr) = &frontier_state {
            let r = fr.rescore(&work_tumor, normal, None, cfg.alpha);
            frontier_rescored = r.rescored;
            hit = fr.is_hit(&r.best).then_some(r.best);
        }
        let mut fruitless_attempts = 0u32;
        let (best, combos_per_gpu) = loop {
            let n_ranks = alive.len();
            // One rank round per attempt. On a hit the ranks scan nothing
            // and rank 0 broadcasts the frontier's winner; otherwise their
            // GPUs scan, and the reduce yields the global top-K (the next
            // frontier) or, with the frontier off, the argmax alone.
            let topk_round = hit.is_none() && k > 0;
            let keep = if topk_round { k } else { 1 };
            let parts = if hit.is_some() {
                Vec::new()
            } else if let Some(p) = &elastic_parts {
                // Slab-moved partitions from the membership protocol: GPU
                // order no longer follows λ order, but the set still tiles
                // the full range (proven at admission, re-checked below).
                p.clone()
            } else {
                cfg.scheduler
                    .partitions_obs(cfg.scheme, g, n_ranks * gpn, obs)
            };
            debug_assert!(hit.is_some() || validate_cover(&parts, total_threads).is_ok());
            debug_assert!(hit.is_some() || parts.len() == n_ranks * gpn);
            let tumor_ref = &work_tumor;
            let alive_ref = &alive;
            // One OS thread per alive rank.
            let outcomes: Vec<RankOutcome> = run_ranks(n_ranks, |ctx| {
                let orig = alive_ref[ctx.rank];
                if faults.is_some_and(|f| f.should_kill(orig, iter_idx)) {
                    return RankOutcome::Crashed;
                }
                let busy_start = Instant::now();
                let mut combos = vec![0u64; gpn];
                let (mut scan, mut steal) = (ScanStats::default(), StealStats::default());
                // The rank's contribution to the reduce, best first: nothing
                // on a frontier hit, else what its GPUs found over their
                // λ-partitions, each pruning on its own incumbent (the K
                // best on a top-K round). The work-stealing dispatcher
                // overlaps a heavy slab with the light ones instead of
                // serializing a fixed GPU order.
                let local: Vec<Scored<4>> = if hit.is_some() {
                    Vec::new()
                } else {
                    let (outs, stolen) = par_map_indexed(gpn, default_workers(), |slot| {
                        let p = parts[ctx.rank * gpn + slot];
                        scan_slab4(tumor_ref, normal, cfg.alpha, cfg.scheme, p.lo, p.hi, keep)
                    });
                    steal = stolen;
                    let mut shards = Vec::with_capacity(gpn);
                    for (slot, (shard, stats)) in outs.into_iter().enumerate() {
                        // Scored or cut, every combination of the slab is
                        // accounted for: the audit is the scheduler's area.
                        combos[slot] = stats.scored + stats.pruned_combos;
                        scan.merge(&stats);
                        shards.push(shard);
                    }
                    merge_top_k(&shards, keep)
                };
                let busy_ns = elapsed_ns(busy_start);
                if let Some(f) = faults {
                    if let Some(factor) = f.straggler_factor(orig) {
                        // A straggler is slow, not dead: nobody evicts it,
                        // however long its peers wait.
                        let delay =
                            Duration::from_nanos(((busy_ns as f64) * (factor - 1.0)) as u64);
                        std::thread::sleep(delay);
                        f.note_straggle(orig, iter_idx, factor, delay.as_nanos() as u64);
                    }
                }
                let comm_start = Instant::now();
                let mut ft = FtCtx::new(&ctx, params, faults, iter_idx);
                let red = ft.reduce_to_root(
                    local,
                    |a, b| merge_top_k(&[a, b], keep),
                    ser_scored_list,
                    de_scored_list,
                );
                // The attempt ends on this rank with the broadcast winner,
                // or with the (compact ids of the) ranks it learned are gone.
                let ended: Result<Scored<4>, BTreeSet<usize>> = if red.parent_dead {
                    Err(red.dead)
                } else {
                    // Rank 0 broadcasts the winner every rank splices on:
                    // the frontier's on a hit, else the reduced list's head
                    // (no combination at all reduces to an empty list).
                    let verdict = (ctx.rank == 0).then(|| match &red.root_value {
                        Some(list) => BcastMsg::Value(ser_scored(&hit.unwrap_or_else(|| {
                            list.first().copied().unwrap_or(Scored::NEG_INFINITY)
                        }))),
                        None => BcastMsg::Abort(red.dead.iter().copied().collect()),
                    });
                    match ft.broadcast(verdict) {
                        Ok((BcastMsg::Value(v), suspects)) if suspects.is_empty() => {
                            Ok(de_scored(&v))
                        }
                        Ok((BcastMsg::Value(_), suspects)) => Err(suspects),
                        Ok((BcastMsg::Abort(dead), suspects)) => {
                            Err(dead.into_iter().chain(suspects).collect())
                        }
                        // A membership announcement where a verdict was
                        // expected is a protocol violation (epochs only
                        // change at the iteration barrier): abort the attempt.
                        Ok((BcastMsg::Join { .. }, _)) | Err(_) => Err(red.dead),
                    }
                };
                if obs.is_enabled() {
                    let comm_ns = elapsed_ns(comm_start);
                    obs.point(
                        "rank_exec",
                        &[
                            ("iter", iter_idx.into()),
                            ("rank", orig.into()),
                            ("busy_ns", busy_ns.into()),
                            ("comm_ns", comm_ns.into()),
                            ("combos", combos.iter().sum::<u64>().into()),
                            ("scored", scan.scored.into()),
                            ("pruned_combos", scan.pruned_combos.into()),
                            ("pruned_subtrees", scan.pruned_subtrees.into()),
                            ("steal_blocks", steal.blocks.into()),
                            ("steals", steal.steals.into()),
                            ("block_sweeps", scan.block_sweeps.into()),
                        ],
                    );
                }
                match ended {
                    Ok(verdict) => RankOutcome::Done {
                        verdict,
                        reduced: red.root_value,
                        combos,
                        stats: ft.stats,
                    },
                    Err(dead) => RankOutcome::Aborted {
                        dead: dead.iter().map(|&c| alive_ref[c]).collect(),
                        combos,
                        stats: ft.stats,
                    },
                }
            });

            let mut dead: BTreeSet<usize> = BTreeSet::new();
            let mut all_done = true;
            let mut agreed: Option<Scored<4>> = None;
            let mut top_k: Option<Vec<Scored<4>>> = None;
            let mut attempt_combos: Vec<u64> = Vec::new();
            for (i, out) in outcomes.into_iter().enumerate() {
                match out {
                    RankOutcome::Done {
                        verdict,
                        reduced,
                        combos,
                        stats,
                    } => {
                        // All ranks agreed on the verdict.
                        debug_assert!(agreed.is_none_or(|v| v == verdict));
                        agreed.get_or_insert(verdict);
                        top_k = top_k.or(reduced);
                        attempt_combos.extend(combos);
                        recovery.ft.merge(&stats);
                    }
                    RankOutcome::Crashed => {
                        all_done = false;
                        dead.insert(alive[i]);
                    }
                    RankOutcome::Aborted {
                        dead: d,
                        combos,
                        stats,
                    } => {
                        all_done = false;
                        dead.extend(d);
                        attempt_combos.extend(combos);
                        recovery.ft.merge(&stats);
                    }
                }
            }

            if all_done {
                if topk_round {
                    let list = top_k.expect("rank 0 holds the reduced list");
                    frontier_state = Some(Frontier::new(list, total_combos));
                }
                break (
                    agreed.expect("a mesh has at least one rank"),
                    attempt_combos,
                );
            }

            // Failed attempt: discard its work, drop the dead, re-execute.
            // The frontier goes with it, so the retry runs the full kernels
            // and rebuilds it.
            frontier_state = None;
            hit = None;
            recovery.re_executed_iterations += 1;
            let wasted: u64 = attempt_combos.iter().sum();
            recovery.re_executed_combos += wasted;
            if dead.is_empty() {
                fruitless_attempts += 1;
                assert!(
                    fruitless_attempts <= 3,
                    "iteration {iter_idx} failed repeatedly without identifying a dead rank"
                );
            } else {
                fruitless_attempts = 0;
                alive.retain(|r| !dead.contains(r));
                recovery.dead_ranks.extend(dead.iter().copied());
                // A death invalidates the incremental partitions: survivors
                // re-shard the full λ-range.
                elastic_parts = None;
            }
            if obs.is_enabled() {
                obs.point(
                    "recovery",
                    &[
                        ("iter", iter_idx.into()),
                        ("dead", dead.len().into()),
                        ("survivors", alive.len().into()),
                        ("re_executed_combos", wasted.into()),
                    ],
                );
            }
            if alive.is_empty() {
                break 'outer;
            }
        };

        if best.tp == 0 {
            break;
        }
        remaining -= best.tp;
        let cov = work_tumor.cover_mask(&best.genes);
        let mut keep = work_tumor.full_mask();
        for (k, c) in keep.iter_mut().zip(cov.iter()) {
            *k &= !c;
        }
        work_tumor = work_tumor.splice_columns(&keep);
        combinations.push(best.genes);
        iterations.push(DistIteration {
            best,
            remaining,
            combos_per_gpu,
        });
        if obs.is_enabled() {
            obs.point(
                "dist_iter",
                &[
                    ("iter", iter_idx.into()),
                    ("iter_ns", elapsed_ns(iter_start).into()),
                    ("newly_covered", u64::from(best.tp).into()),
                    ("remaining", u64::from(remaining).into()),
                    ("frontier_hit", u64::from(hit.is_some()).into()),
                    ("frontier_rescored", frontier_rescored.into()),
                ],
            );
        }
    }

    // Nonzero-only: a run in which nothing was retried shows no trace of
    // the protocol in its stream.
    let ft = &recovery.ft;
    if *ft != FtStats::default() {
        obs.point(
            "ft",
            &[
                ("retrans_requests", ft.retrans_requests.into()),
                ("retransmits", ft.retransmits.into()),
                ("crc_failures", ft.crc_failures.into()),
                ("duplicates", ft.duplicates.into()),
                ("timeouts", ft.timeouts.into()),
            ],
        );
    }

    FtDistResult {
        result: DistResult {
            combinations,
            iterations,
            uncovered: remaining,
        },
        recovery,
    }
}

// ---------------------------------------------------------------------------
// Modeled (paper-scale) runs
// ---------------------------------------------------------------------------

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
    let n_gpus = cfg.shape.total_gpus();
    let model = CostModel::new(cfg.node.gpu.clone());
    let wn = u64::from(cfg.n_normal.div_ceil(64));
    let parts = cfg.scheduler.partitions_obs(cfg.scheme, cfg.g, n_gpus, obs);
    let levels = kernel_levels4(cfg.scheme, cfg.g);
    let prefetch = prefetch_depth4(cfg.scheme);
    let mid = matches!(cfg.scheme, Scheme4::TwoXTwo | Scheme4::OneXThree);

    let mut iterations = Vec::with_capacity(cfg.coverage.len());
    let mut total_s = 0.0;
    for (it_idx, frac) in cfg.coverage.iter().enumerate() {
        // BitSplicing: the tumor matrix shrinks with coverage.
        let remaining = (f64::from(cfg.n_tumor) * frac).ceil() as u32;
        let wt = u64::from(remaining.div_ceil(64).max(1));
        let w = wt + wn;
        let bounds = crate::sched::partitions_to_ranges(&parts);
        let costs: Vec<GpuCost> = profile_partitions(&levels, &bounds, w, prefetch, mid)
            .iter()
            .map(|pr| model.evaluate(pr))
            .collect();
        let costs = if cfg.jitter > 0.0 {
            apply_jitter(&costs, cfg.jitter, cfg.seed.wrapping_add(it_idx as u64))
        } else {
            costs
        };
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
/// ([`crate::des`]): one [`Timeline`](crate::des::Timeline) per iteration,
/// built from the same per-GPU costs `model_run` prices. Gives per-rank
/// busy/idle/communication attribution instead of aggregate times.
///
/// With `obs` enabled: one `rank` point per rank per
/// iteration attributing the makespan into `busy_ns` (concurrent kernel
/// wall + communication), `idle_ns` (waiting on the straggler) and
/// `comm_ns`, plus one `timeline_iter` point per iteration. By the DES
/// accounting, `busy_ns + idle_ns = makespan_ns` per rank (up to clamping
/// and nanosecond rounding) — the driver-level test asserts it.
#[must_use]
pub fn timeline_run_obs(cfg: &ModelConfig, obs: &Obs) -> Vec<crate::des::Timeline> {
    let run = model_run_obs(cfg, obs);
    run.iterations
        .iter()
        .enumerate()
        .map(|(it_idx, it)| {
            let times: Vec<f64> = it.per_gpu.iter().map(|c| c.time_s).collect();
            let tl = crate::des::simulate_iteration(&times, &cfg.shape, &cfg.comm, 32);
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
    pub expected: crate::timing::FailureOverhead,
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
/// [`crate::des::sample_failures`], and every failure costs the restart
/// latency plus re-execution of the interrupted iteration from its start
/// (the greedy loop checkpoints after every iteration, so at most one
/// iteration of work is ever lost). Emits one `fault` point per sampled
/// failure and a `recovery` summary point.
#[must_use]
pub fn model_run_faulty(
    cfg: &ModelConfig,
    fm: &crate::timing::FailureModel,
    obs: &Obs,
) -> FaultyModeledRun {
    let base = model_run_obs(cfg, obs);
    let mtbf = fm.system_mtbf_s(cfg.shape.nodes);
    let failures = crate::des::sample_failures(mtbf, base.total_s, cfg.seed);
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

#[cfg(test)]
mod tests {
    use super::*;
    use multihit_core::greedy::{discover, Exclusion, GreedyConfig};

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

    #[test]
    fn distributed_matches_single_process_reference() {
        let (t, n) = lcg_matrices(11, 90, 60, 13);
        let reference = discover::<4>(
            &t,
            &n,
            &GreedyConfig {
                exclusion: Exclusion::BitSplice,
                parallel: false,
                max_combinations: 3,
                ..GreedyConfig::default()
            },
        );
        for scheduler in [SchedulerKind::EquiArea, SchedulerKind::EquiDistance] {
            for scheme in [Scheme4::ThreeXOne, Scheme4::TwoXTwo] {
                let cfg = DistributedConfig {
                    shape: ClusterShape {
                        nodes: 3,
                        gpus_per_node: 2,
                    },
                    scheme,
                    scheduler,
                    max_combinations: 3,
                    ..DistributedConfig::default()
                };
                let dist = distributed_discover4(&t, &n, &cfg);
                assert_eq!(
                    dist.combinations,
                    reference.combinations,
                    "{scheduler:?} {}",
                    scheme.name()
                );
            }
        }
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
    fn kernelized_distributed_matches_unkernelized() {
        // A cohort with useless genes (zero tumor rows) and duplicate rows so
        // the reduction actually removes something, plus random filler.
        let (mut t, n) = lcg_matrices(14, 90, 60, 29);
        for s in 0..90 {
            t.set(12, s, false);
            t.set(13, s, t.get(0, s));
        }
        let base = DistributedConfig {
            shape: ClusterShape {
                nodes: 3,
                gpus_per_node: 2,
            },
            max_combinations: 3,
            ..DistributedConfig::default()
        };
        let plain = distributed_discover4(&t, &n, &base);
        let kern = distributed_discover4(
            &t,
            &n,
            &DistributedConfig {
                kernelize: true,
                ..base
            },
        );
        assert_eq!(kern.combinations, plain.combinations);
        assert_eq!(kern.uncovered, plain.uncovered);
        for (a, b) in kern.iterations.iter().zip(&plain.iterations) {
            assert_eq!(a.best, b.best);
        }

        let ft = distributed_discover4_ft(
            &t,
            &n,
            &DistributedConfig {
                kernelize: true,
                ..base
            },
            None,
            crate::fault::FtParams::fast_test(),
            &Obs::disabled(),
        );
        assert_eq!(ft.result.combinations, plain.combinations);
        assert_eq!(ft.result.uncovered, plain.uncovered);
    }

    #[test]
    fn kernelized_distributed_stalls_on_degenerate_reduction() {
        // Every gene has a zero tumor row: reduction keeps < 4 genes, the
        // driver must stall with an empty panel and everything uncovered.
        let t = BitMatrix::zeros(6, 40);
        let n = BitMatrix::zeros(6, 20);
        let cfg = DistributedConfig {
            shape: ClusterShape {
                nodes: 2,
                gpus_per_node: 1,
            },
            kernelize: true,
            max_combinations: 2,
            ..DistributedConfig::default()
        };
        let r = distributed_discover4(&t, &n, &cfg);
        assert!(r.combinations.is_empty());
        assert_eq!(r.uncovered, 40);
    }

    #[test]
    fn fault_free_ft_run_matches_single_process_reference() {
        // 3 ranks x 2 GPUs with no fault plan, exhaustive argmax rounds
        // (frontier off) and lazy-greedy rounds (frontier on): the panel,
        // the per-iteration winners and the cover are the single-process
        // ones, nothing is re-executed, nobody is evicted.
        let (t, n) = lcg_matrices(11, 90, 60, 13);
        let total = binomial(11, 4);
        let reference = discover::<4>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                max_combinations: 3,
                ..GreedyConfig::default()
            },
        );
        for frontier_k in [0, frontier::DEFAULT_FRONTIER_K] {
            let cfg = DistributedConfig {
                shape: ClusterShape {
                    nodes: 3,
                    gpus_per_node: 2,
                },
                max_combinations: 3,
                frontier_k,
                ..DistributedConfig::default()
            };
            let ft = distributed_discover4_ft(
                &t,
                &n,
                &cfg,
                None,
                crate::fault::FtParams::fast_test(),
                &Obs::disabled(),
            );
            assert_eq!(ft.result.combinations, reference.combinations);
            assert_eq!(ft.result.uncovered, reference.uncovered);
            assert_eq!(ft.recovery.re_executed_iterations, 0);
            assert_eq!(ft.recovery.dead_ranks, Vec::<usize>::new());
            assert_eq!(ft.result.iterations.len(), reference.iterations.len());
            for (a, b) in ft.result.iterations.iter().zip(&reference.iterations) {
                assert_eq!(a.best, b.best, "frontier_k {frontier_k}");
                // One audit slot per GPU; an argmax round scans the whole
                // enumeration, a lazy round all of it or (a hit) none of it.
                assert_eq!(a.combos_per_gpu.len(), 6);
                let sum: u64 = a.combos_per_gpu.iter().sum();
                assert!(
                    sum == total || (frontier_k > 0 && sum == 0),
                    "frontier_k {frontier_k}: audited {sum}"
                );
            }
        }
    }

    #[test]
    fn frontier_driver_matches_disabled_frontier_driver() {
        let (t, n) = lcg_matrices(11, 90, 60, 13);
        let total = binomial(11, 4);
        for nodes in [1, 4] {
            let base = DistributedConfig {
                shape: ClusterShape {
                    nodes,
                    gpus_per_node: 2,
                },
                ..DistributedConfig::default()
            };
            let full = distributed_discover4(
                &t,
                &n,
                &DistributedConfig {
                    frontier_k: 0,
                    ..base
                },
            );
            let obs = Obs::enabled();
            let lazy = distributed_discover4_obs(&t, &n, &base, &obs);
            assert_eq!(lazy.combinations, full.combinations, "{nodes} nodes");
            assert_eq!(lazy.uncovered, full.uncovered, "{nodes} nodes");
            for (a, b) in lazy.iterations.iter().zip(&full.iterations) {
                assert_eq!(a.best, b.best);
                assert_eq!(a.remaining, b.remaining);
            }
            // Every iteration either skipped the kernels outright (hit) or
            // rescanned the full enumeration (floor miss), and the hit
            // counter agrees with the audit.
            let hits = lazy
                .iterations
                .iter()
                .filter(|it| {
                    let sum: u64 = it.combos_per_gpu.iter().sum();
                    assert!(sum == 0 || sum == total, "partial scan audited: {sum}");
                    sum == 0
                })
                .count() as u64;
            assert_eq!(obs.sum("dist_iter", "frontier_hit"), hits, "{nodes} nodes");
        }
    }

    #[test]
    fn complete_frontier_skips_every_later_kernel_round() {
        let (t, n) = lcg_matrices(9, 70, 40, 3);
        // K >= C(9,4): the frontier holds the whole enumeration, so every
        // iteration after the first is a hit by construction.
        let total = binomial(9, 4);
        let cfg = DistributedConfig {
            shape: ClusterShape {
                nodes: 2,
                gpus_per_node: 2,
            },
            frontier_k: total as usize,
            ..DistributedConfig::default()
        };
        let lazy = distributed_discover4(&t, &n, &cfg);
        let full = distributed_discover4(
            &t,
            &n,
            &DistributedConfig {
                frontier_k: 0,
                ..cfg
            },
        );
        assert_eq!(lazy.combinations, full.combinations);
        assert!(lazy.iterations.len() > 1, "fixture should iterate");
        for (i, it) in lazy.iterations.iter().enumerate() {
            let sum: u64 = it.combos_per_gpu.iter().sum();
            assert_eq!(sum, if i == 0 { total } else { 0 }, "iteration {i}");
        }
    }

    #[test]
    fn distributed_workload_audit_matches_scheduler() {
        let (t, n) = lcg_matrices(12, 64, 32, 5);
        let cfg = DistributedConfig {
            shape: ClusterShape {
                nodes: 2,
                gpus_per_node: 3,
            },
            max_combinations: 1,
            ..DistributedConfig::default()
        };
        let dist = distributed_discover4(&t, &n, &cfg);
        let combos: u64 = dist.iterations[0].combos_per_gpu.iter().sum();
        assert_eq!(combos, multihit_core::combin::binomial(12, 4));
        // EA: per-GPU combos within ±1 thread-workload of each other.
        // Guarded defaults: a run whose audit stream came back partial (a
        // killed rank, an aborted attempt) must degrade this check to an
        // explicit empty-audit failure, not an unwrap panic.
        let max = dist.iterations[0]
            .combos_per_gpu
            .iter()
            .max()
            .copied()
            .unwrap_or(0);
        let min = dist.iterations[0]
            .combos_per_gpu
            .iter()
            .min()
            .copied()
            .unwrap_or(0);
        assert!(
            !dist.iterations[0].combos_per_gpu.is_empty(),
            "empty per-GPU audit"
        );
        assert!(max - min <= 12, "spread {}", max - min);
    }

    #[test]
    fn gpus_without_combinations_reduce_as_the_identity() {
        // 6 GPUs over 1, 5 and 15 combinations: under EA at G = 4, 5 there
        // are more GPUs than combinations, and under ED the last slab holds
        // only threads with an empty tail loop (`lo >= C(l,3)` for every
        // `l`). Such a slab must drop out of the reduce as an empty list
        // without disturbing the panel or the audit.
        for g in 4..=6 {
            let (t, n) = lcg_matrices(g, 60, 30, 7);
            let total = binomial(g as u64, 4);
            let reference = discover::<4>(
                &t,
                &n,
                &GreedyConfig {
                    parallel: false,
                    ..GreedyConfig::default()
                },
            );
            assert!(!reference.combinations.is_empty(), "fixture should cover");
            for scheduler in [SchedulerKind::EquiArea, SchedulerKind::EquiDistance] {
                for scheme in [Scheme4::ThreeXOne, Scheme4::TwoXTwo] {
                    for frontier_k in [0, frontier::DEFAULT_FRONTIER_K] {
                        let cfg = DistributedConfig {
                            shape: ClusterShape {
                                nodes: 2,
                                gpus_per_node: 3,
                            },
                            scheme,
                            scheduler,
                            frontier_k,
                            ..DistributedConfig::default()
                        };
                        let dist = distributed_discover4(&t, &n, &cfg);
                        let ctx = format!("G={g} {scheduler:?} {} k={frontier_k}", scheme.name());
                        assert_eq!(dist.combinations, reference.combinations, "{ctx}");
                        assert_eq!(dist.uncovered, reference.uncovered, "{ctx}");
                        let audit = &dist.iterations[0].combos_per_gpu;
                        assert_eq!(audit.iter().sum::<u64>(), total, "{ctx}");
                        if total < 6 || scheduler == SchedulerKind::EquiDistance {
                            assert!(audit.contains(&0), "{ctx}: no idle GPU in {audit:?}");
                        }
                    }
                }
            }
        }
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
        use crate::timing::FailureModel;
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
}
