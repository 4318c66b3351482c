//! The functional distributed greedy driver, [`distributed_discover4_ft`]:
//! real rank threads, each GPU's λ-slab really scored (by the core scan
//! driver `discover` uses, in its popcount order and bound-pruned — see
//! [`scan_slab4`]), real binomial-tree reduction to rank 0, BitSplicing
//! between iterations. There is one driver: a per-rank state machine
//! (iteration barrier → admit joiners → frontier check → one rank round:
//! kernels unless the frontier hit, reduce, winner broadcast → splice →
//! record) over the fault-tolerant collectives of [`FtCtx`], and a
//! fault-free run ([`distributed_discover4`]) is that machine with an empty
//! fault plan. [`distributed_discover4_checkpointed`] starts it from a
//! checkpoint and saves one after every pick. It produces exactly the
//! combinations the single-process reference produces (tested), at any
//! cluster shape, whoever dies or joins.
//!
//! The paper-scale runs price the same schedule under the cost models
//! instead of executing it; they share only [`SchedulerKind`] with this
//! driver.

use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::comm::{run_ranks, BcastMsg, FtCtx, FtStats};
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
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
    pub(crate) fn partitions_obs(
        self,
        scheme: Scheme4,
        g: u32,
        parts: usize,
        obs: &Obs,
    ) -> Vec<Partition> {
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
    distributed_discover4_ft(
        tumor,
        normal,
        cfg,
        None,
        FtParams::default(),
        &Obs::disabled(),
    )
    .result
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
    drive(tumor, normal, cfg, faults, params, obs, None)
}

/// [`distributed_discover4_ft`] started from `ckpt`, saving through `store`
/// as it goes: the §IV-A checkpoint/restart path, where a run that outlives
/// its allocation resumes in the next one.
///
/// `ckpt` is saved once before the first iteration and again after every
/// pick, each save a `checkpoint` point (`iter` = picks saved, `save_ns`,
/// `remaining`); `faults` may damage any of them. Start from
/// [`Checkpoint::fresh`] for a new run, or from [`CheckpointStore::load`]
/// to resume. The run continues on the tumor matrix spliced by
/// `uncovered_mask` (kernelized when `cfg.kernelize` is set), with the cap
/// lowered by the picks already made, and the result's combinations are
/// the checkpoint's, old picks first. That is exact: splicing by the
/// cumulative mask gives the matrix that splicing pick by pick gives, and
/// kernelization is exact on any instance. The frontier is not saved, so
/// the first iteration after a resume is a full scan, and `iterations`
/// (like the `iter` of the metric points) covers only the resumed part.
///
/// # Errors
/// Returns a message if `ckpt` belongs to another cohort or a save fails.
///
/// # Panics
/// As [`distributed_discover4_ft`].
#[allow(clippy::too_many_arguments)]
pub fn distributed_discover4_checkpointed(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &DistributedConfig,
    faults: Option<&FaultState>,
    params: FtParams,
    obs: &Obs,
    store: &CheckpointStore,
    mut ckpt: Checkpoint,
) -> Result<FtDistResult, String> {
    ckpt.validate(tumor)?;
    let save = |ck: &Checkpoint| -> Result<(), String> {
        let start = Instant::now();
        store
            .save(ck, faults)
            .map_err(|e| format!("checkpoint save: {e}"))?;
        obs.point(
            "checkpoint",
            &[
                ("iter", ck.chosen.len().into()),
                ("save_ns", elapsed_ns(start).into()),
                ("remaining", u64::from(ck.remaining()).into()),
            ],
        );
        Ok(())
    };
    save(&ckpt)?;
    let done = ckpt.chosen.len();
    let mut saved = Ok(());
    let mut r = if cfg.max_combinations != 0 && done >= cfg.max_combinations {
        no_picks(ckpt.remaining())
    } else {
        let residual = tumor.splice_columns(&ckpt.uncovered_mask);
        let rest = DistributedConfig {
            max_combinations: cfg.max_combinations.saturating_sub(done),
            ..*cfg
        };
        let mut on_pick = |genes: [u32; 4]| {
            for (m, c) in ckpt.uncovered_mask.iter_mut().zip(tumor.cover_mask(&genes)) {
                *m &= !c;
            }
            ckpt.chosen.push(genes);
            if saved.is_ok() {
                saved = save(&ckpt);
            }
        };
        drive(
            &residual,
            normal,
            &rest,
            faults,
            params,
            obs,
            Some(&mut on_pick),
        )
    };
    saved?;
    // Every pick went through `on_pick`, so the checkpoint holds the panel.
    r.result.combinations = ckpt.chosen;
    Ok(r)
}

/// A run that picked nothing, with `uncovered` tumor samples left.
fn no_picks(uncovered: u32) -> FtDistResult {
    FtDistResult {
        result: DistResult {
            combinations: Vec::new(),
            iterations: Vec::new(),
            uncovered,
        },
        recovery: RecoveryStats::default(),
    }
}

/// The driver loop behind both entry points. `on_pick` sees each accepted
/// combination, in `tumor`'s gene ids, as soon as every rank has it.
fn drive(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &DistributedConfig,
    faults: Option<&FaultState>,
    params: FtParams,
    obs: &Obs,
    mut on_pick: Option<&mut dyn FnMut([u32; 4])>,
) -> FtDistResult {
    if cfg.kernelize {
        let (red_t, red_n, cert) = kernelize_broadcast(tumor, normal, cfg, obs);
        if cert.kept_genes() < 4 {
            // Every original combination contains a removed gene, so the
            // unkernelized run stalls on iteration 1 with an empty panel.
            return no_picks(tumor.n_samples() as u32);
        }
        let inner = DistributedConfig {
            kernelize: false,
            ..*cfg
        };
        let cert_ref = &cert;
        let mut unmapped = on_pick.map(|f| move |c| f(cert_ref.unmap_combo(c)));
        let hook = unmapped.as_mut().map(|f| f as &mut dyn FnMut([u32; 4]));
        let mut r = drive(&red_t, &red_n, &inner, faults, params, obs, hook);
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
        if let Some(f) = on_pick.as_mut() {
            f(best.genes);
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
            let lazy =
                distributed_discover4_ft(&t, &n, &base, None, FtParams::default(), &obs).result;
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
}
