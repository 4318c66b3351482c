//! `cluster_acc_h4`: the functional distributed driver on two rank threads.
//! The set-up body loads an ACC-shaped exome-wide MAF against a 200-gene
//! reference list and partitions the λ-range; the timed body is
//! `distributed_discover4` to full cover, every iteration an exhaustive scan
//! of C(200,4) split over the two ranks.

use super::{check_golden, check_reps_agree, picks, Opts, Verdict, Workload, ORACLE_GENES};
use crate::inputs::{self, MafInput};
use crate::measure::{ns_per_call, wall_s};
use crate::metrics::Layers;
use crate::oracle::{self, Pick};
use crate::probes;
use crate::trace::{total_s, Span, Tracer};
use multihit_cluster::checkpoint::{Checkpoint, CheckpointStore};
use multihit_cluster::comm::run_ranks;
use multihit_cluster::driver::{self, DistResult, DistributedConfig, SchedulerKind};
use multihit_cluster::fault::{FaultPlan, FaultState, FtParams};
use multihit_cluster::sched::{self, Partition};
use multihit_cluster::topology::ClusterShape;
use multihit_core::bitmat::BitMatrix;
use multihit_core::greedy::{self, GreedyConfig};
use multihit_core::obs::Obs;
use multihit_core::schemes::Scheme4;
use multihit_core::sweep::levels_scheme4;
use multihit_data::CancerType;
use multihit_gpusim::exec::run_maxf4;
use std::path::PathBuf;

const RANKS: usize = 2;

fn cluster_cfg(nodes: usize) -> DistributedConfig {
    DistributedConfig {
        shape: ClusterShape {
            nodes,
            gpus_per_node: 1,
        },
        scheme: Scheme4::ThreeXOne,
        scheduler: SchedulerKind::EquiArea,
        ..DistributedConfig::default()
    }
}

pub struct ClusterAcc {
    opts: Opts,
    input: MafInput,
    oracle: (BitMatrix, BitMatrix),
    /// Where the checkpoint probe writes (inside the benchmark's `out/`).
    scratch: PathBuf,
}

pub struct Ready {
    tumor: BitMatrix,
    normal: BitMatrix,
    partitions: Vec<Partition>,
}

fn panel(result: &DistResult) -> Vec<Pick> {
    picks(result.iterations.iter().map(|it| it.best))
}

impl ClusterAcc {
    pub fn new(opts: Opts, out_dir: &std::path::Path) -> Self {
        let spec = CancerType::Acc.spec(inputs::COHORT_SEED);
        // A 200-gene problem alone loads in under a millisecond, too short
        // to time. The MAF covers an exome of the paper's 19,411 genes,
        // unfiltered (three silent records for every protein-altering one),
        // and `summarize` skips the genes outside the 200-gene reference
        // list, as it would on a real exome-wide file. A sample with no
        // record inside the list gets no column: 287 of the 329 normals do.
        let (exome, universe) = if opts.quick {
            (400, 48)
        } else {
            (CancerType::Brca.dimensions().2, 200)
        };
        let cohort = inputs::cohort(spec, exome);
        let focus = inputs::focus_genes(&cohort, ORACLE_GENES.min(universe));
        ClusterAcc {
            opts,
            input: inputs::maf_input(
                &cohort,
                &inputs::focus_genes(&cohort, universe),
                3,
                opts.seed,
            ),
            oracle: (
                cohort.tumor.select_rows(&focus),
                cohort.normal.select_rows(&focus),
            ),
            scratch: out_dir.join(format!("checkpoint_{}.txt", std::process::id())),
        }
    }
}

impl Workload for ClusterAcc {
    type Ready = Ready;
    type Output = DistResult;

    fn name(&self) -> &'static str {
        "cluster_acc_h4"
    }

    fn cpus(&self) -> usize {
        RANKS
    }

    fn setup(&self, tr: &mut Tracer) -> Ready {
        let (tumor, normal) = inputs::load(tr, &self.input);
        let g = tumor.n_genes() as u32;
        let cfg = cluster_cfg(RANKS);
        let partitions = tr.span("sched.partitions", |_| {
            cfg.scheduler
                .partitions(cfg.scheme, g, cfg.shape.total_gpus())
        });
        Ready {
            tumor,
            normal,
            partitions,
        }
    }

    fn timed(&self, tr: &mut Tracer, ready: &mut Ready) -> DistResult {
        tr.span("driver.distributed_discover4", |tr| {
            let r = driver::distributed_discover4(&ready.tumor, &ready.normal, &cluster_cfg(RANKS));
            tr.count("iterations", r.iterations.len() as u64);
            r
        })
    }

    fn check(&self, outputs: &[DistResult], ready: &Ready, v: &mut Verdict) {
        let panels: Vec<Vec<Pick>> = outputs.iter().map(panel).collect();
        check_reps_agree(&panels, v);
        let (wrong, uncovered) = oracle::replay(&ready.tumor, &ready.normal, &panels[0]);
        v.failed += wrong as u64;
        v.require(uncovered == outputs[0].uncovered, || {
            format!(
                "cluster_acc_h4: replay leaves {uncovered} uncovered, the driver reports {}",
                outputs[0].uncovered
            )
        });
        check_golden(self.name(), &panels[0], &self.opts, v);

        let single = greedy::discover::<4>(&ready.tumor, &ready.normal, &GreedyConfig::default());
        let single = picks(single.iterations.iter().map(|it| it.best));
        v.require(single == panels[0], || {
            format!(
                "cluster_acc_h4: the cluster picks {:?}, single-process discover {single:?}",
                panels[0]
            )
        });

        let (sub_t, sub_n) = &self.oracle;
        const ORACLE_PICKS: usize = 3;
        let capped = DistributedConfig {
            max_combinations: ORACLE_PICKS,
            ..cluster_cfg(RANKS)
        };
        let engine = panel(&driver::distributed_discover4(sub_t, sub_n, &capped));
        let brute = oracle::brute_greedy(sub_t, sub_n, 4, ORACLE_PICKS);
        v.require(engine == brute, || {
            format!("cluster_acc_h4: on the sub-cohort the driver picks {engine:?}, brute force {brute:?}")
        });
    }

    fn layers(
        &self,
        (traced, ready): (&DistResult, &Ready),
        spans: &[Span],
        l: &mut Layers,
        v: &mut Verdict,
    ) {
        let (tumor, normal) = (&ready.tumor, &ready.normal);
        let cfg = cluster_cfg(RANKS);
        let two_rank_s = total_s(spans, "driver.distributed_discover4");
        let want = panel(traced);
        probes::kernel(l);
        inputs::load_layers(l, spans, &self.input);
        l.set(
            "bitmat.packed_mb",
            probes::mib(tumor.packed_bytes() + normal.packed_bytes()),
        );

        l.set("sched.partition_s", total_s(spans, "sched.partitions"));
        let levels = levels_scheme4(cfg.scheme, tumor.n_genes() as u32);
        l.set(
            "sched.imbalance",
            sched::imbalance(&levels, &ready.partitions),
        );

        // Rank 0's share of one iteration, through the simulated-GPU executor.
        let slab = ready.partitions[0];
        let (exec_s, outcome) = wall_s(|| {
            run_maxf4(
                tumor,
                normal,
                cfg.alpha,
                cfg.scheme,
                slab.lo,
                slab.hi,
                cfg.block_size,
            )
        });
        l.set("gpusim.exec_s", exec_s);
        l.set("gpusim.combos", outcome.profile.combos as f64);
        l.set(
            "gpusim.ns_per_combo",
            exec_s * 1e9 / outcome.profile.combos as f64,
        );

        // What an iteration pays to agree on a winner: reduce a 32-byte
        // record to rank 0 and broadcast it back, both ranks live threads.
        const ROUNDS: usize = 10_000;
        let (comm_s, _) = wall_s(|| {
            run_ranks(RANKS, |ctx| {
                for round in 0..ROUNDS {
                    let record = [round as u8; 32];
                    let max = |a: [u8; 32], b: [u8; 32]| a.max(b);
                    let de = |b: &[u8]| <[u8; 32]>::try_from(b).expect("32-byte record");
                    let won = ctx.reduce_to_root(record, max, |r| r.to_vec(), de);
                    std::hint::black_box(ctx.broadcast(won.map(|r| r.to_vec())));
                }
            })
        });
        l.set("comm.reduce_bcast_us", comm_s * 1e6 / ROUNDS as f64);

        l.set("driver.iterations", traced.iterations.len() as f64);
        let (serial_s, serial) =
            wall_s(|| driver::distributed_discover4(tumor, normal, &cluster_cfg(1)));
        l.set("driver.serial_s", serial_s);
        l.set("driver.scaling_eff", serial_s / (RANKS as f64 * two_rank_s));
        v.require(panel(&serial) == want, || {
            "cluster_acc_h4: one rank and two ranks disagree".to_string()
        });
        let (pruned_s, _) =
            wall_s(|| greedy::discover::<4>(tumor, normal, &GreedyConfig::default()));
        l.set("driver.vs_pruned_x", serial_s / pruned_s);

        let obs = Obs::disabled();
        let ft = |faults: Option<&FaultState>| {
            wall_s(|| {
                driver::distributed_discover4_ft(
                    tumor,
                    normal,
                    &cfg,
                    faults,
                    FtParams::default(),
                    &obs,
                )
            })
        };
        let (clean_s, clean) = ft(None);
        l.set("driver.ft_clean_s", clean_s);
        l.set("driver.ft_overhead_frac", clean_s / two_rank_s - 1.0);
        v.require(panel(&clean.result) == want, || {
            "cluster_acc_h4: the fault-tolerant driver disagrees".to_string()
        });
        // Rank 1 dies entering iteration 1; detection is by wall-clock
        // time-outs, so this is a per-layer number and never a gated one.
        let plan = FaultPlan::parse("rank-kill=1@1", self.opts.seed).expect("a valid fault plan");
        let (killed_s, killed) = ft(Some(&FaultState::new(plan, &obs)));
        l.set("driver.kill_recovery_s", killed_s - clean_s);
        l.set(
            "driver.re_executed_combos",
            killed.recovery.re_executed_combos as f64,
        );
        v.require(panel(&killed.result) == want, || {
            "cluster_acc_h4: recovery changed the panel".to_string()
        });

        // Save and load of the run's final checkpoint.
        let mut ckpt = Checkpoint::fresh(tumor);
        ckpt.chosen.clone_from(&traced.combinations);
        let store = CheckpointStore::new(&self.scratch, &obs);
        let dir = self
            .scratch
            .parent()
            .expect("scratch file sits in a directory");
        std::fs::create_dir_all(dir).expect("create the benchmark's out directory");
        let save_ns = ns_per_call(3, 20, |_| store.save(&ckpt, None).expect("save checkpoint"));
        let load_ns = ns_per_call(3, 20, |_| store.load().expect("load checkpoint"));
        l.set("checkpoint.save_s", save_ns / 1e9);
        l.set("checkpoint.load_s", load_ns / 1e9);
        l.set("checkpoint.bytes", ckpt.to_text().len() as f64);
        for ext in ["", ".bak", ".tmp"] {
            let mut sibling = self.scratch.clone().into_os_string();
            sibling.push(ext);
            let _ = std::fs::remove_file(sibling);
        }
    }
}
