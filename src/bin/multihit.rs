//! `multihit` — command-line multi-hit combination discovery.
//!
//! ```text
//! multihit synth    --out-dir DIR [--genes G] [--tumor NT] [--normal NN]
//!                   [--hits H] [--seed S]
//! multihit discover --tumor T.maf --normal N.maf --hits H [--out R.tsv]
//!                   [--publish HOST:PORT] [--max-combos N]
//!                   [--cohort LABEL] [--no-prune]
//!                   [--no-kernelize] [--no-block-sweep] [--sparse auto|on|off]
//!                   [--scan auto|scalar] [--metrics-out M.jsonl] [--trace]
//! multihit classify --results R.tsv --tumor T.maf --normal N.maf
//! multihit cluster  [--dataset brca|acc] [--nodes N] [--scheduler ea|ed|ec]
//!                   [--mtbf S] [--ckpt-write S] [--recovery-time S]
//!                   [--metrics-out M.jsonl] [--trace]
//! multihit cluster  --inject SPECS [--nodes N] [--scheduler ea|ed|ec]
//!                   [--seed S] [--ft-timeout-ms MS]
//!                   [--metrics-out M.jsonl] [--trace]
//! multihit serve    (--results DIR | --synth [--seed S]) [--addr HOST:PORT]
//!                   [--shards S] [--batch-max B] [--queue-cap Q]
//!                   [--cache-cap C] [--admit-rps R]
//!                   [--admit-burst-secs S] [--reactors N]
//!                   [--duration-secs T] [--metrics-out M.jsonl] [--trace]
//! multihit loadgen  [--proto inproc|json|binary|all] [--clients N]
//!                   [--connections C] [--inflight F] [--window W]
//!                   [--requests R] [--profiles P] [--seed S] [--swaps K]
//!                   [--swap-gap-ms MS] [--publish] [--shards S]
//!                   [--batch-max B] [--queue-cap Q] [--cache-cap C]
//!                   [--tenants N] [--admit-rps R]
//!                   [--metrics-out M.jsonl] [--trace]
//! ```
//!
//! `synth` writes a synthetic cohort as a pair of MAF files plus the planted
//! ground truth; `discover` runs the greedy weighted-set-cover search over
//! two MAF files and writes a results TSV; `classify` evaluates a results
//! file as a tumor/normal classifier against held-out MAFs; `cluster` runs
//! the modeled paper-scale cluster simulation through the discrete-event
//! timeline and reports per-rank busy/idle attribution. With `--mtbf` the
//! modeled run additionally prices node failures, checkpoint writes, and
//! restarts. With `--inject` the subcommand instead runs a *functional*
//! fault-injection demo: real rank threads on a synthetic cohort under a
//! deterministic fault plan (e.g. `--inject rank-kill=1@2`), verified
//! bit-identical against single-process `discover` on the same cohort, with
//! the ranks' pruning (`scored_combos`, `pruned_fraction`) and the recovery
//! bill (re-executed λ-work, retransmits, checkpoint fallbacks) printed.
//! The run saves a checkpoint before its first pick and after each one, in
//! a temporary directory that is removed on exit; `ckpt-truncate=K` and
//! `ckpt-bitflip=K` damage save K (counting from 0), and
//! `resumed_combinations` is how many picks a resume from those saves
//! would start with. `--ft-timeout-ms` is the probe interval: how long a rank waits on a silent
//! peer before probing it again. It paces retransmission and how fast a kill
//! is noticed; it never evicts a peer for being slow. Every line of the
//! report is fixed by the seed and the plan except the three prefixed
//! `paced_` (retransmissions, retransmit requests, probe timeouts): probes
//! are paced by the clock, so how many a run needs depends on how the rank
//! threads are scheduled. Plans
//! may also grow the roster mid-run: `rank-join=R-K` admits rank `R` at the
//! iteration-`K` barrier through the elastic membership protocol (boundary
//! slab moves instead of a full re-shard).
//!
//! `serve` loads discovered panels into the batched classification server
//! and answers both wire protocols (JSON-lines and length-prefixed binary
//! frames, negotiated per connection by the first byte) on an event-loop
//! TCP front end; with `--admit-rps` the server additionally enforces
//! per-tenant fair-share admission (token buckets keyed by the tenant id
//! carried in both protocols) ahead of the shed-on-full queues.
//! `discover --publish HOST:PORT` ships the winning panels straight into
//! a live server as an atomic registry-generation swap instead of (or in
//! addition to) writing a TSV. `loadgen` drives the same server —
//! in-process pipelined windows and/or over TCP in either protocol — with
//! registry hot swaps mid-load (over the publish control frame when
//! `--publish` is set), cross-checks every verdict against scalar
//! classification of the registry generation stamped on the response, and
//! prints a per-phase summary. With `--tenants N` it appends a fairness
//! phase: one overloaded tenant at 4× its fair share of `--admit-rps`
//! against N−1 well-behaved tenants, gating that the well-behaved keep
//! ≥90% of fair-share goodput and every shed is attributed to the right
//! tenant. `loadgen` exits non-zero on any lost response, divergence,
//! shed response without a matching queue-full or admission rejection,
//! misattributed shed, starved well-behaved tenant, or binary/JSON
//! cross-check mismatch — the CI serving gate.
//!
//! Each subcommand accepts only the flags listed above for it; any other
//! `--flag` is an error that names it, and so is a flag that takes a value
//! when no value follows it. `cluster` refuses the flags of the mode it is
//! not running: `--dataset`, `--mtbf`, `--ckpt-write` and `--recovery-time`
//! with `--inject`, and `--seed`, `--ft-timeout-ms`, `--frontier-k` and
//! `--kernelize` without it.
//!
//! `--metrics-out` writes the observability stream (JSON lines: spans,
//! per-iteration/per-rank points, final counters) produced by the run;
//! `--trace` additionally echoes each record to stderr as it happens.

use multihit::cluster::driver::SchedulerKind;
use multihit::cluster::timing::{model_run_faulty, timeline_run_obs, FailureModel, ModelConfig};
use multihit::core::bitmat::BitMatrix;
use multihit::core::greedy::{discover, discover_obs, GreedyConfig, SparseMode};
use multihit::core::obs::{Obs, RunReport};
use multihit::data::classify::ComboClassifier;
use multihit::data::maf::{matrix_to_records, parse_maf, summarize, write_maf};
use multihit::data::results::ResultsFile;
use multihit::data::synth::{gene_symbols, generate, CohortSpec};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match arg_value(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

fn required(args: &[String], name: &str) -> Result<String, String> {
    arg_value(args, name).ok_or_else(|| format!("missing required argument {name}"))
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Build the run's observability handle from `--metrics-out` / `--trace`.
fn obs_from_args(args: &[String]) -> (Obs, Option<String>) {
    let metrics_out = arg_value(args, "--metrics-out");
    let obs = if has_flag(args, "--trace") {
        Obs::with_trace()
    } else if metrics_out.is_some() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    (obs, metrics_out)
}

/// Write the stream if requested and print a short aggregate summary.
fn finish_obs(obs: &Obs, metrics_out: Option<&str>) -> Result<(), String> {
    if !obs.is_enabled() {
        return Ok(());
    }
    if let Some(path) = metrics_out {
        obs.write_json_lines(Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote metrics stream to {path}");
    }
    let report = RunReport::from_events(&obs.events());
    if let Some(k) = &report.kernelize {
        eprintln!(
            "kernelize: {} -> {} genes ({:.1}% removed: {} useless, {} dominated) in {:.3} ms",
            k.orig_genes,
            k.kept_genes,
            100.0 * k.gene_reduction,
            k.useless_genes,
            k.dominated_genes,
            k.kernelize_ns as f64 / 1e6,
        );
        eprintln!(
            "kernelize: columns -{} zero-tumor -{} zero-normal -{} ones-normal; detected {} forced, {} duplicate",
            k.zero_tumor_cols, k.zero_normal_cols, k.ones_normal_cols, k.forced_tumor_cols, k.dup_tumor_cols,
        );
    }
    if !report.greedy_iters.is_empty() {
        eprintln!(
            "greedy: {} iterations, {} combinations scored, {:.3} ms scanning",
            report.greedy_iters.len(),
            report.total_combos_scored(),
            report.total_scan_ns() as f64 / 1e6
        );
        eprintln!(
            "scan: kernel {}, {:.1}% pruned ({} subtrees), {} blocks ({} steals)",
            multihit::core::kernel::active().name(),
            100.0 * report.pruned_fraction(),
            report
                .greedy_iters
                .iter()
                .map(|i| i.pruned_subtrees)
                .sum::<u64>(),
            report.total_steal_blocks(),
            report.greedy_iters.iter().map(|i| i.steals).sum::<u64>(),
        );
        if report.total_words_skipped() > 0 {
            eprintln!(
                "sparse: {} all-zero words skipped across rebuilds",
                report.total_words_skipped()
            );
        }
        eprintln!(
            "frontier: {} hits / {} full rescans ({:.1}% hit rate), {} combos rescored",
            report.frontier_hits(),
            report.full_rescans(),
            100.0 * report.frontier_hit_rate(),
            report.total_frontier_rescored(),
        );
    }
    if !report.ranks.is_empty() {
        eprintln!(
            "ranks: {} ranks, imbalance {:.3}, mean utilization {:.1}%",
            report.ranks.len(),
            report.rank_imbalance(),
            100.0 * report.mean_rank_utilization()
        );
    }
    if report.serve.requests > 0 {
        eprintln!(
            "serve: {} requests ({} ok, {} shed, {} errors), cache hit rate {:.1}%, batch fill {:.1}%, p99 {:.3} ms",
            report.serve.requests,
            report.serve.ok,
            report.serve.shed,
            report.serve.errors,
            100.0 * report.serve.cache_hit_rate(),
            100.0 * report.serve.mean_batch_fill(),
            report.serve.p99_latency_ns as f64 / 1e6,
        );
    }
    Ok(())
}

/// Load a MAF file and summarize it against a gene universe built from the
/// union of symbols in the provided MAF texts.
fn load_matrices(
    tumor_path: &str,
    normal_path: &str,
) -> Result<(BitMatrix, BitMatrix, Vec<String>), String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    // The records borrow their symbols and barcodes from the two texts.
    let (t_text, n_text) = (read(tumor_path)?, read(normal_path)?);
    let t_recs = parse_maf(&t_text).map_err(|e| format!("{tumor_path}: {e}"))?;
    let n_recs = parse_maf(&n_text).map_err(|e| format!("{normal_path}: {e}"))?;
    let mut symbols: Vec<&str> = t_recs
        .iter()
        .chain(n_recs.iter())
        .map(|r| r.hugo_symbol.as_ref())
        .collect();
    symbols.sort_unstable();
    symbols.dedup();
    let genes: Vec<String> = symbols.into_iter().map(str::to_string).collect();
    let index: HashMap<String, usize> = genes.iter().cloned().zip(0..).collect();
    let tumor = summarize(&t_recs, &index);
    let normal = summarize(&n_recs, &index);
    eprintln!(
        "universe: {} genes; tumor: {} samples; normal: {} samples",
        genes.len(),
        tumor.samples.len(),
        normal.samples.len()
    );
    Ok((tumor.matrix, normal.matrix, genes))
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let out_dir = required(args, "--out-dir")?;
    let spec = CohortSpec {
        n_genes: parse_or(args, "--genes", 40usize)?,
        n_tumor: parse_or(args, "--tumor", 120usize)?,
        n_normal: parse_or(args, "--normal", 80usize)?,
        n_driver_combos: parse_or(args, "--combos", 3usize)?,
        hits_per_combo: parse_or(args, "--hits", 3usize)?,
        driver_penetrance: parse_or(args, "--penetrance", 0.9f64)?,
        passenger_rate_tumor: parse_or(args, "--noise-tumor", 0.04f64)?,
        passenger_rate_normal: parse_or(args, "--noise-normal", 0.015f64)?,
        seed: parse_or(args, "--seed", 7u64)?,
    };
    let cohort = generate(&spec);
    let names = gene_symbols(&cohort);
    let dir = Path::new(&out_dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{out_dir}: {e}"))?;
    let write = |name: &str, text: String| -> Result<(), String> {
        let p = dir.join(name);
        std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))?;
        println!("wrote {}", p.display());
        Ok(())
    };
    write(
        "tumor.maf",
        write_maf(&matrix_to_records(&cohort.tumor, &names, "TUMOR")),
    )?;
    write(
        "normal.maf",
        write_maf(&matrix_to_records(&cohort.normal, &names, "NORMAL")),
    )?;
    let truth = cohort
        .planted
        .iter()
        .map(|c| {
            c.iter()
                .map(|&g| names[g as usize].clone())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join("\n");
    write("truth.txt", truth + "\n")?;
    Ok(())
}

/// Uniform row shape across hit counts: (iteration, genes, F, TP, TN).
type DiscoveryRow = (usize, Vec<u32>, f64, u32, u32);

fn run_discovery(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    hits: usize,
    cfg: &GreedyConfig,
    obs: &Obs,
) -> Result<Vec<DiscoveryRow>, String> {
    macro_rules! run {
        ($h:literal) => {{
            Ok(discover_obs::<$h>(tumor, normal, cfg, obs)
                .iterations
                .iter()
                .enumerate()
                .map(|(i, rec)| (i, rec.best.genes.to_vec(), rec.f, rec.best.tp, rec.best.tn))
                .collect())
        }};
    }
    match hits {
        2 => run!(2),
        3 => run!(3),
        4 => run!(4),
        5 => run!(5),
        h => Err(format!("--hits {h} not supported (2-5)")),
    }
}

fn cmd_discover(args: &[String]) -> Result<(), String> {
    let tumor_path = required(args, "--tumor")?;
    let normal_path = required(args, "--normal")?;
    let hits: usize = parse_or(args, "--hits", 3usize)?;
    let max: usize = parse_or(args, "--max-combos", 0usize)?;
    let cohort = arg_value(args, "--cohort").unwrap_or_else(|| "cohort".to_string());
    let out = arg_value(args, "--out");

    let prune = !has_flag(args, "--no-prune");
    let frontier_k = parse_or(
        args,
        "--frontier-k",
        multihit::core::frontier::DEFAULT_FRONTIER_K,
    )?;
    match arg_value(args, "--scan").as_deref() {
        None | Some("auto") => multihit::core::kernel::force_scalar(false),
        Some("scalar") => multihit::core::kernel::force_scalar(true),
        Some(other) => return Err(format!("unknown scan mode {other} (auto|scalar)")),
    }
    let kernelize = !has_flag(args, "--no-kernelize");
    let block_sweep = !has_flag(args, "--no-block-sweep");
    let sparse = match arg_value(args, "--sparse").as_deref() {
        None | Some("auto") => SparseMode::Auto,
        Some("on") => SparseMode::On,
        Some("off") => SparseMode::Off,
        Some(other) => return Err(format!("unknown sparse mode {other} (auto|on|off)")),
    };

    let cfg = GreedyConfig {
        max_combinations: max,
        prune,
        frontier_k,
        kernelize,
        block_sweep,
        sparse,
        ..GreedyConfig::default()
    };

    let (obs, metrics_out) = obs_from_args(args);
    let (tmat, nmat, genes) = load_matrices(&tumor_path, &normal_path)?;
    let rows = run_discovery(&tmat, &nmat, hits, &cfg, &obs)?;
    finish_obs(&obs, metrics_out.as_deref())?;

    let mut rf = ResultsFile {
        cohort,
        hits,
        rows: Vec::new(),
    };
    for (iteration, gene_ids, f, tp, tn) in rows {
        rf.rows.push(multihit::data::results::ResultRow {
            iteration,
            genes: gene_ids
                .iter()
                .map(|&g| genes[g as usize].clone())
                .collect(),
            f,
            tp,
            tn,
        });
    }
    let text = rf.to_tsv();
    match out {
        Some(p) => {
            std::fs::write(&p, &text).map_err(|e| format!("{p}: {e}"))?;
            println!("wrote {p} ({} combinations)", rf.rows.len());
        }
        None if arg_value(args, "--publish").is_some() => {}
        None => print!("{text}"),
    }
    // Ship the winning panel straight into a live server: the snapshot
    // compiles server-side and arc-swaps in as a new registry generation.
    if let Some(addr) = arg_value(args, "--publish") {
        let generation = multihit::serve::publish::publish_to(&addr, std::slice::from_ref(&rf))?;
        println!(
            "published {} combination(s) to {addr} as generation {generation}",
            rf.rows.len()
        );
    }
    Ok(())
}

fn cmd_classify(args: &[String]) -> Result<(), String> {
    let results_path = required(args, "--results")?;
    let tumor_path = required(args, "--tumor")?;
    let normal_path = required(args, "--normal")?;
    let text =
        std::fs::read_to_string(&results_path).map_err(|e| format!("{results_path}: {e}"))?;
    let rf = ResultsFile::from_tsv(&text)?;
    let (tmat, nmat, genes) = load_matrices(&tumor_path, &normal_path)?;
    let index: HashMap<&str, u32> = genes
        .iter()
        .enumerate()
        .map(|(i, g)| (g.as_str(), i as u32))
        .collect();
    let mut clf = ComboClassifier::default();
    for row in &rf.rows {
        let ids: Option<Vec<u32>> = row
            .genes
            .iter()
            .map(|g| index.get(g.as_str()).copied())
            .collect();
        match ids {
            Some(ids) => clf.combinations.push(ids),
            None => eprintln!(
                "warning: combination {:?} has genes absent from the MAFs",
                row.genes
            ),
        }
    }
    let perf = clf.evaluate(&tmat, &nmat);
    let (slo, shi) = perf.sensitivity.ci95();
    let (plo, phi) = perf.specificity.ci95();
    println!(
        "sensitivity\t{:.4}\t[{:.4}, {:.4}]\t({}/{})",
        perf.sensitivity.value(),
        slo,
        shi,
        perf.sensitivity.hits,
        perf.sensitivity.total
    );
    println!(
        "specificity\t{:.4}\t[{:.4}, {:.4}]\t({}/{})",
        perf.specificity.value(),
        plo,
        phi,
        perf.specificity.hits,
        perf.specificity.total
    );
    Ok(())
}

fn parse_scheduler(args: &[String]) -> Result<Option<SchedulerKind>, String> {
    match arg_value(args, "--scheduler").as_deref() {
        None => Ok(None),
        Some("ea") => Ok(Some(SchedulerKind::EquiArea)),
        Some("ed") => Ok(Some(SchedulerKind::EquiDistance)),
        Some("ec") => Ok(Some(SchedulerKind::EquiCost)),
        Some(other) => Err(format!("unknown scheduler {other} (ea|ed|ec)")),
    }
}

/// `cluster` flags only the modelled run reads.
const MODELLED_ONLY: [&str; 4] = ["--dataset", "--mtbf", "--ckpt-write", "--recovery-time"];
/// `cluster` flags only the `--inject` run reads.
const INJECT_ONLY: [&str; 4] = ["--seed", "--ft-timeout-ms", "--frontier-k", "--kernelize"];

fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let nodes: usize = parse_or(args, "--nodes", 8usize)?;
    if nodes == 0 {
        return Err("--nodes must be positive".to_string());
    }
    let (obs, metrics_out) = obs_from_args(args);
    // Metrics are this subcommand's whole point: collect even without
    // --metrics-out so the summary below has data.
    let obs = if obs.is_enabled() {
        obs
    } else {
        Obs::enabled()
    };

    // The two modes share one flag list; a flag only the other mode reads
    // would be silently ignored.
    let inject = arg_value(args, "--inject");
    let (foreign, mode) = if inject.is_some() {
        (MODELLED_ONLY, "with")
    } else {
        (INJECT_ONLY, "without")
    };
    if let Some(f) = foreign.iter().find(|f| has_flag(args, f)) {
        return Err(format!("cluster {mode} --inject does not accept {f}"));
    }
    if let Some(specs) = inject {
        cluster_fault_demo(args, &specs, nodes, &obs)?;
        return finish_obs(&obs, metrics_out.as_deref());
    }

    let dataset = arg_value(args, "--dataset").unwrap_or_else(|| "acc".to_string());
    let mut cfg = match dataset.as_str() {
        "brca" => ModelConfig::brca(nodes),
        "acc" => ModelConfig::acc(nodes),
        other => return Err(format!("unknown dataset {other} (brca|acc)")),
    };
    if let Some(s) = parse_scheduler(args)? {
        cfg.scheduler = s;
    }
    eprintln!(
        "modeling {dataset} on {nodes} nodes ({} GPUs), scheduler {}",
        cfg.shape.total_gpus(),
        cfg.scheduler.name()
    );
    let timelines = timeline_run_obs(&cfg, &obs);
    let total: f64 = timelines.iter().map(|t| t.makespan).sum();
    println!("iterations\t{}", timelines.len());
    println!("makespan_s\t{total:.4}");
    let report = RunReport::from_events(&obs.events());
    println!("rank_imbalance\t{:.4}", report.rank_imbalance());
    println!("rank_utilization\t{:.4}", report.mean_rank_utilization());
    println!(
        "sched_partition_ns\t{}",
        report.partition_ns.iter().sum::<u64>()
    );
    if let Some(mtbf) = arg_value(args, "--mtbf") {
        let fm = FailureModel {
            node_mtbf_s: mtbf.parse().map_err(|_| format!("bad --mtbf: {mtbf}"))?,
            ckpt_write_s: parse_or(args, "--ckpt-write", 1.0f64)?,
            recovery_s: parse_or(args, "--recovery-time", 120.0f64)?,
        };
        let run = model_run_faulty(&cfg, &fm, &obs);
        println!("modeled_failures\t{}", run.failures.len());
        println!("ckpt_cost_s\t{:.2}", run.ckpt_cost_s);
        println!("rework_s\t{:.2}", run.rework_s);
        println!("restart_s\t{:.2}", run.restart_s);
        println!("faulty_total_s\t{:.2}", run.total_s);
        println!("young_interval_s\t{:.2}", run.expected.interval_s);
        println!(
            "expected_overhead_fraction\t{:.4}",
            run.expected.overhead_fraction
        );
    }
    finish_obs(&obs, metrics_out.as_deref())?;
    Ok(())
}

/// `cluster --inject`: run the functional driver for real (rank threads
/// on a synthetic cohort) under a deterministic fault plan, saving its
/// checkpoints through the durable store in a temporary directory so
/// `ckpt-*` injections damage real writes, and print the recovery bill and
/// how many picks a resume would start from. Fails unless the surviving
/// ranks reproduce the panel of single-process [`discover`] — a different
/// entry into the engine, so the driver is never checked against itself.
fn cluster_fault_demo(args: &[String], specs: &str, nodes: usize, obs: &Obs) -> Result<(), String> {
    use multihit::cluster::checkpoint::{Checkpoint, CheckpointStore};
    use multihit::cluster::driver::{distributed_discover4_checkpointed, DistributedConfig};
    use multihit::cluster::fault::{FaultPlan, FaultSpec, FaultState, FtParams};
    use multihit::cluster::topology::ClusterShape;

    let seed: u64 = parse_or(args, "--seed", 2021u64)?;
    let probe_ms: u64 = parse_or(args, "--ft-timeout-ms", 50u64)?;
    let plan = FaultPlan::parse(specs, seed)?;
    // A fault aimed at a rank that never exists can never fire, and a
    // silent no-op would pass for a recovery.
    let joiners: Vec<usize> = plan
        .events
        .iter()
        .filter_map(|e| match *e {
            FaultSpec::RankJoin { rank, .. } => Some(rank),
            _ => None,
        })
        .collect();
    for spec in specs.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if let [FaultSpec::RankKill { rank, .. } | FaultSpec::Straggler { rank, .. }] =
            FaultPlan::parse(spec, seed)?.events[..]
        {
            if rank >= nodes && !joiners.contains(&rank) {
                return Err(format!(
                    "fault spec {spec:?} targets rank {rank}, which never exists \
                     (--nodes {nodes}, and no rank-join admits it)"
                ));
            }
        }
    }
    let cohort = generate(&CohortSpec {
        n_genes: 18,
        n_tumor: 90,
        n_normal: 60,
        n_driver_combos: 3,
        hits_per_combo: 4,
        driver_penetrance: 0.9,
        passenger_rate_tumor: 0.05,
        passenger_rate_normal: 0.02,
        seed,
    });
    let mut cfg = DistributedConfig {
        shape: ClusterShape {
            nodes,
            gpus_per_node: 2,
        },
        max_combinations: 4,
        ..DistributedConfig::default()
    };
    if let Some(s) = parse_scheduler(args)? {
        cfg.scheduler = s;
    }
    cfg.frontier_k = parse_or(args, "--frontier-k", cfg.frontier_k)?;
    cfg.kernelize = has_flag(args, "--kernelize");
    eprintln!(
        "fault-injection demo: {nodes} ranks x {} GPUs, plan [{specs}], seed {seed}",
        cfg.shape.gpus_per_node
    );

    let reference = discover::<4>(
        &cohort.tumor,
        &cohort.normal,
        &GreedyConfig {
            max_combinations: cfg.max_combinations,
            ..GreedyConfig::default()
        },
    );
    let faults = FaultState::new(plan, obs);
    let params = FtParams {
        timeout: std::time::Duration::from_millis(probe_ms),
        ..FtParams::default()
    };
    // The run saves a checkpoint before its first pick and after each
    // one; loading them back is what a resumed run would start from.
    let dir = std::env::temp_dir().join(format!("multihit-inject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let store = CheckpointStore::new(dir.join("run.ckpt"), obs);
    let run = distributed_discover4_checkpointed(
        &cohort.tumor,
        &cohort.normal,
        &cfg,
        Some(&faults),
        params,
        obs,
        &store,
        Checkpoint::fresh(&cohort.tumor),
    )
    .and_then(|ft| Ok((ft, store.load()?)));
    let _ = std::fs::remove_dir_all(&dir);
    let (ft, resumed) = run?;

    let matches = ft.result.combinations == reference.combinations
        && ft.result.uncovered == reference.uncovered;
    let r = &ft.recovery;
    let report = RunReport::from_events(&obs.events());
    println!("combinations\t{}", ft.result.combinations.len());
    println!("matches_reference\t{matches}");
    let scored = obs.sum("rank_exec", "scored");
    let pruned = obs.sum("rank_exec", "pruned_combos");
    println!("scored_combos\t{scored}");
    println!(
        "pruned_fraction\t{:.4}",
        pruned as f64 / (scored + pruned).max(1) as f64
    );
    println!("faults_fired\t{}", faults.fired().len());
    println!("dead_ranks\t{:?}", r.dead_ranks);
    println!("joined_ranks\t{:?}", r.joined_ranks);
    println!("membership_epochs\t{}", r.membership_epochs);
    println!("re_executed_iterations\t{}", r.re_executed_iterations);
    println!("re_executed_combos\t{}", r.re_executed_combos);
    println!("crc_failures\t{}", r.ft.crc_failures);
    // Probes are paced by the clock, so these three vary between runs of
    // one seed and plan; every other line is fixed by the seed and plan.
    println!("paced_retransmits\t{}", r.ft.retransmits);
    println!("paced_retrans_requests\t{}", r.ft.retrans_requests);
    println!("paced_timeouts\t{}", r.ft.timeouts);
    println!("ckpt_fallbacks\t{}", report.ckpt_fallbacks());
    println!("resumed_combinations\t{}", resumed.chosen.len());
    if !matches {
        // Joins admit ids that were not alive and deaths remove live ones,
        // so this is the roster the run ended with.
        if nodes + r.joined_ranks.len() == r.dead_ranks.len() {
            return Err(format!(
                "every rank died (dead_ranks {:?}): no survivor could finish the run",
                r.dead_ranks
            ));
        }
        return Err("fault-injected run diverged from single-process discovery".to_string());
    }
    Ok(())
}

/// Serving knobs shared by `serve` and `loadgen`.
fn serve_config_from_args(args: &[String]) -> Result<multihit::serve::ServeConfig, String> {
    Ok(multihit::serve::ServeConfig {
        shards: parse_or(args, "--shards", 4usize)?,
        batch_max: parse_or(args, "--batch-max", 64usize)?,
        queue_cap: parse_or(args, "--queue-cap", 1024usize)?,
        cache_cap: parse_or(args, "--cache-cap", 4096usize)?,
        score_delay_ns: 0,
        admission: multihit::serve::AdmissionConfig {
            total_rps: parse_or(args, "--admit-rps", 0u64)?,
            burst_secs: parse_or(args, "--admit-burst-secs", 0.25f64)?,
        },
    })
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use multihit::serve::loadgen::synth_results;
    use multihit::serve::{ModelRegistry, Server};

    let registry = match arg_value(args, "--results") {
        Some(dir) => ModelRegistry::load_dir(Path::new(&dir))?,
        None if has_flag(args, "--synth") => {
            let mut reg = ModelRegistry::new();
            let seed: u64 = parse_or(args, "--seed", 7u64)?;
            reg.insert_results(&synth_results("synth", 48, 24, 3, seed))?;
            reg
        }
        None => return Err("serve needs --results DIR or --synth".to_string()),
    };
    let addr = arg_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let duration_secs: u64 = parse_or(args, "--duration-secs", 0u64)?;
    let (obs, metrics_out) = obs_from_args(args);

    let cfg = serve_config_from_args(args)?;
    eprintln!(
        "serving {} panel(s) {:?}: {} shards, batch {}, queue {}, cache {}",
        registry.len(),
        registry.names(),
        cfg.shards,
        cfg.batch_max,
        cfg.queue_cap,
        cfg.cache_cap
    );
    let reactors: usize = parse_or(args, "--reactors", 1usize)?;
    let server = Server::start(registry, cfg, &obs);
    let handle = multihit::serve::tcp::spawn_with(std::sync::Arc::clone(&server), &addr, reactors)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!("listening on {}", handle.addr());

    if duration_secs == 0 {
        // Serve until killed; the accept loop owns the process from here.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    std::thread::sleep(std::time::Duration::from_secs(duration_secs));
    handle.stop();
    let report = server.shutdown();
    println!("requests\t{}", report.requests);
    println!("ok\t{}", report.ok);
    println!("shed\t{}", report.shed);
    println!("errors\t{}", report.errors);
    finish_obs(&obs, metrics_out.as_deref())
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    use multihit::serve::loadgen::{run, LoadgenConfig, Proto};

    let proto_name = arg_value(args, "--proto").unwrap_or_else(|| "inproc".to_string());
    let proto = Proto::parse(&proto_name)
        .ok_or_else(|| format!("--proto {proto_name}: expected inproc|json|binary|all"))?;
    // The single-tenant phases run without admission; --admit-rps feeds the
    // fairness phase's budget, not their servers (which would shed most
    // of each phase's requests at the admission rate).
    let mut serve = serve_config_from_args(args)?;
    serve.admission = multihit::serve::AdmissionConfig::default();
    let cfg = LoadgenConfig {
        clients: parse_or(args, "--clients", 8usize)?,
        requests: parse_or(args, "--requests", 10_000u64)?,
        profile_pool: parse_or(args, "--profiles", 512usize)?,
        seed: parse_or(args, "--seed", 7u64)?,
        serve,
        proto,
        connections: parse_or(args, "--connections", 64usize)?,
        inflight: parse_or(args, "--inflight", 64usize)?,
        window: parse_or(args, "--window", 256usize)?,
        swaps: parse_or(args, "--swaps", 1u64)?,
        swap_gap_ms: parse_or(args, "--swap-gap-ms", 20u64)?,
        publish: has_flag(args, "--publish"),
        tenants: parse_or(args, "--tenants", 0usize)?,
        admit_rps: parse_or(args, "--admit-rps", 2_000u64)?,
    };
    let (obs, metrics_out) = obs_from_args(args);
    // The summary below always needs the serve aggregates.
    let obs = if obs.is_enabled() {
        obs
    } else {
        Obs::enabled()
    };
    eprintln!(
        "loadgen: proto {proto_name}, {} clients, {} conns (inflight {}), {} requests, pool {}, {} shards, batch {}, window {}, {} swap(s)",
        cfg.clients,
        cfg.connections,
        cfg.inflight,
        cfg.requests,
        cfg.profile_pool,
        cfg.serve.shards,
        cfg.serve.batch_max,
        cfg.window,
        cfg.swaps
    );

    let outcome = run(&cfg, &obs);
    for (name, phase) in [
        ("inproc", outcome.inproc.as_ref()),
        ("json", outcome.json.as_ref()),
        ("binary", outcome.binary.as_ref()),
    ] {
        let Some(p) = phase else { continue };
        println!(
            "{name}\t{:.0} rps\t{} ok\t{} shed\t{} swaps\tp99 {:.3} ms",
            p.throughput_rps,
            p.report.ok,
            p.report.shed,
            p.swaps,
            p.client_p99_ns as f64 / 1e6
        );
    }
    if let Some(fair) = outcome.fairness.as_ref() {
        println!(
            "fairness\t{} tenants\tmin goodput {:.3}\t{} misattributed\tok {:?}\tshed {:?}",
            fair.issued.len(),
            fair.min_well_behaved_goodput,
            fair.attribution_mismatches,
            fair.ok,
            fair.shed
        );
    }
    println!("lost\t{}", outcome.lost());
    println!("divergent\t{}", outcome.divergent());
    println!(
        "crosscheck\t{}/{} mismatched",
        outcome.crosscheck_mismatches, outcome.crosscheck_samples
    );
    finish_obs(&obs, metrics_out.as_deref())?;

    // The serving gate: any of these is a correctness failure, not a
    // performance disappointment.
    if outcome.lost() > 0 {
        return Err(format!("{} responses lost", outcome.lost()));
    }
    if outcome.divergent() > 0 {
        return Err(format!(
            "{} verdicts diverged from scalar classification of their registry generation",
            outcome.divergent()
        ));
    }
    if outcome.shed() != outcome.queue_rejected_full() + outcome.admission_shed() {
        return Err(format!(
            "shed responses ({}) do not match queue-full rejections ({}) plus admission sheds ({})",
            outcome.shed(),
            outcome.queue_rejected_full(),
            outcome.admission_shed()
        ));
    }
    if outcome.crosscheck_mismatches > 0 {
        return Err(format!(
            "{} binary/JSON cross-check mismatches",
            outcome.crosscheck_mismatches
        ));
    }
    if let Some(fair) = outcome.fairness.as_ref() {
        // The multi-tenant isolation gate: an overloaded neighbor must not
        // dent anyone else's goodput, and every shed must be billed to the
        // tenant that caused it.
        if fair.lost > 0 || fair.divergent > 0 {
            return Err(format!(
                "fairness phase lost {} / diverged {}",
                fair.lost, fair.divergent
            ));
        }
        if fair.attribution_mismatches > 0 {
            return Err(format!(
                "{} responses misattributed across tenants",
                fair.attribution_mismatches
            ));
        }
        if fair.min_well_behaved_goodput < 0.9 {
            return Err(format!(
                "well-behaved tenant goodput {:.3} fell below the 0.9 fair-share gate",
                fair.min_well_behaved_goodput
            ));
        }
    }
    Ok(())
}

const USAGE: &str = "usage: multihit <synth|discover|classify|cluster|serve|loadgen> [options]
  synth    --out-dir DIR [--genes G --tumor NT --normal NN --combos C
           --hits H --penetrance P --noise-tumor X --noise-normal Y --seed S]
  discover --tumor T.maf --normal N.maf [--hits H --max-combos N
           --cohort LABEL --out R.tsv --publish HOST:PORT
           --no-prune --scan auto|scalar
           --no-kernelize --no-block-sweep --sparse auto|on|off
           --frontier-k K --metrics-out M.jsonl --trace]
  classify --results R.tsv --tumor T.maf --normal N.maf
  cluster  [--dataset brca|acc --nodes N --scheduler ea|ed|ec
           --mtbf S --ckpt-write S --recovery-time S
           --metrics-out M.jsonl --trace]
  cluster  --inject SPECS [--nodes N --scheduler ea|ed|ec --seed S
           --ft-timeout-ms MS --frontier-k K --kernelize
           --metrics-out M.jsonl --trace]
           SPECS: rank-kill=R@K | rank-join=R-K | straggler=R@F
                  | msg-drop=F-T[@N] | msg-corrupt=F-T[@N]
                  | ckpt-truncate=K | ckpt-bitflip=K
           --ft-timeout-ms is the probe interval for silent peers (default
           50); a slow rank is waited for, only a dead one is dropped
  serve    (--results DIR | --synth [--seed S]) [--addr HOST:PORT --shards S
           --batch-max B --queue-cap Q --cache-cap C
           --admit-rps R --admit-burst-secs B --reactors N
           --duration-secs T --metrics-out M.jsonl --trace]
  loadgen  [--proto inproc|json|binary|all --clients N --connections C
           --inflight F --window W --requests R --profiles P --seed S
           --swaps K --swap-gap-ms MS --publish --shards S --batch-max B
           --queue-cap Q --cache-cap C
           --tenants N --admit-rps R --metrics-out M.jsonl --trace]";

type Subcommand = fn(&[String]) -> Result<(), String>;

/// Every subcommand with the flags it accepts: first those that take a
/// value, then the switches. Any other argument that begins with `--` is
/// refused, so a misspelt flag fails the run instead of silently leaving
/// its default in place; a value flag with nothing after it, or with a
/// `--flag` after it, is refused too.
const COMMANDS: &[(&str, Subcommand, &str, &str)] = &[
    (
        "synth",
        cmd_synth,
        "--out-dir --genes --tumor --normal --combos --hits --penetrance \
         --noise-tumor --noise-normal --seed",
        "",
    ),
    (
        "discover",
        cmd_discover,
        "--tumor --normal --hits --max-combos --cohort --out --publish --scan --sparse \
         --frontier-k --metrics-out",
        "--no-prune --no-kernelize --no-block-sweep --trace",
    ),
    ("classify", cmd_classify, "--results --tumor --normal", ""),
    (
        "cluster",
        cmd_cluster,
        "--dataset --nodes --scheduler --mtbf --ckpt-write --recovery-time --inject \
         --seed --ft-timeout-ms --frontier-k --metrics-out",
        "--kernelize --trace",
    ),
    (
        "serve",
        cmd_serve,
        "--results --seed --addr --shards --batch-max --queue-cap --cache-cap \
         --admit-rps --admit-burst-secs --reactors --duration-secs --metrics-out",
        "--synth --trace",
    ),
    (
        "loadgen",
        cmd_loadgen,
        "--proto --clients --connections --inflight --window --requests --profiles \
         --seed --swaps --swap-gap-ms --shards --batch-max --queue-cap --cache-cap \
         --admit-rps --tenants --metrics-out",
        "--publish --trace",
    ),
];

/// Check `args` against a subcommand's value flags and switches.
fn check_flags(cmd: &str, args: &[String], values: &str, switches: &str) -> Result<(), String> {
    let mut args = args.iter();
    while let Some(a) = args.next() {
        if values.split_whitespace().any(|f| f == a) {
            match args.next() {
                Some(v) if !v.starts_with("--") => {}
                _ => return Err(format!("{a} needs a value")),
            }
        } else if a.starts_with("--") && !switches.split_whitespace().any(|f| f == a) {
            return Err(format!("{cmd} does not accept {a} (see --help)"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match COMMANDS.iter().find(|(name, ..)| name == cmd) {
        Some((name, run, values, switches)) => {
            check_flags(name, rest, values, switches).and_then(|()| run(rest))
        }
        None if matches!(cmd.as_str(), "--help" | "-h" | "help") => {
            println!("{USAGE}");
            Ok(())
        }
        None => Err(format!("unknown command {cmd}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
