//! The repo's benchmark: six workloads, four end-to-end metrics, per-layer
//! numbers timed from outside. See `benchmark/README.md`.
//!
//! ```text
//! multihit-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                    [--quick]
//! multihit-benchmark --quick                  every workload, tiny sizes
//! multihit-benchmark --aa N                   two interleaved sets of N runs
//! multihit-benchmark --print-benchmark-json   the text of BENCHMARK.json
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; everything else goes to standard
//! error. Exit code 1 if any output check failed.

mod aa;
mod affinity;
mod golden;
mod inputs;
mod measure;
mod metrics;
mod oracle;
mod probes;
mod procstat;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use workloads::cluster::ClusterAcc;
use workloads::discover::Discover;
use workloads::scan::ScanExhaustive;
use workloads::serve::Serve;
use workloads::{Opts, Verdict, Workload};

/// Traces and the checkpoint probe's scratch file, relative to the checkout.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    trace: bool,
    aa_runs: Option<usize>,
    print_benchmark_json: bool,
    opts: Opts,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        trace: false,
        aa_runs: None,
        print_benchmark_json: false,
        opts: Opts {
            seed: 2021,
            seconds: metrics::RUN_SECONDS,
            quick: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.opts.seed = number(value()?)?,
            "--seconds" => out.opts.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => out.trace = number(value()?)? != 0,
            "--aa" => out.aa_runs = Some(number(value()?)? as usize),
            "--quick" => out.opts.quick = true,
            "--print-benchmark-json" => out.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn run<W: Workload>(w: &W, opts: &Opts, trace: bool) -> (Verdict, Vec<String>) {
    if trace {
        workloads::run_traced(w, opts, Path::new(OUT_DIR))
    } else {
        workloads::run_end_to_end(w, opts)
    }
}

/// Build the named workload's inputs, run it, print its result line.
fn run_named(name: &str, opts: Opts, trace: bool) -> Result<bool, String> {
    let (verdict, values) = match name {
        "brca_h3" => run(&Discover::brca_h3(opts), &opts, trace),
        "luad_h4" => run(&Discover::luad_h4(opts), &opts, trace),
        "scan_exhaustive_h3" => run(&ScanExhaustive::new(opts), &opts, trace),
        "cluster_acc_h4" => run(&ClusterAcc::new(opts, Path::new(OUT_DIR)), &opts, trace),
        "serve_hit" => run(&Serve::hit(opts), &opts, trace),
        "serve_miss" => run(&Serve::miss(opts), &opts, trace),
        other => return Err(format!("unknown workload {other}")),
    };
    for problem in &verdict.problems {
        eprintln!("{name}: CHECK FAILED: {problem}");
    }
    let line = metrics::result_line(
        verdict.correct(),
        verdict.attempted.max(1),
        verdict.failed,
        &values,
    );
    println!("{line}");
    Ok(verdict.correct())
}

fn main() -> ExitCode {
    procstat::keep_allocator_fresh();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("multihit-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(runs) = args.aa_runs {
        return aa::run(runs, args.opts.seconds);
    }
    let names: Vec<&str> = match (&args.workload, args.opts.quick) {
        (Some(name), _) => vec![name.as_str()],
        (None, true) => metrics::WORKLOADS.iter().map(|(name, _)| *name).collect(),
        (None, false) => {
            eprintln!(
                "multihit-benchmark: --workload NAME is required (or --quick for all of them)"
            );
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for name in names {
        match run_named(name, args.opts, args.trace) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("multihit-benchmark: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
