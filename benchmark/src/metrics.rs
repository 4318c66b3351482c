//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repository root is
//! generated from these tables (`--print-benchmark-json`) and a test keeps
//! the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures for: repetitions start until this much has
/// passed.
pub const RUN_SECONDS: u64 = 15;

pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--locked",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["benchmark"];

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "brca_h3",
        "paper-shaped 3-hit time to solution (911 T / 329 N, 15+6 words a row): kernelize, the pruned rebuild-heavy scan, the frontier and splicing do the work; the exhaustive kernel path does little",
    ),
    (
        "luad_h4",
        "the paper's headline 4-hit case (561 T / 329 N, 9+6 words): deeper prefix tree, narrower rows, lower frontier hit rate than brca_h3",
    ),
    (
        "scan_exhaustive_h3",
        "one unpruned, unkernelized, frontier-less scan of C(640,3): core::kernel and the level-0 sweep do all the work, so a gain for pruned scans that costs the streaming path shows here",
    ),
    (
        "cluster_acc_h4",
        "the only workload through gpusim::exec and cluster::sched/comm/driver: two rank threads scan C(200,4) exhaustively per iteration (77 T / 287 N); where cluster ranks inheriting pruning must show",
    ),
    (
        "serve_hit",
        "request pool smaller than the cache, so answers are cache reads: the CPU cost per request of queue hand-off, cache lookup and bookkeeping, client and shard on one CPU (no cross-core contention)",
    ),
    (
        "serve_miss",
        "request pool far larger than the cache, so answers are scored: the CPU cost per request of batch scoring, cache insert/evict and allocation, client and shard on one CPU",
    ),
];

/// `(name, unit, bound)`; every one is better lower. The times carry the
/// bounds ISSUE 13 fixed. The memory's is 0.10 where the issue had 0.05: the
/// benchmark contract wants a bound three times the quartile spread of ten
/// runs, and `serve_hit`'s mark, most of it what the server records per
/// batch, spreads by 3% with the number of batches the scheduler happens to
/// form (README, noise section).
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("setup_s", "s", 0.10),
    ("wall_s", "s", 0.10),
    ("cpu_s", "s", 0.10),
    ("peak_rss_mb", "MiB", 0.10),
];

const LOWER: bool = false;
const HIGHER: bool = true;

/// `(name, unit, better higher?)`. A layer a workload never calls reports 0
/// for all its metrics on that workload.
pub const PER_LAYER: [(&str, &str, bool); 88] = [
    ("host.and_popcount_words_per_ns", "words/ns", HIGHER),
    ("host.memcpy_gb_s", "GB/s", HIGHER),
    ("host.memcpy_buf_mb", "MiB", HIGHER),
    ("host.llc_mb", "MiB", HIGHER),
    ("kernel.dispatch_tier", "tier", HIGHER),
    ("kernel.and_popcount_w15_ns", "ns", LOWER),
    ("kernel.and_popcount_w64_ns", "ns", LOWER),
    ("kernel.and_store_popcount_w15_ns", "ns", LOWER),
    ("kernel.block16_w15_ns", "ns", LOWER),
    ("kernel.block_words_per_ns", "words/ns", HIGHER),
    ("kernel.ceiling_frac", "frac", HIGHER),
    ("greedy.exh_ns_per_combo", "ns", LOWER),
    ("greedy.exh_words_per_ns", "words/ns", HIGHER),
    ("greedy.exh_ceiling_frac", "frac", HIGHER),
    ("greedy.exh_noblock_ns_per_combo", "ns", LOWER),
    ("greedy.first_scan_s", "s", LOWER),
    ("greedy.first_scan_scored", "count", LOWER),
    ("greedy.first_scan_pruned_frac", "frac", HIGHER),
    ("greedy.first_scan_words_skipped", "count", HIGHER),
    ("greedy.first_scan_block_sweeps", "count", LOWER),
    ("greedy.argmax_scan_s", "s", LOWER),
    ("greedy.loop_s", "s", LOWER),
    ("greedy.iterations", "count", LOWER),
    ("greedy.sparse_on_vs_off_x", "x", LOWER),
    ("greedy.par2_speedup", "x", HIGHER),
    ("frontier.rescore_s", "s", LOWER),
    ("frontier.first_hit", "count", HIGHER),
    ("kernelize.reduce_s", "s", LOWER),
    ("kernelize.genes_in", "count", LOWER),
    ("kernelize.genes_kept", "count", LOWER),
    ("kernelize.unmap_s", "s", LOWER),
    ("kernelize.cert_bytes", "B", LOWER),
    ("bitmat.skip_build_s", "s", LOWER),
    ("bitmat.zero_word_frac", "frac", HIGHER),
    ("bitmat.splice_s", "s", LOWER),
    ("bitmat.packed_mb", "MiB", LOWER),
    ("data.parse_maf_s", "s", LOWER),
    ("data.summarize_s", "s", LOWER),
    ("data.maf_mb", "MiB", LOWER),
    ("ledger.parts_sum_s", "s", LOWER),
    ("ledger.whole_s", "s", LOWER),
    ("ledger.unattributed_frac", "frac", LOWER),
    ("ladder.brca_h3_g19411_wall_s", "s", LOWER),
    ("ladder.luad_h4_g18012_wall_s", "s", LOWER),
    ("sched.partition_s", "s", LOWER),
    ("sched.imbalance", "frac", LOWER),
    ("gpusim.exec_s", "s", LOWER),
    ("gpusim.combos", "count", LOWER),
    ("gpusim.ns_per_combo", "ns", LOWER),
    ("comm.reduce_bcast_us", "us", LOWER),
    ("driver.serial_s", "s", LOWER),
    ("driver.scaling_eff", "frac", HIGHER),
    ("driver.iterations", "count", LOWER),
    ("driver.ft_clean_s", "s", LOWER),
    ("driver.ft_overhead_frac", "frac", LOWER),
    ("driver.kill_recovery_s", "s", LOWER),
    ("driver.re_executed_combos", "count", LOWER),
    ("driver.vs_pruned_x", "x", LOWER),
    ("checkpoint.save_s", "s", LOWER),
    ("checkpoint.load_s", "s", LOWER),
    ("checkpoint.bytes", "B", LOWER),
    ("registry.compile_s", "s", LOWER),
    ("registry.signature_ns", "ns", LOWER),
    ("registry.classify_ns", "ns", LOWER),
    ("registry.sig_words", "count", LOWER),
    ("registry.panel_combos", "count", LOWER),
    ("cache.hit_ns", "ns", LOWER),
    ("cache.insert_evict_ns", "ns", LOWER),
    ("queue.push_pop_ns", "ns", LOWER),
    ("server.req_per_s", "req/s", HIGHER),
    ("server.ns_per_req", "ns", LOWER),
    ("server.overhead_x", "x", LOWER),
    ("server.hit_frac", "frac", HIGHER),
    ("server.mean_batch_fill", "frac", HIGHER),
    ("server.batches", "count", LOWER),
    ("server.max_queue_depth", "count", LOWER),
    ("server.p50_us", "us", LOWER),
    ("server.p99_us", "us", LOWER),
    ("frame.encode_ns", "ns", LOWER),
    ("frame.decode_ns", "ns", LOWER),
    ("frame.bytes_per_req", "B", LOWER),
    ("protocol.json_encode_ns", "ns", LOWER),
    ("protocol.json_decode_ns", "ns", LOWER),
    ("noise.rep_spread", "frac", LOWER),
    ("noise.host_speed", "frac", HIGHER),
    ("trace.overhead_frac", "frac", LOWER),
    ("trace.spans", "count", LOWER),
    ("host.threads", "count", HIGHER),
];

/// Per-layer values collected during a traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Record `value` for the per-layer metric `name`.
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`]: the vocabulary is fixed.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn json_value(name: &str, value: f64, unit: &str) -> String {
    assert!(value.is_finite(), "{name} is {value}");
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

/// The four end-to-end metrics, in table order.
pub fn end_to_end_json(values: [f64; 4]) -> Vec<String> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _), v)| json_value(name, v, unit))
        .collect()
}

/// Every per-layer metric, in table order; 0 for the ones not recorded.
pub fn per_layer_json(layers: &Layers) -> Vec<String> {
    PER_LAYER
        .iter()
        .map(|(name, unit, _)| json_value(name, layers.get(name), unit))
        .collect()
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        q.join(", ")
    };
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let mut out = String::from("{\n");
    writeln!(out, "  \"command\": [{}],", quoted(&COMMAND)).expect("write to String");
    writeln!(out, "  \"paths\": [{}],", quoted(&PATHS)).expect("write to String");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("write to String");
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    writeln!(out, "  \"workloads\": [\n{}\n  ],", rows(workloads)).expect("write to String");
    let end_to_end = END_TO_END
        .iter()
        .map(|(name, unit, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": {bound}}}"
            )
        })
        .collect();
    writeln!(out, "  \"end_to_end\": [\n{}\n  ],", rows(end_to_end)).expect("write to String");
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, higher)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(*higher)
            )
        })
        .collect();
    writeln!(out, "  \"per_layer\": [\n{}\n  ]", rows(per_layer)).expect("write to String");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;
    use std::collections::BTreeSet;

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n') && !why.contains('"'),
                "{name}"
            );
        }
        for (name, unit, bound) in END_TO_END {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
        }
        for (name, unit, _) in PER_LAYER {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
        }
        assert!(END_TO_END
            .iter()
            .any(|(n, u, _)| (*n, *u) == ("setup_s", "s")));
        let largest = END_TO_END.iter().map(|e| e.2).fold(0.0, f64::max);
        assert_eq!(
            END_TO_END[0].2, largest,
            "setup_s carries the largest bound"
        );
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
    }

    #[test]
    fn layers_default_to_zero_and_reject_unknown_names() {
        let mut l = Layers::default();
        l.set("host.llc_mb", 32.0);
        assert_eq!(l.get("host.llc_mb"), 32.0);
        assert_eq!(l.get("server.p99_us"), 0.0);
        let json = per_layer_json(&l);
        assert_eq!(json.len(), PER_LAYER.len());
        assert!(json.contains(&"\"host.llc_mb\":{\"value\":32,\"unit\":\"MiB\"}".to_string()));
        assert!(std::panic::catch_unwind(|| Layers::default().set("made.up", 1.0)).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 135, 0, &end_to_end_json([0.25, 2.5, 2.4, 180.0]));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":135,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"wall_s\":{\"value\":2.5,\"unit\":\"s\"}"));
        assert!(line.ends_with("}}"));
    }
}
