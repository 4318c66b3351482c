//! A/A comparison: the same build measured as two interleaved sets of runs.
//! For every workload × end-to-end metric it prints both medians, how far
//! the second sits from the first, each set's quartile spread, and the
//! bound. The comparison fails on a difference beyond the bound (beyond half
//! of it for `wall_s`, as ISSUE 13 asks) or a spread beyond the bound
//! (set-up time's excepted, as the benchmark contract excepts it).

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use std::process::{Command, ExitCode, Stdio};

/// The value of metric `name` in a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// One untraced run in a child process; its end-to-end metrics in table order.
fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        // Every repetition as clocked, and what a failed check found.
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !line.contains("\"correct\":true") {
        return Err(format!("{workload} seed {seed}: {} {line}", out.status));
    }
    END_TO_END
        .iter()
        .map(|(name, _, _)| {
            metric_value(line, name).ok_or(format!("{workload}: no {name} in {line}"))
        })
        .collect()
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

pub fn run(runs: usize, seconds: u64) -> ExitCode {
    if runs < 5 {
        eprintln!("--aa needs at least 5 runs a set");
        return ExitCode::from(2);
    }
    let mut within = true;
    println!("workload\tmetric\tmedian_a\tmedian_b\tdiff\tspread_a\tspread_b\tbound\tverdict");
    for (workload, _) in WORKLOADS {
        // sets[set][metric] = that metric's value in each run of the set.
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for i in 0..runs as u64 {
            for (set, first_seed) in [(0, 1000), (1, 2000)] {
                match one_run(workload, first_seed + i, seconds) {
                    Ok(values) => values
                        .iter()
                        .zip(&mut sets[set])
                        .for_each(|(v, col)| col.push(*v)),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::from(1);
                    }
                }
            }
        }
        for (m, (metric, _, bound)) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][m], &sets[1][m]);
            let diff = median(b) / median(a) - 1.0;
            let (sa, sb) = (spread(a), spread(b));
            let steady = *metric == "setup_s" || sa.max(sb) <= *bound;
            let may_differ = if *metric == "wall_s" {
                bound / 2.0
            } else {
                *bound
            };
            let ok = diff.abs() <= may_differ && steady;
            within &= ok;
            println!(
                "{workload}\t{metric}\t{:.4}\t{:.4}\t{diff:+.4}\t{sa:.4}\t{sb:.4}\t{bound}\t{}",
                median(a),
                median(b),
                if ok { "ok" } else { "OUTSIDE" }
            );
        }
    }
    if within {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{end_to_end_json, result_line};

    #[test]
    fn values_are_read_back_from_a_result_line() {
        let line = result_line(true, 10, 0, &end_to_end_json([0.125, 2.5, 2.25, 181.5]));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.125));
        assert_eq!(metric_value(&line, "peak_rss_mb"), Some(181.5));
        assert_eq!(metric_value(&line, "latency_ms"), None);
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), (8.25 - 2.75) / 5.5);
    }
}
