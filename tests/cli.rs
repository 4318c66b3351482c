//! Integration tests for the `multihit` command-line tool: synth →
//! discover → classify as subprocesses, exercising the binary exactly as a
//! user would.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_multihit"))
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("multihit-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn synth_discover_classify_pipeline() {
    let dir = tempdir("pipeline");
    let out = bin()
        .args(["synth", "--out-dir"])
        .arg(&dir)
        .args([
            "--genes", "24", "--hits", "2", "--combos", "2", "--seed", "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "synth failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in ["tumor.maf", "normal.maf", "truth.txt"] {
        assert!(dir.join(f).exists(), "{f} missing");
    }

    let results = dir.join("results.tsv");
    let out = bin()
        .args(["discover", "--hits", "2", "--cohort", "clitest", "--tumor"])
        .arg(dir.join("tumor.maf"))
        .arg("--normal")
        .arg(dir.join("normal.maf"))
        .arg("--out")
        .arg(&results)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "discover failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&results).unwrap();
    assert!(text.starts_with("#cohort\tclitest"));
    assert!(
        text.lines().count() > 3,
        "no combinations discovered:\n{text}"
    );

    // The planted truth must appear among the discovered combinations.
    let truth = std::fs::read_to_string(dir.join("truth.txt")).unwrap();
    for planted in truth.lines().filter(|l| !l.is_empty()) {
        let mut genes: Vec<&str> = planted.split(',').collect();
        genes.sort_unstable();
        let found = text.lines().skip(3).any(|row| {
            let combo = row.split('\t').nth(1).unwrap_or("");
            let mut c: Vec<&str> = combo.split(',').collect();
            c.sort_unstable();
            c == genes
        });
        assert!(found, "planted {planted} not in results:\n{text}");
    }

    let out = bin()
        .args(["classify", "--results"])
        .arg(&results)
        .arg("--tumor")
        .arg(dir.join("tumor.maf"))
        .arg("--normal")
        .arg(dir.join("normal.maf"))
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sensitivity"), "{stdout}");
    assert!(stdout.contains("specificity"), "{stdout}");
    // Training-set evaluation of planted data: sensitivity near 1.
    let sens: f64 = stdout
        .lines()
        .find(|l| l.starts_with("sensitivity"))
        .and_then(|l| l.split('\t').nth(1))
        .unwrap()
        .parse()
        .unwrap();
    assert!(sens > 0.8, "sensitivity {sens}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn discover_rejects_bad_hits() {
    let dir = tempdir("badhits");
    bin()
        .args(["synth", "--out-dir"])
        .arg(&dir)
        .args(["--genes", "12", "--hits", "2", "--combos", "2"])
        .output()
        .unwrap();
    let out = bin()
        .args(["discover", "--hits", "9", "--tumor"])
        .arg(dir.join("tumor.maf"))
        .arg("--normal")
        .arg(dir.join("normal.maf"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not supported"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_are_refused() {
    // A misspelt `--max-combos` used to be ignored: the run exited 0 and
    // wrote every combination instead of one.
    let dir = tempdir("unknown-flag");
    let out = bin()
        .args(["synth", "--out-dir"])
        .arg(&dir)
        .args(["--genes", "12", "--hits", "2", "--combos", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let results = dir.join("results.tsv");
    let out = bin()
        .args(["discover", "--hits", "2", "--max-combo", "1", "--tumor"])
        .arg(dir.join("tumor.maf"))
        .arg("--normal")
        .arg(dir.join("normal.maf"))
        .arg("--out")
        .arg(&results)
        .output()
        .unwrap();
    assert!(!out.status.success(), "--max-combo was accepted");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--max-combo"), "{err}");
    assert!(
        !results.exists(),
        "a refused run wrote {}",
        results.display()
    );
    for cmd in [
        "synth", "discover", "classify", "cluster", "serve", "loadgen",
    ] {
        let out = bin().args([cmd, "--no-such-flag"]).output().unwrap();
        assert!(!out.status.success(), "{cmd} accepted --no-such-flag");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--no-such-flag"), "{cmd}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn value_flags_without_a_value_are_refused() {
    // `--out --trace` used to write a panel to a file named `--trace`, and
    // a trailing `--metrics-out` was dropped: both runs exited 0.
    let dir = tempdir("no-value");
    let out = bin()
        .args(["synth", "--out-dir"])
        .arg(&dir)
        .args(["--genes", "12", "--hits", "2", "--combos", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .current_dir(&dir)
        .args(["discover", "--hits", "2", "--tumor", "tumor.maf"])
        .args(["--normal", "normal.maf", "--out", "--trace"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--out --trace was accepted");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--out"), "{err}");
    assert!(!dir.join("--trace").exists(), "wrote a file named --trace");
    let out = bin()
        .args([
            "cluster",
            "--dataset",
            "acc",
            "--nodes",
            "4",
            "--metrics-out",
        ])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "a trailing --metrics-out was accepted"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--metrics-out"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cluster_refuses_the_other_modes_flags() {
    // The modelled run's flags used to be read by nothing under --inject
    // (and the --inject run's by nothing without it), so they were ignored.
    for flag in [
        ["--dataset", "brca"],
        ["--mtbf", "1e3"],
        ["--ckpt-write", "1"],
        ["--recovery-time", "5"],
    ] {
        let out = bin()
            .args(["cluster", "--nodes", "4", "--inject", "rank-kill=1@2"])
            .args(flag)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag:?} was accepted with --inject");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag[0]), "{flag:?}: {err}");
    }
    for flag in [
        &["--seed", "7"][..],
        &["--ft-timeout-ms", "1"],
        &["--kernelize"],
    ] {
        let out = bin()
            .args(["cluster", "--dataset", "acc", "--nodes", "4"])
            .args(flag)
            .output()
            .unwrap();
        assert!(
            !out.status.success(),
            "{flag:?} was accepted without --inject"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag[0]), "{flag:?}: {err}");
    }
}

#[test]
fn missing_arguments_are_reported() {
    let out = bin().arg("discover").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--tumor"));
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn inject_rejects_faults_aimed_at_ranks_that_never_exist() {
    // Such a fault can never fire, so the run would pass for a recovery.
    for spec in ["rank-kill=7@0", "straggler=9@2.0"] {
        let out = bin()
            .args(["cluster", "--nodes", "4", "--inject", spec])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{spec} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(spec), "{spec}: {err}");
    }
    // A rank admitted by a join in the same plan does exist.
    let out = bin()
        .args(["cluster", "--nodes", "4", "--inject"])
        .arg("rank-join=5-1, rank-kill=5@2")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("dead_ranks\t[5]"));
}

#[test]
fn inject_report_differs_only_in_its_paced_counters() {
    // Two runs of one seed and plan at once, probing every millisecond:
    // only the counters paced by the clock may differ between them.
    let run = || {
        bin()
            .args(["cluster", "--nodes", "4", "--seed", "2021"])
            .args(["--ft-timeout-ms", "1", "--inject"])
            .arg("rank-kill=1@2, msg-corrupt=3-2, ckpt-bitflip=4")
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap()
    };
    let (a, b) = (run(), run());
    let fixed = |child: std::process::Child| -> Vec<String> {
        let out = child.wait_with_output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        for key in [
            "paced_retransmits",
            "paced_retrans_requests",
            "paced_timeouts",
        ] {
            let prefix = format!("{key}\t");
            assert!(
                stdout.lines().any(|l| l.starts_with(&prefix)),
                "no {key}: {stdout}"
            );
        }
        stdout
            .lines()
            .filter(|l| !l.starts_with("paced_"))
            .map(str::to_string)
            .collect()
    };
    let (a, b) = (fixed(a), fixed(b));
    assert!(a.contains(&"dead_ranks\t[1]".to_string()), "{a:?}");
    assert_eq!(a, b);
}

#[test]
fn inject_says_when_every_rank_died() {
    let out = bin()
        .args(["cluster", "--nodes", "1", "--inject", "rank-kill=0@0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("every rank died"), "{err}");
}

#[test]
fn inject_removes_its_checkpoint_dir_when_the_load_fails() {
    // Saves 3 and 4 both damaged: save 4 rotates the damaged save 3 into
    // `.bak`, so neither file loads and the run exits non-zero.
    let tmp = tempdir("inject-tmp");
    let out = bin()
        .args(["cluster", "--nodes", "4", "--seed", "2021", "--inject"])
        .arg("ckpt-bitflip=3, ckpt-bitflip=4")
        .env("TMPDIR", &tmp)
        .output()
        .unwrap();
    assert!(!out.status.success(), "both checkpoint copies were damaged");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("backup invalid too"), "{err}");
    let left: Vec<_> = std::fs::read_dir(&tmp).unwrap().collect();
    assert!(left.is_empty(), "left behind: {left:?}");
    std::fs::remove_dir_all(&tmp).unwrap();
}

#[test]
fn loadgen_smoke_is_clean() {
    // Run from an empty working directory: the summary goes to stdout and
    // nothing may be left behind.
    let dir = tempdir("loadgen");
    let out = bin()
        .current_dir(&dir)
        .args([
            "loadgen",
            "--clients",
            "8",
            "--requests",
            "3000",
            "--profiles",
            "128",
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lost\t0"), "{stdout}");
    assert!(stdout.contains("divergent\t0"), "{stdout}");
    let phase = stdout
        .lines()
        .find(|l| l.starts_with("inproc\t"))
        .unwrap_or_else(|| panic!("no per-phase summary in {stdout}"));
    assert!(phase.contains("\t3000 ok\t0 shed\t"), "{phase}");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(left.is_empty(), "loadgen left {left:?} behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forced_scalar_stepping_scan_writes_the_same_panel() {
    // The only whole-scan run on the scalar kernels on an AVX host. Each
    // `discover` is its own process, so the global `kernel::force_scalar`
    // pin cannot race another test.
    let dir = tempdir("scalar");
    let out = bin()
        .args(["synth", "--out-dir"])
        .arg(&dir)
        .args([
            "--genes", "30", "--hits", "3", "--combos", "2", "--seed", "9",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "synth failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Returns the TSV bytes and the run summary `--metrics-out` turns on.
    let discover = |extra: &[&str], name: &str| -> (Vec<u8>, String) {
        let tsv = dir.join(name);
        let out = bin()
            .args(["discover", "--hits", "3", "--tumor"])
            .arg(dir.join("tumor.maf"))
            .arg("--normal")
            .arg(dir.join("normal.maf"))
            .args(extra)
            .arg("--out")
            .arg(&tsv)
            .arg("--metrics-out")
            .arg(dir.join("metrics.jsonl"))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "discover {extra:?} failed: {stderr}");
        (std::fs::read(&tsv).unwrap(), stderr)
    };
    let (fast, _) = discover(&[], "A.tsv");
    let (scalar, summary) = discover(&["--scan", "scalar", "--no-block-sweep"], "B.tsv");
    assert!(summary.contains("scan: kernel scalar,"), "{summary}");
    assert!(
        fast.iter().filter(|&&b| b == b'\n').count() > 3,
        "no combinations discovered"
    );
    assert_eq!(fast, scalar, "scalar stepping scan diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_smoke_answers_over_tcp() {
    // Bind an ephemeral port for a short window, classify over the socket.
    use std::io::{BufRead, BufReader, Write};
    let mut child = bin()
        .args([
            "serve",
            "--synth",
            "--addr",
            "127.0.0.1:0",
            "--duration-secs",
            "10",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    child_out.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line}"))
        .to_string();

    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"{\"id\":1,\"model\":\"synth\",\"genes\":\"G0,G1,G2\"}\n")
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\":\"ok\""), "{line}");
    assert!(line.contains("\"id\":1"), "{line}");
    // Unknown model errors without killing the connection.
    writer
        .write_all(b"{\"id\":2,\"model\":\"nope\",\"genes\":\"\"}\n")
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\":\"error\""), "{line}");
    drop(writer);
    drop(reader);
    let _ = child.kill();
    let _ = child.wait();
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: multihit"));
}
