//! Console-table and CSV output helpers for the figure harness, plus the
//! renderer that turns an observability [`RunReport`] into tables — the
//! harness's accounting now comes from the metrics stream the runs emit
//! rather than from per-figure bookkeeping.

use multihit_core::obs::RunReport;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A simple column-aligned table with a title, printed to stdout and
/// convertible to CSV.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (the experiment id, e.g. "Fig 4(a)").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render as an aligned console table.
    #[must_use]
    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            let _ = writeln!(out, "{}", line(r, &widths));
        }
        out
    }

    /// Render as CSV (header row + data rows).
    #[must_use]
    fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Print to stdout and write `<dir>/<stem>.csv`.
    pub fn emit(&self, dir: &Path, stem: &str) {
        print!("{}", self.render());
        println!();
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{stem}.csv"));
        if let Err(e) = fs::write(&path, self.to_csv()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            println!("[csv] {}", path.display());
        }
    }
}

/// Format seconds human-readably.
#[must_use]
pub fn fmt_secs(s: f64) -> String {
    if s >= 86400.0 {
        format!("{:.1} d", s / 86400.0)
    } else if s >= 3600.0 {
        format!("{:.1} h", s / 3600.0)
    } else if s >= 1.0 {
        format!("{s:.1} s")
    } else {
        format!("{:.2} ms", s * 1e3)
    }
}

/// Format a ratio as a percentage.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Render an observability [`RunReport`] as tables: per-iteration greedy
/// progress, per-rank busy/idle attribution, and the final counter registry.
/// Sections with no data in the stream are omitted.
#[must_use]
pub fn run_report_tables(report: &RunReport) -> Vec<Table> {
    let mut out = Vec::new();
    if !report.greedy_iters.is_empty() {
        let mut t = Table::new(
            "Run report — greedy iterations (from metrics stream)",
            &[
                "iter",
                "scan",
                "combos",
                "combos/s",
                "newly_covered",
                "remaining",
            ],
        );
        for i in &report.greedy_iters {
            t.row(&[
                i.iter.to_string(),
                fmt_secs(i.scan_ns as f64 / 1e9),
                i.combos_scored.to_string(),
                format!("{:.2e}", i.combos_per_sec),
                i.newly_covered.to_string(),
                i.remaining.to_string(),
            ]);
        }
        out.push(t);
    }
    if !report.ranks.is_empty() {
        let mut t = Table::new(
            "Run report — per-rank attribution (from metrics stream)",
            &["rank", "busy", "idle", "comm", "utilization"],
        );
        for (rank, r) in report.ranks.iter().enumerate() {
            let denom = (r.busy_ns + r.idle_ns) as f64;
            let util = if denom == 0.0 {
                0.0
            } else {
                r.busy_ns as f64 / denom
            };
            t.row(&[
                rank.to_string(),
                fmt_secs(r.busy_ns as f64 / 1e9),
                fmt_secs(r.idle_ns as f64 / 1e9),
                fmt_secs(r.comm_ns as f64 / 1e9),
                pct(util),
            ]);
        }
        let mut s = Table::new("Run report — rank summary", &["metric", "value"]);
        s.row(&["ranks".into(), report.ranks.len().to_string()]);
        s.row(&[
            "imbalance (max/mean busy)".into(),
            format!("{:.4}", report.rank_imbalance()),
        ]);
        s.row(&[
            "mean utilization".into(),
            pct(report.mean_rank_utilization()),
        ]);
        out.push(t);
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_escapes() {
        let mut t = Table::new("Test", &["a", "b"]);
        t.row(&["1".into(), "x,y".into()]);
        let r = t.render();
        assert!(r.contains("== Test =="));
        assert!(r.contains('1'));
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.starts_with("a,b\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("T", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn run_report_renders_from_stream() {
        use multihit_core::obs::{Obs, Value};
        let obs = Obs::enabled();
        obs.point(
            "greedy_iter",
            &[
                ("iter", Value::U64(0)),
                ("scan_ns", Value::U64(2_000_000)),
                ("combos_scored", Value::U64(1000)),
                ("combos_per_sec", Value::F64(5e8)),
                ("newly_covered", Value::U64(50)),
                ("remaining", Value::U64(0)),
            ],
        );
        obs.point(
            "rank",
            &[
                ("rank", Value::U64(0)),
                ("busy_ns", Value::U64(900)),
                ("idle_ns", Value::U64(100)),
                ("comm_ns", Value::U64(10)),
            ],
        );
        let report = RunReport::from_json_lines(&obs.to_json_lines()).unwrap();
        let tables = run_report_tables(&report);
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].rows.len(), 1);
        assert_eq!(tables[0].rows[0][2], "1000");
        assert!(tables[1].rows[0][4].starts_with("90.00%"));
    }

    #[test]
    fn empty_report_renders_no_tables() {
        assert!(run_report_tables(&RunReport::default()).is_empty());
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(90.0), "90.0 s");
        assert_eq!(fmt_secs(7200.0), "2.0 h");
        assert_eq!(fmt_secs(2.0 * 86400.0), "2.0 d");
        assert_eq!(fmt_secs(0.005), "5.00 ms");
        assert_eq!(pct(0.9014), "90.14%");
    }
}
