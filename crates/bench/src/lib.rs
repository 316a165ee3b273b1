//! # ibox-bench
//!
//! The experiment harness: the paper's evaluation as one table-driven
//! binary, the perf gates, and Criterion microbenchmarks.
//!
//! | Target | What it measures | Invocation |
//! |---|---|---|
//! | `paper` | every figure and table of the paper (Figs. 2–5, 7, 8, Table 1) plus `ablations`, `profiles`, `protocols`, `extensions`: verdicts asserted over seeds, `BENCH_paper.json` | `cargo run -p ibox-bench --release --bin paper [name…]` |
//! | `perf`, `trace`, `infer`, `flow`, `path`, `ingest` | inner-layer perf gates against the committed `BENCH_<name>.json` | `... --bin perf -- --baseline BENCH_perf.json` |
//! | benches | §4.2 — per-packet inference latency; sim throughput; estimation cost | `cargo bench -p ibox-bench` |
//!
//! Every binary takes an optional `--quick` flag that shrinks dataset
//! sizes for smoke-testing; `paper`'s full run is the scale recorded in
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small datasets for smoke tests (`--quick`).
    Quick,
    /// Full scale, except where a run too long for a gate picks a fixed
    /// reduced size itself (`paper`'s `table1`).
    Gate,
    /// The scale recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// Parse from process args: `--quick` selects [`Scale::Quick`].
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Pick `q` under `--quick`, else `f`.
    pub fn pick(self, q: usize, f: usize) -> usize {
        match self {
            Scale::Quick => q,
            Scale::Gate | Scale::Full => f,
        }
    }
}

/// One perf binary's run record: times the run and, on
/// [`finish`](BenchRun::finish), writes `BENCH_<name>.json` — a run
/// manifest embedding the full global metrics snapshot (simulator
/// counters, estimation spans, ML training stats) so every reported
/// number is traceable to what actually ran.
pub struct BenchRun {
    name: String,
    builder: ibox_obs::RunManifestBuilder,
}

impl BenchRun {
    /// Start timing the bench binary `name` (e.g. `perf`).
    pub fn start(name: &str) -> Self {
        ibox_obs::info!("{name}: starting ({:?})", Scale::from_args());
        Self {
            name: name.to_string(),
            builder: ibox_obs::RunManifestBuilder::new(&format!("bench:{name}")),
        }
    }

    /// Write `BENCH_<name>.json` next to the working directory with the
    /// global metrics snapshot. Failures are logged, not fatal — the
    /// numbers on stdout are the primary artifact.
    pub fn finish(self) {
        let manifest = self.builder.finish(ibox_obs::global().snapshot());
        let path = std::path::PathBuf::from(format!("BENCH_{}.json", self.name));
        match manifest.write_to(&path) {
            Ok(()) => ibox_obs::info!("{}: metrics manifest in {}", self.name, path.display()),
            Err(e) => {
                ibox_obs::warn!("{}: cannot write {}: {e}", self.name, path.display());
            }
        }
    }
}

/// Which direction of a gated gauge is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates and speedups: a regression is a drop.
    Higher,
    /// Wall times and slowdown factors: a regression is a rise.
    Lower,
}

/// Compare fresh gauges against the committed manifest named by
/// `--baseline <path>` in the process args. Each entry is `(gauge, fresh
/// value, tolerance, direction)`: a gauge regresses when it is worse than
/// the committed value by more than the fraction `tolerance`. Returns the
/// regressions found — empty when there are none or no `--baseline` was
/// given; gauges absent from the committed manifest are skipped.
///
/// Call this BEFORE [`BenchRun::finish`], which may overwrite the file.
pub fn check_baseline(fresh: &[(&str, f64, f64, Better)]) -> Vec<String> {
    let mut args = std::env::args().skip_while(|a| a != "--baseline");
    let Some(path) = args.nth(1) else {
        return Vec::new();
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read baseline {path}: {e}")],
    };
    let json: serde_json::JsonValue = match serde_json::parse_value(&text) {
        Ok(v) => v,
        Err(e) => return vec![format!("cannot parse baseline {path}: {e}")],
    };
    let gauges = json.get("metrics").and_then(|m| m.get("gauges"));
    let mut failures = Vec::new();
    for &(name, new, tolerance, better) in fresh {
        let Some(old) = gauges.and_then(|g| g.get(name)).and_then(|v| v.as_f64()) else {
            continue; // gauge not in the committed manifest yet
        };
        let regressed = match better {
            Better::Higher => new < old * (1.0 - tolerance),
            Better::Lower => new > old * (1.0 + tolerance),
        };
        if regressed {
            failures.push(format!(
                "{name}: {new:.2} vs baseline {old:.2} (>{:.0}% regression)",
                tolerance * 100.0
            ));
        }
    }
    failures
}

/// Report `failures` from [`check_baseline`] and exit nonzero if any.
pub fn exit_on_regressions(bench: &str, failures: &[String]) {
    for f in failures {
        eprintln!("{bench} regression: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Render a numeric table: header row + aligned columns (plain text, the
/// binaries' stdout is the "figure").
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let line = |cells: &[String], widths: &[usize]| -> String {
        cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(out, "{}", line(&header_cells, &widths));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for row in rows {
        let _ = writeln!(out, "{}", line(row, &widths));
    }
    out
}

/// Format a float with fixed precision as a table cell.
pub fn cell(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Summarize a sample as `mean p25 p50 p75` cells.
pub fn dist_cells(sample: &[f64]) -> Vec<String> {
    let s = ibox_stats::quantile_summary(sample).unwrap_or(ibox_stats::QuantileSummary {
        p25: 0.0,
        p50: 0.0,
        p75: 0.0,
        mean: 0.0,
    });
    vec![cell(s.mean, 2), cell(s.p25, 2), cell(s.p50, 2), cell(s.p75, 2)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "T",
            &["name", "v"],
            &[vec!["a".into(), "1.0".into()], vec!["long".into(), "2.5".into()]],
        );
        assert!(t.contains("## T"));
        assert!(t.contains("long"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(2, 30), 2);
        assert_eq!(Scale::Full.pick(2, 30), 30);
    }

    #[test]
    fn dist_cells_summarize() {
        let c = dist_cells(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.len(), 4);
        assert_eq!(c[0], "2.50");
    }
}
