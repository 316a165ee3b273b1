//! `compare <dir-a> <dir-b>`: did B stay within the benchmark's bounds of A?
//!
//! Each directory holds the result files of N untraced runs. For every
//! (end-to-end metric, workload) pair the two sides' medians and quartiles
//! are printed with a verdict, one row per pair, every ratio with its base
//! (side A):
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — the run-to-run spread of either side is wider than the
//!   bound, so the medians cannot be told apart (unless every run of B is
//!   better than every run of A);
//! * `improved` — B wins at least nine tenths of the seed-matched pairs and
//!   the medians differ by more than A's own interquartile range;
//! * `within-bound` — otherwise.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::report::{Better, EndToEnd, Manifest, RunResult, END_TO_END};
use crate::stats::{median, quartiles};

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    WithinBound,
    /// B is worse than A by more than the bound.
    Regressed,
    /// B is better than A beyond A's own spread.
    Improved,
    /// The spread exceeds the bound; the medians decide nothing.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median, quartiles and spread of one side.
struct Side {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let m = median(values);
        if values.len() < 2 {
            return Side { median: m, q1: m, q3: m };
        }
        let [q1, _, q3] = quartiles(values);
        Side { median: m, q1, q3 }
    }

    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Judge `b` against `a` for `metric`. The two slices are seed-matched:
/// `a[i]` and `b[i]` ran the same inputs.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (sa, sb) = (Side::of(a), Side::of(b));
    let better = |x: f64, than: f64| match metric.better {
        Better::Lower => x < than,
        Better::Higher => x > than,
    };
    let worse_by = match metric.better {
        Better::Lower => (sb.median - sa.median) / sa.median.abs(),
        Better::Higher => (sa.median - sb.median) / sa.median.abs(),
    };
    if sa.spread().max(sb.spread()) > metric.bound {
        let all_better = b.iter().all(|x| a.iter().all(|y| better(*x, *y)));
        return if all_better { Verdict::Improved } else { Verdict::Unresolved };
    }
    if worse_by > metric.bound {
        return Verdict::Regressed;
    }
    let pairs = a.iter().zip(b).filter(|(x, y)| x != y).count();
    let wins = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    let beyond_noise = (sb.median - sa.median).abs() > sa.q3 - sa.q1;
    if better(sb.median, sa.median) && beyond_noise && pairs > 0 && wins * 10 >= pairs * 9 {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// The untraced results of one directory, by workload, sorted by seed.
fn load(dir: &Path) -> Result<BTreeMap<String, Vec<RunResult>>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.ends_with(".spans.json")
        })
        .collect();
    paths.sort();
    let mut by_workload: BTreeMap<String, Vec<RunResult>> = BTreeMap::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let result: RunResult = serde_json::from_str(&text)
            .map_err(|e| format!("{} is not a result file: {e}", path.display()))?;
        if result.manifest.smoke {
            return Err(format!(
                "{} is a smoke result; smoke numbers are never compared",
                path.display()
            ));
        }
        if !result.manifest.traced {
            by_workload.entry(result.manifest.workload.clone()).or_default().push(result);
        }
    }
    for results in by_workload.values_mut() {
        results.sort_by_key(|r| r.manifest.seed);
    }
    Ok(by_workload)
}

/// Why two sets of results of one workload were not measured alike.
fn mismatch(a: &[RunResult], b: &[RunResult]) -> Option<String> {
    let seeds = |side: &[RunResult]| -> Vec<u64> { side.iter().map(|r| r.manifest.seed).collect() };
    if seeds(a) != seeds(b) {
        return Some(format!("seeds differ: {:?} vs {:?}", seeds(a), seeds(b)));
    }
    let first = &a[0].manifest;
    let alike = |m: &Manifest| {
        m.seconds == first.seconds
            && m.nproc == first.nproc
            && m.build_profile == first.build_profile
    };
    a.iter().chain(b).find(|r| !alike(&r.manifest)).map(|r| {
        format!(
            "window, nproc or build profile differ: {} s / {} cpus / {} vs {} s / {} cpus / {}",
            first.seconds,
            first.nproc,
            first.build_profile,
            r.manifest.seconds,
            r.manifest.nproc,
            r.manifest.build_profile
        )
    })
}

/// Compare the results under `dir_a` (the base) and `dir_b`.
pub fn run(dir_a: &Path, dir_b: &Path) -> ExitCode {
    let (a, b) = match (load(dir_a), load(dir_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(why), _) | (_, Err(why)) => {
            eprintln!("error: {why}");
            return ExitCode::from(2);
        }
    };
    let mut bad = 0usize;
    let mut rows = 0usize;
    println!(
        "{:<16} {:<14} {:>12} {:>25} {:>12} {:>25} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B vs A", "bound"
    );
    for (workload, ra) in &a {
        let Some(rb) = b.get(workload) else { continue };
        if let Some(why) = mismatch(ra, rb) {
            eprintln!("error: refusing to compare {workload}: {why}");
            return ExitCode::from(2);
        }
        if let Some(r) = ra.iter().chain(rb).find(|r| !r.correct) {
            eprintln!("error: {workload} seed {} has failed operations", r.manifest.seed);
            return ExitCode::from(2);
        }
        for metric in &END_TO_END {
            let values = |side: &[RunResult]| -> Vec<f64> {
                side.iter().filter_map(|r| r.metrics.get(metric.name)).map(|m| m.value).collect()
            };
            let (va, vb) = (values(ra), values(rb));
            if va.is_empty() || va.len() != vb.len() {
                continue;
            }
            let verdict = judge(metric, &va, &vb);
            let (sa, sb) = (Side::of(&va), Side::of(&vb));
            println!(
                "{workload:<16} {:<14} {:>12.4} {:>25} {:>12.4} {:>25} {:>+8.2}% {:>5.0}%  {}",
                metric.name,
                sa.median,
                format!("[{:.4}, {:.4}]", sa.q1, sa.q3),
                sb.median,
                format!("[{:.4}, {:.4}]", sb.q1, sb.q3),
                (sb.median - sa.median) / sa.median.abs() * 100.0,
                metric.bound * 100.0,
                verdict.as_str()
            );
            rows += 1;
            if matches!(verdict, Verdict::Regressed | Verdict::Unresolved) {
                bad += 1;
            }
        }
    }
    if rows == 0 {
        eprintln!("error: the two directories share no workload with untraced results");
        return ExitCode::from(2);
    }
    println!("{rows} pairs of (metric, workload); {bad} regressed or unresolved; base is side A");
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics with a 5 % bound, whatever the benchmark's own table says.
    fn latency() -> &'static EndToEnd {
        &EndToEnd { name: "latency", unit: "ms", better: Better::Lower, bound: 0.05 }
    }

    fn rate() -> &'static EndToEnd {
        &EndToEnd { name: "rate", unit: "1/s", better: Better::Higher, bound: 0.05 }
    }

    #[test]
    fn steady_runs_within_the_bound_are_within_bound() {
        let a = [10.0, 10.1, 9.9, 10.05, 10.0];
        let b = [10.2, 10.1, 10.0, 10.15, 10.1];
        assert_eq!(judge(latency(), &a, &b), Verdict::WithinBound);
    }

    #[test]
    fn a_median_past_the_bound_is_a_regression() {
        let a = [10.0, 10.1, 9.9, 10.05, 10.0];
        let b = [10.8, 10.9, 10.7, 10.85, 10.8];
        assert_eq!(judge(latency(), &a, &b), Verdict::Regressed);
        // For a higher-is-better metric the same numbers read the other way.
        assert_eq!(judge(rate(), &a, &b), Verdict::Improved);
        assert_eq!(judge(rate(), &b, &a), Verdict::Regressed);
    }

    #[test]
    fn a_clear_win_is_an_improvement() {
        let a = [10.0, 10.1, 9.9, 10.05, 10.0];
        let b = [9.0, 9.1, 8.9, 9.05, 9.0];
        assert_eq!(judge(latency(), &a, &b), Verdict::Improved);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [10.0, 12.0, 9.0, 11.5, 8.5];
        let same = [10.1, 11.8, 9.2, 11.0, 8.8];
        assert_eq!(judge(latency(), &noisy, &same), Verdict::Unresolved);
        let far_better = [5.0, 6.0, 4.5, 5.5, 4.0];
        assert_eq!(judge(latency(), &noisy, &far_better), Verdict::Improved);
    }
}
