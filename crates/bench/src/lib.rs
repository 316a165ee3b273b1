//! # ibox-bench
//!
//! The experiment harness: two table-driven binaries on one ledger.
//!
//! | Binary | Rows | Ledger |
//! |---|---|---|
//! | `paper` | every figure and table of the paper (Figs. 2–5, 7, 8, Table 1) plus `ablations`, `profiles`, `protocols`, `extensions`: claims asserted over seeds | `BENCH_paper.json`, `results/`, the tables of `EXPERIMENTS.md` |
//! | `perf` | `train`, `encode`, `infer`, `trace`, `flow`, `path`, `ingest`, and `speed` (§4.2): ratios of arms timed round-robin, floors asserted over repeats | `BENCH_perf.json` |
//!
//! Both follow one mode rule. With no row names a binary makes its ledger
//! run: every row at full scale, swept over seeds or repeats, written into
//! the working directory. With row names it is the gate: those rows once,
//! checked against `./BENCH_<bin>.json`. `--quick` is a smoke that writes
//! and gates nothing.
//! Run: `cargo run -p ibox-bench --release --bin <paper|perf> -- [--quick] [name…]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use ibox_stats::{percentile, KsResult};

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small datasets for smoke tests (`--quick`).
    Quick,
    /// Full scale, except where a run too long for a gate picks a fixed
    /// reduced size itself (`paper`'s `table1`).
    Gate,
    /// The scale a ledger records.
    Full,
}

impl Scale {
    /// Pick `q` under `--quick`, else `f`.
    pub fn pick(self, q: usize, f: usize) -> usize {
        match self {
            Scale::Quick => q,
            Scale::Gate | Scale::Full => f,
        }
    }
}

/// One row of a table: a paper artifact, or a perf contrast.
pub struct Experiment<C> {
    /// The name the command line selects it by.
    pub name: &'static str,
    /// Where the paper (or this reproduction's DESIGN.md) has it.
    pub paper: &'static str,
    /// The canonical seed: of the dataset, or of the training where `run`
    /// says so. Under [`Sweep::Repeats`], the first repeat's index.
    pub seed: u64,
    /// How many further runs a ledger run makes.
    pub sweep: u64,
    /// One run at the given seed (or repeat index).
    pub run: fn(&C, u64) -> Result<Report, String>,
}

/// How a ledger run varies a row, and so what the gate may expect of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Run `k` is at seed `seed + k · stride`. A report is a function of its
    /// seed, so the gate expects each claim to come out as it did at the
    /// canonical seed.
    Seeds(u64),
    /// Run `k` is repeat `seed + k` of a timing, which no seed decides: the
    /// gate expects a `Holds` claim to hold and lets a known failure come
    /// out either way.
    Repeats,
}

impl Sweep {
    fn seed(self, canonical: u64, k: u64) -> u64 {
        match self {
            Sweep::Seeds(stride) => canonical + k * stride,
            Sweep::Repeats => canonical + k,
        }
    }
}

/// One binary's rows, and how its ledger run sweeps them.
pub struct Table<'a, C> {
    /// The binary; its ledger is `BENCH_<bin>.json`.
    pub bin: &'static str,
    /// What the further runs of a row vary.
    pub sweep: Sweep,
    /// The rows, in run order.
    pub rows: &'a [Experiment<C>],
}

/// What this reproduction is expected to make of a claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expected {
    /// The claim holds on every seed.
    Holds,
    /// A named gap: the claim fails on at least one seed. One that starts
    /// holding everywhere fails the ledger run too, so the list shrinks on
    /// purpose.
    KnownFailure(&'static str),
}

/// One claim, evaluated on one run.
pub struct Verdict {
    /// The claim, in words; the ledger matches runs by it.
    pub claim: String,
    /// Whether it held on this run.
    pub holds: bool,
    /// What the table expects of it.
    pub expected: Expected,
}

/// One named statistic of a run.
pub struct Stat {
    /// Its name; the ledger matches runs by it.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its spread within the run: for a median of per-round ratios, their
    /// interquartile range; 0 for a statistic computed once.
    pub noise: f64,
}

/// What one run of a row produced.
#[derive(Default)]
pub struct Report {
    /// The row's tables — its stdout.
    pub text: String,
    /// Named statistics the gate holds to their recorded band.
    pub stats: Vec<Stat>,
    /// Named statistics kept for their trajectory only: absolute rates and
    /// wall times, which move with the host.
    pub recorded: Vec<Stat>,
    /// The claims.
    pub verdicts: Vec<Verdict>,
}

impl Report {
    /// Append a rendered table to the text.
    pub fn table(&mut self, title: &str, header: &[&str], rows: &[Vec<String>]) {
        self.text += &render_table(title, header, rows);
    }

    /// A gated statistic.
    pub fn stat(&mut self, name: impl Into<String>, value: f64) {
        self.stats.push(Stat { name: name.into(), value, noise: 0.0 });
    }

    /// A gated ratio of arms: the median of its per-round values, whose
    /// interquartile range is the run's noise. Returns the median.
    pub fn ratio(&mut self, name: impl Into<String>, per_round: &[f64]) -> f64 {
        let q = |q: f64| percentile(per_round, q).unwrap_or(f64::NAN);
        self.stats.push(Stat { name: name.into(), value: q(0.5), noise: q(0.75) - q(0.25) });
        q(0.5)
    }

    /// A recorded, ungated statistic.
    pub fn record(&mut self, name: impl Into<String>, value: f64) {
        self.recorded.push(Stat { name: name.into(), value, noise: 0.0 });
    }

    /// Record a KS test as `<name> D` / `<name> p`; returns its two cells.
    pub fn ks(&mut self, name: &str, ks: KsResult) -> [String; 2] {
        self.stat(format!("{name} D"), ks.statistic);
        self.stat(format!("{name} p"), ks.p_value);
        [cell(ks.statistic, 3), cell(ks.p_value, 3)]
    }

    /// A claim and whether it held.
    pub fn verdict(&mut self, claim: impl Into<String>, holds: bool, expected: Expected) {
        self.verdicts.push(Verdict { claim: claim.into(), holds, expected });
    }
}

/// Per-call wall times of arms timed round-robin, `secs[arm][round]`.
#[derive(Debug)]
pub struct Rounds {
    secs: Vec<Vec<f64>>,
}

impl Rounds {
    /// Time `arms` arms round-robin in this process, calling arm `i` as
    /// `call(i)`: one untimed warm-up call of each, then `rounds` rounds
    /// that call every arm once, in order on even rounds and in reverse on
    /// odd ones, so no arm always inherits the caches of the same
    /// predecessor. Host drift slower than a round slows all arms of it
    /// alike, so it cancels in [`Rounds::ratios`].
    pub fn time(rounds: usize, arms: usize, call: impl FnMut(usize)) -> Rounds {
        let epoch = std::time::Instant::now();
        Rounds::time_on(rounds, arms, call, || epoch.elapsed().as_secs_f64())
    }

    fn time_on(
        rounds: usize,
        arms: usize,
        mut call: impl FnMut(usize),
        now: impl Fn() -> f64,
    ) -> Rounds {
        (0..arms).for_each(&mut call);
        let mut secs = vec![Vec::with_capacity(rounds); arms];
        for r in 0..rounds {
            for k in 0..arms {
                let arm = if r % 2 == 0 { k } else { arms - 1 - k };
                let start = now();
                call(arm);
                secs[arm].push(now() - start);
            }
        }
        Rounds { secs }
    }

    /// Median seconds of one call of `arm`.
    pub fn median(&self, arm: usize) -> f64 {
        percentile(&self.secs[arm], 0.5).unwrap_or(f64::NAN)
    }

    /// Per round, `arm`'s time over `base`'s in that same round.
    pub fn ratios(&self, arm: usize, base: usize) -> Vec<f64> {
        self.secs[arm].iter().zip(&self.secs[base]).map(|(a, b)| a / b.max(1e-12)).collect()
    }
}

/// `BENCH_<bin>.json`: what a ledger run measured, and what the gate reads
/// back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ledger {
    /// Format version.
    pub schema: u32,
    /// Always `"full"`: no other scale writes a ledger.
    pub scale: String,
    /// Cores of the host that ran it.
    pub cores: usize,
    /// CPU model of that host.
    pub host: String,
    /// Commit of the working directory, when it is a checkout.
    pub git_rev: Option<String>,
    /// One per row, in table order.
    pub rows: Vec<LedgerRow>,
}

/// One row of a [`Ledger`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerRow {
    /// The row's name.
    pub name: String,
    /// Its reference.
    pub paper: String,
    /// Seeds (or repeat indices) run, canonical first.
    pub seeds: Vec<u64>,
    /// Wall time of the canonical run.
    pub wall_s: f64,
    /// Gated statistics.
    pub stats: Vec<StatRecord>,
    /// Ungated statistics.
    #[serde(default)]
    pub recorded: Vec<StatRecord>,
    /// Claims.
    pub verdicts: Vec<VerdictRecord>,
}

/// One statistic of a row over its runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatRecord {
    /// Its name.
    pub name: String,
    /// One value per run that reported it, in `seeds` order.
    pub per_seed: Vec<f64>,
    /// Smallest value.
    pub min: f64,
    /// Median value.
    pub median: f64,
    /// Largest value.
    pub max: f64,
    /// Median over runs of the statistic's spread within a run (see
    /// [`Stat::noise`]).
    #[serde(default)]
    pub noise: f64,
}

/// One claim of a row over its runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerdictRecord {
    /// The claim.
    pub claim: String,
    /// Whether it held, per run.
    pub per_seed: Vec<bool>,
    /// `k/K`: runs on which the claim held, of runs made.
    pub holds: String,
    /// `holds` or `known-failure`.
    pub expected: String,
    /// Why a known failure fails.
    pub reason: Option<String>,
}

fn tally(per_seed: &[bool]) -> String {
    format!("{}/{}", per_seed.iter().filter(|h| **h).count(), per_seed.len())
}

/// The expectation rule: `holds` means on every run, `known-failure` means
/// not on every run.
fn expectation(expected: &str, per_seed: &[bool]) -> Result<(), String> {
    let k = tally(per_seed);
    match (expected, per_seed.iter().all(|h| *h)) {
        ("holds", false) => Err(format!("expected to hold, holds {k}")),
        ("known-failure", true) => Err(format!("known failure holds {k} — promote it to `Holds`")),
        _ => Ok(()),
    }
}

/// One row's runs, canonical first.
pub struct Runs<'a, C> {
    /// The row.
    pub exp: &'a Experiment<C>,
    /// Seeds (or repeat indices) that ran.
    pub seeds: Vec<u64>,
    /// Their reports.
    pub reports: Vec<Report>,
    /// Wall time of the canonical run.
    pub wall_s: f64,
}

impl<'a, C> Table<'a, C> {
    /// The mode rule: `--quick` is a smoke, row names without it the gate,
    /// neither the ledger run over every row.
    pub fn select(
        &self,
        quick: bool,
        names: &[&str],
    ) -> Result<(Scale, Vec<&'a Experiment<C>>), String> {
        let scale = match (quick, names.is_empty()) {
            (true, _) => Scale::Quick,
            (false, false) => Scale::Gate,
            (false, true) => Scale::Full,
        };
        if names.is_empty() {
            return Ok((scale, self.rows.iter().collect()));
        }
        let rows = self.rows;
        let find = |name: &&str| {
            rows.iter().find(|e| e.name == *name).ok_or_else(|| {
                let known: Vec<&str> = rows.iter().map(|e| e.name).collect();
                format!("no experiment `{name}` (have: {})", known.join(", "))
            })
        };
        Ok((scale, names.iter().map(find).collect::<Result<_, _>>()?))
    }

    /// Run `rows` at `scale` — at full scale over each row's sweep, else
    /// the canonical run only — printing each canonical report's tables.
    /// Sweep index outermost, so rows that share a dataset find it cached
    /// and a row's repeats are spread over the whole run. A row that fails
    /// is reported and dropped; the rest still run.
    pub fn run_rows<'r>(
        &self,
        ctx: &C,
        scale: Scale,
        rows: &[&'r Experiment<C>],
    ) -> (Vec<Runs<'r, C>>, Vec<String>) {
        let sweep = |e: &Experiment<C>| if scale == Scale::Full { e.sweep } else { 0 };
        let mut runs: Vec<Runs<C>> = rows
            .iter()
            .map(|exp| Runs { exp, seeds: Vec::new(), reports: Vec::new(), wall_s: 0.0 })
            .collect();
        let mut failures = Vec::new();
        for k in 0..=rows.iter().map(|e| sweep(e)).max().unwrap_or(0) {
            for run in runs.iter_mut().filter(|r| k <= sweep(r.exp)) {
                let seed = self.sweep.seed(run.exp.seed, k);
                ibox_obs::info!("{} at seed {seed}…", run.exp.name);
                let clock = ibox_obs::Stopwatch::start();
                match (run.exp.run)(ctx, seed) {
                    Ok(report) => {
                        if k == 0 {
                            print!("{}", report.text);
                            run.wall_s = clock.elapsed_s();
                        }
                        run.seeds.push(seed);
                        run.reports.push(report);
                    }
                    Err(reason) => {
                        failures.push(format!("row {}: {reason} (seed {seed})", run.exp.name))
                    }
                }
            }
        }
        runs.retain(|run| run.seeds.len() as u64 == 1 + sweep(run.exp));
        (runs, failures)
    }

    /// Run `rows` at `scale` and conclude as the mode rule says: a smoke
    /// writes and gates nothing, the gate checks against
    /// `./BENCH_<bin>.json`, and a ledger run with no failed row writes that
    /// file, then whatever `also_write` adds, and fails on a claim that left
    /// its expectation. Verdicts and failures go to stderr; returns the
    /// process exit code.
    pub fn main(
        &self,
        ctx: &C,
        scale: Scale,
        rows: &[&Experiment<C>],
        also_write: impl FnOnce(&Ledger, &[Runs<C>]) -> Result<(), String>,
    ) -> i32 {
        let (runs, mut failures) = self.run_rows(ctx, scale, rows);
        let ledger = Ledger::of(&runs);
        eprint!("{}", ledger.summary(self.bin));
        let path = format!("BENCH_{}.json", self.bin);
        match scale {
            Scale::Quick => {}
            Scale::Gate => match Ledger::read(&path) {
                Ok(committed) => failures.extend(committed.regressions(&ledger, self.sweep)),
                Err(e) => failures.push(format!("cannot read ./{path} to gate against: {e}")),
            },
            // A ledger missing a row would fail every later gate of that row.
            Scale::Full if failures.is_empty() => {
                failures.extend(ledger.unexpected());
                let written = ledger.write(&path).and_then(|()| also_write(&ledger, &runs));
                failures.extend(written.err());
            }
            Scale::Full => {}
        }
        for failure in &failures {
            eprintln!("{}: {failure}", self.bin);
        }
        i32::from(!failures.is_empty())
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Statistic `name` over a row's runs: its values and within-run noises.
fn stat_record(name: &str, (per_seed, noise): (Vec<f64>, Vec<f64>)) -> StatRecord {
    let q = |q: f64| percentile(&per_seed, q).unwrap_or(f64::NAN);
    let (min, median, max) = (q(0.0), q(0.5), q(1.0));
    let noise = percentile(&noise, 0.5).unwrap_or(0.0);
    StatRecord { name: name.to_string(), per_seed, min, median, max, noise }
}

impl LedgerRow {
    /// Fold a row's reports; statistics and claims are matched by name, in
    /// the canonical report's order.
    pub fn of<C>(run: &Runs<C>) -> LedgerRow {
        let canonical = &run.reports[0];
        let fold = |stats: fn(&Report) -> &[Stat]| -> Vec<StatRecord> {
            let fold_one = |s: &Stat| {
                let of = |r: &Report| {
                    stats(r).iter().find(|o| o.name == s.name).map(|o| (o.value, o.noise))
                };
                stat_record(&s.name, run.reports.iter().filter_map(of).unzip())
            };
            stats(canonical).iter().map(fold_one).collect()
        };
        let verdicts = canonical.verdicts.iter().map(|v| {
            let of_seed =
                |r: &Report| r.verdicts.iter().find(|o| o.claim == v.claim).map(|o| o.holds);
            let per_seed: Vec<bool> = run.reports.iter().filter_map(of_seed).collect();
            let (expected, reason) = match v.expected {
                Expected::Holds => ("holds", None),
                Expected::KnownFailure(reason) => ("known-failure", Some(reason.to_string())),
            };
            let (claim, holds, expected) =
                (v.claim.clone(), tally(&per_seed), expected.to_string());
            VerdictRecord { claim, per_seed, holds, expected, reason }
        });
        LedgerRow {
            name: run.exp.name.to_string(),
            paper: run.exp.paper.to_string(),
            seeds: run.seeds.clone(),
            wall_s: run.wall_s,
            stats: fold(|r| &r.stats),
            recorded: fold(|r| &r.recorded),
            verdicts: verdicts.collect(),
        }
    }

    /// What a gate run must share with the recorded row to be comparable:
    /// the names of its gated and its recorded statistics, and its claims
    /// with their expectations.
    pub fn shape(&self) -> (Vec<&str>, Vec<&str>, Vec<[&str; 2]>) {
        fn names(stats: &[StatRecord]) -> Vec<&str> {
            stats.iter().map(|s| s.name.as_str()).collect()
        }
        let verdicts = self.verdicts.iter().map(|v| [v.claim.as_str(), v.expected.as_str()]);
        (names(&self.stats), names(&self.recorded), verdicts.collect())
    }
}

impl Ledger {
    /// Fold every row's runs, recording this host.
    pub fn of<C>(runs: &[Runs<C>]) -> Ledger {
        Ledger {
            schema: 1,
            scale: "full".to_string(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            host: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            git_rev: ibox_obs::git_rev(&std::env::current_dir().unwrap_or_default()),
            rows: runs.iter().map(LedgerRow::of).collect(),
        }
    }

    /// Load a committed ledger.
    pub fn read(path: &str) -> Result<Ledger, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        serde_json::from_str(&text).map_err(|e| e.to_string())
    }

    fn write(&self, path: &str) -> Result<(), String> {
        let json = serde_json::to_string_pretty(self).map_err(|e| format!("{path}: {e}"))?;
        std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))
    }

    /// One line per verdict, for stderr.
    pub fn summary(&self, bin: &str) -> String {
        let line = |row: &LedgerRow, v: &VerdictRecord| {
            format!("{bin}: {} holds {} ({}) — {}\n", row.name, v.holds, v.expected, v.claim)
        };
        self.rows.iter().flat_map(|row| row.verdicts.iter().map(move |v| line(row, v))).collect()
    }

    /// Verdicts that left their expectation, over every run recorded.
    pub fn unexpected(&self) -> Vec<String> {
        let check = |row: &LedgerRow, v: &VerdictRecord| {
            let unmet = expectation(&v.expected, &v.per_seed).err()?;
            Some(format!("{}: \"{}\": {unmet}", row.name, v.claim))
        };
        self.rows
            .iter()
            .flat_map(|row| row.verdicts.iter().filter_map(move |v| check(row, v)))
            .collect()
    }

    /// The gate. `fresh` holds canonical runs of some rows: each gated
    /// statistic must lie in this ledger's min–max band widened on either
    /// side by that spread plus the statistic's within-run noise, since a
    /// fresh run drifts like the recorded runs and is as noisy as each of
    /// them (a row recorded on one run has no measured spread, hence no
    /// band); and each verdict must come out as `sweep` says: as recorded
    /// at the canonical seed, or, for repeats, holding where it is expected
    /// to hold.
    pub fn regressions(&self, fresh: &Ledger, sweep: Sweep) -> Vec<String> {
        let mut failures = Vec::new();
        for row in &fresh.rows {
            let recorded = self.rows.iter().find(|old| old.name == row.name);
            let Some(old) = recorded.filter(|old| old.shape() == row.shape()) else {
                let what = "the ledger lacks the row or some statistic, claim or expectation of it";
                failures.push(format!("{}: {what} — rerun it", row.name));
                continue;
            };
            for (stat, rec) in row.stats.iter().zip(&old.stats) {
                // One part in 10⁹ more: a constant statistic may differ in its
                // last bits under another libm.
                let spread = rec.max - rec.min + rec.noise + 1e-9 * rec.max.abs();
                let value = stat.per_seed[0];
                let (lo, hi) = (rec.min - spread, rec.max + spread);
                if rec.per_seed.len() > 1 && !(lo..=hi).contains(&value) {
                    let [value, lo, hi] = [value, lo, hi].map(num);
                    failures
                        .push(format!("{}: {} = {value} left [{lo}, {hi}]", row.name, stat.name));
                }
            }
            for (v, rec) in row.verdicts.iter().zip(&old.verdicts) {
                let want = match sweep {
                    Sweep::Seeds(_) => Some(rec.per_seed[0]),
                    Sweep::Repeats => (rec.expected == "holds").then_some(true),
                };
                if want.is_some_and(|want| v.per_seed[0] != want) {
                    let now = if v.per_seed[0] { "holds" } else { "fails" };
                    let (name, claim, expected) = (&row.name, &v.claim, &v.expected);
                    failures.push(format!("{name}: \"{claim}\" now {now} (expected: {expected})"));
                }
            }
        }
        failures
    }
}

/// A number as the ledger's readers print it: three significant places or so.
pub fn num(v: f64) -> String {
    match v.abs() {
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.2}"),
        _ => format!("{v:.4}"),
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
    use std::cell::{Cell, RefCell};

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

    /// Fake arms on a fake clock: arm `a` advances it by `took[a][r]` in
    /// round `r` (and by a huge amount in its warm-up call, which must not
    /// be timed).
    #[test]
    fn rounds_call_arms_round_robin_and_pair_each_ratio_within_a_round() {
        let took = [[10.0, 1.0, 100.0], [30.0, 50.0, 300.0]];
        let (clock, calls) = (Cell::new(0.0), RefCell::new(Vec::new()));
        let call = |a: usize| {
            let round = calls.borrow().iter().filter(|c| **c == a).count();
            clock.set(clock.get() + if round == 0 { 1e9 } else { took[a][round - 1] });
            calls.borrow_mut().push(a);
        };
        let rounds = Rounds::time_on(3, 2, call, || clock.get());
        let order = [0, 1, 0, 1, 1, 0, 0, 1];
        assert_eq!(*calls.borrow(), order, "warm-up, then three rounds, alternating");
        assert_eq!(rounds.median(0), 10.0);
        assert_eq!(rounds.median(1), 50.0);
        // Each ratio divides times of one round: 3, 50, 3, whose median is 3.
        // Pairing the sorted samples instead, or dividing the medians, would
        // read 5.
        assert_eq!(rounds.ratios(1, 0), [3.0, 50.0, 3.0]);
        let mut rep = Report::default();
        assert_eq!(rep.ratio("x", &rounds.ratios(1, 0)), 3.0);
        assert_eq!(rep.stats[0].noise, 23.5, "the interquartile range of 3, 3, 50");
    }

    /// Recorded at 1.0 and 1.2 with a per-round noise of 0.1, a ratio's
    /// band is [1.0 − 0.3, 1.2 + 0.3].
    #[test]
    fn the_gate_widens_a_band_by_its_spread_plus_its_noise() {
        let ledger = |per_seed: Vec<f64>, noise: f64| Ledger {
            schema: 1,
            scale: "full".into(),
            cores: 1,
            host: "-".into(),
            git_rev: None,
            rows: vec![LedgerRow {
                name: "row".into(),
                paper: "-".into(),
                seeds: (0..per_seed.len() as u64).collect(),
                wall_s: 0.0,
                stats: vec![stat_record("x", (per_seed, vec![noise]))],
                recorded: vec![],
                verdicts: vec![],
            }],
        };
        let committed = ledger(vec![1.0, 1.2], 0.1);
        for (value, passes) in [(0.71, true), (1.49, true), (0.69, false), (1.51, false)] {
            let regressions = committed.regressions(&ledger(vec![value], 0.0), Sweep::Repeats);
            assert_eq!(regressions.is_empty(), passes, "{value}: {regressions:?}");
        }
    }
}
