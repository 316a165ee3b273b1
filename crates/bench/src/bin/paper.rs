//! `paper [--quick] [--jobs N] [name…]` — the paper's evaluation as one
//! table of experiments whose verdicts are asserted, not quoted.
//!
//! Every figure and table is one row of [`EXPERIMENTS`]. A row's `run`
//! takes the seed it sweeps and returns a [`Report`]: the figure as text
//! tables, named statistics, and the paper's claims as [`Verdict`]s with
//! the status expected here — `Holds`, or a named `KnownFailure`.
//!
//! * `paper` — the ledger run: every row at full scale, at its canonical
//!   seed and at `sweep` further ones; writes `results/<name>.txt` and
//!   `BENCH_paper.json` into the working directory and regenerates the
//!   `<!-- paper:<name> -->` blocks of the `EXPERIMENTS.md` there.
//! * `paper name…` — the gate: the named rows at gate scale (full, but
//!   `table1` at a fixed reduced call count), canonical seed only, checked
//!   against `./BENCH_paper.json`.
//! * `paper --quick [name…]` — a smoke run; writes and gates nothing.
//!
//! Stdout is the canonical-seed tables; verdicts and failures go to stderr.
//! `--jobs N` (0 = all cores) trades wall time only, never a byte.

use std::cell::RefCell;
use std::rc::Rc;

use ibox::abtest::{ensemble_test, instance_test, EnsembleReport, ModelKind};
use ibox::adaptive::AdaptiveCross;
use ibox::estimator::{CrossTrafficEstimate, StaticParams};
use ibox::iboxml::{IBoxMl, IBoxMlConfig, IBoxMlConfigBuilder};
use ibox::meld::discovery::{discover, DiscoveryReport};
use ibox::meld::reorder::{augment_with_reordering, ReorderLinear, ReorderLstm};
use ibox::realism::{realism_of_model, realism_test};
use ibox::validity::ValidityRegion;
use ibox::{FitCache, IBoxNet};
use ibox_bench::{cell, dist_cells, num, Expected, Experiment, Ledger, LedgerRow, Report, Runs};
use ibox_bench::{Scale, Sweep, Table};
use ibox_cc::Cubic;
use ibox_ml::TrainConfig;
use ibox_sim::{CongestionControl, CrossTrafficCfg, FixedRate, PathConfig, PathEmulator, PathSpec};
use ibox_sim::{SimOutput, SimTime};
use ibox_stats::{mean, percentile, quantile_summary, wasserstein_1d, Cdf, Histogram, KsResult};
use ibox_testbed::instance::{run_instance, InstanceScenario, INSTANCE_DURATION};
use ibox_testbed::pantheon::generate_paired_datasets;
use ibox_testbed::rtc::BIAS_CT_LEVELS;
use ibox_testbed::rtc::{bias_test_trace, bias_topology, bias_training_trace, generate_calls};
use ibox_testbed::Profile;
use ibox_trace::metrics::{delay_percentile_ms, reordering_rates, TraceMetrics};
use ibox_trace::series::{peak_recv_rate_bps, send_rate_series};
use ibox_trace::{FlowTrace, TraceDataset};

use Expected::{Holds, KnownFailure};

/// Larger than any offset a row adds to its seed, so sweeps share no run.
const STRIDE: u64 = 10_007;

/// The evaluation, in the paper's order. Rows that finish in seconds sweep
/// nine further seeds; fewer where a run trains an iBoxML; `table1` is one
/// five-minute run whose spread is its three ensemble members.
const EXPERIMENTS: &[Experiment<Ctx>] = &[
    Experiment { name: "fig2", paper: "Fig. 2", seed: 2_000, sweep: 9, run: fig2 },
    Experiment { name: "fig3", paper: "Fig. 3", seed: 2_000, sweep: 9, run: fig3 },
    Experiment { name: "fig4", paper: "Fig. 4", seed: 42, sweep: 9, run: fig4 },
    Experiment { name: "fig5", paper: "Fig. 5", seed: 9_000, sweep: 3, run: fig5 },
    Experiment { name: "fig7", paper: "Fig. 7", seed: 21, sweep: 5, run: fig7 },
    Experiment { name: "fig8", paper: "Fig. 8", seed: 13_000, sweep: 9, run: fig8 },
    Experiment { name: "table1", paper: "Table 1", seed: 31_000, sweep: 0, run: table1 },
    Experiment { name: "ablations", paper: "DESIGN.md", seed: 0, sweep: 9, run: ablations },
    Experiment { name: "profiles", paper: "§3.1", seed: 5_000, sweep: 9, run: profiles },
    Experiment { name: "protocols", paper: "§2", seed: 21_000, sweep: 9, run: protocols },
    Experiment { name: "extensions", paper: "§6", seed: 0, sweep: 9, run: extensions },
];

const PAPER: Table<Ctx> = Table { bin: "paper", sweep: Sweep::Seeds(STRIDE), rows: EXPERIMENTS };

/// Why the known failures fail. EXPERIMENTS.md's "Reproduction gaps" are these.
const SEED_DEPENDENT: Expected =
    KnownFailure("holds at the canonical seed, not on every seed of the sweep");
const GAP1: Expected = KnownFailure(
    "gap 1: no reordering in iBoxNet, so no dup-ack moderation of a loss-based sender",
);
const GAP2: Expected =
    KnownFailure("gap 2: correlated on all three instances, far from the paper's near-overlap");
const FIG7_BIAS: Expected = KnownFailure(
    "bias reproduces on 4/6 training seeds; canonical seed 21 inverts it since 466ed59",
);
const CELLULAR_D95: Expected =
    KnownFailure("p95 delay is rejected at the canonical seed and matches on the others");
const TOKEN_BUCKET: Expected =
    KnownFailure("expected by §3.2: a token bucket is variable bandwidth, outside the model");

/// A table row: its label, then its cells.
fn labelled(label: impl Into<String>, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(label.into()).chain(cells).collect()
}

/// Significance level of every KS verdict: fail-to-reject ⇒ match.
const ALPHA: f64 = 0.05;

type Metric = fn(&TraceMetrics) -> f64;
const RATE: Metric = |m| m.avg_rate_mbps;
const D95: Metric = |m| m.p95_delay_ms;
const LOSS: Metric = |m| m.loss_pct;

fn col(ms: &[TraceMetrics], f: Metric) -> Vec<f64> {
    ms.iter().map(f).collect()
}

fn within_2x(value: f64, of: f64) -> bool {
    value > of / 2.0 && value < of * 2.0
}

/// A paired ground-truth dataset: `n` path instances of `profile`, Cubic
/// and `treatment` run over each.
#[derive(Clone, Copy, PartialEq)]
struct Pairs {
    profile: Profile,
    treatment: &'static str,
    n: usize,
    duration: SimTime,
    seed: u64,
}

/// What every row sees of the invocation.
struct Ctx {
    scale: Scale,
    jobs: usize,
    /// The last paired dataset generated: fig2 and fig3 replay the same
    /// one, run back to back, and the second finds it here.
    pairs: RefCell<Option<(Pairs, Rc<Vec<TraceDataset>>)>>,
}

impl Ctx {
    fn secs(&self, quick: usize, full: usize) -> SimTime {
        SimTime::from_secs(self.scale.pick(quick, full) as u64)
    }

    /// The `[cubic, treatment]` datasets of `spec`.
    fn paired(&self, spec: &Pairs) -> Rc<Vec<TraceDataset>> {
        let mut slot = self.pairs.borrow_mut();
        if let Some((_, ds)) = slot.as_ref().filter(|(have, _)| have == spec) {
            return Rc::clone(ds);
        }
        let Pairs { profile, treatment, n, duration, seed } = *spec;
        let protocols = ["cubic", treatment];
        let ds =
            Rc::new(generate_paired_datasets(profile, &protocols, n, duration, seed, self.jobs));
        *slot = Some((*spec, Rc::clone(&ds)));
        ds
    }

    /// The ensemble test of fig2 / fig3 / profiles / protocols: fit `kind`
    /// per Cubic trace of `spec`, replay Cubic and the treatment.
    fn ensemble(&self, spec: &Pairs, kind: ModelKind, replay_seed: u64) -> EnsembleReport {
        let ds = self.paired(spec);
        ensemble_test(&ds[0], &ds[1], kind, spec.duration, replay_seed, self.jobs)
    }

    /// Figs. 2, 3, 5 and 8 run Cubic (control) and Vegas (treatment) over
    /// the India-Cellular-like profile.
    fn cellular(&self, n: usize, seed: u64) -> Pairs {
        let (profile, duration) = (Profile::IndiaCellular, self.secs(10, 30));
        Pairs { profile, treatment: "vegas", n, duration, seed }
    }

    fn pantheon_ensemble(&self, seed: u64, kind: ModelKind) -> EnsembleReport {
        self.ensemble(&self.cellular(self.scale.pick(6, 30), seed), kind, 7)
    }
}

/// The iBoxML of fig5 / fig7 / table1: 2×24 hidden units, `epochs` passes.
fn iboxml_cfg(with_cross_traffic: bool, epochs: usize, seed: u64) -> IBoxMlConfigBuilder {
    let train = TrainConfig {
        epochs,
        lr: 3e-3,
        tbptt: 64,
        clip: 5.0,
        loss_weight: 0.2,
        delay_weight: 1.0,
        ..Default::default()
    };
    let builder = IBoxMlConfig::builder().hidden_sizes([24, 24]).train(train).seed(seed);
    builder.with_cross_traffic(with_cross_traffic)
}

/// Fig. 2: per run, average rate vs p95 delay and vs loss %, for Cubic
/// (fitted on) and Vegas (never seen in fitting), ground truth vs iBoxNet,
/// the match verified by two-sample KS tests.
fn fig2(ctx: &Ctx, seed: u64) -> Result<Report, String> {
    let r = ctx.pantheon_ensemble(seed, ModelKind::IBoxNet);
    let mut rep = Report::default();
    let populations = [
        ("Cubic GT", "cubic/gt", &r.gt_a),
        ("Cubic iBoxNet", "cubic/iboxnet", &r.sim_a),
        ("Vegas GT", "vegas/gt", &r.gt_b),
        ("Vegas iBoxNet", "vegas/iboxnet", &r.sim_b),
    ];
    let mut header = vec!["population".to_string()];
    for metric in ["rate", "d95", "loss"] {
        header.extend(["mean", "p25", "p50", "p75"].map(|q| format!("{metric}.{q}")));
    }
    let dists = |ms: &[TraceMetrics]| [RATE, D95, LOSS].map(|f| dist_cells(&col(ms, f))).concat();
    let rows: Vec<Vec<String>> =
        populations.iter().map(|(label, _, ms)| labelled(*label, dists(ms))).collect();
    rep.table(
        "Fig. 2 — metric distributions (rate Mbps | p95 delay ms | loss %)",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
        &rows,
    );

    let mut rows = Vec::new();
    for (label, key, ks) in [
        ("p95 delay", "d95", r.ks_delay),
        ("loss %", "loss", r.ks_loss),
        ("avg rate", "rate", r.ks_rate),
    ] {
        let (cubic, vegas) =
            (rep.ks(&format!("cubic {key}"), ks.a), rep.ks(&format!("vegas {key}"), ks.b));
        rows.push(labelled(label, cubic.into_iter().chain(vegas)));
    }
    let title = "Fig. 2 — two-sample KS tests, GT vs iBoxNet (match if p > 0.05)";
    rep.table(title, &["metric", "D(cubic)", "p(cubic)", "D(vegas)", "p(vegas)"], &rows);

    let point = |series: &str, m: &TraceMetrics| {
        labelled(series, [cell(m.avg_rate_mbps, 3), cell(m.p95_delay_ms, 1), cell(m.loss_pct, 2)])
    };
    let scatter: Vec<Vec<String>> = populations
        .iter()
        .flat_map(|(_, series, ms)| ms.iter().map(move |m| point(series, m)))
        .collect();
    let title = "Fig. 2 — per-run scatter points";
    rep.table(title, &["series", "rate_mbps", "p95_delay_ms", "loss_pct"], &scatter);

    let all_match = |tests: &[KsResult]| tests.iter().all(|ks| ks.matches(ALPHA));
    let claim = "Vegas, never seen in fitting, matches ground truth on p95 delay, loss and rate";
    rep.verdict(claim, all_match(&[r.ks_delay.b, r.ks_loss.b, r.ks_rate.b]), SEED_DEPENDENT);
    let claim = "the Cubic self-replay matches ground truth on rate";
    rep.verdict(claim, all_match(&[r.ks_rate.a]), SEED_DEPENDENT);
    let claim = "the Cubic self-replay matches ground truth on p95 delay and loss";
    rep.verdict(claim, all_match(&[r.ks_delay.a, r.ks_loss.a]), GAP1);
    Ok(rep)
}

/// Fig. 3: the same ensemble test without the cross-traffic input, and
/// with a statistical loss model in its place — both should match ground
/// truth worse than iBoxNet (larger KS D). Beyond the paper: iBoxNet with
/// the reordering stage melded into the emulator.
fn fig3(ctx: &Ctx, seed: u64) -> Result<Report, String> {
    let kinds = [
        ModelKind::IBoxNet,
        ModelKind::IBoxNetNoCross,
        ModelKind::StatisticalLoss,
        ModelKind::IBoxNetReorder,
    ];
    let reports: Vec<EnsembleReport> =
        kinds.into_iter().map(|kind| ctx.pantheon_ensemble(seed, kind)).collect();
    let mut rep = Report::default();
    let header = ["model", "D(d95)", "p(d95)", "D(loss)", "p(loss)", "D(rate)", "p(rate)"];

    for (side, title) in [
        ("vegas", "Fig. 3 — Vegas-vs-GT KS distance per model (smaller D = better match)"),
        ("cubic", "Fig. 3 — Cubic-vs-GT KS distance per model"),
    ] {
        let mut rows = Vec::new();
        for r in &reports {
            let mut row = vec![r.model.clone()];
            for (key, ks) in [("d95", r.ks_delay), ("loss", r.ks_loss), ("rate", r.ks_rate)] {
                let ks = if side == "vegas" { ks.b } else { ks.a };
                row.extend(rep.ks(&format!("{}: {side} {key}", r.model), ks));
            }
            rows.push(row);
        }
        rep.table(title, &header, &rows);
    }

    // The no-CT ablation's signature failure is an optimistic world: too
    // little delay, too much rate.
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            let d95 = [&r.gt_b, &r.sim_b].map(|ms| cell(mean(&col(ms, D95)), 1));
            let rate = [&r.gt_b, &r.sim_b].map(|ms| cell(mean(&col(ms, RATE)), 2));
            labelled(&r.model, d95.into_iter().chain(rate))
        })
        .collect();
    let title = "Fig. 3 — mean Vegas metrics: GT vs model";
    rep.table(title, &["model", "gt.d95_ms", "sim.d95_ms", "gt.rate", "sim.rate"], &rows);

    let sum_d: Vec<f64> = reports
        .iter()
        .map(|r| r.ks_delay.b.statistic + r.ks_loss.b.statistic + r.ks_rate.b.statistic)
        .collect();
    for (r, sum) in reports.iter().zip(&sum_d) {
        rep.stat(format!("{}: vegas ΣD", r.model), *sum);
    }
    let claim = "without the cross-traffic input the Vegas match is worse than iBoxNet's (ΣD)";
    rep.verdict(claim, sum_d[1] > sum_d[0], Holds);
    let claim = "with a statistical loss model the Vegas match is worse than iBoxNet's (ΣD)";
    rep.verdict(claim, sum_d[2] > sum_d[0], Holds);
    Ok(rep)
}

/// Fig. 4: three cross-traffic timings on a known path, an iBoxNet fitted
/// per instance from one Cubic run; ground-truth and simulated Vegas runs
/// must cluster with their instance (k-means, k = 3, "no mistakes").
fn fig4(ctx: &Ctx, seed: u64) -> Result<Report, String> {
    let runs = ctx.scale.pick(3, 10);
    let r = instance_test(runs, "vegas", seed, ctx.jobs);
    let mut rep = Report::default();
    rep.text += &format!(
        "## Fig. 4 — instance test (treatment: Vegas, {runs} GT + {runs} sim runs per pattern)\n\
         k-means (k=3) clustering purity: {:.3} (1.000 = the paper's \"no mistakes\")\n\n",
        r.purity
    );

    let mut confusion = [[0usize; 3]; 3];
    for (tag, &a) in r.tags.iter().zip(&r.assignments) {
        confusion[a][tag.pattern] += 1;
    }
    let rows: Vec<Vec<String>> = confusion
        .iter()
        .enumerate()
        .map(|(c, counts)| labelled(format!("cluster{c}"), counts.iter().map(|n| n.to_string())))
        .collect();
    let header = ["", "pat0 (0-10s)", "pat1 (20-30s)", "pat2 (40-50s)"];
    rep.table("Fig. 4b — cluster vs cross-traffic pattern", &header, &rows);

    let xcorr = &r.control_rate_alignment;
    let rows: Vec<Vec<String>> =
        xcorr.iter().enumerate().map(|(p, c)| vec![format!("pattern{p}"), cell(*c, 3)]).collect();
    let title = "Fig. 4a — Cubic rate-series correlation: iBoxNet vs ground truth";
    rep.table(title, &["instance", "xcorr"], &rows);

    let rows: Vec<Vec<String>> = r
        .tags
        .iter()
        .zip(&r.embedding)
        .zip(&r.assignments)
        .map(|((tag, xy), a)| {
            let source = if tag.simulated { "iboxnet" } else { "gt" }.to_string();
            labelled(
                format!("pat{}", tag.pattern),
                [source, format!("c{a}"), cell(xy[0], 2), cell(xy[1], 2)],
            )
        })
        .collect();
    let title = "Fig. 4b — t-SNE embedding (plot x,y colored by pattern; × = iboxnet, ● = gt)";
    rep.table(title, &["pattern", "source", "cluster", "x", "y"], &rows);

    rep.stat("purity", r.purity);
    for (p, c) in xcorr.iter().enumerate() {
        rep.stat(format!("pattern{p} xcorr"), *c);
    }
    let claim = "k-means (k = 3) puts every run with its instance, \"no mistakes\": purity 1";
    rep.verdict(claim, r.purity == 1.0, SEED_DEPENDENT);
    let claim = "Fig. 4a: the model's Cubic rate series correlates with ground truth's everywhere";
    rep.verdict(claim, xcorr.iter().all(|c| *c > 0.0), Holds);
    let claim = "Fig. 4a: the two rate series nearly overlap (xcorr ≥ 0.9) on every instance";
    rep.verdict(claim, xcorr.iter().all(|c| *c >= 0.9), GAP2);
    Ok(rep)
}

/// The reordering material of Figs. 5 and 8: paired Cubic/Vegas cellular
/// runs split into train and test, and the §5.1 LSTM reorder predictor
/// fitted on the Cubic training split.
struct ReorderFixture {
    duration: SimTime,
    cubic_train: Vec<FlowTrace>,
    vegas_train: Vec<FlowTrace>,
    vegas_test: Vec<FlowTrace>,
    lstm: ReorderLstm,
}

fn reorder_fixture(ctx: &Ctx, n_train: usize, n_test: usize, seed: u64) -> ReorderFixture {
    let spec = ctx.cellular(n_train + n_test, seed);
    let ds = ctx.paired(&spec);
    let train_frac = n_train as f64 / spec.n as f64;
    let cubic_train = ds[0].split(train_frac).0.traces;
    let (vegas_train, vegas_test) = ds[1].split(train_frac);
    let lstm = ReorderLstm::fit(&cubic_train, 16, ctx.scale.pick(3, 8), 3);
    let (vegas_train, vegas_test) = (vegas_train.traces, vegas_test.traces);
    ReorderFixture { duration: spec.duration, cubic_train, vegas_train, vegas_test, lstm }
}

/// Fig. 5: CDF of the reordering rate over 1-second windows on the Vegas
/// test set — ground truth, iBoxML (trained only to match delays), plain
/// iBoxNet (a step at zero), and iBoxNet augmented by the LSTM and by the
/// logistic-regression reorder predictor.
fn fig5(ctx: &Ctx, seed: u64) -> Result<Report, String> {
    let fx = reorder_fixture(ctx, ctx.scale.pick(4, 24), ctx.scale.pick(3, 16), seed);
    let iboxml = IBoxMl::fit(&fx.vegas_train, iboxml_cfg(false, ctx.scale.pick(4, 10), 17).build());
    let linear = ReorderLinear::fit(&fx.cubic_train);

    // iBoxNet can never reorder whatever it is fitted on, so fitting on the
    // test trace itself stands in for the paper's training-set fit.
    let evaluated = ibox_runner::run_scoped(fx.vegas_test.len(), ctx.jobs, |i| {
        let t = &fx.vegas_test[i];
        let net = IBoxNet::fit(t).simulate("vegas", fx.duration, 1_000 + i as u64);
        let net_lstm = augment_with_reordering(&net, &fx.lstm, 50 + i as u64);
        let net_linear = augment_with_reordering(&net, &linear, 90 + i as u64);
        [t.clone(), iboxml.predict_trace(t), net, net_lstm, net_linear]
    });
    let names = ["ground-truth", "iboxml", "iboxnet", "iboxnet+lstm", "iboxnet+linear"];
    let series: Vec<Vec<f64>> = (0..names.len())
        .map(|s| evaluated.iter().flat_map(|traces| reordering_rates(&traces[s], 1.0)).collect())
        .collect();

    let mut rep = Report::default();
    // The paper's x-range, [0, 0.1].
    let cdfs: Vec<Cdf> = series.iter().map(|sample| Cdf::new(sample)).collect();
    let rows: Vec<Vec<String>> = (0..=20)
        .map(|i| i as f64 * 0.005)
        .map(|x| labelled(cell(x, 3), cdfs.iter().map(|cdf| cell(cdf.eval(x), 3))))
        .collect();
    rep.table(
        "Fig. 5 — CDF of per-1s-window reordering rate (Vegas test set)",
        &["reorder_rate", "gt", "iboxml", "iboxnet", "iboxnet+lstm", "iboxnet+linear"],
        &rows,
    );
    let means: Vec<f64> = series.iter().map(|s| mean(s)).collect();
    let rows: Vec<Vec<String>> =
        names.iter().zip(&means).map(|(name, m)| vec![name.to_string(), cell(*m, 4)]).collect();
    rep.table("Fig. 5 — mean per-window reordering rate", &["series", "mean"], &rows);

    for (name, m) in names.iter().zip(&means) {
        rep.stat(format!("{name} mean"), *m);
    }
    rep.verdict("plain iBoxNet produces no reordering at all", means[2] == 0.0, Holds);
    rep.verdict("iBoxML reorders, though trained only to match delays", means[1] > 0.0, Holds);
    let claim = "iBoxNet+Linear lands within 2x of the ground-truth mean rate";
    rep.verdict(claim, within_2x(means[4], means[0]), Holds);
    let claim = "iBoxNet+LSTM lands within 2x of the ground-truth mean rate";
    rep.verdict(claim, within_2x(means[3], means[0]), SEED_DEPENDENT);
    Ok(rep)
}

/// Fig. 7: iBoxML trained on a delay-sensitive RTC control loop predicts the
/// delays of a high-rate CBR sender. Ground truth shows high delay often;
/// the model rarely does (the control-loop bias) unless it is also fed the
/// cross-traffic estimate. `seed` trains both models; the traces are fixed.
fn fig7(ctx: &Ctx, seed: u64) -> Result<Report, String> {
    let per_level = ctx.scale.pick(1, 3);
    let duration = ctx.secs(12, 30);
    // On-off cross traffic below capacity: delay stays low overall (the bias)
    // but spikes at each ON edge, in step with the cross-traffic estimate.
    let n_train = BIAS_CT_LEVELS.len() * per_level;
    let train: Vec<FlowTrace> = ibox_runner::run_scoped(n_train, ctx.jobs, |i| {
        let (level, s) = (i / per_level, i % per_level);
        bias_training_trace(BIAS_CT_LEVELS[level], duration, (level * 20 + s) as u64)
    });
    let test: Vec<FlowTrace> = ibox_runner::run_scoped(BIAS_CT_LEVELS.len(), ctx.jobs, |level| {
        bias_test_trace(BIAS_CT_LEVELS[level], duration, (900 + level) as u64)
    });
    // A controlled topology: the cross-traffic estimator gets the true
    // (b, d, B), which RTC traces never saturate the path enough to reveal.
    let topo = bias_topology();
    let known = StaticParams {
        bandwidth_bps: topo.rate.mean_rate_bps(),
        prop_delay: topo.prop_delay,
        buffer_bytes: topo.buffer_bytes,
    };
    let epochs = ctx.scale.pick(8, 15);
    let without = IBoxMl::fit(&train, iboxml_cfg(false, epochs, seed).build());
    let with = IBoxMl::fit(&train, iboxml_cfg(true, epochs, seed).known_params(known).build());

    // Conditional-mean predictions: the claim is about what the model
    // expects, so a variance-inflated sample would be the wrong probe.
    let predict = |model: &IBoxMl| -> Vec<f64> {
        test.iter().flat_map(|t| model.predict_delays(t)).map(|d| d * 1e3).collect()
    };
    let gt = test.iter().flat_map(|t| t.delivered().filter_map(|r| r.delay_ms())).collect();
    let series: [(&str, Vec<f64>); 3] = [
        ("ground-truth", gt),
        ("iboxml w/o CT", predict(&without)),
        ("iboxml with CT", predict(&with)),
    ];

    let mut rep = Report::default();
    // The figure's axes: 0–250 ms in 10 bins.
    let hists: Vec<Histogram> =
        series.iter().map(|(_, d)| Histogram::from_sample(0.0, 250.0, 10, d)).collect();
    let freqs: Vec<Vec<f64>> = hists.iter().map(|h| h.frequencies_pct()).collect();
    let rows: Vec<Vec<String>> = (0..10)
        .map(|b| {
            let center = hists[0].bin_center(b);
            let bin = format!("{:.0}-{:.0}", center - 12.5, center + 12.5);
            labelled(bin, freqs.iter().map(|f| cell(f[b], 1)))
        })
        .collect();
    let title = "Fig. 7 — delay histograms for the high-rate CBR test (frequency %)";
    rep.table(title, &["delay_ms", "ground-truth", "iboxml w/o CT", "iboxml with CT"], &rows);

    let mass_above = |d: &[f64], ms: f64| {
        100.0 * d.iter().filter(|x| **x > ms).count() as f64 / d.len().max(1) as f64
    };
    let mut rows = Vec::new();
    for (name, d) in &series {
        rep.stat(format!("{name} mean ms"), mean(d));
        rep.stat(format!("{name} % > 100 ms"), mass_above(d, 100.0));
        let cells = [mean(d), mass_above(d, 75.0), mass_above(d, 100.0)].map(|v| cell(v, 1));
        rows.push(labelled(*name, cells));
    }
    let title = "Fig. 7 — summary: mean predicted delay; high-delay mass";
    rep.table(title, &["series", "mean_ms", "pct > 75ms", "pct > 100ms"], &rows);

    let [gt, wo, wi] = [0, 1, 2].map(|s| mean(&series[s].1));
    let claim =
        "mean delay w/o CT < with CT < ground truth, and w/o CT has under 10 % above 100 ms";
    rep.verdict(claim, wo < wi && wi < gt && mass_above(&series[1].1, 100.0) < 10.0, FIG7_BIAS);
    Ok(rep)
}

/// Fig. 8: SAX-encode inter-arrival differences of ground truth and of
/// iBoxNet and diff the motif tables — `'a'` (negative inter-arrival, i.e.
/// reordering) is in ground truth only; after augmenting iBoxNet with the
/// learned reorder model its frequency approaches ground truth's.
fn fig8(ctx: &Ctx, seed: u64) -> Result<Report, String> {
    let fx = reorder_fixture(ctx, ctx.scale.pick(3, 16), ctx.scale.pick(3, 12), seed);
    let test = &fx.vegas_test;
    let net: Vec<FlowTrace> = ibox_runner::run_scoped(test.len(), ctx.jobs, |i| {
        IBoxNet::fit(&test[i]).simulate("vegas", fx.duration, 400 + i as u64)
    });
    let plain = discover(test, &net);
    let mut rep = Report::default();
    rep.text += "## Fig. 8a — patterns in ground truth but MISSING from iBoxNet\n";
    if plain.missing_unigrams.is_empty() && plain.missing_bigrams.is_empty() {
        rep.text += "(none)\n";
    }
    for (len, missing) in [(1, &plain.missing_unigrams), (2, &plain.missing_bigrams)] {
        for (p, f) in missing {
            rep.text += &format!("  length-{len} pattern {p:?}  gt-frequency {:.2}%\n", f * 100.0);
        }
    }
    rep.text += "\n";

    let augmented: Vec<FlowTrace> = ibox_runner::run_scoped(net.len(), ctx.jobs, |i| {
        augment_with_reordering(&net[i], &fx.lstm, 700 + i as u64)
    });
    let aug = discover(test, &augmented);
    let sim_freq = |r: &DiscoveryReport, pattern: &str| {
        let table = if pattern.len() == 1 { &r.sim_unigrams } else { &r.sim_bigrams };
        format!("{:.2}%", table.frequency(pattern) * 100.0)
    };
    let rows: Vec<Vec<String>> = plain
        .comparison_rows(6)
        .into_iter()
        .map(|(pattern, gt_f, _)| {
            let (net_f, aug_f) = (sim_freq(&plain, &pattern), sim_freq(&aug, &pattern));
            vec![pattern, format!("{:.2}%", gt_f * 100.0), net_f, aug_f]
        })
        .collect();
    let title = "Fig. 8b — pattern frequencies: ground truth vs iBoxNet vs iBoxNet+ML";
    rep.table(title, &["pattern", "ground truth", "iboxnet", "iboxnet+ml"], &rows);
    rep.text += "## Fig. 8b — patterns still missing after augmentation\n";
    if aug.missing_unigrams.is_empty() {
        rep.text += "  length-1: (none — 'a' restored)\n";
    }
    for (p, f) in &aug.missing_unigrams {
        rep.text += &format!("  length-1 pattern {p:?} gt-frequency {}\n", cell(f * 100.0, 2));
    }

    let (a_gt, a_aug) = (plain.gt_unigrams.frequency("a"), aug.sim_unigrams.frequency("a"));
    rep.stat("'a' ground truth", a_gt);
    rep.stat("'a' iboxnet", plain.sim_unigrams.frequency("a"));
    rep.stat("'a' iboxnet+ml", a_aug);
    let claim = "the diff finds 'a' (reordering) in ground truth and missing from iBoxNet";
    rep.verdict(claim, plain.missing_unigrams.iter().any(|(p, _)| p == "a"), Holds);
    let claim = "after augmentation 'a' is back, within 2x of its ground-truth frequency";
    rep.verdict(claim, within_2x(a_aug, a_gt), Holds);
    Ok(rep)
}

/// `table1` at gate scale: enough calls for the with/without-CT ordering to
/// show, few enough to train six models inside a gate.
const TABLE1_GATE_CALLS: usize = 60;

/// Table 1: iBoxML with and without the cross-traffic estimate on synthetic
/// RTC calls (`seed`); per variant, the error between the P25/P50/P75/mean
/// of the predicted per-call p95-delay distribution and ground truth's. A
/// variant is a small seed ensemble, a call's prediction the median across
/// members: closed-loop LSTM unrolls are sensitive to the training path.
fn table1(ctx: &Ctx, seed: u64) -> Result<Report, String> {
    let n_calls = match ctx.scale {
        Scale::Quick => 24,
        Scale::Gate => TABLE1_GATE_CALLS,
        Scale::Full => 540,
    };
    let (mut train, test) = generate_calls(n_calls, seed).split(0.7);
    // Training cost is linear in training packets and ~90 one-minute calls
    // saturate the small model; the test set keeps the full call count.
    train.traces.truncate(ctx.scale.pick(usize::MAX, 90));
    let epochs = ctx.scale.pick(3, 5);
    let members: &[u64] = if ctx.scale == Scale::Quick { &[29] } else { &[29, 57, 91] };
    let fit = |with_ct: bool| -> Vec<IBoxMl> {
        ibox_runner::run_scoped(members.len(), ctx.jobs, |m| {
            IBoxMl::fit(&train.traces, iboxml_cfg(with_ct, epochs, members[m]).build())
        })
    };
    let variants = [("No", fit(false)), ("Yes", fit(true))];

    let gt: Vec<f64> = test.traces.iter().filter_map(|t| delay_percentile_ms(t, 0.95)).collect();
    let truth = quantile_summary(&gt).ok_or("no test call delivered a packet")?;
    let mut rep = Report::default();
    let mut rows = Vec::new();
    let mut mean_errors = Vec::new();
    for (label, ensemble) in &variants {
        // Sampled from the predicted distributions (the mean alone
        // understates the tails this table measures): per call, the p95 of
        // each member, then the median across members.
        let per_call: Vec<Vec<f64>> = ibox_runner::run_scoped(test.traces.len(), ctx.jobs, |i| {
            let sampled = |m: &IBoxMl| m.predict_trace_sampled(&test.traces[i], i as u64);
            ensemble.iter().filter_map(|m| delay_percentile_ms(&sampled(m), 0.95)).collect()
        });
        let medians: Vec<f64> = per_call.iter().filter_map(|p95s| percentile(p95s, 0.5)).collect();
        let s =
            quantile_summary(&medians).ok_or(format!("no predictions (cross traffic: {label})"))?;
        let mut row = vec![label.to_string()];
        for (name, predicted, truth) in [
            ("P25", s.p25, truth.p25),
            ("P50", s.p50, truth.p50),
            ("P75", s.p75, truth.p75),
            ("mean", s.mean, truth.mean),
        ] {
            let error = (predicted - truth).abs();
            rep.stat(format!("CT {label}: {name} error ms"), error);
            row.push(format!("{error:.0} ({:.0}%)", error / truth * 100.0));
        }
        rows.push(row);
        // The spread a one-seed row has: each member's own mean error.
        let member_errors = members.iter().enumerate().map(|(i, m)| {
            let p95s: Vec<f64> = per_call.iter().filter_map(|c| c.get(i).copied()).collect();
            let error = (mean(&p95s) - truth.mean).abs();
            rep.stat(format!("CT {label}: member {m} mean error ms"), error);
            error
        });
        mean_errors.push(((s.mean - truth.mean).abs(), member_errors.collect::<Vec<f64>>()));
    }
    let title = "Table 1 — error in distribution of per-call p95 delay, ms (and %)";
    rep.table(title, &["Cross traffic", "P25", "P50", "P75", "mean"], &rows);
    rep.text += &format!(
        "(ground truth per-call p95 delay: P25 {:.0} ms, P50 {:.0} ms, P75 {:.0} ms, mean {:.0} ms over {} calls)\n",
        truth.p25,
        truth.p50,
        truth.p75,
        truth.mean,
        gt.len()
    );

    let (no, yes) = (&mean_errors[0], &mean_errors[1]);
    let claim = "the cross-traffic input reduces the error of the mean per-call p95 delay";
    rep.verdict(claim, yes.0 < no.0, Holds);
    let claim = "it does so for every ensemble member on its own";
    rep.verdict(claim, yes.1.iter().zip(&no.1).all(|(yes, no)| yes < no), Holds);
    Ok(rep)
}

/// One sender over one path; errors when no flow was recorded.
fn one_flow(
    emu: PathEmulator,
    sender: Box<dyn CongestionControl>,
    seed: u64,
) -> Result<FlowTrace, String> {
    let SimOutput { traces, .. } = emu.run_sender(sender, "m", seed);
    traces.into_iter().next().ok_or_else(|| "the emulator recorded no flow".to_string())
}

fn simple_path(rate_bps: f64, delay_ms: u64, buffer_bytes: u64, duration: SimTime) -> PathEmulator {
    let path = PathConfig::simple(rate_bps, SimTime::from_millis(delay_ms), buffer_bytes);
    PathEmulator::from_spec(PathSpec::single(path), duration)
}

/// This reproduction's own estimator knobs (DESIGN.md) on a known 8 Mbps
/// path with a 2 Mbps CBR burst in [5, 15) s: cross-traffic bin width,
/// bandwidth-estimator window, and the replay packet size.
fn ablations(ctx: &Ctx, seed: u64) -> Result<Report, String> {
    let duration = SimTime::from_secs(20);
    const TRUE_CT_BYTES: f64 = 2e6 / 8.0 * 10.0;
    let traces = ibox_runner::run_scoped(ctx.scale.pick(2, 6), ctx.jobs, |i| {
        let burst = CrossTrafficCfg::cbr(2e6, SimTime::from_secs(5), SimTime::from_secs(15));
        let emu = simple_path(8e6, 30, 120_000, duration).with_cross_traffic(burst);
        Ok(one_flow(emu, Box::new(Cubic::new()), seed + i as u64)?.normalized())
    })
    .into_iter()
    .collect::<Result<Vec<FlowTrace>, String>>()?;
    let mut rep = Report::default();

    let mut worst_recovery: f64 = 0.0;
    let mut rows = Vec::new();
    for bin in [0.02, 0.05, 0.1, 0.2, 0.5, 1.0] {
        let (totals, localization): (Vec<f64>, Vec<f64>) = traces
            .iter()
            .map(|t| {
                let est = CrossTrafficEstimate::estimate(t, &StaticParams::estimate(t), bin);
                let total = est.total_bytes();
                (total / TRUE_CT_BYTES, est.bytes_between(4.5, 15.5) / total.max(1.0))
            })
            .unzip();
        worst_recovery = worst_recovery.max((mean(&totals) - 1.0).abs());
        let cells = [cell(mean(&totals), 3), cell(mean(&localization), 3)];
        rows.push(labelled(format!("{:.0} ms", bin * 1e3), cells));
    }
    let title = "Ablation 1 — CT estimate vs bin width (recovered/true bytes; in-window share)";
    rep.table(title, &["bin", "recovered_ratio", "localization"], &rows);

    let mut worst_bandwidth: f64 = 0.0;
    let mut rows = Vec::new();
    for window in [0.1, 0.25, 0.5, 1.0, 2.0, 5.0] {
        let ratios: Vec<f64> = traces.iter().map(|t| peak_recv_rate_bps(t, window) / 8e6).collect();
        worst_bandwidth = worst_bandwidth.max((mean(&ratios) - 1.0).abs());
        rows.push(vec![format!("{window:.2} s"), cell(mean(&ratios), 3)]);
    }
    let title = "Ablation 2 — bandwidth estimate vs sliding-window length (est/true)";
    rep.table(title, &["window", "b_ratio"], &rows);

    // The same estimated byte series under different packetizations.
    let reference = IBoxNet::fit(&traces[0]);
    let mut rates = Vec::new();
    let mut rows = Vec::new();
    for pkt in [400u32, 800, 1200, 1500] {
        let emu = PathEmulator::from_spec(PathSpec::single(reference.path_config()), duration)
            .with_cross_traffic(reference.cross.to_replay(pkt));
        let m = TraceMetrics::of(&one_flow(emu, Box::new(Cubic::new()), seed + 77)?);
        rates.push(m.avg_rate_mbps);
        let cells = [cell(m.avg_rate_mbps, 2), cell(m.p95_delay_ms, 1), cell(m.loss_pct, 2)];
        rows.push(labelled(format!("{pkt} B"), cells));
    }
    let title = "Ablation 3 — counterfactual Cubic metrics vs CT replay packet size";
    rep.table(title, &["pkt_size", "rate_mbps", "p95_ms", "loss_pct"], &rows);

    let rate_change = rates.iter().fold(0.0f64, |s, r| s.max((r - rates[0]).abs() / rates[0]));
    rep.stat("worst |recovered/true - 1| over bin widths", worst_recovery);
    rep.stat("worst |b est/true - 1| over windows", worst_bandwidth);
    rep.stat("worst relative rate change over packet sizes", rate_change);
    let claim = "the cross-traffic estimator recovers the true bytes within 5 % at every bin width";
    rep.verdict(claim, worst_recovery < 0.05, Holds);
    let claim = "the bandwidth estimate is within 5 % of truth at every window length";
    rep.verdict(claim, worst_bandwidth < 0.05, Holds);
    let claim = "the replay packet size moves the counterfactual rate by under 5 %";
    rep.verdict(claim, rate_change < 0.05, Holds);
    Ok(rep)
}

/// The paired dataset of `profiles` and `protocols`.
fn small_pairs(ctx: &Ctx, profile: Profile, treatment: &'static str, seed: u64) -> Pairs {
    Pairs { profile, treatment, n: ctx.scale.pick(4, 15), duration: ctx.secs(8, 20), seed }
}

/// §3.1 "we have evaluated iBoxNet on other paths too": the Fig. 2
/// pipeline on cellular, cellular with proportional-fair scheduling (the
/// stress test the paper highlights), clean Ethernet and token-bucket WiFi.
fn profiles(ctx: &Ctx, seed: u64) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut rows = Vec::new();
    for (profile, claimed, expected) in [
        (Profile::IndiaCellular, "p95 delay, rate and loss", CELLULAR_D95),
        (Profile::IndiaCellularPf, "p95 delay and rate", SEED_DEPENDENT),
        (Profile::Ethernet, "p95 delay, rate and loss", Holds),
        (Profile::TokenBucketWifi, "loss", TOKEN_BUCKET),
    ] {
        let r = ctx.ensemble(&small_pairs(ctx, profile, "vegas", seed), ModelKind::IBoxNet, 11);
        let mut row = vec![profile.name().to_string()];
        let mut holds = true;
        for (metric, key, ks) in [
            ("p95 delay", "d95", r.ks_delay.b),
            ("rate", "rate", r.ks_rate.b),
            ("loss", "loss", r.ks_loss.b),
        ] {
            row.extend(rep.ks(&format!("{} {key}", profile.name()), ks));
            holds &= !claimed.contains(metric) || ks.matches(ALPHA);
        }
        rows.push(row);
        let claim = format!("{}: Vegas matches ground truth on {claimed}", profile.name());
        rep.verdict(claim, holds, expected);
    }
    rep.table(
        "iBoxNet ensemble test across path profiles (Vegas vs GT)",
        &["profile", "D(d95)", "p(d95)", "D(rate)", "p(rate)", "D(loss)", "p(loss)"],
        &rows,
    );
    Ok(rep)
}

/// §2 "the network model is learnt using end-to-end traces of A and then
/// used to predict behaviour if B were run instead": A = Cubic, B swept
/// over loss-based (Reno), delay-based (Vegas), model-based (BBR-lite) and
/// an application control loop (RTC).
fn protocols(ctx: &Ctx, seed: u64) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut rows = Vec::new();
    for (treatment, expected) in
        [("vegas", SEED_DEPENDENT), ("reno", GAP1), ("bbr", Holds), ("rtc", Holds)]
    {
        let spec = small_pairs(ctx, Profile::IndiaCellular, treatment, seed);
        let r = ctx.ensemble(&spec, ModelKind::IBoxNet, 5);
        let pair = format!("cubic->{treatment}");
        let mut row = vec![pair.clone()];
        row.extend(rep.ks(&format!("{pair} d95"), r.ks_delay.b));
        row.extend(rep.ks(&format!("{pair} rate"), r.ks_rate.b));
        let w1_delay = wasserstein_1d(&col(&r.gt_b, D95), &col(&r.sim_b, D95));
        let w1_rate = wasserstein_1d(&col(&r.gt_b, RATE), &col(&r.sim_b, RATE));
        rep.stat(format!("{pair} W1(d95) ms"), w1_delay);
        row.extend([cell(w1_delay, 1), cell(w1_rate, 2)]);
        rows.push(row);
        let claim = format!("{pair}: the treatment matches ground truth on p95 delay and rate");
        rep.verdict(claim, r.ks_delay.b.matches(ALPHA) && r.ks_rate.b.matches(ALPHA), expected);
    }
    rep.table(
        "Cross-protocol counterfactuals: iBoxNet fitted on Cubic, treatment swept",
        &["pair", "D(d95)", "p(d95)", "D(rate)", "p(rate)", "W1(d95) ms", "W1(rate) Mbps"],
        &rows,
    );
    rep.text += "(W1 = 1-D Wasserstein distance between GT and model metric distributions)\n";
    Ok(rep)
}

/// The §6 open challenges: (1) a validity region fitted on RTC traces should
/// pass a fresh RTC run and flag the Fig. 7 CBR workload; (2) a discriminator
/// should tell ground truth from iBoxNet replays worse than from a crude
/// fixed-rate stand-in; (3) on the instance scenario, whose cross traffic is
/// one adaptive Cubic flow, an adaptive cross model against the replayed one.
fn extensions(ctx: &Ctx, seed: u64) -> Result<Report, String> {
    let mut rep = Report::default();
    let dur = ctx.secs(8, 20);
    let train: Vec<FlowTrace> =
        ibox_runner::run_scoped(3, ctx.jobs, |i| bias_training_trace(0.3, dur, seed + i as u64));
    let region = ValidityRegion::fit(&train, ctx.jobs);
    let fresh_rtc = region.check(&bias_training_trace(0.3, dur, seed + 99));
    let cbr = region.check(&bias_test_trace(0.3, dur, seed + 99));
    let rows: Vec<Vec<String>> = [("fresh RTC run", &fresh_rtc), ("8 Mbps CBR", &cbr)]
        .iter()
        .map(|(name, c)| vec![name.to_string(), cell(c.coverage, 3), c.is_valid(0.9).to_string()])
        .collect();
    let title = "Extension 1 — limits of model validity (RTC-trained region)";
    rep.table(title, &["candidate", "coverage", "valid@0.9"], &rows);
    rep.stat("validity coverage: fresh RTC", fresh_rtc.coverage);
    rep.stat("validity coverage: CBR", cbr.coverage);
    let claim = "the RTC-trained validity region passes a fresh RTC run and flags the CBR workload";
    rep.verdict(claim, fresh_rtc.is_valid(0.9) && !cbr.is_valid(0.9), Holds);

    let n = ctx.scale.pick(3, 8);
    let flows = |sender: fn() -> Box<dyn CongestionControl>, base: u64| {
        ibox_runner::run_scoped(n, ctx.jobs, |i| {
            let emu = simple_path(7e6, 25, 100_000, dur);
            Ok(one_flow(emu, sender(), seed + base + i as u64)?.normalized())
        })
        .into_iter()
        .collect::<Result<Vec<FlowTrace>, String>>()
    };
    let gt = flows(|| Box::new(Cubic::new()), 0)?;
    let crude = flows(|| Box::new(FixedRate::new(5e6)), 70)?;
    let cache = FitCache::in_memory();
    let r_net =
        realism_of_model(&ModelKind::IBoxNet, &gt, "cubic", dur, seed + 40, &cache, ctx.jobs);
    let r_crude = realism_test(&gt, &crude, ctx.jobs);
    let rows: Vec<Vec<String>> = [("iBoxNet replay", &r_net), ("crude CBR stand-in", &r_crude)]
        .iter()
        .map(|(name, r)| {
            labelled(*name, [cell(r.discriminator_accuracy, 3), cell(r.realism_score, 3)])
        })
        .collect();
    let title = "Extension 2 — realism: can a discriminator tell sim from real?";
    rep.table(title, &["simulator", "disc_accuracy", "realism(1=best)"], &rows);
    rep.stat("discriminator accuracy: iBoxNet replay", r_net.discriminator_accuracy);
    rep.stat("discriminator accuracy: crude CBR", r_crude.discriminator_accuracy);
    let claim = "a discriminator tells iBoxNet replays from ground truth worse than a crude CBR";
    rep.verdict(claim, r_net.discriminator_accuracy < r_crude.discriminator_accuracy, Holds);

    let scenario = InstanceScenario::new(1); // cross traffic in [20, 30) s
    let fit_trace = run_instance(&scenario, "cubic", seed + 3);
    let model = IBoxNet::fit(&fit_trace);
    // Main-flow rate inside the cross-traffic window over the rate before it.
    let dip = |t: &FlowTrace| {
        let rates = send_rate_series(t, 1.0);
        let mean_in = |lo: f64, hi: f64| {
            let inside = rates.t.iter().zip(&rates.v).filter(|(ts, _)| **ts >= lo && **ts < hi);
            mean(&inside.map(|(_, x)| *x).collect::<Vec<f64>>())
        };
        mean_in(22.0, 29.0) / mean_in(5.0, 15.0).max(1.0)
    };
    let (truth, replayed) =
        (dip(&fit_trace), dip(&model.simulate("cubic", INSTANCE_DURATION, seed + 9)));
    let mut rows = vec![
        vec!["ground truth".to_string(), cell(truth, 3)],
        vec!["iBoxNet (replay CT)".to_string(), cell(replayed, 3)],
    ];
    rep.stat("rate ratio: ground truth", truth);
    rep.stat("rate ratio: replayed CT", replayed);
    let adaptive = AdaptiveCross::fit(&model).map(|a| {
        let ratio = dip(&a.simulate(&model, "cubic", INSTANCE_DURATION, seed + 9));
        rows.push(vec![format!("iBoxNet (adaptive, {} cubic)", a.n_flows), cell(ratio, 3)]);
        rep.stat("rate ratio: adaptive CT", ratio);
        ratio
    });
    let title = "Extension 3 — adaptive CT: main-flow rate inside/outside the CT window";
    rep.table(title, &["model", "rate_ratio (lower = stronger suppression)"], &rows);
    let claim =
        "an adaptive cross-traffic model is found and suppresses the main flow more than replay";
    rep.verdict(claim, adaptive.is_some_and(|ratio| ratio < replayed), SEED_DEPENDENT);
    Ok(rep)
}

/// A row's `<!-- paper:<name> -->` block of EXPERIMENTS.md.
fn doc_block(row: &LedgerRow) -> String {
    let seeds: Vec<String> = row.seeds.iter().map(|s| s.to_string()).collect();
    let mut out = format!("`paper {}`, full scale, seeds {}:\n\n", row.name, seeds.join(", "));
    out +=
        &format!("| statistic | seed {} | min | median | max |\n|---|---|---|---|---|\n", seeds[0]);
    for s in &row.stats {
        let cells = [s.per_seed[0], s.min, s.median, s.max].map(num);
        out += &format!("| {} | {} |\n", s.name, cells.join(" | "));
    }
    out += "\n| claim | holds on | expected |\n|---|---|---|\n";
    for v in &row.verdicts {
        let expected = match &v.reason {
            Some(reason) => format!("known failure — {reason}"),
            None => v.expected.clone(),
        };
        out += &format!("| {} | {} | {expected} |\n", v.claim, v.holds);
    }
    out
}

/// `doc` with every row's `<!-- paper:<name> -->` … `<!-- /paper -->`
/// block regenerated from `ledger`.
fn splice_into(ledger: &Ledger, doc: &str) -> Result<String, String> {
    let mut doc = doc.to_string();
    for row in &ledger.rows {
        let open = format!("<!-- paper:{} -->\n", row.name);
        let start = doc.find(&open).ok_or(format!("no `{}` block", open.trim_end()))? + open.len();
        let len = doc[start..]
            .find("<!-- /paper -->")
            .ok_or(format!("`{}` never closes", open.trim_end()))?;
        doc.replace_range(start..start + len, &doc_block(row));
    }
    Ok(doc)
}

const DOC: &str = "EXPERIMENTS.md";

/// What a ledger run leaves in the working directory beside `BENCH_paper.json`.
fn write_outputs(ledger: &Ledger, runs: &[Runs<Ctx>]) -> Result<(), String> {
    let io =
        |what: &str, r: std::io::Result<()>| r.map_err(|e| format!("cannot write {what}: {e}"));
    io("results/", std::fs::create_dir_all("results"))?;
    for run in runs {
        let path = format!("results/{}.txt", run.exp.name);
        io(&path, std::fs::write(&path, &run.reports[0].text))?;
    }
    match std::fs::read_to_string(DOC) {
        Ok(doc) => io(
            DOC,
            std::fs::write(DOC, splice_into(ledger, &doc).map_err(|e| format!("{DOC}: {e}"))?),
        ),
        Err(_) => Ok(()), // run outside the repository: nothing to regenerate
    }
}

const USAGE: &str = "usage: paper [--quick] [--jobs N] [name…]";

/// `(scale, jobs, rows)` of the invocation, by [`Table::select`]'s mode rule.
fn parse(args: &[String]) -> Result<(Scale, usize, Vec<&'static Experiment<Ctx>>), String> {
    let (mut quick, mut jobs, mut names) = (false, 0, Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--jobs" => jobs = args.next().and_then(|n| n.parse().ok()).ok_or(USAGE)?,
            name => names.push(name),
        }
    }
    let (scale, rows) = PAPER.select(quick, &names).map_err(|e| format!("{e}\n{USAGE}"))?;
    Ok((scale, jobs, rows))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, jobs, rows) = parse(&args).unwrap_or_else(|e| {
        eprintln!("paper: {e}");
        std::process::exit(2)
    });
    let ctx = Ctx { scale, jobs, pairs: RefCell::new(None) };
    std::process::exit(PAPER.main(&ctx, scale, &rows, write_outputs));
}

#[cfg(test)]
#[path = "../table_tests.rs"]
mod table_tests;

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows that train no iBoxML: well under two seconds each at `--quick`.
    fn cheap() -> Vec<&'static Experiment<Ctx>> {
        EXPERIMENTS.iter().filter(|e| !["fig5", "fig7", "table1"].contains(&e.name)).collect()
    }

    fn quick(jobs: usize) -> Ledger {
        let ctx = Ctx { scale: Scale::Quick, jobs, pairs: RefCell::new(None) };
        let (runs, failures) = PAPER.run_rows(&ctx, Scale::Quick, &cheap());
        assert_eq!(failures, Vec::<String>::new());
        let texts: Vec<&str> = runs.iter().map(|r| r.reports[0].text.as_str()).collect();
        assert!(texts.iter().all(|t| t.starts_with("## ")), "every row prints a table");
        Ledger { host: texts.concat(), ..Ledger::of(&runs) }
    }

    fn committed(file: &str) -> String {
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn committed_ledger() -> Ledger {
        serde_json::from_str(&committed("BENCH_paper.json")).expect("BENCH_paper.json parses")
    }

    #[test]
    fn names_are_unique_and_every_row_carries_a_verdict() {
        let (quick, committed) = (quick(0), committed_ledger());
        table_tests::names_are_unique_and_every_row_carries_a_verdict(&PAPER, &quick, &committed);
    }

    /// ROADMAP aim 3, applied to the science: same seed, same bytes, at any
    /// `--jobs`. Wall times are the one field allowed to differ.
    #[test]
    fn quick_reports_are_identical_at_jobs_1_and_2() {
        let strip = |mut ledger: Ledger| {
            ledger.rows.iter_mut().for_each(|row| row.wall_s = 0.0);
            serde_json::to_string_pretty(&ledger).expect("ledger serializes")
        };
        assert_eq!(strip(quick(1)), strip(quick(2)));
    }

    #[test]
    fn experiments_md_tables_are_the_ledger_rendered() {
        let (ledger, doc) = (committed_ledger(), committed(DOC));
        let regenerated = splice_into(&ledger, &doc).expect("every row has its block");
        assert!(regenerated == doc, "EXPERIMENTS.md drifted from BENCH_paper.json: rerun `paper`");
        assert_eq!(ledger.scale, "full");
    }

    /// No `Holds` in the committed ledger that failed on a seed, no
    /// `KnownFailure` that held on all of them.
    #[test]
    fn the_committed_ledger_meets_its_expectations() {
        assert_eq!(committed_ledger().unexpected(), Vec::<String>::new());
    }

    #[test]
    fn a_known_failure_that_holds_and_a_holds_that_fails_both_fail_the_gate() {
        let ctx = Ctx { scale: Scale::Full, jobs: 1, pairs: RefCell::new(None) };
        table_tests::a_known_failure_that_holds_and_a_holds_that_fails_both_fail_the_gate(
            &PAPER, &ctx,
        );
    }

    #[test]
    fn arguments_select_the_scale() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            super::parse(&args).map(|(scale, jobs, rows)| (scale, jobs, rows.len()))
        };
        assert_eq!(parse(&[]), Ok((Scale::Full, 0, EXPERIMENTS.len())));
        assert_eq!(parse(&["--jobs", "2", "fig2", "table1"]), Ok((Scale::Gate, 2, 2)));
        assert_eq!(parse(&["fig4", "--quick"]), Ok((Scale::Quick, 0, 1)));
        assert_eq!(parse(&["--quick"]), Ok((Scale::Quick, 0, EXPERIMENTS.len())));
        assert!(parse(&["fig6"]).unwrap_err().contains("no experiment `fig6`"));
        assert!(parse(&["--jobs"]).is_err() && parse(&["--seed", "3"]).is_err());
    }
}
