//! The paper's two evaluation harnesses (§2): the **ensemble test** and
//! the **instance test**.
//!
//! * Ensemble (Fig. 2/3): fit a model per control-protocol (A) trace, then
//!   replay both A and a treatment protocol (B) through each fitted model;
//!   compare the resulting metric *distributions* (rate, p95 delay,
//!   loss %) against ground truth with two-sample KS tests.
//! * Instance (Fig. 4): fit a model per specific run on a controlled path
//!   with one of three cross-traffic timings; show that treatment runs on
//!   the fitted models cluster with their ground-truth instances (k-means
//!   over cross-correlation features, t-SNE for the picture), i.e. the
//!   model captured the *time series*, not just the distribution.

use serde::{Deserialize, Serialize};

use ibox_stats::kmeans::{kmeans, purity};
use ibox_stats::ks::{ks_two_sample, KsResult};
use ibox_stats::tsne::{tsne, TsneConfig};
use ibox_stats::xcorr::xcorr_feature;
use ibox_testbed::instance::{run_instance, InstanceScenario, INSTANCE_DURATION};
use ibox_trace::metrics::TraceMetrics;
use ibox_trace::series::{delay_series, send_rate_series};
use ibox_trace::{FlowTrace, TraceDataset};

use ibox_sim::SimTime;

use crate::cache::FitCache;
use crate::model::{fit_model, PathModel};

pub use ibox_runner::ModelKind;

/// KS comparisons for one metric across the A and B protocols.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MetricKs {
    /// GT vs model for the control protocol A.
    pub a: KsResult,
    /// GT vs model for the treatment protocol B.
    pub b: KsResult,
}

/// The ensemble-test outcome (one Fig. 2/3 panel pair).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnsembleReport {
    /// Which model was evaluated.
    pub model: String,
    /// Ground-truth per-run metrics of protocol A.
    pub gt_a: Vec<TraceMetrics>,
    /// Ground-truth per-run metrics of protocol B.
    pub gt_b: Vec<TraceMetrics>,
    /// Model per-run metrics of protocol A.
    pub sim_a: Vec<TraceMetrics>,
    /// Model per-run metrics of protocol B.
    pub sim_b: Vec<TraceMetrics>,
    /// KS tests on the p95-delay distributions.
    pub ks_delay: MetricKs,
    /// KS tests on the loss-% distributions.
    pub ks_loss: MetricKs,
    /// KS tests on the average-rate distributions.
    pub ks_rate: MetricKs,
}

/// Run the ensemble test: for every trace in `gt_a` (protocol A over some
/// path instance), fit `kind` **once** and replay both protocols through
/// the same fitted model; `gt_b` holds the paired ground-truth runs of
/// protocol B over the same instances.
///
/// Fits go through a per-call [`FitCache`], so each (trace, kind) pair is
/// fitted exactly once — previously the A and B replays each refitted the
/// identical model, doubling the fit work. The measured fit wall time and
/// the refit time this saves are recorded as `ensemble.fit_wall_s` /
/// `ensemble.refit_saved_s` gauges (surfaced in run manifests).
///
/// The per-trace fit/replay jobs — the embarrassingly parallel unit of
/// the paper's evaluation — run on the `ibox-runner` pool across `jobs`
/// workers (`0` = all cores). Each job's RNG derives only from `seed` and
/// the trace index, and per-job metrics fold into the registry in trace
/// order, so the report is **bit-identical at any `jobs` value**.
pub fn ensemble_test(
    gt_a: &TraceDataset,
    gt_b: &TraceDataset,
    kind: ModelKind,
    duration: SimTime,
    seed: u64,
    jobs: usize,
) -> EnsembleReport {
    assert_eq!(gt_a.len(), gt_b.len(), "A and B datasets must be paired");
    assert!(!gt_a.is_empty(), "ensemble test needs at least one trace");
    let proto_a = gt_a.traces[0].meta.protocol.clone();
    let proto_b = gt_b.traces[0].meta.protocol.clone();

    let cache = FitCache::in_memory();
    let per_trace = ibox_runner::run_scoped(gt_a.len(), jobs, |i| {
        let (ta, tb) = (&gt_a.traces[i], &gt_b.traces[i]);
        let s = seed + i as u64;
        let t0 = std::time::Instant::now();
        let fitted = cache.fit_path_model(&kind, ta);
        let fit_s = t0.elapsed().as_secs_f64();
        (
            TraceMetrics::of(ta),
            TraceMetrics::of(tb),
            TraceMetrics::of(&fitted.simulate(&proto_a, duration, s)),
            TraceMetrics::of(&fitted.simulate(&proto_b, duration, s + 10_000)),
            fit_s,
        )
    });
    let mut gt_a_m = Vec::new();
    let mut gt_b_m = Vec::new();
    let mut sim_a_m = Vec::new();
    let mut sim_b_m = Vec::new();
    let mut fit_wall_s = 0.0;
    for (ga, gb, sa, sb, fit_s) in per_trace {
        gt_a_m.push(ga);
        gt_b_m.push(gb);
        sim_a_m.push(sa);
        sim_b_m.push(sb);
        fit_wall_s += fit_s;
    }
    // Wall-clock gauges (excluded from the determinism contract, like the
    // CLI's batch timing): total fit time, and the refit time the
    // fit-once split saves — one whole extra fit per trace, which is what
    // the fused fit_simulate path used to spend on the B replay.
    let registry = ibox_obs::global();
    registry.gauge("ensemble.fit_wall_s").set(fit_wall_s);
    registry.gauge("ensemble.refit_saved_s").set(fit_wall_s);

    let pick =
        |v: &[TraceMetrics], f: fn(&TraceMetrics) -> f64| -> Vec<f64> { v.iter().map(f).collect() };
    let ks_of = |f: fn(&TraceMetrics) -> f64| MetricKs {
        a: ks_two_sample(&pick(&gt_a_m, f), &pick(&sim_a_m, f)),
        b: ks_two_sample(&pick(&gt_b_m, f), &pick(&sim_b_m, f)),
    };
    EnsembleReport {
        model: kind.name().to_string(),
        ks_delay: ks_of(|m| m.p95_delay_ms),
        ks_loss: ks_of(|m| m.loss_pct),
        ks_rate: ks_of(|m| m.avg_rate_mbps),
        gt_a: gt_a_m,
        gt_b: gt_b_m,
        sim_a: sim_a_m,
        sim_b: sim_b_m,
    }
}

/// One run's identity inside the instance test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunTag {
    /// Which cross-traffic pattern (0..3) the run belongs to.
    pub pattern: usize,
    /// Whether the run came from a fitted iBoxNet model (vs. ground truth).
    pub simulated: bool,
}

/// The instance-test outcome (Fig. 4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstanceReport {
    /// Identity of each run.
    pub tags: Vec<RunTag>,
    /// Cross-correlation feature vectors (6-D: rate & delay vs the three
    /// pattern references).
    pub features: Vec<Vec<f64>>,
    /// k-means (k = 3) assignments.
    pub assignments: Vec<usize>,
    /// Clustering purity against the true patterns (1.0 = "no mistakes").
    pub purity: f64,
    /// 2-D t-SNE embedding of the feature vectors (Fig. 4b's plot).
    pub embedding: Vec<[f64; 2]>,
    /// Fig. 4a: per-pattern correlation between the fitted model's Cubic
    /// rate series and the ground-truth Cubic rate series it was fitted on.
    pub control_rate_alignment: Vec<f64>,
}

/// Sampling grid for instance-test time series (seconds).
const GRID_DT: f64 = 0.5;

/// Resample a trace's rate and delay series onto the uniform grid.
fn grid_series(trace: &FlowTrace) -> (Vec<f64>, Vec<f64>) {
    let dur = INSTANCE_DURATION.as_secs_f64();
    let rate = send_rate_series(trace, GRID_DT).resample(0.0, dur, GRID_DT, 0.0);
    let delay = delay_series(trace).resample(0.0, dur, GRID_DT, 0.0);
    (rate.v, delay.v)
}

/// Run the full instance test with `runs_per_pattern` ground-truth and
/// simulated treatment runs per cross-traffic pattern.
///
/// All three independent stages — per-pattern fits, reference-series
/// generation, and the (pattern × run) feature runs — execute on the
/// `ibox-runner` pool across `jobs` workers (`0` = all cores), with
/// results collected in pattern/run order so the report is identical at
/// any `jobs` value.
pub fn instance_test(
    runs_per_pattern: usize,
    treatment: &str,
    seed: u64,
    jobs: usize,
) -> InstanceReport {
    assert!(runs_per_pattern >= 1, "need at least one run per pattern");
    let n_patterns = ibox_testbed::INSTANCE_PATTERNS.len();

    // Fit one iBoxNet per pattern from a single Cubic run (§3.1.2: "We
    // learn an iBoxNet model for each instance, based on a single run").
    let fitted = ibox_runner::run_scoped(n_patterns, jobs, |p| {
        let scenario = InstanceScenario::new(p);
        let fit_trace = run_instance(&scenario, "cubic", seed + p as u64);
        let model = fit_model(&ModelKind::IBoxNet, &fit_trace);
        // Fig. 4a: the model's own Cubic replay should track the real one.
        let sim_cubic = model.simulate("cubic", INSTANCE_DURATION, seed + 77 + p as u64);
        let (gt_rate, _) = grid_series(&fit_trace);
        let (sim_rate, _) = grid_series(&sim_cubic);
        (model, xcorr_feature(&gt_rate, &sim_rate, 4))
    });
    let (models, control_rate_alignment): (Vec<_>, Vec<_>) = fitted.into_iter().unzip();

    // Reference series per pattern: the mean over ground-truth treatment
    // runs (fresh seeds, distinct from the feature runs below).
    let refs: Vec<(Vec<f64>, Vec<f64>)> = ibox_runner::run_scoped(n_patterns, jobs, |p| {
        let scenario = InstanceScenario::new(p);
        let mut rate_acc: Option<Vec<f64>> = None;
        let mut delay_acc: Option<Vec<f64>> = None;
        let n_ref = 3usize;
        for r in 0..n_ref {
            let t = run_instance(&scenario, treatment, seed + 1_000 + (p * 97 + r) as u64);
            let (rate, delay) = grid_series(&t);
            accumulate(&mut rate_acc, &rate);
            accumulate(&mut delay_acc, &delay);
        }
        let scale = 1.0 / n_ref as f64;
        (
            rate_acc.expect("n_ref >= 1").iter().map(|v| v * scale).collect(),
            delay_acc.expect("n_ref >= 1").iter().map(|v| v * scale).collect(),
        )
    });

    // Feature runs: ground truth and model runs of the treatment, one
    // pool job per (pattern, run) pair, flattened in pattern/run order.
    let pairs = ibox_runner::run_scoped(n_patterns * runs_per_pattern, jobs, |job| {
        let (p, r) = (job / runs_per_pattern, job % runs_per_pattern);
        let scenario = InstanceScenario::new(p);
        let run_seed = seed + 5_000 + (p * 131 + r) as u64;
        let gt = run_instance(&scenario, treatment, run_seed);
        let sim = models[p].simulate(treatment, INSTANCE_DURATION, run_seed + 500);
        (
            (RunTag { pattern: p, simulated: false }, feature_vector(&gt, &refs)),
            (RunTag { pattern: p, simulated: true }, feature_vector(&sim, &refs)),
        )
    });
    let mut tags = Vec::new();
    let mut features = Vec::new();
    for ((gt_tag, gt_feat), (sim_tag, sim_feat)) in pairs {
        tags.push(gt_tag);
        features.push(gt_feat);
        tags.push(sim_tag);
        features.push(sim_feat);
    }

    let km = kmeans(&features, 3, seed);
    let labels: Vec<usize> = tags.iter().map(|t| t.pattern).collect();
    let pur = purity(&km.assignments, &labels);
    let embedding = tsne(
        &features,
        &TsneConfig {
            perplexity: (features.len() as f64 / 6.0).clamp(3.0, 15.0),
            ..Default::default()
        },
    );

    InstanceReport {
        tags,
        features,
        assignments: km.assignments,
        purity: pur,
        embedding,
        control_rate_alignment,
    }
}

fn accumulate(acc: &mut Option<Vec<f64>>, v: &[f64]) {
    match acc {
        None => *acc = Some(v.to_vec()),
        Some(a) => {
            for (x, y) in a.iter_mut().zip(v) {
                *x += y;
            }
        }
    }
}

/// The paper's instance-test features: "the cross-correlation between the
/// iBoxNet rate and delay time series and their respective ground truth
/// time series" — one rate and one delay correlation per pattern reference.
fn feature_vector(trace: &FlowTrace, refs: &[(Vec<f64>, Vec<f64>)]) -> Vec<f64> {
    let (rate, delay) = grid_series(trace);
    let mut f = Vec::with_capacity(refs.len() * 2);
    for (ref_rate, ref_delay) in refs {
        f.push(xcorr_feature(&rate, ref_rate, 4));
        f.push(xcorr_feature(&delay, ref_delay, 4));
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox_testbed::pantheon::generate_paired_datasets;
    use ibox_testbed::Profile;

    #[test]
    fn ensemble_test_small_run_matches_shape() {
        let dur = SimTime::from_secs(10);
        let ds =
            generate_paired_datasets(Profile::IndiaCellular, &["cubic", "vegas"], 4, dur, 50, 1);
        let report = ensemble_test(&ds[0], &ds[1], ModelKind::IBoxNet, dur, 1, 1);
        assert_eq!(report.gt_a.len(), 4);
        assert_eq!(report.sim_b.len(), 4);
        // Simulated rates should be in the same universe as ground truth.
        let mean =
            |v: &[TraceMetrics]| v.iter().map(|m| m.avg_rate_mbps).sum::<f64>() / v.len() as f64;
        let (g, s) = (mean(&report.gt_a), mean(&report.sim_a));
        assert!(s > 0.3 * g && s < 3.0 * g, "rates: gt {g} vs sim {s}");
    }

    #[test]
    fn ensemble_ablation_is_ranked_behind_full_model() {
        // With a handful of runs the KS *statistic* (not its p-value) is a
        // stable enough ranking signal: full iBoxNet should fit the
        // control protocol at least as well as the no-CT ablation on
        // delay. (The full-scale version of this claim is the fig3 bench.)
        let dur = SimTime::from_secs(10);
        let ds =
            generate_paired_datasets(Profile::IndiaCellular, &["cubic", "vegas"], 5, dur, 80, 1);
        let full = ensemble_test(&ds[0], &ds[1], ModelKind::IBoxNet, dur, 2, 1);
        let ablt = ensemble_test(&ds[0], &ds[1], ModelKind::IBoxNetNoCross, dur, 2, 1);
        assert!(
            full.ks_delay.a.statistic <= ablt.ks_delay.a.statistic + 0.21,
            "full {} vs ablated {}",
            full.ks_delay.a.statistic,
            ablt.ks_delay.a.statistic
        );
    }

    /// The fit-once guarantee: replaying protocols A *and* B through one
    /// trace's model costs exactly one fit — asserted via the obs
    /// counters, not by inspecting the implementation.
    #[test]
    fn ensemble_fits_exactly_once_per_trace() {
        let dur = SimTime::from_secs(6);
        let n = 3;
        let ds =
            generate_paired_datasets(Profile::IndiaCellular, &["cubic", "vegas"], n, dur, 60, 1);
        let scope = ibox_obs::scoped();
        let report = ensemble_test(&ds[0], &ds[1], ModelKind::IBoxNet, dur, 5, 1);
        let metrics = scope.finish().snapshot();
        assert_eq!(report.sim_a.len(), n);
        assert_eq!(report.sim_b.len(), n);
        assert_eq!(
            metrics.counters["model.fit"], n as u64,
            "one fit per (trace, model), despite two protocol replays each"
        );
        assert_eq!(metrics.counters["fitcache.miss"], n as u64);
        assert!(
            !metrics.counters.contains_key("fitcache.hit"),
            "distinct traces must not alias in the cache"
        );
        // The saved-refit wall time is recorded for run manifests.
        assert!(metrics.gauges["ensemble.fit_wall_s"] > 0.0);
        assert_eq!(metrics.gauges["ensemble.refit_saved_s"], metrics.gauges["ensemble.fit_wall_s"]);
    }

    #[test]
    fn instance_test_clusters_well() {
        // Small (2 runs per pattern) but end-to-end: 1.0 purity means the
        // paper's "no mistakes"; we accept ≥ 10/12 here to keep the unit
        // test robust, and check the full criterion in the fig4 binary.
        let report = instance_test(2, "vegas", 42, 1);
        assert_eq!(report.tags.len(), 12);
        assert_eq!(report.features[0].len(), 6);
        assert!(report.purity >= 0.8, "purity = {}", report.purity);
        assert_eq!(report.embedding.len(), 12);
        // Fig. 4a: the model's Cubic replay correlates with ground truth.
        for (p, c) in report.control_rate_alignment.iter().enumerate() {
            assert!(*c > 0.3, "pattern {p} alignment = {c}");
        }
    }
}
