//! Test for realism (§6).
//!
//! "We could define it in terms of the inability of a powerful
//! discriminator (e.g., of the kind used to train GANs) to tell between
//! the input-output behaviour of the simulator and that of the real
//! network."
//!
//! This module implements the discriminator test with the tools at hand: a
//! logistic-regression classifier over per-window trace summary features
//! (rate, delay quantiles, inter-arrival variability, reordering), trained
//! to separate "real" from "simulated" windows under cross-validation-ish
//! holdout. The **realism score** is `2·(1 − accuracy)` clamped to
//! `[0, 1]`: 1.0 means the discriminator does no better than chance
//! (indistinguishable — maximally realistic), 0.0 means it separates them
//! perfectly.

use serde::{Deserialize, Serialize};

use ibox_ml::{Logistic, LogisticConfig, StandardScaler};
use ibox_runner::ModelKind;
use ibox_sim::SimTime;
use ibox_trace::series::{delay_series, inter_arrival_diffs, send_rate_series};
use ibox_trace::FlowTrace;

use crate::cache::FitCache;
use crate::model::PathModel;

/// Window length for discriminator features, seconds.
const WINDOW_SECS: f64 = 2.0;

/// Result of the discriminator-based realism test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealismReport {
    /// Held-out discriminator accuracy, `[0, 1]` (0.5 = chance).
    pub discriminator_accuracy: f64,
    /// `2·(1 − accuracy)` clamped to `[0, 1]`; 1.0 = indistinguishable.
    pub realism_score: f64,
    /// How many windows were evaluated.
    pub windows: usize,
}

/// Per-window summary features of a trace.
fn window_features(trace: &FlowTrace) -> Vec<Vec<f64>> {
    let span = trace.span_secs();
    if span < WINDOW_SECS {
        return Vec::new();
    }
    let rate = send_rate_series(trace, 0.5);
    let delays = delay_series(trace);
    let diffs = inter_arrival_diffs(trace);
    let mut out = Vec::new();
    let mut t0 = 0.0;
    while t0 + WINDOW_SECS <= span {
        let t1 = t0 + WINDOW_SECS;
        let in_window = |ts: &f64| *ts >= t0 && *ts < t1;
        let window_rate: Vec<f64> =
            rate.t.iter().zip(&rate.v).filter(|(ts, _)| in_window(ts)).map(|(_, v)| *v).collect();
        let window_delay: Vec<f64> = delays
            .t
            .iter()
            .zip(&delays.v)
            .filter(|(ts, _)| in_window(ts))
            .map(|(_, v)| *v)
            .collect();
        let window_diffs: Vec<f64> =
            diffs.t.iter().zip(&diffs.v).filter(|(ts, _)| in_window(ts)).map(|(_, v)| *v).collect();
        t0 = t1;
        if window_delay.len() < 4 {
            continue;
        }
        let neg_frac = window_diffs.iter().filter(|d| **d < 0.0).count() as f64
            / window_diffs.len().max(1) as f64;
        out.push(vec![
            ibox_stats::mean(&window_rate),
            ibox_stats::std_dev(&window_rate),
            ibox_stats::percentile(&window_delay, 0.5).expect("len >= 4"),
            ibox_stats::percentile(&window_delay, 0.95).expect("len >= 4"),
            ibox_stats::std_dev(&window_delay),
            ibox_stats::std_dev(&window_diffs),
            neg_frac,
        ]);
    }
    out
}

/// Run the discriminator test: train on alternating windows, evaluate on
/// the held-out ones. `real` and `simulated` should describe the same
/// workload (e.g. paired GT and model traces).
///
/// Per-trace feature extraction is spread over `jobs` worker threads
/// (`0` = all cores). Features are flattened back in trace order, so the
/// report is identical at any `jobs` value.
pub fn realism_test(real: &[FlowTrace], simulated: &[FlowTrace], jobs: usize) -> RealismReport {
    assert!(!real.is_empty() && !simulated.is_empty(), "both trace sets required");
    let n_real = real.len();
    let per_trace = ibox_runner::run_scoped(n_real + simulated.len(), jobs, |i| {
        if i < n_real {
            window_features(&real[i])
        } else {
            window_features(&simulated[i - n_real])
        }
    });
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for (i, feats) in per_trace.into_iter().enumerate() {
        let label = if i < n_real { 0.0 } else { 1.0 };
        for f in feats {
            rows.push(f);
            labels.push(label);
        }
    }
    assert!(rows.len() >= 8, "not enough windows for the discriminator test");

    let scaler = StandardScaler::fit(&rows);
    for r in &mut rows {
        scaler.transform(r);
    }

    // Even windows train, odd windows test (both classes interleave).
    let (mut train_x, mut train_y, mut test_x, mut test_y) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, (r, y)) in rows.iter().zip(&labels).enumerate() {
        if i % 2 == 0 {
            train_x.push(r.clone());
            train_y.push(*y);
        } else {
            test_x.push(r.clone());
            test_y.push(*y);
        }
    }
    let model =
        Logistic::train(&train_x, &train_y, &LogisticConfig { epochs: 300, ..Default::default() });
    let correct =
        test_x.iter().zip(&test_y).filter(|(r, &y)| model.predict(r) == (y > 0.5)).count();
    let accuracy = correct as f64 / test_x.len().max(1) as f64;
    RealismReport {
        discriminator_accuracy: accuracy,
        realism_score: (2.0 * (1.0 - accuracy)).clamp(0.0, 1.0),
        windows: rows.len(),
    }
}

/// The end-to-end realism check for a model *kind*: fit `kind` on every
/// real trace (through `cache` — repeated checks of the same corpus fit
/// nothing twice), replay `protocol` through each fitted model, and run
/// the discriminator on real vs replayed. Fit/replay jobs run on the
/// runner pool; replay seeds derive from `seed` and the trace index, so
/// the report is identical at any `jobs` value.
pub fn realism_of_model(
    kind: &ModelKind,
    real: &[FlowTrace],
    protocol: &str,
    duration: SimTime,
    seed: u64,
    cache: &FitCache,
    jobs: usize,
) -> RealismReport {
    assert!(!real.is_empty(), "realism check needs real traces");
    let simulated: Vec<FlowTrace> = ibox_runner::run_scoped(real.len(), jobs, |i| {
        cache.fit_path_model(kind, &real[i]).simulate(protocol, duration, seed + i as u64)
    });
    realism_test(real, &simulated, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fit_model;
    use ibox_cc::Cubic;
    use ibox_sim::{PathConfig, PathEmulator, SimTime};

    fn gt(seed: u64, rate: f64) -> FlowTrace {
        let emu = PathEmulator::from_spec(
            ibox_sim::PathSpec::single(PathConfig::simple(rate, SimTime::from_millis(25), 100_000)),
            SimTime::from_secs(15),
        );
        emu.run_sender(Box::new(Cubic::new()), "m", seed)
            .traces
            .into_iter()
            .next()
            .unwrap()
            .normalized()
    }

    #[test]
    fn identical_populations_are_realistic() {
        // Same distribution on both sides: the discriminator should be
        // near chance.
        let a: Vec<FlowTrace> = (0..4).map(|i| gt(i, 6e6)).collect();
        let b: Vec<FlowTrace> = (10..14).map(|i| gt(i, 6e6)).collect();
        let r = realism_test(&a, &b, 1);
        assert!(r.realism_score > 0.5, "score = {:?}", r);
    }

    #[test]
    fn grossly_different_populations_are_caught() {
        // 2 Mbps vs 12 Mbps paths: trivially separable.
        let a: Vec<FlowTrace> = (0..4).map(|i| gt(i, 2e6)).collect();
        let b: Vec<FlowTrace> = (10..14).map(|i| gt(i, 12e6)).collect();
        let r = realism_test(&a, &b, 1);
        assert!(r.discriminator_accuracy > 0.85, "accuracy = {:?}", r);
        assert!(r.realism_score < 0.3);
    }

    #[test]
    fn iboxnet_replay_scores_reasonably() {
        // A fitted model's replay of the same protocol should be hard —
        // though not impossible — to tell from reality.
        let real: Vec<FlowTrace> = (0..3).map(|i| gt(i, 6e6)).collect();
        let sims: Vec<FlowTrace> = real
            .iter()
            .enumerate()
            .map(|(i, t)| {
                fit_model(&ModelKind::IBoxNet, t).simulate(
                    "cubic",
                    SimTime::from_secs(15),
                    40 + i as u64,
                )
            })
            .collect();
        let r = realism_test(&real, &sims, 1);
        assert!(
            r.realism_score > 0.2,
            "an iBoxNet replay should not be trivially separable: {r:?}"
        );
    }

    #[test]
    fn realism_of_model_fits_through_the_cache() {
        // Distinct rates so the three traces have three distinct digests
        // (on a deterministic simple path, the seed alone does not).
        let real: Vec<FlowTrace> = (0..3).map(|i| gt(i, 5e6 + i as f64 * 1e6)).collect();
        let cache = crate::cache::FitCache::in_memory();
        let scope = ibox_obs::scoped();
        let first = realism_of_model(
            &ModelKind::IBoxNet,
            &real,
            "cubic",
            SimTime::from_secs(15),
            40,
            &cache,
            1,
        );
        let again = realism_of_model(
            &ModelKind::IBoxNet,
            &real,
            "cubic",
            SimTime::from_secs(15),
            40,
            &cache,
            2,
        );
        let metrics = scope.finish().snapshot();
        assert_eq!(first, again, "same corpus + seed ⇒ same report at any jobs");
        assert_eq!(metrics.counters["model.fit"], 3, "second check must reuse cached fits");
        assert_eq!(metrics.counters["fitcache.hit"], 3);
    }
}
