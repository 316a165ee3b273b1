//! iBoxML: the ML-based approach (§4).
//!
//! A deep LSTM state-space model learns `P(d_t | x, past)` end-to-end from
//! traces, with no network model at all. This wrapper owns the full
//! pipeline around [`ibox_ml::SequenceModel`]: feature extraction
//! (optionally with the §3 cross-traffic estimate — the §5.2 melding),
//! standardization, training, and trace-level inference by replaying a
//! test trace's sending pattern ("we tested by replaying the sending rate
//! time series from the test set") with closed-loop delay feedback.

use serde::{Deserialize, Serialize};

use ibox_ml::{
    ClosedLoopStream, SeqExample, SequenceModel, SequenceModelConfig, StandardScaler, TrainConfig,
};
use ibox_trace::{FlowMeta, FlowTrace, PacketRecord};

use crate::estimator::{CrossTrafficEstimate, StaticParams, DEFAULT_BIN_SECS};
use crate::features::{extract, FeatureConfig};

/// iBoxML configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IBoxMlConfig {
    /// LSTM hidden widths (the paper's full model is 4 layers; experiments
    /// here default to a smaller, CPU-trainable stack).
    pub hidden_sizes: Vec<usize>,
    /// Include the cross-traffic estimate as an input feature (§5.2).
    pub with_cross_traffic: bool,
    /// Static path parameters to use for the cross-traffic estimator
    /// instead of estimating them per trace. `None` (the default) estimates
    /// `(b, d, B)` from each trace, as on a real network. `Some` is for
    /// controlled-emulator experiments (Fig. 7's ns-like topology) where
    /// the configuration is known — estimating it from a *non-saturating*
    /// sender (the RTC loop) would violate iBoxNet's assumptions (§6,
    /// "it assumes that the sender tries to saturate the bottleneck").
    pub known_params: Option<crate::estimator::StaticParams>,
    /// Training hyperparameters.
    pub train: TrainConfig,
    /// Weight-init seed.
    pub seed: u64,
}

impl Default for IBoxMlConfig {
    fn default() -> Self {
        Self {
            hidden_sizes: vec![32, 32],
            with_cross_traffic: false,
            known_params: None,
            train: TrainConfig {
                epochs: 15,
                lr: 3e-3,
                tbptt: 64,
                clip: 5.0,
                loss_weight: 0.3,
                delay_weight: 1.0,
                ..Default::default()
            },
            seed: 17,
        }
    }
}

impl IBoxMlConfig {
    /// Start building a config from the defaults. Prefer this over
    /// struct-literal construction with `..Default::default()`: the builder
    /// reads as a sentence and keeps call sites stable when fields grow.
    pub fn builder() -> IBoxMlConfigBuilder {
        IBoxMlConfigBuilder { cfg: Self::default() }
    }
}

/// Builder for [`IBoxMlConfig`]; every field starts at its default.
#[derive(Debug, Clone)]
pub struct IBoxMlConfigBuilder {
    cfg: IBoxMlConfig,
}

impl IBoxMlConfigBuilder {
    /// LSTM hidden widths.
    pub fn hidden_sizes(mut self, sizes: impl Into<Vec<usize>>) -> Self {
        self.cfg.hidden_sizes = sizes.into();
        self
    }

    /// Include the cross-traffic estimate as an input feature (§5.2).
    pub fn with_cross_traffic(mut self, on: bool) -> Self {
        self.cfg.with_cross_traffic = on;
        self
    }

    /// Use known static path parameters instead of per-trace estimation.
    pub fn known_params(mut self, params: crate::estimator::StaticParams) -> Self {
        self.cfg.known_params = Some(params);
        self
    }

    /// Training hyperparameters.
    pub fn train(mut self, train: TrainConfig) -> Self {
        self.cfg.train = train;
        self
    }

    /// Weight-init seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Finish: the config is always valid, so no `Result` here.
    pub fn build(self) -> IBoxMlConfig {
        self.cfg
    }
}

/// A trained iBoxML model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IBoxMl {
    cfg: IBoxMlConfig,
    model: SequenceModel,
    x_scaler: StandardScaler,
    y_scaler: StandardScaler,
    /// Training-target range in standardized units — the validity clamp
    /// for the closed-loop unroll (§6: limits of model validity).
    target_range: (f32, f32),
}

impl IBoxMl {
    /// Fit on a set of training traces.
    ///
    /// When `with_cross_traffic` is set, each trace's cross-traffic series
    /// is estimated with the §3 domain-knowledge estimator and fed as an
    /// input feature — the melding of §5.2.
    pub fn fit(traces: &[FlowTrace], cfg: IBoxMlConfig) -> Self {
        let _span = ibox_obs::span!("ml.fit");
        assert!(!traces.is_empty(), "cannot fit on no traces");
        let fcfg = FeatureConfig { with_cross_traffic: cfg.with_cross_traffic };

        // Extract raw features for every trace.
        let mut all: Vec<crate::features::TraceFeatures> = Vec::with_capacity(traces.len());
        {
            let _span = ibox_obs::span!("ml.fit.features");
            for t in traces {
                let ct = cfg.with_cross_traffic.then(|| {
                    let params = cfg.known_params.unwrap_or_else(|| StaticParams::estimate(t));
                    CrossTrafficEstimate::estimate(t, &params, DEFAULT_BIN_SECS)
                });
                all.push(extract(t, &fcfg, ct.as_ref()));
            }
        }

        // Fit scalers on the pooled training data. The previous-delay
        // column is scaled with the *target* scaler so closed-loop
        // feedback stays consistent.
        let pooled_rows: Vec<Vec<f64>> = all.iter().flat_map(|f| f.rows.iter().cloned()).collect();
        assert!(!pooled_rows.is_empty(), "training traces contain no packets");
        let pooled_delays: Vec<f64> = all.iter().flat_map(|f| f.delays.clone()).collect();
        let y_scaler = StandardScaler::fit_scalar(&pooled_delays);
        let x_scaler = StandardScaler::fit(&pooled_rows);

        let prev_idx = fcfg.prev_delay_idx();
        let mut target_range = (f32::INFINITY, f32::NEG_INFINITY);
        let mut examples = Vec::with_capacity(all.len());
        for f in &all {
            let inputs: Vec<Vec<f32>> = f
                .rows
                .iter()
                .map(|r| {
                    let mut z = x_scaler.transform_f32(r);
                    z[prev_idx] = y_scaler.transform_scalar(r[prev_idx]) as f32;
                    z
                })
                .collect();
            let targets: Vec<f32> =
                f.delays.iter().map(|d| y_scaler.transform_scalar(*d) as f32).collect();
            for t in &targets {
                target_range.0 = target_range.0.min(*t);
                target_range.1 = target_range.1.max(*t);
            }
            examples.push(SeqExample { inputs, targets, loss_labels: f.loss_labels.clone() });
        }

        let mut model = SequenceModel::new(SequenceModelConfig {
            input_size: fcfg.width(),
            hidden_sizes: cfg.hidden_sizes.clone(),
            predict_loss: true,
            seed: cfg.seed,
        });
        // Scheduled sampling on the previous-delay column: inference is a
        // closed-loop unroll (Fig. 6's dashed feedback), so training must
        // expose the model to its own predictions or the unroll collapses
        // into a low-delay attractor.
        let mut train_cfg = cfg.train;
        train_cfg.feedback_idx = Some(prev_idx);
        if train_cfg.feedback_prob == 0.0 {
            train_cfg.feedback_prob = 0.5;
        }
        {
            let _span = ibox_obs::span!("ml.fit.train");
            model.train(&examples, &train_cfg);
        }
        Self { cfg, model, x_scaler, y_scaler, target_range }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.model.param_count()
    }

    /// The feature layout this model was trained with.
    pub fn feature_config(&self) -> FeatureConfig {
        FeatureConfig { with_cross_traffic: self.cfg.with_cross_traffic }
    }

    /// Predict a full trace deterministically (Gaussian means): replay the
    /// *sending pattern* (send times and sizes) of `trace` and predict
    /// each packet's delay and loss with closed-loop delay feedback.
    /// Returns a trace with predicted receive timestamps (loss where the
    /// loss head fires).
    ///
    /// The mean is the best point prediction but understates delay
    /// *tails*; distribution-level experiments (Fig. 7, Table 1) should
    /// use [`IBoxMl::predict_trace_sampled`].
    pub fn predict_trace(&self, trace: &FlowTrace) -> FlowTrace {
        self.predict_impl(trace, None, true)
    }

    /// Generative prediction: delays are **sampled** per packet from the
    /// predicted `N(μ, σ²)` (and fed back through the unroll), seeded for
    /// determinism — the model used as a simulator.
    ///
    /// Runs through the batched [`ibox_ml::InferenceSession`] path
    /// (bitwise identical to the per-stream unroll — see
    /// [`IBoxMl::predict_trace_sampled_per_stream`]).
    pub fn predict_trace_sampled(&self, trace: &FlowTrace, seed: u64) -> FlowTrace {
        self.predict_impl(trace, Some(seed), true)
    }

    /// [`IBoxMl::predict_trace_sampled`] via the sequential per-stream
    /// closed-loop unroll (one matvec per packet): the independent
    /// reference the session path is tested against
    /// ([`crate::ReplayOpts::batch_streams`]` = false`).
    pub fn predict_trace_sampled_per_stream(&self, trace: &FlowTrace, seed: u64) -> FlowTrace {
        self.predict_impl(trace, Some(seed), false)
    }

    /// Batched generative prediction: drive many traces through **one**
    /// [`ibox_ml::InferenceSession`] of at most `max_streams` stream
    /// slots — one matmul per layer per packet wave instead of one matvec
    /// per trace. Results are bitwise identical to calling
    /// [`IBoxMl::predict_trace_sampled`] per `(trace, seed)` pair in
    /// order.
    pub fn predict_traces_sampled(
        &self,
        requests: &[(&FlowTrace, u64)],
        max_streams: usize,
    ) -> Vec<FlowTrace> {
        let prev_idx = self.feature_config().prev_delay_idx();
        let inputs: Vec<Vec<Vec<f32>>> =
            requests.iter().map(|(t, _)| self.scaled_inputs(t)).collect();
        let streams: Vec<ClosedLoopStream<'_>> = inputs
            .iter()
            .zip(requests)
            .map(|(i, (_, seed))| ClosedLoopStream { inputs: i, sample_seed: Some(*seed) })
            .collect();
        let preds = self.model.predict_closed_loop_batch(
            &streams,
            prev_idx,
            self.target_range,
            max_streams,
        );
        requests.iter().zip(&preds).map(|((t, _), p)| self.trace_from_preds(t, p)).collect()
    }

    /// Extract and standardize `trace`'s feature rows (previous-delay
    /// column through the target scaler, as at fit time).
    fn scaled_inputs(&self, trace: &FlowTrace) -> Vec<Vec<f32>> {
        let fcfg = self.feature_config();
        let ct = self.cfg.with_cross_traffic.then(|| {
            let params = self.cfg.known_params.unwrap_or_else(|| StaticParams::estimate(trace));
            CrossTrafficEstimate::estimate(trace, &params, DEFAULT_BIN_SECS)
        });
        let feats = extract(trace, &fcfg, ct.as_ref());
        let prev_idx = fcfg.prev_delay_idx();
        feats
            .rows
            .iter()
            .map(|r| {
                let mut z = self.x_scaler.transform_f32(r);
                z[prev_idx] = self.y_scaler.transform_scalar(r[prev_idx]) as f32;
                z
            })
            .collect()
    }

    /// Rebuild a trace from per-packet predictions over `trace`'s send
    /// pattern.
    fn trace_from_preds(&self, trace: &FlowTrace, preds: &[ibox_ml::Prediction]) -> FlowTrace {
        let min_delay = 1e-4; // physical floor: delays cannot be ≤ 0
        let records = trace
            .records()
            .iter()
            .zip(preds)
            .map(|(r, p)| {
                if p.p_loss > 0.5 {
                    PacketRecord::lost(r.seq, r.send_ns, r.size)
                } else {
                    let delay = self.y_scaler.inverse_scalar(f64::from(p.mu)).max(min_delay);
                    PacketRecord::delivered(
                        r.seq,
                        r.send_ns,
                        r.size,
                        r.send_ns + (delay * 1e9) as u64,
                    )
                }
            })
            .collect();
        FlowTrace::from_records(
            FlowMeta::new(
                format!("iboxml({})", trace.meta.path),
                trace.meta.protocol.clone(),
                trace.meta.run.clone(),
            ),
            records,
        )
    }

    fn predict_impl(
        &self,
        trace: &FlowTrace,
        sample_seed: Option<u64>,
        batch_streams: bool,
    ) -> FlowTrace {
        let prev_idx = self.feature_config().prev_delay_idx();
        let inputs = self.scaled_inputs(trace);
        let preds = if batch_streams {
            // Session path: a one-slot batch (recycled per worker thread).
            let streams = [ClosedLoopStream { inputs: &inputs, sample_seed }];
            self.model
                .predict_closed_loop_batch(&streams, prev_idx, self.target_range, 1)
                .pop()
                .expect("one stream in, one stream out")
        } else {
            match sample_seed {
                None => {
                    self.model.predict_closed_loop_clamped(&inputs, prev_idx, self.target_range)
                }
                Some(seed) => self.model.predict_closed_loop_sampled(
                    &inputs,
                    prev_idx,
                    self.target_range,
                    seed,
                ),
            }
        };
        self.trace_from_preds(trace, &preds)
    }

    /// Predicted delays (seconds) for a trace, without building records —
    /// handy for distribution-level comparisons (Fig. 7, Table 1).
    pub fn predict_delays(&self, trace: &FlowTrace) -> Vec<f64> {
        self.predict_trace(trace).delivered().filter_map(|r| r.delay_secs()).collect()
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serialization cannot fail")
    }

    /// Deserialize from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox_cc::Cubic;
    use ibox_sim::{PathConfig, PathEmulator, SimTime};
    use ibox_trace::metrics::delay_percentile_ms;

    fn gt_traces(n: usize, secs: u64) -> Vec<FlowTrace> {
        (0..n)
            .map(|i| {
                let emu = PathEmulator::from_spec(
                    ibox_sim::PathSpec::single(PathConfig::simple(
                        6e6,
                        SimTime::from_millis(25),
                        80_000,
                    )),
                    SimTime::from_secs(secs),
                )
                .with_name("ml-gt");
                let out = emu.run_sender(Box::new(Cubic::new()), "m", 100 + i as u64);
                out.trace("m").unwrap().normalized()
            })
            .collect()
    }

    fn quick_cfg(cross: bool) -> IBoxMlConfig {
        IBoxMlConfig {
            hidden_sizes: vec![16],
            with_cross_traffic: cross,
            known_params: None,
            train: TrainConfig {
                epochs: 6,
                lr: 5e-3,
                tbptt: 48,
                clip: 5.0,
                loss_weight: 0.2,
                delay_weight: 1.0,
                ..Default::default()
            },
            seed: 5,
        }
    }

    #[test]
    fn fit_and_predict_shapes() {
        let traces = gt_traces(2, 6);
        let model = IBoxMl::fit(&traces, quick_cfg(false));
        let pred = model.predict_trace(&traces[0]);
        assert_eq!(pred.len(), traces[0].len());
        // Send pattern preserved exactly.
        for (a, b) in pred.records().iter().zip(traces[0].records()) {
            assert_eq!(a.send_ns, b.send_ns);
            assert_eq!(a.size, b.size);
        }
    }

    #[test]
    fn learns_the_delay_scale_of_the_path() {
        let traces = gt_traces(3, 8);
        let model = IBoxMl::fit(&traces, quick_cfg(false));
        let test = &gt_traces(4, 8)[3];
        let pred = model.predict_trace(test);
        let p50_gt = delay_percentile_ms(test, 0.5).unwrap();
        let p50_ml = delay_percentile_ms(&pred, 0.5).unwrap();
        // Within a factor of two on the median — the model has learned
        // the path's delay regime (exact matching needs more training than
        // a unit test affords).
        assert!(
            p50_ml > 0.5 * p50_gt && p50_ml < 2.0 * p50_gt,
            "median delays: gt {p50_gt} vs ml {p50_ml} ms"
        );
    }

    #[test]
    fn cross_traffic_variant_has_extra_feature() {
        let traces = gt_traces(1, 5);
        let with = IBoxMl::fit(&traces, quick_cfg(true));
        let without = IBoxMl::fit(&traces, quick_cfg(false));
        assert_eq!(with.feature_config().width(), 5);
        assert_eq!(without.feature_config().width(), 4);
        assert!(with.param_count() > without.param_count());
    }

    #[test]
    fn predictions_are_deterministic() {
        let traces = gt_traces(1, 5);
        let model = IBoxMl::fit(&traces, quick_cfg(false));
        assert_eq!(model.predict_delays(&traces[0]), model.predict_delays(&traces[0]));
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let traces = gt_traces(1, 5);
        let model = IBoxMl::fit(&traces, quick_cfg(false));
        let back = IBoxMl::from_json(&model.to_json()).unwrap();
        assert_eq!(model.predict_delays(&traces[0]), back.predict_delays(&traces[0]));
    }
}

#[cfg(test)]
mod sampled_tests {
    use super::*;
    use ibox_cc::Cubic;
    use ibox_sim::{PathConfig, PathEmulator, SimTime};

    fn gt(seed: u64) -> FlowTrace {
        let emu = PathEmulator::from_spec(
            ibox_sim::PathSpec::single(PathConfig::simple(6e6, SimTime::from_millis(25), 80_000)),
            SimTime::from_secs(6),
        );
        emu.run_sender(Box::new(Cubic::new()), "m", seed)
            .traces
            .into_iter()
            .next()
            .expect("one recorded flow")
            .normalized()
    }

    fn quick() -> IBoxMlConfig {
        IBoxMlConfig {
            hidden_sizes: vec![12],
            with_cross_traffic: false,
            known_params: None,
            train: TrainConfig {
                epochs: 4,
                lr: 5e-3,
                tbptt: 48,
                clip: 5.0,
                loss_weight: 0.2,
                delay_weight: 1.0,
                ..Default::default()
            },
            seed: 5,
        }
    }

    #[test]
    fn sampled_predictions_are_deterministic_per_seed() {
        let traces = [gt(1), gt(2)];
        let model = IBoxMl::fit(&traces[..1], quick());
        let a = model.predict_trace_sampled(&traces[1], 7);
        let b = model.predict_trace_sampled(&traces[1], 7);
        assert_eq!(a, b);
        let c = model.predict_trace_sampled(&traces[1], 8);
        assert_ne!(a, c);
    }

    #[test]
    fn batched_session_replay_is_byte_identical_to_per_stream() {
        let traces = [gt(1), gt(2), gt(3)];
        let model = IBoxMl::fit(&traces[..1], quick());
        // Single trace: session path vs legacy per-stream unroll.
        let batched = model.predict_trace_sampled(&traces[1], 7);
        let per_stream = model.predict_trace_sampled_per_stream(&traces[1], 7);
        assert_eq!(batched, per_stream);
        // Many traces through one slot-starved session vs one at a time.
        let requests = [(&traces[0], 4u64), (&traces[1], 5), (&traces[2], 6)];
        let many = model.predict_traces_sampled(&requests, 2);
        for ((t, seed), got) in requests.iter().zip(&many) {
            assert_eq!(got, &model.predict_trace_sampled_per_stream(t, *seed));
        }
    }

    #[test]
    fn sampled_predictions_have_more_spread_than_means() {
        let traces = [gt(1), gt(2)];
        let model = IBoxMl::fit(&traces[..1], quick());
        let spread = |t: &FlowTrace| {
            let d: Vec<f64> = t.delivered().filter_map(|r| r.delay_secs()).collect();
            ibox_stats::std_dev(&d)
        };
        let mean_pred = model.predict_trace(&traces[1]);
        let sampled = model.predict_trace_sampled(&traces[1], 3);
        assert!(
            spread(&sampled) >= spread(&mean_pred),
            "sampling must not shrink the spread: {} vs {}",
            spread(&sampled),
            spread(&mean_pred)
        );
    }

    #[test]
    fn sampled_delays_respect_training_range_clamp() {
        let traces = [gt(1), gt(2)];
        let model = IBoxMl::fit(&traces[..1], quick());
        let max_train = traces[0].max_delay_ns().unwrap() as f64 / 1e9;
        let sampled = model.predict_trace_sampled(&traces[1], 3);
        for r in sampled.delivered() {
            let d = r.delay_secs().unwrap();
            assert!(
                d <= max_train * 1.05 + 1e-3,
                "sampled delay {d} beyond training max {max_train}"
            );
        }
    }
}
