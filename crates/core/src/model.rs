//! The `PathModel` layer: fit once, replay counterfactuals many times.
//!
//! iBox's central promise (§2) is that a fitted path model is a *reusable
//! artifact*: fit it on one trace, then drive any number of protocols
//! through it. This module makes that split structural:
//!
//! * [`PathModel`] — the replay half. Anything fitted simulates a
//!   protocol for a duration under a seed, with no access to the
//!   training data.
//! * [`fit_model`] — the fit half: the **single** entry point that turns
//!   a [`ModelKind`] plus a training trace into a [`FittedModel`]. Every
//!   call increments the `model.fit` obs counter, which is how the
//!   harness tests assert "exactly one fit per (trace, model)".
//!   [`check_fit`] says first whether a trace can be fitted at all.
//! * [`FittedModel`] — the serde-serializable sum of every fitted model
//!   family, so one artifact envelope (see [`crate::artifact`]) covers
//!   them all.
//!
//! Replaying a deserialized model is **byte-identical** to replaying the
//! in-memory original: fitted state is plain data (f64/f32 weights
//! round-trip exactly — the vendored serde_json is built with
//! `float_roundtrip`), and simulation draws all randomness from the seed
//! argument.

use serde::{Deserialize, Serialize};

use ibox_runner::{Fidelity, IBoxMlSpec, ModelKind};
use ibox_sim::{FluidLaw, PathEmulator, PathSpec, SimTime};
use ibox_trace::FlowTrace;

use crate::baseline::StatisticalLossModel;
use crate::estimator::static_params::Extent;
use crate::estimator::FitError;
use crate::iboxml::{IBoxMl, IBoxMlConfig};
use crate::iboxnet::IBoxNet;

/// The replay half of a fitted path model.
///
/// Implementations must be deterministic: the same `(protocol, duration,
/// seed)` triple yields the same trace, byte for byte, on any thread and
/// after any number of serialize/deserialize round trips.
pub trait PathModel {
    /// Run `protocol` over the fitted model for `duration` — the
    /// counterfactual prediction.
    fn simulate(&self, protocol: &str, duration: SimTime, seed: u64) -> FlowTrace;

    /// Stable machine-readable tag of the model family (artifact `kind`).
    fn kind_tag(&self) -> &'static str;

    /// Name of the trace/path the model was fitted on.
    fn fitted_on(&self) -> &str;
}

impl PathModel for IBoxNet {
    fn simulate(&self, protocol: &str, duration: SimTime, seed: u64) -> FlowTrace {
        IBoxNet::simulate(self, protocol, duration, seed)
    }

    fn kind_tag(&self) -> &'static str {
        "iboxnet"
    }

    fn fitted_on(&self) -> &str {
        &self.fitted_on
    }
}

impl PathModel for StatisticalLossModel {
    fn simulate(&self, protocol: &str, duration: SimTime, seed: u64) -> FlowTrace {
        StatisticalLossModel::simulate(self, protocol, duration, seed)
    }

    fn kind_tag(&self) -> &'static str {
        "statistical-loss"
    }

    fn fitted_on(&self) -> &str {
        &self.fitted_on
    }
}

/// A fitted iBoxML model packaged for protocol replay.
///
/// The learned model (§4) predicts `P(delay, loss | packet stream)` — it
/// needs a *sending pattern* to predict over, and cannot natively close
/// the loop with a live congestion-control sender. The replay therefore
/// composes the two families: the iBoxNet driver (fitted on the same
/// trace) runs the protocol to produce the counterfactual send pattern,
/// and the learned heads re-predict each packet's delay and loss by
/// sampled closed-loop unroll. Both halves are seeded, so the composite
/// is as deterministic as its parts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FittedIBoxMl {
    /// The learned delay/loss model.
    pub ml: IBoxMl,
    /// The send-pattern driver (full iBoxNet fit of the same trace).
    pub driver: IBoxNet,
}

/// What a replay hands the model. Every user-facing surface builds it in
/// one place, [`crate::replay::ReplayRequest::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOpts {
    /// Drive ML inference through the batched
    /// [`ibox_ml::InferenceSession`] (default, and what every CLI, HTTP
    /// and batch-file replay runs). `false` selects the independent
    /// sequential closed-loop unroll — bitwise identical output — which
    /// tests use as the session's oracle; no user-facing surface sets it.
    pub batch_streams: bool,
    /// Simulation fidelity of the replay engine: `Packet` (default,
    /// reference), `Flow` (fluid fast path), or `Hybrid` (fluid with
    /// packet-level congestion episodes). Models/protocols the fluid
    /// engine cannot express degrade to `Packet` (counted in the
    /// `fidelity.fallback` metric, with a warning naming the reason).
    pub fidelity: Fidelity,
    /// Composed path to replay through instead of the model's own fitted
    /// single-bottleneck spec. The model still contributes its estimated
    /// cross traffic at stage 0 (the sender-side bottleneck). `None` —
    /// the default — replays through the fitted path, byte-identically
    /// to builds that predate path composition.
    pub path: Option<PathSpec>,
}

impl Default for ReplayOpts {
    fn default() -> Self {
        Self { batch_streams: true, fidelity: Fidelity::Packet, path: None }
    }
}

/// Decide whether a replay at `fidelity` over `spec` can take the fluid
/// fast path: returns the law and hybrid flag when it can, `None` for a
/// packet-fidelity request. A non-packet request the fluid engine cannot
/// express falls back to `None` **and is counted**: the
/// `fidelity.fallback` counter increments and a warning names the
/// emulator and the reason, so silent fidelity downgrades show up in the
/// metrics story instead of only in wall time.
fn fluid_plan(
    spec: &PathSpec,
    protocol: &str,
    fidelity: Fidelity,
    emulator: &str,
) -> Option<(FluidLaw, bool)> {
    if fidelity == Fidelity::Packet {
        return None;
    }
    let hybrid = fidelity == Fidelity::Hybrid;
    let Some(law) = FluidLaw::by_name(protocol) else {
        fidelity_fallback(emulator, fidelity, &format!("protocol {protocol:?} has no fluid law"));
        return None;
    };
    if let Some(reason) = spec.fluid_unsupported_reason(hybrid) {
        fidelity_fallback(emulator, fidelity, &reason);
        return None;
    }
    Some((law, hybrid))
}

fn fidelity_fallback(emulator: &str, fidelity: Fidelity, reason: &str) {
    ibox_obs::global().counter("fidelity.fallback").inc();
    ibox_obs::warn!("{fidelity} fidelity fell back to packet for {emulator}: {reason}");
}

/// Run `protocol` over `emu` at `fidelity` — the one place a replay picks
/// its engine: the fluid simulator when [`fluid_plan`] admits the request,
/// the packet engine otherwise. Returns the sender's normalized trace.
pub(crate) fn replay_over(
    emu: &PathEmulator,
    protocol: &str,
    seed: u64,
    fidelity: Fidelity,
) -> FlowTrace {
    let out = match fluid_plan(&emu.spec, protocol, fidelity, &emu.name) {
        Some((law, hybrid)) => emu.run_sender_fluid(law, protocol, seed, hybrid),
        None => {
            let cc = ibox_cc::by_name(protocol)
                .unwrap_or_else(|| panic!("unknown congestion-control protocol {protocol:?}"));
            emu.run_sender(cc, protocol, seed)
        }
    };
    out.traces.into_iter().next().expect("one recorded flow").into_normalized()
}

impl FittedIBoxMl {
    /// [`PathModel::simulate`] with explicit [`ReplayOpts`]; the trait
    /// method is this with the defaults.
    pub fn simulate_with(
        &self,
        protocol: &str,
        duration: SimTime,
        seed: u64,
        opts: ReplayOpts,
    ) -> FlowTrace {
        let pattern = self.driver.simulate_fidelity_over(
            protocol,
            duration,
            seed,
            opts.fidelity,
            opts.path.as_ref(),
        );
        // Decorrelate the sampling seed from the driver seed (SplitMix64):
        // the two stages must not reuse one RNG stream.
        let mut z = seed ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let sample_seed = z ^ (z >> 31);
        if opts.batch_streams {
            self.ml.predict_trace_sampled(&pattern, sample_seed)
        } else {
            self.ml.predict_trace_sampled_per_stream(&pattern, sample_seed)
        }
    }
}

impl PathModel for FittedIBoxMl {
    fn simulate(&self, protocol: &str, duration: SimTime, seed: u64) -> FlowTrace {
        self.simulate_with(protocol, duration, seed, ReplayOpts::default())
    }

    fn kind_tag(&self) -> &'static str {
        "iboxml"
    }

    fn fitted_on(&self) -> &str {
        &self.driver.fitted_on
    }
}

/// Every fitted model family behind one serializable type — what the
/// artifact envelope stores and what [`fit_model`] returns.
///
/// All three iBoxNet [`ModelKind`] variants (full, no-CT, reorder) fit to
/// the same [`IBoxNet`] struct; the *kind* distinction lives in the fit,
/// not the fitted state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FittedModel {
    /// A fitted iBoxNet (any of the three fit variants).
    IBoxNet(IBoxNet),
    /// The calibrated-emulator statistical-loss baseline.
    StatisticalLoss(StatisticalLossModel),
    /// The learned model plus its send-pattern driver (boxed: the weights
    /// dwarf the other variants).
    IBoxMl(Box<FittedIBoxMl>),
}

impl FittedModel {
    /// [`PathModel::simulate`] with explicit [`ReplayOpts`].
    pub fn simulate_with(
        &self,
        protocol: &str,
        duration: SimTime,
        seed: u64,
        opts: ReplayOpts,
    ) -> FlowTrace {
        let _span = ibox_obs::span!("model-replay");
        match self {
            FittedModel::IBoxNet(m) => m.simulate_fidelity_over(
                protocol,
                duration,
                seed,
                opts.fidelity,
                opts.path.as_ref(),
            ),
            FittedModel::StatisticalLoss(m) => m.simulate_fidelity_over(
                protocol,
                duration,
                seed,
                opts.fidelity,
                opts.path.as_ref(),
            ),
            FittedModel::IBoxMl(m) => m.simulate_with(protocol, duration, seed, opts),
        }
    }

    /// The path this model replays through when no override is given: its
    /// fitted single-bottleneck spec as a 1-stage chain. This is what
    /// schema-2 artifacts record in their `path` field.
    pub fn path_spec(&self) -> PathSpec {
        match self {
            FittedModel::IBoxNet(m) => m.path_spec(),
            FittedModel::StatisticalLoss(m) => m.path_spec(),
            FittedModel::IBoxMl(m) => m.driver.path_spec(),
        }
    }
}

impl PathModel for FittedModel {
    fn simulate(&self, protocol: &str, duration: SimTime, seed: u64) -> FlowTrace {
        self.simulate_with(protocol, duration, seed, ReplayOpts::default())
    }

    fn kind_tag(&self) -> &'static str {
        match self {
            FittedModel::IBoxNet(m) => m.kind_tag(),
            FittedModel::StatisticalLoss(m) => m.kind_tag(),
            FittedModel::IBoxMl(m) => m.kind_tag(),
        }
    }

    fn fitted_on(&self) -> &str {
        match self {
            FittedModel::IBoxNet(m) => PathModel::fitted_on(m),
            FittedModel::StatisticalLoss(m) => PathModel::fitted_on(m),
            FittedModel::IBoxMl(m) => PathModel::fitted_on(m.as_ref()),
        }
    }
}

/// Translate the domain-light runner spec into the real training config.
/// The spec's fields map one-to-one; the remaining hyperparameters
/// (gradient clip, head weights, scheduled sampling) keep the library
/// defaults so spec JSON stays small and stable.
fn ml_config(spec: &IBoxMlSpec) -> IBoxMlConfig {
    let mut cfg = IBoxMlConfig::builder()
        .hidden_sizes(spec.hidden_sizes.clone())
        .with_cross_traffic(spec.with_cross_traffic)
        .seed(spec.seed)
        .build();
    cfg.train.epochs = spec.epochs;
    cfg.train.lr = spec.lr as f32;
    cfg.train.tbptt = spec.tbptt;
    cfg
}

/// Whether `train` can be fitted at all: the order-free part of the
/// static fold, without its rate sweep. [`fit_model`] panics on a trace
/// this refuses, so every door that takes an outside trace asks here
/// first and answers the [`FitError`] in its own way.
pub fn check_fit(train: &FlowTrace) -> Result<(), FitError> {
    let mut extent = Extent::default();
    train.records().iter().for_each(|rec| extent.fold(rec));
    extent.check()
}

/// Fit `kind` on `train` — the fit half of the [`PathModel`] split and
/// the only place a model kind meets a training trace. `train` must pass
/// [`check_fit`].
///
/// Each call records a `model-fit` span and increments the `model.fit`
/// counter in the effective obs registry; the fit cache
/// ([`crate::cache::FitCache`]) wraps this function and guarantees at
/// most one call per distinct (trace, kind, config, seed).
pub fn fit_model(kind: &ModelKind, train: &FlowTrace) -> FittedModel {
    let _span = ibox_obs::span!("model-fit");
    ibox_obs::global().counter("model.fit").inc();
    match kind {
        ModelKind::IBoxNet => FittedModel::IBoxNet(IBoxNet::fit(train)),
        ModelKind::IBoxNetNoCross => FittedModel::IBoxNet(IBoxNet::fit_without_cross(train)),
        ModelKind::StatisticalLoss => {
            FittedModel::StatisticalLoss(StatisticalLossModel::fit(train))
        }
        ModelKind::IBoxNetReorder => FittedModel::IBoxNet(IBoxNet::fit_with_reordering(train)),
        ModelKind::IBoxMl(spec) => {
            let ml = IBoxMl::fit(std::slice::from_ref(train), ml_config(spec));
            let driver = IBoxNet::fit(train);
            FittedModel::IBoxMl(Box::new(FittedIBoxMl { ml, driver }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox_cc::Cubic;
    use ibox_sim::{PathConfig, PathEmulator};

    fn train_trace(secs: u64, seed: u64) -> FlowTrace {
        PathEmulator::from_spec(
            ibox_sim::PathSpec::single(PathConfig::simple(6e6, SimTime::from_millis(25), 80_000)),
            SimTime::from_secs(secs),
        )
        .with_name("model-gt")
        .run_sender(Box::new(Cubic::new()), "m", seed)
        .traces
        .into_iter()
        .next()
        .expect("one recorded flow")
        .normalized()
    }

    fn tiny_ml_kind() -> ModelKind {
        ModelKind::IBoxMl(IBoxMlSpec {
            hidden_sizes: vec![8],
            epochs: 2,
            lr: 5e-3,
            tbptt: 32,
            with_cross_traffic: false,
            seed: 5,
        })
    }

    #[test]
    fn fit_model_covers_every_kind_and_counts_fits() {
        let train = train_trace(5, 1);
        let scope = ibox_obs::scoped();
        let mut kinds: Vec<ModelKind> = ModelKind::all().to_vec();
        kinds.push(tiny_ml_kind());
        for kind in &kinds {
            let fitted = fit_model(kind, &train);
            assert_eq!(fitted.fitted_on(), "model-gt");
            let sim = fitted.simulate("vegas", SimTime::from_secs(3), 9);
            assert!(sim.len() > 20, "{} produced {} packets", kind.name(), sim.len());
        }
        let metrics = scope.finish().snapshot();
        assert_eq!(metrics.counters["model.fit"], kinds.len() as u64);
    }

    #[test]
    fn replay_is_deterministic_per_seed_for_the_composite_ml_model() {
        let train = train_trace(5, 2);
        let fitted = fit_model(&tiny_ml_kind(), &train);
        let a = fitted.simulate("cubic", SimTime::from_secs(3), 11);
        let b = fitted.simulate("cubic", SimTime::from_secs(3), 11);
        assert_eq!(a, b);
        let c = fitted.simulate("cubic", SimTime::from_secs(3), 12);
        assert_ne!(a, c, "different seeds must diverge");
        // The sequential reference unroll is the oracle for the session.
        let reference = ReplayOpts { batch_streams: false, ..ReplayOpts::default() };
        assert_eq!(a, fitted.simulate_with("cubic", SimTime::from_secs(3), 11, reference));
    }

    #[test]
    fn kind_tags_distinguish_families_not_fit_variants() {
        let train = train_trace(4, 3);
        assert_eq!(fit_model(&ModelKind::IBoxNet, &train).kind_tag(), "iboxnet");
        assert_eq!(fit_model(&ModelKind::IBoxNetNoCross, &train).kind_tag(), "iboxnet");
        assert_eq!(fit_model(&ModelKind::StatisticalLoss, &train).kind_tag(), "statistical-loss");
    }
}
