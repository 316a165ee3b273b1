//! iBoxNet: the network-model-based approach (§3, Fig. 1).
//!
//! An iBoxNet model is the 4-tuple `(b, d, B, C)` — bottleneck bandwidth,
//! propagation delay, byte buffer, and the estimated cross-traffic series —
//! fitted from a single input-output trace and executed on the path
//! emulator ("iBoxNet learns network parameters from data and sets them on
//! the NetEm emulator"). Any congestion-control protocol can then be run
//! over the fitted model: the counterfactual engine behind the paper's
//! instance and ensemble tests.

use serde::{Deserialize, Serialize};

use ibox_runner::Fidelity;
use ibox_sim::{PathConfig, PathEmulator, PathSpec, ReorderCfg, SimTime, CT_PACKET_SIZE};
use ibox_trace::FlowTrace;

use crate::estimator::{CrossTrafficEstimate, StaticParams, DEFAULT_BIN_SECS};
use crate::model::replay_over;

/// A fitted iBoxNet model — the paper's promised, shareable "iBox profile".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IBoxNet {
    /// Static path parameters `(b, d, B)`.
    pub params: StaticParams,
    /// Estimated cross-traffic series `C` (all-zero for the Fig. 3a
    /// ablation).
    pub cross: CrossTrafficEstimate,
    /// Optional estimated reordering stage (the *emulation-side* melding
    /// extension, see [`IBoxNet::fit_with_reordering`]). `None` for the
    /// paper's plain iBoxNet, which cannot reorder (§3.2).
    pub reorder: Option<ReorderCfg>,
    /// Name of the trace/path this model was fitted on.
    pub fitted_on: String,
}

impl IBoxNet {
    /// Fit the full model (static parameters + cross traffic) on a trace.
    ///
    /// ```
    /// use ibox::IBoxNet;
    /// use ibox_sim::{FixedWindow, PathConfig, PathEmulator, SimTime};
    ///
    /// // Measure a sender on some network…
    /// let emu = PathEmulator::from_spec(ibox_sim::PathSpec::single(
    ///     PathConfig::simple(8e6, SimTime::from_millis(20), 100_000)),
    ///     SimTime::from_secs(5),
    /// );
    /// let trace = emu
    ///     .run_sender(Box::new(FixedWindow::new(64.0)), "probe", 1)
    ///     .traces
    ///     .remove(0)
    ///     .normalized();
    ///
    /// // …fit the model from the trace alone, and run a counterfactual.
    /// let model = IBoxNet::fit(&trace);
    /// assert!((model.params.bandwidth_bps - 8e6).abs() / 8e6 < 0.1);
    /// let vegas = model.simulate("vegas", SimTime::from_secs(5), 42);
    /// assert!(vegas.len() > 100);
    /// ```
    pub fn fit(trace: &FlowTrace) -> Self {
        let params = StaticParams::estimate(trace);
        let cross = CrossTrafficEstimate::estimate(trace, &params, DEFAULT_BIN_SECS);
        Self { params, cross, reorder: None, fitted_on: trace.meta.path.clone() }
    }

    /// Fit only the static parameters, replacing cross traffic with zero —
    /// the "iBoxNet w/o CT" ablation of Fig. 3(a).
    pub fn fit_without_cross(trace: &FlowTrace) -> Self {
        let params = StaticParams::estimate(trace);
        let cross = CrossTrafficEstimate::zero(trace.span_secs().max(1.0), DEFAULT_BIN_SECS);
        Self { params, cross, reorder: None, fitted_on: trace.meta.path.clone() }
    }

    /// Extension: the full fit plus an *estimated reordering stage* in the
    /// emulated path itself.
    ///
    /// Plain iBoxNet cannot reorder (§3.2), which biases any *loss-based*
    /// counterfactual sender: on a reordering path, the real sender's
    /// duplicate-ack detector fires spuriously and keeps it shy of the
    /// buffer, while the fitted model's sender slams into it. Melding the
    /// discovered behaviour back into the emulator (rather than only into
    /// the output trace, as in §5.1) closes that loop: the reordering
    /// probability and displacement are measured from the training trace's
    /// negative inter-arrival events.
    pub fn fit_with_reordering(trace: &FlowTrace) -> Self {
        let mut model = Self::fit(trace);
        model.reorder = estimate_reordering(trace);
        model
    }

    /// The single-bottleneck path this model describes.
    pub fn path_config(&self) -> PathConfig {
        let mut p = PathConfig::simple(
            self.params.bandwidth_bps,
            self.params.prop_delay,
            self.params.buffer_bytes,
        );
        p.reorder = self.reorder;
        p
    }

    /// The fitted path as a 1-stage chain — what replays run through when
    /// no composed-path override is given.
    pub fn path_spec(&self) -> PathSpec {
        PathSpec::single(self.path_config())
    }

    /// Build the NetEm-like emulator: fitted path + replayed cross traffic.
    pub fn emulator(&self, duration: SimTime) -> PathEmulator {
        self.emulator_over(self.path_spec(), duration)
    }

    /// Build the emulator over an arbitrary stage chain. The model's
    /// estimated cross traffic `C` competes at stage 0 (the sender-side
    /// bottleneck), whatever the chain's shape; each stage of `spec`
    /// additionally carries its own configured cross traffic. With
    /// `spec == self.path_spec()` this is exactly [`IBoxNet::emulator`].
    pub fn emulator_over(&self, spec: PathSpec, duration: SimTime) -> PathEmulator {
        let mut emu = PathEmulator::from_spec(spec, duration)
            .with_name(format!("iboxnet({})", self.fitted_on));
        if self.cross.total_bytes() >= 1.0 {
            emu = emu.with_cross_traffic(self.cross.to_replay(CT_PACKET_SIZE));
        }
        emu
    }

    /// Run `protocol` over the fitted model for `duration`, returning its
    /// normalized input-output trace — the counterfactual prediction, on
    /// the packet engine over the fitted path.
    pub fn simulate(&self, protocol: &str, duration: SimTime, seed: u64) -> FlowTrace {
        self.simulate_fidelity_over(protocol, duration, seed, Fidelity::Packet, None)
    }

    /// [`IBoxNet::simulate`] at an explicit [`Fidelity`] — `Packet` is the
    /// reference engine, `Flow` the fluid fast path (10–100x faster,
    /// bounded distributional error), `Hybrid` the fluid path with
    /// packet-level fallback around congestion episodes — and through an
    /// arbitrary composed path: `path` (when given) replaces the fitted
    /// single-bottleneck spec, and the model's estimated cross traffic
    /// still competes at stage 0. Non-packet fidelities the fluid engine
    /// cannot express fall back to the packet engine, incrementing
    /// `fidelity.fallback` and logging the reason.
    pub fn simulate_fidelity_over(
        &self,
        protocol: &str,
        duration: SimTime,
        seed: u64,
        fidelity: Fidelity,
        path: Option<&PathSpec>,
    ) -> FlowTrace {
        let spec = path.cloned().unwrap_or_else(|| self.path_spec());
        replay_over(&self.emulator_over(spec, duration), protocol, seed, fidelity)
    }

    /// Serialize the profile to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("profile serialization cannot fail")
    }

    /// Load a profile from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Measure the reordering behaviour of a trace: event probability from the
/// negative-inter-arrival rate, displacement bounds from the magnitude
/// quantiles of those events. Returns `None` when the trace shows no
/// meaningful reordering.
fn estimate_reordering(trace: &FlowTrace) -> Option<ReorderCfg> {
    let _span = ibox_obs::span!("estimate.reordering");
    let delivered: Vec<_> = trace.delivered().collect();
    if delivered.len() < 10 {
        return None;
    }
    // A reorder event at packet i: it arrives before its predecessor in
    // send order did; the displacement is how far the predecessor was
    // pushed past it.
    let mut magnitudes: Vec<f64> = Vec::new();
    for w in delivered.windows(2) {
        let (a, b) = (w[0].recv_ns.expect("delivered"), w[1].recv_ns.expect("delivered"));
        if b < a {
            magnitudes.push((a - b) as f64 / 1e9);
        }
    }
    let probability = magnitudes.len() as f64 / delivered.len() as f64;
    if probability < 1e-4 {
        return None;
    }
    let lo = ibox_stats::percentile(&magnitudes, 0.25).expect("nonempty");
    let hi = ibox_stats::percentile(&magnitudes, 0.90).expect("nonempty");
    Some(ReorderCfg {
        probability,
        extra_min: SimTime::from_secs_f64(lo.max(1e-4)),
        extra_max: SimTime::from_secs_f64(hi.max(lo.max(1e-4) + 1e-4)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox_cc::Cubic;
    use ibox_sim::{CrossTrafficCfg, PathEmulator};
    use ibox_trace::metrics::{avg_rate_mbps, delay_percentile_ms};

    /// Ground truth: Cubic over a known 8 Mbps / 30 ms / 120 KB path.
    fn gt_trace(cross: bool) -> FlowTrace {
        let mut emu = PathEmulator::from_spec(
            ibox_sim::PathSpec::single(PathConfig::simple(8e6, SimTime::from_millis(30), 120_000)),
            SimTime::from_secs(20),
        )
        .with_name("gt-path");
        if cross {
            emu = emu.with_cross_traffic(CrossTrafficCfg::cbr(
                2e6,
                SimTime::from_secs(5),
                SimTime::from_secs(15),
            ));
        }
        let out = emu.run_sender(Box::new(Cubic::new()), "main", 9);
        out.trace("main").unwrap().normalized()
    }

    #[test]
    fn fit_recovers_path_shape() {
        let model = IBoxNet::fit(&gt_trace(false));
        assert!((model.params.bandwidth_bps - 8e6).abs() / 8e6 < 0.1);
        assert!((model.params.prop_delay.as_millis_f64() - 31.4).abs() < 2.0);
        assert_eq!(model.fitted_on, "gt-path");
    }

    #[test]
    fn simulated_cubic_matches_ground_truth_metrics() {
        // The self-consistency check: fit on Cubic, replay Cubic, compare.
        let gt = gt_trace(true);
        let model = IBoxNet::fit(&gt);
        let sim = model.simulate("cubic", SimTime::from_secs(20), 42);
        let (r_gt, r_sim) = (avg_rate_mbps(&gt), avg_rate_mbps(&sim));
        assert!((r_gt - r_sim).abs() / r_gt < 0.25, "rates: gt {r_gt} vs sim {r_sim} Mbps");
        let d_gt = delay_percentile_ms(&gt, 0.95).unwrap();
        let d_sim = delay_percentile_ms(&sim, 0.95).unwrap();
        assert!((d_gt - d_sim).abs() / d_gt < 0.35, "p95 delays: gt {d_gt} vs sim {d_sim} ms");
    }

    #[test]
    fn without_cross_traffic_underestimates_delay() {
        let gt = gt_trace(true);
        let full = IBoxNet::fit(&gt);
        let ablated = IBoxNet::fit_without_cross(&gt);
        assert_eq!(ablated.cross.total_bytes(), 0.0);
        let sim_full = full.simulate("cubic", SimTime::from_secs(20), 1);
        let sim_ablt = ablated.simulate("cubic", SimTime::from_secs(20), 1);
        // Without competing traffic the replayed Cubic sees more capacity.
        assert!(
            avg_rate_mbps(&sim_ablt) >= avg_rate_mbps(&sim_full),
            "ablated model should look faster"
        );
    }

    #[test]
    fn profile_json_roundtrip() {
        let model = IBoxNet::fit(&gt_trace(false));
        let back = IBoxNet::from_json(&model.to_json()).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let model = IBoxNet::fit(&gt_trace(true));
        let a = model.simulate("vegas", SimTime::from_secs(10), 7);
        let b = model.simulate("vegas", SimTime::from_secs(10), 7);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod reorder_extension_tests {
    use super::*;
    use ibox_cc::Cubic;
    use ibox_sim::PathEmulator;
    use ibox_trace::metrics::overall_reordering_rate;

    fn reordering_gt() -> FlowTrace {
        let mut path = PathConfig::simple(7e6, SimTime::from_millis(30), 150_000);
        path.reorder = Some(ReorderCfg {
            probability: 0.015,
            extra_min: SimTime::from_millis(2),
            extra_max: SimTime::from_millis(8),
        });
        let emu = PathEmulator::from_spec(ibox_sim::PathSpec::single(path), SimTime::from_secs(15))
            .with_name("re-gt");
        let out = emu.run_sender(Box::new(Cubic::new()), "m", 5);
        out.trace("m").unwrap().normalized()
    }

    #[test]
    fn plain_fit_has_no_reordering() {
        let model = IBoxNet::fit(&reordering_gt());
        assert!(model.reorder.is_none());
        assert!(model.path_config().reorder.is_none());
    }

    #[test]
    fn extension_recovers_reordering_probability() {
        let gt = reordering_gt();
        let model = IBoxNet::fit_with_reordering(&gt);
        let r = model.reorder.expect("reordering detected");
        let gt_rate = overall_reordering_rate(&gt);
        assert!(
            (r.probability - gt_rate).abs() < 0.6 * gt_rate,
            "estimated {} vs measured {gt_rate}",
            r.probability
        );
        assert!(r.extra_max > r.extra_min);
    }

    #[test]
    fn extension_simulation_reorders() {
        let gt = reordering_gt();
        let model = IBoxNet::fit_with_reordering(&gt);
        let sim = model.simulate("cubic", SimTime::from_secs(15), 3);
        assert!(overall_reordering_rate(&sim) > 0.0);
        // Plain iBoxNet on the same trace cannot reorder.
        let plain = IBoxNet::fit(&gt).simulate("cubic", SimTime::from_secs(15), 3);
        assert_eq!(overall_reordering_rate(&plain), 0.0);
    }

    #[test]
    fn clean_trace_yields_no_reordering_stage() {
        let path = PathConfig::simple(7e6, SimTime::from_millis(30), 150_000);
        let emu = PathEmulator::from_spec(ibox_sim::PathSpec::single(path), SimTime::from_secs(10));
        let out = emu.run_sender(Box::new(Cubic::new()), "m", 5);
        let model = IBoxNet::fit_with_reordering(out.trace("m").unwrap());
        assert!(model.reorder.is_none());
    }
}
