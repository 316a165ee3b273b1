//! The statistical-loss baseline (Fig. 3b).
//!
//! Pantheon's calibrated emulators \[45\] model the *effect* of unseen
//! cross traffic with "a simple statistical packet loss model" instead of
//! modelling the traffic itself. This baseline does exactly that: the same
//! `(b, d, B)` estimation as iBoxNet, no cross traffic, and a constant
//! Bernoulli loss probability calibrated to the training trace's observed
//! loss rate. Fig. 3(b) shows it matches ground truth worse than modelling
//! cross traffic explicitly — which this reproduction's `fig3` binary
//! re-measures.

use serde::{Deserialize, Serialize};

use ibox_runner::Fidelity;
use ibox_sim::{PathConfig, PathEmulator, PathSpec, SimTime};
use ibox_trace::FlowTrace;

use crate::estimator::StaticParams;
use crate::model::replay_over;

/// A calibrated-emulator baseline: static parameters + statistical loss.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatisticalLossModel {
    /// Static path parameters (same estimators as iBoxNet).
    pub params: StaticParams,
    /// Calibrated Bernoulli loss probability.
    pub loss_rate: f64,
    /// Name of the trace/path this model was fitted on.
    pub fitted_on: String,
}

impl StatisticalLossModel {
    /// Fit on a trace: `(b, d, B)` plus the observed loss rate.
    pub fn fit(trace: &FlowTrace) -> Self {
        Self {
            params: StaticParams::estimate(trace),
            loss_rate: trace.loss_rate(),
            fitted_on: trace.meta.path.clone(),
        }
    }

    /// The emulated path: fitted bottleneck with random egress loss.
    pub fn path_config(&self) -> PathConfig {
        let mut p = PathConfig::simple(
            self.params.bandwidth_bps,
            self.params.prop_delay,
            self.params.buffer_bytes,
        );
        p.random_loss = self.loss_rate;
        p
    }

    /// Run `protocol` over the baseline for `duration`, on the packet
    /// engine over the fitted path.
    pub fn simulate(&self, protocol: &str, duration: SimTime, seed: u64) -> FlowTrace {
        self.simulate_fidelity_over(protocol, duration, seed, Fidelity::Packet, None)
    }

    /// The fitted path (with its calibrated random loss) as a 1-stage
    /// chain.
    pub fn path_spec(&self) -> PathSpec {
        PathSpec::single(self.path_config())
    }

    /// [`StatisticalLossModel::simulate`] at an explicit [`Fidelity`] and
    /// through an arbitrary composed path (same contract as
    /// `IBoxNet::simulate_fidelity_over`: `None` replays the fitted
    /// single-bottleneck spec; unsupported protocols/paths degrade to the
    /// packet engine, counted in `fidelity.fallback`).
    pub fn simulate_fidelity_over(
        &self,
        protocol: &str,
        duration: SimTime,
        seed: u64,
        fidelity: Fidelity,
        path: Option<&PathSpec>,
    ) -> FlowTrace {
        let spec = path.cloned().unwrap_or_else(|| self.path_spec());
        let emu = PathEmulator::from_spec(spec, duration)
            .with_name(format!("statistical({})", self.fitted_on));
        replay_over(&emu, protocol, seed, fidelity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox_cc::Cubic;
    use ibox_sim::CrossTrafficCfg;

    fn gt_trace() -> FlowTrace {
        let emu = PathEmulator::from_spec(
            ibox_sim::PathSpec::single(PathConfig::simple(6e6, SimTime::from_millis(25), 60_000)),
            SimTime::from_secs(15),
        )
        .with_name("gt")
        .with_cross_traffic(CrossTrafficCfg::cbr(
            2e6,
            SimTime::ZERO,
            SimTime::from_secs(15),
        ));
        let out = emu.run_sender(Box::new(Cubic::new()), "m", 4);
        out.trace("m").unwrap().normalized()
    }

    #[test]
    fn calibrates_loss_to_the_trace() {
        let t = gt_trace();
        let m = StatisticalLossModel::fit(&t);
        assert!((m.loss_rate - t.loss_rate()).abs() < 1e-12);
        assert_eq!(m.path_config().random_loss, m.loss_rate);
    }

    #[test]
    fn simulation_reproduces_loss_statistics() {
        let t = gt_trace();
        let m = StatisticalLossModel::fit(&t);
        let sim = m.simulate("cubic", SimTime::from_secs(15), 8);
        // Loss should be in the calibrated ballpark. Note: the replayed
        // Cubic also experiences buffer-overflow losses on top of the
        // statistical ones, so we only check the same order of magnitude.
        assert!(
            sim.loss_rate() >= 0.3 * m.loss_rate,
            "sim loss {} vs calibrated {}",
            sim.loss_rate(),
            m.loss_rate
        );
    }

    #[test]
    fn no_cross_traffic_in_the_baseline() {
        let m = StatisticalLossModel::fit(&gt_trace());
        let sim = m.simulate("cubic", SimTime::from_secs(10), 1);
        // The baseline's Cubic sees the whole (estimated) link for itself;
        // the statistical losses cap the window but there is no competing
        // queue occupancy, a structural difference Fig. 3(b) exposes.
        assert!(sim.len() > 100);
    }
}
