//! Path emulator: the convenience layer for "run sender X over path P".
//!
//! This is the NetEm-shaped surface of Fig. 1: iBoxNet "learns network
//! parameters from data and sets them on the NetEm emulator". A fitted
//! model produces a [`PathSpec`] plus replayed cross traffic; this module
//! runs an arbitrary congestion-controlled sender over it and returns the
//! resulting input-output trace. The same surface drives 1-stage classic
//! paths and composed multi-stage pipelines.

use crate::cc::CongestionControl;
use crate::config::{FlowConfig, PathSpec};
use crate::crosstraffic::CrossTrafficCfg;
use crate::engine::Simulation;
use crate::fluid::{FluidLaw, FluidSim};
use crate::output::SimOutput;
use crate::time::SimTime;

/// A reusable path emulation setup: stage chain + duration + name.
#[derive(Debug, Clone)]
pub struct PathEmulator {
    /// The path as an ordered chain of bottleneck stages (each with its
    /// own cross traffic).
    pub spec: PathSpec,
    /// Run duration.
    pub duration: SimTime,
    /// Name recorded in trace metadata.
    pub name: String,
}

impl PathEmulator {
    /// An emulator over an arbitrary stage chain.
    pub fn from_spec(spec: PathSpec, duration: SimTime) -> Self {
        Self { spec, duration, name: "emulator".into() }
    }

    /// Attach a cross-traffic source at stage 0 (the sender-side
    /// bottleneck — where a fitted model's replayed cross traffic
    /// competes).
    pub fn with_cross_traffic(mut self, cfg: CrossTrafficCfg) -> Self {
        self.spec.stages[0].cross.push(cfg);
        self
    }

    /// Set the path name recorded in trace metadata.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Run a single sender over the chain and return the full output.
    /// The flow runs for the whole duration with the given label.
    pub fn run_sender(
        &self,
        cc: Box<dyn CongestionControl>,
        label: impl Into<String>,
        seed: u64,
    ) -> SimOutput {
        let mut sim = Simulation::new(self.spec.clone(), self.duration, seed);
        sim.set_path_name(self.name.clone());
        sim.add_flow(FlowConfig::bulk(label, self.duration), cc);
        sim.run()
    }

    /// Run a single sender over the chain on the flow-level fast path:
    /// same path, cross traffic, and metadata as
    /// [`PathEmulator::run_sender`], but the congestion behaviour comes
    /// from a continuous [`FluidLaw`] instead of a per-ack controller,
    /// with `hybrid` episode splicing on request.
    ///
    /// Panics if [`PathSpec::fluid_unsupported_reason`] is `Some` for the
    /// chain; callers should check and degrade to
    /// [`PathEmulator::run_sender`].
    pub fn run_sender_fluid(
        &self,
        law: FluidLaw,
        label: impl Into<String>,
        seed: u64,
        hybrid: bool,
    ) -> SimOutput {
        let mut sim = FluidSim::new(self.spec.clone(), self.duration, seed);
        sim.set_path_name(self.name.clone());
        sim.set_hybrid(hybrid);
        sim.add_flow(FlowConfig::bulk(label, self.duration), law);
        sim.run()
    }

    /// Run several senders concurrently (e.g. a main flow plus adaptive
    /// cross flows). Returns the full output; each entry of `senders` is
    /// `(flow config, congestion control)`.
    pub fn run_senders(
        &self,
        senders: Vec<(FlowConfig, Box<dyn CongestionControl>)>,
        seed: u64,
    ) -> SimOutput {
        let mut sim = Simulation::new(self.spec.clone(), self.duration, seed);
        sim.set_path_name(self.name.clone());
        for (cfg, cc) in senders {
            sim.add_flow(cfg, cc);
        }
        sim.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedWindow;
    use crate::config::{PathConfig, PathStage};

    #[test]
    fn emulator_runs_and_labels_traces() {
        let emu = PathEmulator::from_spec(
            PathConfig::simple(8e6, SimTime::from_millis(20), 80_000).into(),
            SimTime::from_secs(5),
        )
        .with_name("unit-path")
        .with_cross_traffic(CrossTrafficCfg::cbr(
            1e6,
            SimTime::ZERO,
            SimTime::from_secs(5),
        ));
        let out = emu.run_sender(Box::new(FixedWindow::new(32.0)), "probe", 1);
        let t = out.trace("probe").unwrap();
        assert_eq!(t.meta.path, "unit-path");
        assert_eq!(t.meta.protocol, "fixed-window");
        assert!(t.len() > 100);
    }

    #[test]
    fn multi_sender_runs() {
        let emu = PathEmulator::from_spec(
            PathConfig::simple(8e6, SimTime::from_millis(10), 80_000).into(),
            SimTime::from_secs(4),
        );
        let out = emu.run_senders(
            vec![
                (
                    FlowConfig::bulk("a", SimTime::from_secs(4)),
                    Box::new(FixedWindow::new(16.0)) as Box<dyn CongestionControl>,
                ),
                (FlowConfig::bulk("b", SimTime::from_secs(4)), Box::new(FixedWindow::new(16.0))),
            ],
            2,
        );
        assert_eq!(out.traces.len(), 2);
        assert!(out.trace("a").is_some() && out.trace("b").is_some());
    }

    #[test]
    fn multi_stage_emulator_runs() {
        let spec = PathSpec::from_stages(vec![
            PathStage::new(PathConfig::simple(20e6, SimTime::from_millis(5), 120_000)),
            PathStage::new(PathConfig::simple(8e6, SimTime::from_millis(15), 80_000)),
        ]);
        let emu = PathEmulator::from_spec(spec, SimTime::from_secs(5)).with_name("two-hop");
        let out = emu.run_sender(Box::new(FixedWindow::new(32.0)), "probe", 1);
        let t = out.trace("probe").unwrap();
        assert_eq!(t.meta.path, "two-hop");
        // Min delay crosses both stages: at least the summed propagation.
        assert!(t.min_delay_ns().unwrap() >= 20_000_000);
        assert!(t.len() > 100);
    }
}
