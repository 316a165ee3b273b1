//! Simulation configuration types.
//!
//! [`PathConfig`] is the serializable description of a network path — the
//! `(b, d, B, C)` tuple of the paper's Fig. 1 plus the ground-truth-only
//! extras (variable rate, PF scheduling, reordering, random loss) that the
//! testbed uses and iBoxNet deliberately cannot express.

use serde::{Deserialize, Serialize};

use crate::crosstraffic::CrossTrafficCfg;
use crate::queue::SchedulerKind;
use crate::rate::RateModelCfg;
use crate::time::SimTime;

/// Default data-packet wire size (bytes): 1380 B payload + headers,
/// matching a typical MTU-limited TCP segment.
pub const DEFAULT_PACKET_SIZE: u32 = 1400;

/// One line of a `check()`: `what` is reported unless `cond` holds.
pub(crate) fn ensure(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// Panic with a `check()`'s sentence: how constructors and `validate()`
/// assert a configuration the program itself built.
pub(crate) fn must(checked: Result<(), String>) {
    if let Err(e) = checked {
        panic!("{e}");
    }
}

/// Reordering stage: a fraction of packets take a "second path" with extra
/// delay, arriving behind later-sent packets (the behaviour iBoxNet's
/// single-FIFO model cannot produce, §3.2 / Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReorderCfg {
    /// Per-packet probability of taking the slow path.
    pub probability: f64,
    /// Minimum extra delay on the slow path.
    pub extra_min: SimTime,
    /// Maximum extra delay on the slow path.
    pub extra_max: SimTime,
}

impl ReorderCfg {
    /// The stage's invariants, as a sentence instead of a panic.
    pub fn check(&self) -> Result<(), String> {
        ensure((0.0..=1.0).contains(&self.probability), "reorder probability out of range")?;
        ensure(self.extra_max >= self.extra_min, "reorder delay range inverted")
    }
}

/// Full description of one network path (the bottleneck model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathConfig {
    /// Bottleneck capacity model (`b` — possibly time-varying in ground
    /// truth, constant in fitted iBoxNet models).
    pub rate: RateModelCfg,
    /// One-way propagation delay on the data path (`d`).
    pub prop_delay: SimTime,
    /// Bottleneck buffer in bytes (`B`, byte-based as in §3).
    pub buffer_bytes: u64,
    /// Queueing discipline at the bottleneck.
    pub scheduler: SchedulerKind,
    /// One-way delay of the (uncongested) ack path.
    pub ack_delay: SimTime,
    /// Bernoulli loss applied at link egress (used by the statistical-loss
    /// baseline and lossy ground-truth paths).
    pub random_loss: f64,
    /// Optional reordering stage after the bottleneck.
    pub reorder: Option<ReorderCfg>,
    /// Optional per-packet delay jitter: every packet gets an extra delay
    /// uniform in `[0, jitter]`. Small values (below one serialization
    /// time) perturb timing without reordering — the "slight timing
    /// variations in the emulator execution" of §3.1.2.
    pub jitter: Option<SimTime>,
}

impl PathConfig {
    /// A plain single-bottleneck path: constant `rate_bps`, symmetric
    /// propagation delay, FIFO queue — exactly iBoxNet's network model.
    pub fn simple(rate_bps: f64, prop_delay: SimTime, buffer_bytes: u64) -> Self {
        Self {
            rate: RateModelCfg::constant(rate_bps),
            prop_delay,
            buffer_bytes,
            scheduler: SchedulerKind::Fifo,
            ack_delay: prop_delay,
            random_loss: 0.0,
            reorder: None,
            jitter: None,
        }
    }

    /// The bottleneck's invariants, each error naming its field.
    pub fn check(&self) -> Result<(), String> {
        let field = |name: &str, r: Result<(), String>| r.map_err(|e| format!("{name}: {e}"));
        field("rate", self.rate.check())?;
        field("buffer_bytes", ensure(self.buffer_bytes > 0, "buffer must be positive"))?;
        field("scheduler", self.scheduler.check())?;
        let loss_ok = (0.0..=1.0).contains(&self.random_loss);
        field("random_loss", ensure(loss_ok, "loss probability out of range"))?;
        field("reorder", self.reorder.as_ref().map_or(Ok(()), ReorderCfg::check))
    }
}

/// One stage of a composed path: a bottleneck plus the cross traffic that
/// competes at *this* stage's queue.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStage {
    /// The stage's bottleneck configuration (`(b, d, B)` plus AQM, loss,
    /// jitter, reordering).
    pub config: PathConfig,
    /// Cross traffic injected at this stage's queue.
    pub cross: Vec<CrossTrafficCfg>,
}

impl PathStage {
    /// A stage with no cross traffic.
    pub fn new(config: PathConfig) -> Self {
        Self { config, cross: Vec::new() }
    }
}

/// An ordered chain of 1..N bottleneck stages. Departure from stage `k` is
/// arrival at stage `k + 1`; each stage owns its queue, AQM, loss, jitter
/// and cross-traffic state. A 1-stage spec is exactly the classic iBox
/// single-bottleneck path and behaves byte-identically to it.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSpec {
    /// The stages, in path order (sender side first).
    pub stages: Vec<PathStage>,
}

impl PathSpec {
    /// The classic single-bottleneck path as a 1-stage chain.
    pub fn single(config: PathConfig) -> Self {
        Self { stages: vec![PathStage::new(config)] }
    }

    /// Build a spec from an explicit stage list.
    pub fn from_stages(stages: Vec<PathStage>) -> Self {
        Self { stages }
    }

    /// Number of stages in the chain.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the chain has no stages (invalid; rejected by
    /// [`PathSpec::validate`]).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// True for a classic single-bottleneck path.
    pub fn is_single(&self) -> bool {
        self.stages.len() == 1
    }

    /// The first stage's bottleneck config (the chain is validated
    /// non-empty everywhere it is consumed).
    pub fn first(&self) -> &PathConfig {
        &self.stages[0].config
    }

    /// What a path must satisfy before an engine runs it — the one list:
    /// at least one stage, and per stage the bottleneck's and each cross
    /// source's invariants. Errors name the stage and the field (`stage 1:
    /// buffer_bytes: buffer must be positive`).
    pub fn check(&self) -> Result<(), String> {
        ensure(!self.stages.is_empty(), "path spec needs at least one stage")?;
        for (k, s) in self.stages.iter().enumerate() {
            let at = |e| format!("stage {k}: {e}");
            s.config.check().map_err(at)?;
            for (i, c) in s.cross.iter().enumerate() {
                c.check().map_err(|e| at(format!("cross[{i}]: {e}")))?;
            }
        }
        Ok(())
    }

    /// [`PathSpec::check`], panicking on configuration bugs — what the
    /// engines call.
    pub fn validate(&self) {
        must(self.check());
    }

    /// Sum of per-stage one-way propagation delays.
    pub fn total_prop_delay(&self) -> SimTime {
        let mut t = SimTime::ZERO;
        for s in &self.stages {
            t = t.saturating_add(s.config.prop_delay);
        }
        t
    }

    /// Sum of per-stage ack-path delays (the return path crosses every
    /// stage's ack leg).
    pub fn total_ack_delay(&self) -> SimTime {
        let mut t = SimTime::ZERO;
        for s in &self.stages {
            t = t.saturating_add(s.config.ack_delay);
        }
        t
    }

    /// Mean rate of the slowest stage — the end-to-end bottleneck.
    pub fn bottleneck_rate_bps(&self) -> f64 {
        self.stages.iter().map(|s| s.config.rate.mean_rate_bps()).fold(f64::INFINITY, f64::min)
    }

    /// Why the fluid fast path cannot run this spec, if it cannot.
    ///
    /// `None` means a fluid replay is possible. `hybrid` episodes splice
    /// packet-level simulations and are only wired up for single-stage
    /// paths.
    pub fn fluid_unsupported_reason(&self, hybrid: bool) -> Option<String> {
        for (k, s) in self.stages.iter().enumerate() {
            if !matches!(s.config.rate, RateModelCfg::Constant { .. }) {
                return Some(format!("stage {k} has a non-constant rate model"));
            }
            if !matches!(s.config.scheduler, SchedulerKind::Fifo) {
                return Some(format!("stage {k} uses a non-FIFO scheduler"));
            }
        }
        if hybrid && self.stages.len() > 1 {
            return Some("hybrid episodes are unsupported on multi-stage paths".into());
        }
        None
    }
}

impl From<PathConfig> for PathSpec {
    fn from(config: PathConfig) -> Self {
        Self::single(config)
    }
}

// PathStage/PathSpec serde is hand-written so the wire format is both
// byte-stable (canonical integer-nanosecond keys, fixed field order) and
// friendly to hand-authored path files (`rate_bps`, `prop_delay_ms`, ...
// aliases with defaults).
impl Serialize for PathStage {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let c = &self.config;
        Value::Object(vec![
            ("rate".into(), c.rate.to_value()),
            ("prop_delay_ns".into(), Value::U64(c.prop_delay.as_nanos())),
            ("buffer_bytes".into(), Value::U64(c.buffer_bytes)),
            ("scheduler".into(), c.scheduler.to_value()),
            ("ack_delay_ns".into(), Value::U64(c.ack_delay.as_nanos())),
            ("random_loss".into(), Value::F64(c.random_loss)),
            ("reorder".into(), c.reorder.to_value()),
            (
                "jitter_ns".into(),
                match c.jitter {
                    Some(j) => Value::U64(j.as_nanos()),
                    None => Value::Null,
                },
            ),
            ("cross".into(), self.cross.to_value()),
        ])
    }
}

impl Deserialize for PathStage {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        use serde::{Error, Value};
        let obj = v.as_object().ok_or_else(|| Error::expected("path stage object", v))?;
        let get = |key: &str| obj.iter().find(|(k, _)| k == key).map(|(_, val)| val);

        // Accept a SimTime from either a `_ns` integer key or a `_ms`
        // float key; `_ns` wins when both are present.
        let time_field = |ns_key: &str, ms_key: &str| -> Result<Option<SimTime>, Error> {
            if let Some(val) = get(ns_key) {
                if matches!(val, Value::Null) {
                    return Ok(None);
                }
                return Ok(Some(SimTime::from_value(val)?));
            }
            if let Some(val) = get(ms_key) {
                if matches!(val, Value::Null) {
                    return Ok(None);
                }
                let ms = val.as_f64().ok_or_else(|| Error::expected("number", val))?;
                if !ms.is_finite() || ms < 0.0 {
                    return Err(Error(format!(
                        "{ms_key} must be finite and non-negative, got {ms}"
                    )));
                }
                return Ok(Some(SimTime::from_secs_f64(ms / 1e3)));
            }
            Ok(None)
        };

        let rate = if let Some(val) = get("rate") {
            RateModelCfg::from_value(val)?
        } else if let Some(val) = get("rate_bps") {
            let bps = val.as_f64().ok_or_else(|| Error::expected("number", val))?;
            RateModelCfg::constant(bps)
        } else {
            return Err(Error::missing("PathStage", "rate"));
        };
        let prop_delay = time_field("prop_delay_ns", "prop_delay_ms")?
            .ok_or_else(|| Error::missing("PathStage", "prop_delay_ns"))?;
        let buffer_bytes = match get("buffer_bytes") {
            Some(val) => u64::from_value(val)?,
            None => return Err(Error::missing("PathStage", "buffer_bytes")),
        };
        let scheduler = match get("scheduler") {
            Some(val) => SchedulerKind::from_value(val)?,
            None => SchedulerKind::Fifo,
        };
        let ack_delay = time_field("ack_delay_ns", "ack_delay_ms")?.unwrap_or(prop_delay);
        let random_loss = match get("random_loss") {
            Some(val) => val.as_f64().ok_or_else(|| Error::expected("number", val))?,
            None => 0.0,
        };
        let reorder = match get("reorder") {
            Some(val) => Option::<ReorderCfg>::from_value(val)?,
            None => None,
        };
        let jitter = time_field("jitter_ns", "jitter_ms")?;
        let cross = match get("cross") {
            Some(val) => Vec::<CrossTrafficCfg>::from_value(val)?,
            None => Vec::new(),
        };
        Ok(Self {
            config: PathConfig {
                rate,
                prop_delay,
                buffer_bytes,
                scheduler,
                ack_delay,
                random_loss,
                reorder,
                jitter,
            },
            cross,
        })
    }
}

impl Serialize for PathSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![("stages".into(), self.stages.to_value())])
    }
}

impl Deserialize for PathSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        use serde::{Error, Value};
        // A bare stage array is accepted as shorthand for `{"stages": [...]}`.
        let stages_val = match v {
            Value::Array(_) => v,
            Value::Object(_) => {
                v.get("stages").ok_or_else(|| Error::missing("PathSpec", "stages"))?
            }
            other => return Err(Error::expected("path spec object or stage array", other)),
        };
        let items = stages_val.as_array().ok_or_else(|| Error::expected("array", stages_val))?;
        let stage = |(k, v)| {
            PathStage::from_value(v).map_err(|e: Error| Error(format!("stage {k}: {}", e.0)))
        };
        Ok(Self { stages: items.iter().enumerate().map(stage).collect::<Result<_, _>>()? })
    }
}

/// Configuration of one congestion-controlled flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Trace label (becomes `FlowMeta::run`).
    pub label: String,
    /// When the flow starts sending.
    pub start: SimTime,
    /// When the flow stops sending (in-flight packets still drain).
    pub stop: SimTime,
    /// Wire size of every data packet.
    pub packet_size: u32,
    /// Whether to record this flow's input-output trace in the output.
    pub record: bool,
}

impl FlowConfig {
    /// A recorded bulk flow running `[ZERO, duration)` with the default
    /// packet size.
    pub fn bulk(label: impl Into<String>, duration: SimTime) -> Self {
        Self {
            label: label.into(),
            start: SimTime::ZERO,
            stop: duration,
            packet_size: DEFAULT_PACKET_SIZE,
            record: true,
        }
    }

    /// Same, but starting at `start` and stopping at `stop`.
    pub fn scheduled(label: impl Into<String>, start: SimTime, stop: SimTime) -> Self {
        Self { label: label.into(), start, stop, packet_size: DEFAULT_PACKET_SIZE, record: true }
    }

    /// Mark this flow as unrecorded (e.g. adaptive cross traffic).
    pub fn unrecorded(mut self) -> Self {
        self.record = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_path_defaults() {
        let p = PathConfig::simple(10e6, SimTime::from_millis(20), 150_000);
        assert_eq!(p.check(), Ok(()));
        assert_eq!(p.ack_delay, p.prop_delay);
        assert_eq!(p.random_loss, 0.0);
        assert!(p.reorder.is_none());
        assert_eq!(p.scheduler, SchedulerKind::Fifo);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_rejected() {
        let mut p = PathConfig::simple(1e6, SimTime::from_millis(10), 10_000);
        p.random_loss = 1.5;
        PathSpec::single(p).validate();
    }

    #[test]
    #[should_panic(expected = "reorder delay range")]
    fn inverted_reorder_range_rejected() {
        let mut p = PathConfig::simple(1e6, SimTime::from_millis(10), 10_000);
        p.reorder = Some(ReorderCfg {
            probability: 0.1,
            extra_min: SimTime::from_millis(10),
            extra_max: SimTime::from_millis(5),
        });
        PathSpec::single(p).validate();
    }

    #[test]
    fn flow_builders() {
        let f = FlowConfig::bulk("main", SimTime::from_secs(30));
        assert!(f.record);
        assert_eq!(f.start, SimTime::ZERO);
        let g =
            FlowConfig::scheduled("ct", SimTime::from_secs(5), SimTime::from_secs(15)).unrecorded();
        assert!(!g.record);
        assert_eq!(g.stop, SimTime::from_secs(15));
    }

    #[test]
    fn path_config_serde_roundtrip() {
        let p = PathConfig::simple(5e6, SimTime::from_millis(30), 60_000);
        let json = serde_json::to_string(&p).unwrap();
        let back: PathConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn path_spec_single_matches_config() {
        let cfg = PathConfig::simple(8e6, SimTime::from_millis(15), 90_000);
        let spec = PathSpec::single(cfg.clone());
        spec.validate();
        assert!(spec.is_single());
        assert_eq!(spec.len(), 1);
        assert_eq!(spec.first(), &cfg);
        assert_eq!(spec.total_prop_delay(), cfg.prop_delay);
        assert_eq!(spec.total_ack_delay(), cfg.ack_delay);
        assert_eq!(spec.bottleneck_rate_bps(), 8e6);
    }

    #[test]
    fn path_spec_chain_aggregates() {
        let spec = PathSpec::from_stages(vec![
            PathStage::new(PathConfig::simple(20e6, SimTime::from_millis(5), 100_000)),
            PathStage::new(PathConfig::simple(5e6, SimTime::from_millis(30), 60_000)),
            PathStage::new(PathConfig::simple(50e6, SimTime::from_millis(2), 250_000)),
        ]);
        spec.validate();
        assert_eq!(spec.len(), 3);
        assert!(!spec.is_single());
        assert_eq!(spec.total_prop_delay(), SimTime::from_millis(37));
        assert_eq!(spec.bottleneck_rate_bps(), 5e6);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_path_spec_rejected() {
        PathSpec { stages: Vec::new() }.validate();
    }

    /// `check()` reports what `validate()` would panic on — naming the
    /// stage and the field — and the reader rejects times no `SimTime`
    /// can hold.
    #[test]
    fn hostile_stages_are_sentences_naming_stage_and_field() {
        let ok = r#"{"rate_bps": 5e6, "prop_delay_ms": 10, "buffer_bytes": 60000}"#;
        for (stage, stage_idx, field) in [
            (r#"{"rate_bps": 5e6, "prop_delay_ms": 10, "buffer_bytes": 0}"#, 1, "buffer_bytes"),
            (r#"{"rate_bps": 0, "prop_delay_ms": 10, "buffer_bytes": 60000}"#, 1, "rate"),
            (
                r#"{"rate_bps": 5e6, "prop_delay_ms": 10, "buffer_bytes": 60000, "random_loss": 2}"#,
                1,
                "random_loss",
            ),
            (
                r#"{"rate_bps": 5e6, "prop_delay_ms": 10, "buffer_bytes": 60000, "cross":
                    [{"Cbr": {"rate_bps": 1e6, "pkt_size": 1200, "start": 5, "stop": 5}}]}"#,
                1,
                "cross[0]",
            ),
            (
                r#"{"rate_bps": 5e6, "prop_delay_ms": 10, "buffer_bytes": 60000, "reorder":
                    {"probability": 0.1, "extra_min": 9, "extra_max": 3}}"#,
                1,
                "reorder",
            ),
            (
                r#"{"rate_bps": 5e6, "prop_delay_ms": 10, "buffer_bytes": 60000, "scheduler":
                    {"Codel": {"target": 0, "interval": 0}}}"#,
                1,
                "scheduler",
            ),
        ] {
            let spec: PathSpec = serde_json::from_str(&format!("[{ok}, {stage}]")).unwrap();
            let err = spec.check().unwrap_err();
            assert!(err.contains(&format!("stage {stage_idx}: {field}: ")), "{err}");
            assert!(std::panic::catch_unwind(|| spec.validate()).is_err(), "validate must panic");
        }
        let negative = r#"{"rate_bps": 5e6, "prop_delay_ms": -4, "buffer_bytes": 60000}"#;
        let err = serde_json::from_str::<PathSpec>(&format!("[{ok}, {negative}]")).unwrap_err();
        assert!(err.to_string().contains("stage 1: prop_delay_ms must be finite"), "{err}");
    }

    #[test]
    fn path_spec_serde_roundtrip_is_byte_stable() {
        let mut stage = PathStage::new(PathConfig::simple(5e6, SimTime::from_millis(30), 60_000));
        stage.config.random_loss = 0.01;
        stage.config.jitter = Some(SimTime::from_micros(500));
        stage.cross.push(crate::crosstraffic::CrossTrafficCfg::cbr(
            1e6,
            SimTime::ZERO,
            SimTime::from_secs(5),
        ));
        let spec = PathSpec::from_stages(vec![
            stage,
            PathStage::new(PathConfig::simple(20e6, SimTime::from_millis(5), 100_000)),
        ]);
        let json = serde_json::to_string(&spec).unwrap();
        let back: PathSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // Canonical form re-serializes byte-identically.
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn path_spec_accepts_friendly_aliases() {
        let json = r#"[
            {"rate_bps": 5e6, "prop_delay_ms": 30.0, "buffer_bytes": 60000},
            {"rate_bps": 2e7, "prop_delay_ms": 5.0, "buffer_bytes": 100000,
             "jitter_ms": 0.5, "random_loss": 0.01}
        ]"#;
        let spec: PathSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec.len(), 2);
        assert_eq!(
            spec.stages[0].config,
            PathConfig::simple(5e6, SimTime::from_millis(30), 60_000)
        );
        assert_eq!(spec.stages[1].config.jitter, Some(SimTime::from_micros(500)));
        assert_eq!(spec.stages[1].config.random_loss, 0.01);
        assert_eq!(spec.stages[1].config.ack_delay, SimTime::from_millis(5));
    }

    #[test]
    fn fluid_unsupported_reason_covers_stage_features() {
        let ok = PathSpec::from_stages(vec![
            PathStage::new(PathConfig::simple(5e6, SimTime::from_millis(10), 60_000)),
            PathStage::new(PathConfig::simple(9e6, SimTime::from_millis(4), 80_000)),
        ]);
        assert!(ok.fluid_unsupported_reason(false).is_none());
        assert!(ok.fluid_unsupported_reason(true).unwrap().contains("hybrid"));

        let mut aqm = ok.clone();
        aqm.stages[1].config.scheduler = SchedulerKind::Codel {
            target: SimTime::from_millis(5),
            interval: SimTime::from_millis(100),
        };
        assert!(aqm.fluid_unsupported_reason(false).unwrap().contains("stage 1"));

        let single = PathSpec::single(PathConfig::simple(5e6, SimTime::from_millis(10), 60_000));
        assert!(single.fluid_unsupported_reason(true).is_none());
    }
}
