//! The one front door to a replay.
//!
//! A fitted path is a reusable artifact (§2): fit once, then replay any
//! protocol through it — and get the same counterfactual however the
//! question was asked. [`ReplayRequest`] is where that holds: the five
//! replay options are defaulted, validated and turned into a simulation
//! here and nowhere else. `POST /replay` (body → request), `ibox replay` /
//! `ibox simulate` (flags → request) and batch execution (`RunSpec` →
//! request) are adapters over it. DESIGN.md §Model artifacts tabulates
//! the options, their bounds and their spelling per surface.

use serde::{Deserialize, Value};

use ibox_runner::{Fidelity, RunSpec};
use ibox_sim::{PathSpec, SimTime};
use ibox_trace::FlowTrace;

use crate::artifact::ModelArtifact;
use crate::model::ReplayOpts;

/// What to replay through a fitted model. Build one with
/// [`ReplayRequest::new`] (the defaults), [`ReplayRequest::from_value`] (a
/// JSON object) or [`ReplayRequest::from_spec`] (a batch run), then
/// [`run`](ReplayRequest::run) it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRequest {
    /// Congestion-control protocol to drive through the model.
    pub protocol: String,
    /// Replay duration, seconds.
    pub duration_s: f64,
    /// Simulation seed.
    pub seed: u64,
    /// Replay engine fidelity.
    pub fidelity: Fidelity,
    /// Composed path to replay through instead of the recorded one.
    pub path: Option<PathSpec>,
}

/// Read an optional typed field of a JSON request object; an absent or
/// `null` key is `None`, a mistyped one an error naming the field.
pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, String> {
    match v.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => T::from_value(x).map(Some).map_err(|e| format!("field {name:?}: {e}")),
    }
}

/// Read a composed path from a JSON file (a bare stage array or
/// `{"stages": [...]}`) — what `ibox replay --path` takes.
pub fn load_path(file: &str) -> Result<PathSpec, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("bad path spec {file}: {e}"))
}

impl ReplayRequest {
    /// `protocol` with every other option at its default: 30 s, seed 1,
    /// packet fidelity, the recorded path.
    pub fn new(protocol: impl Into<String>) -> Self {
        Self {
            protocol: protocol.into(),
            duration_s: 30.0,
            seed: 1,
            fidelity: Fidelity::Packet,
            path: None,
        }
    }

    /// Read the options out of a JSON object (a `/replay` body); keys other
    /// than the five are the caller's.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let protocol: Option<String> = field(v, "protocol")?;
        let d = Self::new(protocol.ok_or("missing field \"protocol\"")?);
        Ok(Self {
            duration_s: field(v, "duration_s")?.unwrap_or(d.duration_s),
            seed: field(v, "seed")?.unwrap_or(d.seed),
            fidelity: field(v, "fidelity")?.unwrap_or(d.fidelity),
            path: field(v, "path")?,
            ..d
        })
    }

    /// The replay half of a batch run, including the one parse of its
    /// opaque `path` value.
    pub fn from_spec(spec: &RunSpec) -> Result<Self, String> {
        let path = spec.path.as_ref().map(PathSpec::from_value).transpose();
        Ok(Self {
            protocol: spec.protocol.clone(),
            duration_s: spec.duration_s,
            seed: spec.seed,
            fidelity: spec.fidelity,
            path: path.map_err(|e| format!("bad path spec: {}", e.0))?,
        })
    }

    /// Validate the request without running it: everything an engine
    /// would otherwise assert, as one sentence.
    pub fn check(&self) -> Result<(), String> {
        self.resolve(None).map(drop)
    }

    /// Replay through `artifact`'s model (wrap a bare fit with
    /// [`ModelArtifact::new`]).
    pub fn run(&self, artifact: &ModelArtifact) -> Result<FlowTrace, String> {
        let (duration, path) = self.resolve(artifact.path.as_ref())?;
        let opts =
            ReplayOpts { fidelity: self.fidelity, path: path.cloned(), ..ReplayOpts::default() };
        Ok(artifact.model.simulate_with(&self.protocol, duration, self.seed, opts))
    }

    /// Check every option and pick the path that applies — the
    /// recorded-path rule: the request's `path`, else a *multi-stage* one
    /// recorded in the artifact, else `None`, the model's own bottleneck. A
    /// recorded 1-stage path is that same bottleneck and is skipped, so
    /// replays of ordinary fits stay byte-identical to pre-chain builds.
    fn resolve<'a>(
        &'a self,
        recorded: Option<&'a PathSpec>,
    ) -> Result<(SimTime, Option<&'a PathSpec>), String> {
        if ibox_cc::by_name(&self.protocol).is_none() {
            return Err(format!("unknown protocol {:?}", self.protocol));
        }
        let duration = SimTime::positive_secs(self.duration_s)?;
        let path = self.path.as_ref().or(recorded.filter(|p| !p.is_single()));
        if let Some(p) = path {
            p.check()?;
        }
        Ok((duration, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Result<ReplayRequest, String> {
        ReplayRequest::from_value(&serde_json::parse_value(body).unwrap())
    }

    #[test]
    fn defaults_are_owned_here_and_null_means_absent() {
        let req = parse(r#"{"protocol": "vegas", "seed": null, "model": "ignored"}"#).unwrap();
        assert_eq!(req, ReplayRequest::new("vegas"));
        assert_eq!((req.duration_s, req.seed, req.fidelity), (30.0, 1, Fidelity::Packet));
        assert!(req.path.is_none());
        assert!(parse(r#"{"seed": 3}"#).unwrap_err().contains("missing field \"protocol\""));
        let err = parse(r#"{"protocol": "cubic", "duration_s": "long"}"#).unwrap_err();
        assert!(err.contains("field \"duration_s\""), "{err}");
    }

    #[test]
    fn check_rejects_what_an_engine_would_assert() {
        let ok = ReplayRequest::new("cubic");
        assert_eq!(ok.check(), Ok(()));
        let with = |f: &dyn Fn(&mut ReplayRequest)| {
            let mut r = ok.clone();
            f(&mut r);
            r.check().unwrap_err()
        };
        assert!(with(&|r| r.protocol = "warp".into()).contains("unknown protocol \"warp\""));
        for bad in [-5.0, 0.0, 1e-12, f64::NAN, f64::INFINITY] {
            let err = with(&|r| r.duration_s = bad);
            assert!(err.contains("duration must be a positive number of seconds"), "{err}");
        }
        let err = with(&|r| r.path = Some(PathSpec::from_stages(Vec::new())));
        assert!(err.contains("at least one stage"), "{err}");
        let hostile = r#"[{"rate_bps": 5e6, "prop_delay_ms": 10, "buffer_bytes": 0}]"#;
        let err = with(&|r| r.path = Some(serde_json::from_str(hostile).unwrap()));
        assert!(err.contains("stage 0: buffer_bytes"), "{err}");
    }
}
