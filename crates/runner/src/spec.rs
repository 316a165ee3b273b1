//! Typed job specifications: what to run, decoupled from how it runs.
//!
//! A [`RunSpec`] names one scenario — where the training/ground-truth
//! data comes from ([`RunSource`]), which protocol to replay, for how
//! long, under which seed, and which model family ([`ModelKind`]) to fit.
//! A [`BatchSpec`] is a list of runs plus a `jobs` parallelism knob.
//! Both are plain serde data: a batch round-trips through JSON, so
//! experiment definitions live in files (`ibox batch experiments.json`)
//! instead of positional-argument call sites.
//!
//! Execution lives elsewhere (`ibox::batch`): this crate stays
//! domain-light so every layer — testbed, core, bench, CLI — can depend
//! on it without cycles.

use serde::{Deserialize, Serialize};

/// Replay fidelity: how the bottleneck is simulated during a replay.
///
/// Serializes as a lowercase string (`"packet"` | `"flow"` | `"hybrid"`),
/// which is also the spelling accepted by `ibox replay --fidelity` and the
/// `/replay` HTTP body. Absent spec fields deserialize to
/// [`Fidelity::Packet`] (`#[serde(default)]` on [`RunSpec::fidelity`]), so
/// every pre-existing batch file keeps its exact behavior.
///
/// Fidelity never enters the fit-cache key: fitting consumes the training
/// trace only, so a fitted artifact is shared across fidelity levels and
/// only the replay step changes engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Per-packet discrete-event simulation — bit-exact reference, the
    /// default everywhere.
    #[default]
    Packet,
    /// Flow-level fluid integration: per-flow rates and queue occupancy
    /// advance across piecewise-constant intervals. 10–100x faster,
    /// distributionally (not per-packet) accurate.
    Flow,
    /// Fluid fast path that falls back to the packet engine inside
    /// congestion episodes (queue near capacity, loss onset), splicing
    /// congestion-control state across the boundary.
    Hybrid,
}

impl Fidelity {
    /// The canonical lowercase spelling (serde/CLI/HTTP form).
    pub fn as_str(self) -> &'static str {
        match self {
            Fidelity::Packet => "packet",
            Fidelity::Flow => "flow",
            Fidelity::Hybrid => "hybrid",
        }
    }

    /// All fidelity levels, in increasing-approximation order.
    pub const ALL: [Fidelity; 3] = [Fidelity::Packet, Fidelity::Flow, Fidelity::Hybrid];
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Fidelity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "packet" => Ok(Fidelity::Packet),
            "flow" => Ok(Fidelity::Flow),
            "hybrid" => Ok(Fidelity::Hybrid),
            other => Err(format!(
                "unknown fidelity {other:?} (expected \"packet\", \"flow\", or \"hybrid\")"
            )),
        }
    }
}

impl Serialize for Fidelity {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Fidelity {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => s.parse().map_err(serde::Error),
            other => Err(serde::Error::expected(
                "a fidelity string (\"packet\" | \"flow\" | \"hybrid\")",
                other,
            )),
        }
    }
}

/// Training configuration for [`ModelKind::IBoxMl`], kept domain-light
/// (plain numbers, no `crates/ml` types) so the runner stays dependency-free.
/// The executor in `ibox::model` translates it into an `IBoxMlConfig`.
///
/// Every field defaults on deserialize (container-level
/// `#[serde(default)]`), so batch files may spell `{"IBoxMl": {}}` or
/// override only what they need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct IBoxMlSpec {
    /// Hidden sizes of the recurrent stack.
    pub hidden_sizes: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Truncated-BPTT window length.
    pub tbptt: usize,
    /// Include the estimated cross-traffic feature column.
    pub with_cross_traffic: bool,
    /// Weight-init and sampling seed.
    pub seed: u64,
}

impl Default for IBoxMlSpec {
    fn default() -> Self {
        Self {
            hidden_sizes: vec![32, 32],
            epochs: 15,
            lr: 3e-3,
            tbptt: 64,
            with_cross_traffic: false,
            seed: 17,
        }
    }
}

/// Which model family to fit in a run (paper Figs. 2–3, §4 for iBoxML).
///
/// The unit variants serialize as plain strings (`"model": "IBoxNet"`), so
/// pre-existing batch files keep parsing; [`ModelKind::IBoxMl`] carries its
/// training config and serializes externally tagged
/// (`"model": {"IBoxMl": {...}}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Full iBoxNet: `(b, d, B)` + estimated cross traffic.
    IBoxNet,
    /// Ablation: iBoxNet without the cross-traffic input (Fig. 3a).
    IBoxNetNoCross,
    /// Baseline: calibrated emulator with statistical loss (Fig. 3b).
    StatisticalLoss,
    /// Extension: iBoxNet plus an estimated reordering stage in the
    /// emulated path — melding the §5.1 discovery back into the emulator.
    IBoxNetReorder,
    /// Learned state-space model (paper §4): recurrent delay/loss heads
    /// driven through a fitted iBoxNet send-pattern driver.
    IBoxMl(IBoxMlSpec),
}

impl ModelKind {
    /// Display name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::IBoxNet => "iBoxNet",
            ModelKind::IBoxNetNoCross => "iBoxNet w/o CT",
            ModelKind::StatisticalLoss => "Statistical loss",
            ModelKind::IBoxNetReorder => "iBoxNet + reorder (ext)",
            ModelKind::IBoxMl(_) => "iBoxML",
        }
    }

    /// The seed the *fit* consumes (cache-key component). The emulator
    /// kinds fit deterministically from the trace alone, so their fit seed
    /// is 0; iBoxML's weight init and sampling derive from its spec seed.
    pub fn fit_seed(&self) -> u64 {
        match self {
            ModelKind::IBoxMl(spec) => spec.seed,
            _ => 0,
        }
    }

    /// The emulator-replay evaluation set, in order (iBoxML, which needs a
    /// training config and ~100× the fit time, is constructed explicitly
    /// via [`ModelKind::IBoxMl`]).
    pub fn all() -> [ModelKind; 4] {
        [
            ModelKind::IBoxNet,
            ModelKind::IBoxNetNoCross,
            ModelKind::StatisticalLoss,
            ModelKind::IBoxNetReorder,
        ]
    }
}

/// Where a run's training/ground-truth data comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunSource {
    /// Synthesize a ground-truth trace from a testbed profile: run
    /// `protocol` over `profile` sampled at `seed`, then fit the spec's
    /// model on it.
    Synth {
        /// Testbed profile name (e.g. `india-cellular`, `ethernet`).
        profile: String,
        /// Protocol that generates the training trace.
        protocol: String,
        /// Seed for sampling the path instance and the training run.
        seed: u64,
    },
    /// Load a training trace from a `.json`/`.csv` file and fit the
    /// spec's model on it.
    TraceFile {
        /// Path to the trace file.
        path: String,
    },
    /// Load an already-fitted model artifact (the output of `ibox fit`;
    /// legacy bare iBoxNet profiles are also accepted) and only replay —
    /// no fitting. The spec's `model` is ignored.
    ProfileFile {
        /// Path to the fitted-profile JSON.
        path: String,
    },
}

/// One scenario: source, protocol to replay, duration, seed, model kind.
///
/// Construct with [`RunSpec::builder`]. All randomness in a run derives
/// from the spec itself (`seed`, and `source` seeds), which is what makes
/// batches reproducible at any parallelism.
///
/// `fidelity` and `path` postdate the first batch files and default when
/// absent; every other field is required. Unknown keys are ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Optional human-readable label echoed into results (empty = none).
    pub id: String,
    /// Where the training/ground-truth data comes from.
    pub source: RunSource,
    /// Protocol replayed through the fitted model.
    pub protocol: String,
    /// Replay duration, seconds.
    pub duration_s: f64,
    /// Seed for the replay simulation.
    pub seed: u64,
    /// Model family to fit (ignored for [`RunSource::ProfileFile`]).
    pub model: ModelKind,
    /// Replay engine fidelity (default [`Fidelity::Packet`]). `flow` and
    /// `hybrid` trade per-packet exactness for 10–100x replay throughput.
    #[serde(default)]
    pub fidelity: Fidelity,
    /// Optional composed path to replay through — raw JSON in the shape
    /// of `ibox_sim::PathSpec` (an array of stages, or `{"stages":
    /// [...]}`). Kept as an opaque [`serde::Value`] so this crate stays
    /// domain-light; `ibox::ReplayRequest` parses and validates it. `None`
    /// (the default) replays through the artifact's recorded path.
    #[serde(default)]
    pub path: Option<serde::Value>,
}

impl RunSpec {
    /// Start building a spec (defaults: 30 s, seed 1, [`ModelKind::IBoxNet`]).
    pub fn builder() -> RunSpecBuilder {
        RunSpecBuilder::default()
    }

    /// A worker-local seed derived from this spec and a caller salt
    /// (SplitMix64 over `seed ^ salt`): stable across `jobs` values,
    /// decorrelated across salts.
    pub fn derive_seed(&self, salt: u64) -> u64 {
        let mut z = self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Builder for [`RunSpec`]. `source` and `protocol` are mandatory.
#[derive(Debug, Clone, Default)]
pub struct RunSpecBuilder {
    id: String,
    source: Option<RunSource>,
    protocol: Option<String>,
    duration_s: Option<f64>,
    seed: Option<u64>,
    model: Option<ModelKind>,
    fidelity: Option<Fidelity>,
    path: Option<serde::Value>,
}

impl RunSpecBuilder {
    /// Human-readable label echoed into results.
    pub fn id(mut self, id: impl Into<String>) -> Self {
        self.id = id.into();
        self
    }

    /// Source: synthesize the training trace from a testbed profile.
    pub fn synth(
        mut self,
        profile: impl Into<String>,
        protocol: impl Into<String>,
        seed: u64,
    ) -> Self {
        self.source =
            Some(RunSource::Synth { profile: profile.into(), protocol: protocol.into(), seed });
        self
    }

    /// Source: fit on a trace file.
    pub fn trace_file(mut self, path: impl Into<String>) -> Self {
        self.source = Some(RunSource::TraceFile { path: path.into() });
        self
    }

    /// Source: replay an already-fitted profile file.
    pub fn profile_file(mut self, path: impl Into<String>) -> Self {
        self.source = Some(RunSource::ProfileFile { path: path.into() });
        self
    }

    /// Protocol replayed through the model.
    pub fn protocol(mut self, protocol: impl Into<String>) -> Self {
        self.protocol = Some(protocol.into());
        self
    }

    /// Replay duration in seconds (default 30).
    pub fn duration_s(mut self, secs: f64) -> Self {
        self.duration_s = Some(secs);
        self
    }

    /// Replay seed (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Model family to fit (default [`ModelKind::IBoxNet`]).
    pub fn model(mut self, model: ModelKind) -> Self {
        self.model = Some(model);
        self
    }

    /// Replay engine fidelity (default [`Fidelity::Packet`]).
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = Some(fidelity);
        self
    }

    /// Composed path to replay through, as raw `PathSpec`-shaped JSON
    /// (default: the model's own fitted single-bottleneck path).
    pub fn path(mut self, path: serde::Value) -> Self {
        self.path = Some(path);
        self
    }

    /// Build; needs a source and a protocol. Replay options are validated
    /// where the run executes (`ibox::ReplayRequest`), as for a batch file.
    pub fn build(self) -> Result<RunSpec, String> {
        let source = self.source.ok_or("RunSpec needs a source (synth/trace_file/profile_file)")?;
        let protocol = self.protocol.ok_or("RunSpec needs a protocol")?;
        Ok(RunSpec {
            id: self.id,
            source,
            protocol,
            duration_s: self.duration_s.unwrap_or(30.0),
            seed: self.seed.unwrap_or(1),
            model: self.model.unwrap_or(ModelKind::IBoxNet),
            fidelity: self.fidelity.unwrap_or_default(),
            path: self.path,
        })
    }
}

/// A set of [`RunSpec`]s plus a parallelism knob. Round-trips through
/// JSON (`ibox batch <file.json>`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSpec {
    /// Worker threads: `0` = auto (all cores). Affects wall time only,
    /// never results — see the determinism contract in [`crate::pool`].
    pub jobs: usize,
    /// The scenarios to run.
    pub runs: Vec<RunSpec>,
}

impl BatchSpec {
    /// Start building a batch.
    pub fn builder() -> BatchSpecBuilder {
        BatchSpecBuilder::default()
    }

    /// Serialize to pretty JSON (stable field order — byte-reproducible).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("BatchSpec serialization cannot fail")
    }

    /// Parse from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("bad batch spec: {e}"))
    }
}

/// Builder for [`BatchSpec`]; needs at least one run.
#[derive(Debug, Clone, Default)]
pub struct BatchSpecBuilder {
    jobs: usize,
    runs: Vec<RunSpec>,
}

impl BatchSpecBuilder {
    /// Worker threads (`0` = auto).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Append one run.
    pub fn run(mut self, spec: RunSpec) -> Self {
        self.runs.push(spec);
        self
    }

    /// Append many runs.
    pub fn runs(mut self, specs: impl IntoIterator<Item = RunSpec>) -> Self {
        self.runs.extend(specs);
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<BatchSpec, String> {
        if self.runs.is_empty() {
            return Err("BatchSpec needs at least one run".into());
        }
        Ok(BatchSpec { jobs: self.jobs, runs: self.runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> RunSpec {
        RunSpec::builder()
            .id("r0")
            .synth("india-cellular", "cubic", 2_000)
            .protocol("vegas")
            .duration_s(10.0)
            .seed(7)
            .model(ModelKind::IBoxNetNoCross)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_fills_defaults_and_validates() {
        let spec = RunSpec::builder().trace_file("t.json").protocol("cubic").build().unwrap();
        assert_eq!(spec.duration_s, 30.0);
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.model, ModelKind::IBoxNet);
        assert!(spec.id.is_empty());

        assert!(RunSpec::builder().protocol("cubic").build().is_err(), "source required");
        assert!(RunSpec::builder().trace_file("t.json").build().is_err(), "protocol required");
    }

    #[test]
    fn batch_roundtrips_through_json() {
        let batch = BatchSpec::builder().jobs(4).run(sample_spec()).build().unwrap();
        let back = BatchSpec::from_json(&batch.to_json()).unwrap();
        assert_eq!(back, batch);
        // And the serialized form is byte-stable.
        assert_eq!(back.to_json(), batch.to_json());
    }

    #[test]
    fn runspec_without_fidelity_field_still_parses() {
        // Batch files written before the knob existed must keep working,
        // and must mean the exact pre-knob behavior: packet fidelity.
        let mut json = sample_spec().to_value();
        if let serde::Value::Object(fields) = &mut json {
            fields.retain(|(k, _)| k != "fidelity");
        }
        let spec = RunSpec::from_value(&json).unwrap();
        assert_eq!(spec.fidelity, Fidelity::Packet, "absent field defaults to packet");
        assert_eq!(spec, sample_spec());
        // But every pre-existing field is still required.
        let err =
            RunSpec::from_value(&serde_json::parse_value(r#"{"id": "x"}"#).unwrap()).unwrap_err();
        assert!(err.0.contains("missing field"), "{}", err.0);
    }

    #[test]
    fn runspec_without_path_field_still_parses() {
        // Batch files written before composed paths existed keep working,
        // and `"path": null` means the same as an absent field.
        let mut json = sample_spec().to_value();
        if let serde::Value::Object(fields) = &mut json {
            fields.retain(|(k, _)| k != "path");
        }
        let spec = RunSpec::from_value(&json).unwrap();
        assert!(spec.path.is_none(), "absent field defaults to the fitted path");
        assert_eq!(spec, sample_spec());
        if let serde::Value::Object(fields) = &mut json {
            fields.push(("path".into(), serde::Value::Null));
        }
        assert_eq!(RunSpec::from_value(&json).unwrap(), sample_spec());

        // A composed path rides along verbatim (the executor parses it).
        let raw = serde_json::parse_value(
            r#"[{"rate_bps": 5e6, "prop_delay_ms": 10, "buffer_bytes": 60000}]"#,
        )
        .unwrap();
        let spec = RunSpec::builder()
            .trace_file("t.json")
            .protocol("cubic")
            .path(raw.clone())
            .build()
            .unwrap();
        assert_eq!(spec.path.as_ref(), Some(&raw));
        let back = RunSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn fidelity_parses_and_rejects_unknown_strings() {
        for f in Fidelity::ALL {
            assert_eq!(f.as_str().parse::<Fidelity>().unwrap(), f);
            assert_eq!(Fidelity::from_value(&f.to_value()).unwrap(), f);
            assert_eq!(format!("{f}"), f.as_str());
        }
        assert!("Packet".parse::<Fidelity>().is_err(), "spelling is lowercase");
        let err = Fidelity::from_value(&serde::Value::Str("fluid".into())).unwrap_err();
        assert!(err.0.contains("unknown fidelity"), "{}", err.0);
        assert!(Fidelity::from_value(&serde::Value::U64(1)).is_err());

        let spec = RunSpec::builder()
            .trace_file("t.json")
            .protocol("cubic")
            .fidelity(Fidelity::Hybrid)
            .build()
            .unwrap();
        assert_eq!(spec.fidelity, Fidelity::Hybrid);
    }

    #[test]
    fn empty_batch_rejected() {
        assert!(BatchSpec::builder().jobs(2).build().is_err());
    }

    #[test]
    fn derived_seeds_are_stable_and_decorrelated() {
        let spec = sample_spec();
        assert_eq!(spec.derive_seed(1), spec.derive_seed(1));
        assert_ne!(spec.derive_seed(1), spec.derive_seed(2));
    }

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::IBoxNet.name(), "iBoxNet");
        assert_eq!(ModelKind::IBoxMl(IBoxMlSpec::default()).name(), "iBoxML");
        assert_eq!(ModelKind::all().len(), 4);
    }

    #[test]
    fn unit_model_kinds_keep_string_serialization() {
        // Pre-existing batch files spell `"model": "IBoxNet"` — the IBoxMl
        // data variant must not change how the unit variants serialize.
        assert_eq!(serde_json::to_string(&ModelKind::IBoxNet).unwrap(), "\"IBoxNet\"");
        let back: ModelKind = serde_json::from_str("\"StatisticalLoss\"").unwrap();
        assert_eq!(back, ModelKind::StatisticalLoss);
    }

    #[test]
    fn iboxml_spec_defaults_fill_missing_fields() {
        let kind: ModelKind =
            serde_json::from_str(r#"{"IBoxMl": {"hidden_sizes": [8], "epochs": 2}}"#).unwrap();
        let ModelKind::IBoxMl(spec) = &kind else { panic!("expected IBoxMl") };
        assert_eq!(spec.hidden_sizes, vec![8]);
        assert_eq!(spec.epochs, 2);
        assert_eq!(spec.tbptt, IBoxMlSpec::default().tbptt);
        assert_eq!(spec.seed, 17);
        assert_eq!(kind.fit_seed(), 17);
        assert_eq!(ModelKind::IBoxNet.fit_seed(), 0);

        // Full round-trip through the externally tagged form.
        let json = serde_json::to_string(&kind).unwrap();
        let again: ModelKind = serde_json::from_str(&json).unwrap();
        assert_eq!(again, kind);
    }
}
