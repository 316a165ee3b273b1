//! Versioned model artifacts: a fitted model as a file.
//!
//! A [`ModelArtifact`] wraps a [`FittedModel`] in a small envelope —
//! schema version, model-kind name, config hash, provenance — and
//! round-trips through JSON such that the reloaded model **replays
//! byte-identically** to the in-memory original (test-enforced per
//! [`ModelKind`] in `tests/artifacts.rs`). The same serialized form is
//! what the fit cache ([`crate::cache`]) stores, so a cache hit is
//! guaranteed to behave exactly like a saved-then-loaded artifact.
//!
//! Loading returns a typed [`ArtifactError`] carrying the offending file
//! path (and, on version skew, both schema versions) instead of
//! panicking on malformed input — `ibox replay nonsense.json` must fail
//! with a sentence, not a backtrace.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use ibox_runner::ModelKind;
use ibox_sim::PathSpec;

use crate::iboxnet::IBoxNet;
use crate::model::{FittedModel, PathModel};

/// Artifact envelope schema version. Bump on any breaking change to the
/// envelope *or* to the serialized form of a fitted model; loaders reject
/// any other version by name rather than misinterpreting the payload.
///
/// History: v1 had no `path` field (the model always replayed its fitted
/// single-bottleneck spec); v2 records the replay path as an explicit
/// [`PathSpec`] stage chain; v3 adds optional lineage fields (`parent`,
/// `trace_digest`, `fit_seq`) for registry versioning — absent in v1/v2
/// artifacts. Every older form still loads: [`ModelArtifact::parse`]
/// upgrades it in memory to this version.
pub const MODEL_ARTIFACT_SCHEMA: u32 = 3;

/// Filename suffix for registry-managed artifacts (`<id>.artifact.json`).
/// Distinct from the fit cache's bare `<id>.json` entries (which hold a
/// serialized [`FittedModel`], not an envelope), so both can share one
/// `--model-cache` directory without colliding.
pub const ARTIFACT_FILE_SUFFIX: &str = ".artifact.json";

/// Why an artifact failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The file could not be read at all.
    Io {
        /// Path that failed to read.
        path: PathBuf,
        /// The underlying I/O error, stringified.
        detail: String,
    },
    /// The file read but is not valid artifact JSON.
    Parse {
        /// Path holding the malformed document.
        path: PathBuf,
        /// The serde error, stringified.
        detail: String,
    },
    /// The envelope parsed but declares an unsupported schema version.
    SchemaMismatch {
        /// Path holding the incompatible artifact.
        path: PathBuf,
        /// Version the file declares.
        found: u64,
        /// Version this build supports.
        supported: u32,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io { path, detail } => {
                write!(f, "cannot read model artifact {}: {detail}", path.display())
            }
            ArtifactError::Parse { path, detail } => {
                write!(f, "malformed model artifact {}: {detail}", path.display())
            }
            ArtifactError::SchemaMismatch { path, found, supported } => write!(
                f,
                "model artifact {} has schema version {found}, but this build supports \
                 version {supported} — refit the model or use a matching ibox version",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Lets `String`-erroring callers (CLI, batch executor) `?` a load.
impl From<ArtifactError> for String {
    fn from(e: ArtifactError) -> Self {
        e.to_string()
    }
}

/// A fitted model with its envelope: what `ibox fit -o` writes and
/// `ibox replay` loads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelArtifact {
    /// Envelope schema version ([`MODEL_ARTIFACT_SCHEMA`]).
    pub schema: u32,
    /// Display name of the [`ModelKind`] that produced the model.
    pub kind: String,
    /// `ibox_obs::config_hash` of the producing [`ModelKind`] — ties the
    /// artifact to its exact fit configuration (and doubles as the config
    /// component of the fit-cache key).
    pub config_hash: String,
    /// Name of the trace/path the model was fitted on.
    pub fitted_on: String,
    /// The fitted model itself.
    pub model: FittedModel,
    /// The replay path as an explicit stage chain (schema ≥ 2). Fresh
    /// fits record the model's own 1-stage spec; editing this field (or
    /// fitting with a composed-path option) replays the same fitted model
    /// through a different chain. Upgraded v1 artifacts get the model's
    /// 1-stage spec, which replays byte-identically to v1 behavior.
    pub path: Option<PathSpec>,
    /// Lineage (schema ≥ 3): registry id of the version this fit
    /// supersedes, e.g. `rtc-17-v2` for the third fit of an ingest
    /// session. `None` for one-shot fits and pre-v3 artifacts.
    pub parent: Option<String>,
    /// Lineage (schema ≥ 3): [`ibox_trace::FlowTrace::digest`] of the
    /// exact training trace, so replicas can verify they replay the same
    /// fit. `None` for pre-v3 artifacts.
    pub trace_digest: Option<String>,
    /// Lineage (schema ≥ 3): 1-based fit counter within a versioned
    /// lineage. `None` (treated as unversioned) for one-shot fits.
    pub fit_seq: Option<u64>,
}

impl ModelArtifact {
    /// Wrap a freshly fitted model in the current envelope.
    pub fn new(kind: &ModelKind, model: FittedModel) -> Self {
        let path = Some(model.path_spec());
        Self {
            schema: MODEL_ARTIFACT_SCHEMA,
            kind: kind.name().to_string(),
            config_hash: ibox_obs::config_hash(kind),
            fitted_on: model.fitted_on().to_string(),
            model,
            path,
            parent: None,
            trace_digest: None,
            fit_seq: None,
        }
    }

    /// Attach lineage metadata (builder-style): the version id this fit
    /// supersedes, the training-trace digest, and the fit counter.
    pub fn with_lineage(
        mut self,
        parent: Option<String>,
        trace_digest: String,
        fit_seq: u64,
    ) -> Self {
        self.parent = parent;
        self.trace_digest = Some(trace_digest);
        self.fit_seq = Some(fit_seq);
        self
    }

    /// Serialize to JSON (stable field order — byte-reproducible).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("artifact serialization cannot fail")
    }

    /// Parse any on-disk form of a fitted model, attributing failures to
    /// `origin`. The `schema` field picks where the document enters a
    /// linear upgrade chain: none — a bare iBoxNet profile, the
    /// pre-envelope `ibox fit` output, gets an envelope; 1 — gets the
    /// model's own 1-stage `path`; 2 — its absent lineage reads as `None`;
    /// 3 — current. A newer schema is a `SchemaMismatch`, anything else
    /// unreadable a `Parse` error — never a panic.
    pub fn parse(json: &str, origin: &Path) -> Result<Self, ArtifactError> {
        let malformed =
            |detail: String| ArtifactError::Parse { path: origin.to_path_buf(), detail };
        let doc = serde_json::parse_value(json).map_err(|e| malformed(e.to_string()))?;
        let found = doc.get("schema").map(u64::from_value).transpose();
        let found = found.map_err(|e| malformed(e.to_string()))?;
        let mut artifact = match found {
            None => {
                let net = IBoxNet::from_value(&doc).map_err(|_| {
                    malformed("missing \"schema\" field — not a model artifact".into())
                })?;
                Self::new(&ModelKind::IBoxNet, FittedModel::IBoxNet(net))
            }
            Some(1..=3) => Self::from_value(&doc).map_err(|e| malformed(e.to_string()))?,
            Some(v) => {
                return Err(ArtifactError::SchemaMismatch {
                    path: origin.to_path_buf(),
                    found: v,
                    supported: MODEL_ARTIFACT_SCHEMA,
                })
            }
        };
        if found == Some(1) {
            artifact.path = Some(artifact.model.path_spec());
        }
        artifact.schema = MODEL_ARTIFACT_SCHEMA;
        Ok(artifact)
    }

    /// Load from disk: the one reader for every on-disk form.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ArtifactError::Io { path: path.to_path_buf(), detail: e.to_string() })?;
        Self::parse(&text, path)
    }

    /// Path of the registry file for model `id` under `dir`
    /// (`<dir>/<id>.artifact.json`).
    pub fn registry_path(dir: &Path, id: &str) -> PathBuf {
        dir.join(format!("{id}{ARTIFACT_FILE_SUFFIX}"))
    }

    /// Save to disk as JSON, atomically ([`write_atomic`]).
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        write_atomic(path, self.to_json().as_bytes())
            .map_err(|e| ArtifactError::Io { path: path.to_path_buf(), detail: e.to_string() })
    }
}

/// Write `bytes` to `path` so that a reader — or a crash — sees the old
/// file or the whole new one, never a prefix: the bytes go to
/// `.<name>.tmp-<pid>-<n>` beside `path` and are renamed over it. Not
/// synced: a power loss may lose the new file, not tear it. Leftover temp
/// files are what `ModelRegistry::compact` sweeps.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().ok_or(std::io::ErrorKind::InvalidInput)?.to_string_lossy();
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{name}.tmp-{}-{unique}", std::process::id()));
    std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path)).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact() -> ModelArtifact {
        let train = ibox_testbed::run_protocol(
            &ibox_testbed::Profile::Ethernet
                .builder()
                .seed(2)
                .duration(ibox_sim::SimTime::from_secs(3))
                .sample(),
            "cubic",
            ibox_sim::SimTime::from_secs(3),
            2,
        );
        let kind = ModelKind::IBoxNet;
        ModelArtifact::new(&kind, crate::model::fit_model(&kind, &train))
    }

    #[test]
    fn envelope_roundtrips_and_is_byte_stable() {
        let artifact = sample_artifact();
        let json = artifact.to_json();
        let back = ModelArtifact::parse(&json, Path::new("mem")).unwrap();
        assert_eq!(back.schema, MODEL_ARTIFACT_SCHEMA);
        assert_eq!(back.kind, "iBoxNet");
        assert_eq!(back.config_hash, artifact.config_hash);
        assert_eq!(back.to_json(), json, "re-serialization must be byte-stable");
    }

    #[test]
    fn parse_failures_name_the_file() {
        let err = ModelArtifact::parse("{ not json", Path::new("/tmp/broken.json")).unwrap_err();
        assert!(matches!(err, ArtifactError::Parse { .. }));
        assert!(err.to_string().contains("/tmp/broken.json"), "{err}");

        let err = ModelArtifact::parse(r#"{"no_schema": 1}"#, Path::new("other.json")).unwrap_err();
        assert!(err.to_string().contains("not a model artifact"), "{err}");
    }

    #[test]
    fn schema_mismatch_names_both_versions() {
        let mut doc = sample_artifact().to_json();
        doc = doc.replacen(&format!("\"schema\":{MODEL_ARTIFACT_SCHEMA}"), "\"schema\":999", 1);
        let err = ModelArtifact::parse(&doc, Path::new("future.json")).unwrap_err();
        let ArtifactError::SchemaMismatch { found, supported, .. } = &err else {
            panic!("expected SchemaMismatch, got {err:?}");
        };
        assert_eq!(*found, 999);
        assert_eq!(*supported, MODEL_ARTIFACT_SCHEMA);
        let msg = err.to_string();
        assert!(
            msg.contains("future.json")
                && msg.contains("999")
                && msg.contains(&MODEL_ARTIFACT_SCHEMA.to_string()),
            "{msg}"
        );
    }

    /// v2 artifacts predate lineage: the fields must default to `None`
    /// rather than failing the parse, and fresh lineage must round-trip.
    #[test]
    fn lineage_defaults_and_roundtrips() {
        let artifact = sample_artifact();
        // Reconstruct a v2 document: schema 2, no lineage fields.
        let mut v = serde_json::parse_value(&artifact.to_json()).unwrap();
        if let serde::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "parent" && k != "trace_digest" && k != "fit_seq");
            for (k, val) in fields.iter_mut() {
                if k == "schema" {
                    *val = serde::Value::U64(2);
                }
            }
        }
        let v2_json = serde_json::to_string(&v).unwrap();
        let loaded = ModelArtifact::parse(&v2_json, Path::new("v2.json")).unwrap();
        assert_eq!(loaded.schema, MODEL_ARTIFACT_SCHEMA, "v2 upgrades in memory");
        assert_eq!(loaded.parent, None);
        assert_eq!(loaded.trace_digest, None);
        assert_eq!(loaded.fit_seq, None);

        let lineaged = artifact.with_lineage(Some("m-v1".into()), "fnv1a:00".into(), 2);
        let back = ModelArtifact::parse(&lineaged.to_json(), Path::new("mem")).unwrap();
        assert_eq!(back.parent.as_deref(), Some("m-v1"));
        assert_eq!(back.trace_digest.as_deref(), Some("fnv1a:00"));
        assert_eq!(back.fit_seq, Some(2));
    }

    /// Satellite: a schema-1 artifact (no `path` field) loads as a 1-stage
    /// chain and replays byte-identically to its v2 form.
    #[test]
    fn schema_1_artifacts_upgrade_to_a_one_stage_chain() {
        let artifact = sample_artifact();
        // Reconstruct the exact v1 serialization: version 1, no `path`.
        let mut v = serde_json::parse_value(&artifact.to_json()).unwrap();
        if let serde::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "path");
            for (k, val) in fields.iter_mut() {
                if k == "schema" {
                    *val = serde::Value::U64(1);
                }
            }
        }
        let v1_json = serde_json::to_string(&v).unwrap();
        let loaded = ModelArtifact::parse(&v1_json, Path::new("legacy.json")).unwrap();
        assert_eq!(loaded.schema, MODEL_ARTIFACT_SCHEMA);
        let spec = loaded.path.as_ref().expect("upgrade synthesizes a path");
        assert!(spec.is_single(), "v1 upgrades to a 1-stage chain");
        assert_eq!(*spec, loaded.model.path_spec());
        // And the replay is byte-identical to the v2 artifact's.
        let dur = ibox_sim::SimTime::from_secs(3);
        assert_eq!(
            loaded.model.simulate("vegas", dur, 7),
            artifact.model.simulate("vegas", dur, 7)
        );
    }

    /// The head of the upgrade chain: a pre-envelope bare iBoxNet profile
    /// loads through the one reader as the envelope a fresh fit would get.
    #[test]
    fn load_accepts_legacy_bare_profiles() {
        let artifact = sample_artifact();
        let FittedModel::IBoxNet(net) = &artifact.model else { panic!("iboxnet expected") };
        let dir = std::env::temp_dir();
        let legacy = dir.join("ibox_artifact_test_legacy.json");
        std::fs::write(&legacy, net.to_json()).unwrap();
        let loaded = ModelArtifact::load(&legacy).unwrap();
        assert_eq!(loaded.to_json(), artifact.to_json());
        let _ = std::fs::remove_file(&legacy);
    }
}
