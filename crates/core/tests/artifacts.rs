//! Property tests for model artifacts: a saved-then-loaded model replays
//! **byte-identically** to the in-memory original, for every
//! [`ModelKind`] — the core guarantee of the fit/replay split — and
//! version-skewed artifacts are rejected by name, not misread.

use std::path::Path;
use std::sync::OnceLock;

use proptest::prelude::*;

use ibox::{fit_model, ArtifactError, ModelArtifact, ModelKind, PathModel, MODEL_ARTIFACT_SCHEMA};
use ibox_runner::IBoxMlSpec;
use ibox_sim::SimTime;

/// Every model family: the four emulator-replay kinds plus a tiny iBoxML
/// configuration (small net, one epoch — enough to exercise weight
/// serialization without minutes of training).
fn kinds() -> Vec<ModelKind> {
    let mut kinds = ModelKind::all().to_vec();
    kinds.push(ModelKind::IBoxMl(IBoxMlSpec {
        hidden_sizes: vec![6],
        epochs: 1,
        lr: 5e-3,
        tbptt: 32,
        with_cross_traffic: false,
        seed: 3,
    }));
    kinds
}

/// One artifact per kind, fitted once on a shared training trace (fits —
/// especially the ML one — dominate the test's wall time, so they are
/// not repeated per proptest case).
fn artifacts() -> &'static Vec<(ModelKind, ModelArtifact)> {
    static CELL: OnceLock<Vec<(ModelKind, ModelArtifact)>> = OnceLock::new();
    CELL.get_or_init(|| {
        let duration = SimTime::from_secs(4);
        let train = ibox_testbed::run_protocol(
            &ibox_testbed::Profile::Ethernet.builder().seed(11).duration(duration).sample(),
            "cubic",
            duration,
            11,
        );
        kinds()
            .into_iter()
            .map(|kind| {
                let artifact = ModelArtifact::new(&kind, fit_model(&kind, &train));
                (kind, artifact)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// For every model kind: serialize → deserialize → simulate produces
    /// bitwise the same trace as the in-memory original, under arbitrary
    /// replay protocols, seeds, and durations — and re-serialization is
    /// byte-stable.
    #[test]
    fn saved_then_loaded_models_replay_byte_identically(
        seed in any::<u64>(),
        proto_idx in 0usize..3,
        dur_s in 2u64..5,
    ) {
        let protocol = ["cubic", "vegas", "reno"][proto_idx];
        let duration = SimTime::from_secs(dur_s);
        for (kind, original) in artifacts() {
            let json = original.to_json();
            let loaded = ModelArtifact::parse(&json, Path::new("mem")).unwrap();
            prop_assert_eq!(loaded.to_json(), json, "{}: envelope must be byte-stable", kind.name());
            let fresh = original.model.simulate(protocol, duration, seed);
            let replayed = loaded.model.simulate(protocol, duration, seed);
            prop_assert_eq!(
                fresh.digest(),
                replayed.digest(),
                "{}: digests diverged after a round trip", kind.name()
            );
            prop_assert_eq!(
                &fresh,
                &replayed,
                "{}: a reloaded model must replay byte-identically", kind.name()
            );
        }
    }

    /// Satellite: every schema-1 single-bottleneck artifact (no `path`
    /// field) loads via `ModelArtifact::load` as a 1-stage chain and
    /// replays byte-identically to its current form, under arbitrary
    /// protocols, seeds, and durations.
    #[test]
    fn schema_1_artifacts_load_as_one_stage_chains_and_replay_identically(
        seed in any::<u64>(),
        proto_idx in 0usize..3,
        dur_s in 2u64..5,
    ) {
        let protocol = ["cubic", "vegas", "reno"][proto_idx];
        let duration = SimTime::from_secs(dur_s);
        let dir = std::env::temp_dir();
        for (kind, original) in artifacts() {
            // Reconstruct the exact v1 serialization: version 1, no `path`.
            let mut v = serde_json::parse_value(&original.to_json()).unwrap();
            if let serde::Value::Object(fields) = &mut v {
                fields.retain(|(k, _)| k != "path");
                for (k, val) in fields.iter_mut() {
                    if k == "schema" {
                        *val = serde::Value::U64(1);
                    }
                }
            }
            let file = dir.join(format!(
                "ibox_v1_prop_{}_{}.json",
                std::process::id(),
                kind.name().replace(['/', ' '], "_")
            ));
            std::fs::write(&file, serde_json::to_string(&v).unwrap()).unwrap();
            let loaded = ModelArtifact::load(&file).unwrap();
            let _ = std::fs::remove_file(&file);

            prop_assert_eq!(
                loaded.schema, MODEL_ARTIFACT_SCHEMA,
                "{}: v1 must upgrade in place", kind.name()
            );
            let spec = loaded.path.as_ref().expect("upgrade synthesizes a path");
            prop_assert!(spec.is_single(), "{}: v1 upgrades to a 1-stage chain", kind.name());
            prop_assert_eq!(spec, &loaded.model.path_spec());
            let fresh = original.model.simulate(protocol, duration, seed);
            let replayed = loaded.model.simulate(protocol, duration, seed);
            prop_assert_eq!(
                &fresh,
                &replayed,
                "{}: a schema-1 artifact must replay byte-identically", kind.name()
            );
        }
    }

    /// The one reader survives hostile bytes: arbitrary bytes, and a real
    /// artifact truncated or with bytes overwritten, come back as a typed
    /// [`ArtifactError`] naming the file (or, when the damage happens to
    /// leave a loadable document, as an artifact) — never a panic.
    #[test]
    fn arbitrary_bytes_are_a_typed_error_never_a_panic(
        noise in proptest::collection::vec(0u8..255, 0..200),
        cut in 0usize..10_000,
        kind_idx in 0usize..4,
    ) {
        let file = std::env::temp_dir().join(format!("ibox_hostile_{}.json", std::process::id()));
        let real = artifacts()[kind_idx].1.to_json().into_bytes();
        let cut = cut % real.len();
        let mut overwritten = real.clone();
        for (i, b) in noise.iter().enumerate() {
            overwritten[(cut + 7 * i) % real.len()] = *b;
        }
        for bytes in [noise.clone(), real[..cut].to_vec(), overwritten] {
            std::fs::write(&file, &bytes).unwrap();
            match ModelArtifact::load(&file) {
                Ok(artifact) => prop_assert_eq!(artifact.schema, MODEL_ARTIFACT_SCHEMA),
                Err(ArtifactError::Io { path, .. })
                | Err(ArtifactError::Parse { path, .. })
                | Err(ArtifactError::SchemaMismatch { path, .. }) => prop_assert_eq!(&path, &file),
            }
        }
        let _ = std::fs::remove_file(&file);
    }
}

#[test]
fn version_mismatch_is_rejected_at_the_file_level() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ibox_artifact_skew_{}.json", std::process::id()));
    let (_, artifact) = &artifacts()[0];
    let skewed = artifact.to_json().replacen(
        &format!("\"schema\":{MODEL_ARTIFACT_SCHEMA}"),
        "\"schema\":99",
        1,
    );
    std::fs::write(&path, &skewed).unwrap();

    let msg = ModelArtifact::load(&path).unwrap_err().to_string();
    assert!(
        msg.contains(path.display().to_string().as_str()),
        "must name the offending file: {msg}"
    );
    assert!(msg.contains("schema version 99"), "must name the file's version: {msg}");
    assert!(
        msg.contains(&format!("version {MODEL_ARTIFACT_SCHEMA}")),
        "must name the supported version: {msg}"
    );
    let _ = std::fs::remove_file(&path);
}
