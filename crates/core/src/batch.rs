//! Batch execution: typed [`RunSpec`]s from `ibox-runner`, executed here.
//!
//! The spec types live in the domain-light `ibox-runner` crate so every
//! layer can name them without cycles; this module supplies the execution
//! half — mapping a [`RunSource`] onto the testbed/trace/artifact loaders
//! and a [`ModelKind`](ibox_runner::ModelKind) onto fit+replay via the
//! [`PathModel`](crate::model::PathModel) split: fits go through the
//! content-addressed [`FitCache`], replays through the fitted model.
//!
//! Determinism contract: a batch's results depend only on the specs, never
//! on `jobs`. Runs execute on the runner pool with per-run scoped metric
//! registries folded back in spec order, cache lookups are single-flight
//! (hit/miss counters are jobs-invariant), and [`BatchResult::to_json`] is
//! byte-identical at any parallelism.

use serde::{Deserialize, Serialize};

use ibox_runner::{BatchSpec, RunSource, RunSpec};
use ibox_trace::metrics::TraceMetrics;
use ibox_trace::{from_csv, FlowMeta, FlowTrace};

use crate::artifact::ModelArtifact;
use crate::cache::FitCache;
use crate::model::check_fit;
use crate::replay::ReplayRequest;

/// Outcome of one [`RunSpec`]: identity plus the replay's summary metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// The spec's `id`, or `run<index>` if the spec left it empty.
    pub id: String,
    /// Model display name ([`ModelKind::name`](ibox_runner::ModelKind::name)),
    /// or `"profile replay"` for [`RunSource::ProfileFile`] runs.
    pub model: String,
    /// Protocol replayed through the model.
    pub protocol: String,
    /// Replay duration, seconds.
    pub duration_s: f64,
    /// Replay seed.
    pub seed: u64,
    /// Summary metrics of the simulated trace.
    pub metrics: TraceMetrics,
}

/// All records of a batch, in spec order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchResult {
    /// One record per run, in the order the specs were given.
    pub records: Vec<RunRecord>,
}

impl BatchResult {
    /// Serialize to pretty JSON. Contains no wall-clock or parallelism
    /// information, so the bytes are identical at any `jobs` value.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("BatchResult serialization cannot fail")
    }

    /// Parse from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("bad batch result: {e}"))
    }
}

/// Load a single-flow trace from `.json` or `.csv` (by extension).
pub fn load_trace(path: &str) -> Result<FlowTrace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let ext = std::path::Path::new(path).extension().and_then(|e| e.to_str()).unwrap_or("");
    match ext {
        "json" => serde_json::from_str(&text).map_err(|e| format!("bad JSON in {path}: {e}")),
        "csv" => {
            let meta = FlowMeta::new(path, "unknown", "imported");
            from_csv(&text, meta).map_err(|e| format!("bad CSV in {path}: {e}"))
        }
        other => Err(format!("unsupported trace extension {other:?} (use .json or .csv)")),
    }
}

/// [`load_trace`], refusing a trace the estimators cannot fit
/// ([`check_fit`]) with a sentence naming the file.
pub fn load_training_trace(path: &str) -> Result<FlowTrace, String> {
    let trace = load_trace(path)?;
    check_fit(&trace).map_err(|e| format!("cannot fit {path}: {e}"))?;
    Ok(trace)
}

/// Execute one spec: resolve the source, fit the model (unless the source
/// is an already-fitted artifact), replay the spec's protocol, and
/// summarize. Fits go through `cache`, so identical (trace, kind, config,
/// seed) specs in one batch fit once and replay many times.
///
/// Returns the record *and* the simulated trace so callers that need the
/// full trace (e.g. `ibox simulate -o`) don't replay twice; batch callers
/// drop the trace in the worker.
pub fn execute_run_cached(
    spec: &RunSpec,
    cache: &FitCache,
) -> Result<(RunRecord, FlowTrace), String> {
    // Replay options are checked before any synthesis or fit is paid for.
    let replay = ReplayRequest::from_spec(spec)?;
    replay.check()?;
    let fitted = |train: &FlowTrace| {
        let model = cache.fit_path_model(&spec.model, train);
        (spec.model.name(), ModelArtifact::new(&spec.model, model))
    };
    let (model_name, artifact) = match &spec.source {
        RunSource::Synth { profile, protocol, seed } => {
            fitted(&ibox_testbed::synth(profile, protocol, spec.duration_s, *seed)?.1)
        }
        RunSource::TraceFile { path } => fitted(&load_training_trace(path)?),
        RunSource::ProfileFile { path } => {
            ("profile replay", ModelArtifact::load(std::path::Path::new(path))?)
        }
    };
    let sim = replay.run(&artifact)?;
    let record = RunRecord {
        id: spec.id.clone(),
        model: model_name.to_string(),
        protocol: spec.protocol.clone(),
        duration_s: spec.duration_s,
        seed: spec.seed,
        metrics: TraceMetrics::of(&sim),
    };
    Ok((record, sim))
}

/// Run every spec in the batch on `jobs` runner-pool workers (`0` = all
/// cores; results are identical at any value). Fails on the first erroring
/// run (reported with its index); otherwise returns records in spec order.
/// Fits share a batch-wide in-memory cache.
pub fn run_batch_jobs(batch: &BatchSpec, jobs: usize) -> Result<BatchResult, String> {
    run_batch_with_cache(batch, jobs, &FitCache::in_memory())
}

/// [`run_batch_jobs`] against a caller-supplied [`FitCache`] — the CLI's
/// `--model-cache <dir>` passes a disk-backed cache here so fits persist
/// across invocations.
pub fn run_batch_with_cache(
    batch: &BatchSpec,
    jobs: usize,
    cache: &FitCache,
) -> Result<BatchResult, String> {
    let outcomes = ibox_runner::run_scoped_checked(batch.runs.len(), jobs, |i| {
        // The per-run span totals add up to the batch's serial wall time,
        // which is what the CLI divides by to report the actual speedup.
        let _span = ibox_obs::span!("batch-run");
        execute_run_cached(&batch.runs[i], cache).map(|(record, _trace)| record)
    })
    .map_err(|e| e.to_string())?;
    let mut records = Vec::with_capacity(outcomes.len());
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let mut record = outcome.map_err(|e| format!("run {i}: {e}"))?;
        if record.id.is_empty() {
            record.id = format!("run{i}");
        }
        records.push(record);
    }
    Ok(BatchResult { records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox_runner::ModelKind;
    use ibox_sim::SimTime;
    use ibox_testbed::{run_protocol, Profile};

    fn small_batch() -> BatchSpec {
        let mut b = BatchSpec::builder().jobs(1);
        for (i, model) in [
            ModelKind::IBoxNet,
            ModelKind::StatisticalLoss,
            ModelKind::IBoxNetNoCross,
            ModelKind::IBoxNet,
        ]
        .into_iter()
        .enumerate()
        {
            b = b.run(
                RunSpec::builder()
                    .synth("ethernet", "cubic", 100 + i as u64)
                    .protocol(if i % 2 == 0 { "vegas" } else { "cubic" })
                    .duration_s(3.0)
                    .seed(7 + i as u64)
                    .model(model)
                    .build()
                    .unwrap(),
            );
        }
        b.build().unwrap()
    }

    /// The acceptance property: same batch, jobs 1 vs 4 ⇒ byte-identical
    /// results JSON and identical metric counters.
    #[test]
    fn results_and_counters_identical_at_any_jobs() {
        let batch = small_batch();

        let scope1 = ibox_obs::scoped();
        let r1 = run_batch_jobs(&batch, 1).unwrap();
        let m1 = scope1.finish().snapshot();

        let scope4 = ibox_obs::scoped();
        let r4 = run_batch_jobs(&batch, 4).unwrap();
        let m4 = scope4.finish().snapshot();

        assert_eq!(r1.to_json(), r4.to_json(), "results must not depend on jobs");
        assert_eq!(m1.counters, m4.counters, "folded metric counters must not depend on jobs");
        assert_eq!(m1.histograms, m4.histograms, "folded histograms must not depend on jobs");
    }

    /// Satellite: the causal span tree — IDs, parentage, event order —
    /// is identical at `--jobs 1` and `--jobs 4`, in the style of the
    /// byte-identity tests above. Only timestamps may differ.
    #[test]
    fn trace_span_trees_identical_at_any_jobs() {
        let batch = small_batch();
        let run = |jobs: usize| {
            let collector = ibox_obs::TraceCollector::new(1 << 14);
            let trace = 0x1bad_b002;
            {
                let _root =
                    ibox_obs::trace::start_root_in(collector.clone(), trace, "batch").unwrap();
                run_batch_jobs(&batch, jobs).unwrap();
            }
            let (_, events) = collector.get(trace).unwrap();
            events
                .iter()
                .map(|e| (e.lane, e.span, e.parent, e.phase.clone(), e.name.clone()))
                .collect::<Vec<_>>()
        };
        let t1 = run(1);
        let t4 = run(4);
        assert_eq!(t1, t4, "span trees must not depend on the jobs value");
        for phase in ["job-0", "job-3", "batch-run", "fit-cache", "model-fit", "model-replay"] {
            assert!(t1.iter().any(|e| e.4 == phase), "span tree is missing {phase:?}");
        }
    }

    #[test]
    fn records_are_labelled_in_spec_order() {
        let batch = small_batch();
        let result = run_batch_jobs(&batch, 1).unwrap();
        assert_eq!(result.records.len(), 4);
        assert_eq!(result.records[0].id, "run0");
        assert_eq!(result.records[0].model, "iBoxNet");
        assert_eq!(result.records[1].model, "Statistical loss");
        assert!(result.records.iter().all(|r| r.metrics.avg_rate_mbps > 0.0));
        // And the result itself round-trips through JSON.
        let back = BatchResult::from_json(&result.to_json()).unwrap();
        assert_eq!(back, result);
    }

    #[test]
    fn bad_specs_are_reported_with_their_index() {
        let batch = BatchSpec::builder()
            .run(
                RunSpec::builder()
                    .synth("ethernet", "cubic", 1)
                    .protocol("nope")
                    .duration_s(2.0)
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        let err = run_batch_jobs(&batch, 1).unwrap_err();
        assert!(err.contains("run 0"), "{err}");
        assert!(err.contains("nope"), "{err}");

        let bad_profile = BatchSpec::builder()
            .run(
                RunSpec::builder()
                    .synth("dsl", "cubic", 1)
                    .protocol("cubic")
                    .duration_s(2.0)
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        assert!(run_batch_jobs(&bad_profile, 1).unwrap_err().contains("unknown profile"));
    }

    #[test]
    fn a_trace_file_that_cannot_be_fitted_is_an_error_not_a_panic() {
        let path =
            std::env::temp_dir().join(format!("ibox_batch_silent_{}.json", std::process::id()));
        let silent = vec![ibox_trace::PacketRecord::lost(0, 0, 1200)];
        let silent = FlowTrace::from_records(FlowMeta::new("silent", "cubic", "0"), silent);
        std::fs::write(&path, serde_json::to_string(&silent).unwrap()).unwrap();
        let spec = RunSpec::builder().trace_file(path.to_string_lossy()).protocol("cubic");
        let err = execute_run_cached(&spec.build().unwrap(), &FitCache::in_memory()).unwrap_err();
        assert!(err.contains("no delivered packets"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_file_source_replays_without_fitting() {
        let inst = Profile::Ethernet.builder().seed(3).duration(SimTime::from_secs(3)).sample();
        let train = run_protocol(&inst, "cubic", SimTime::from_secs(3), 3);
        let kind = ModelKind::IBoxNet;
        let artifact = ModelArtifact::new(&kind, crate::model::fit_model(&kind, &train));
        let path = std::env::temp_dir().join("ibox_batch_test_profile.json");
        artifact.save(&path).unwrap();

        let spec = RunSpec::builder()
            .profile_file(path.to_string_lossy())
            .protocol("cubic")
            .duration_s(3.0)
            .seed(5)
            .build()
            .unwrap();
        let scope = ibox_obs::scoped();
        let (record, trace) = execute_run_cached(&spec, &FitCache::in_memory()).unwrap();
        let metrics = scope.finish().snapshot();
        assert_eq!(record.model, "profile replay");
        assert!(trace.len() > 100);
        assert!(!metrics.counters.contains_key("model.fit"), "artifact replay must not fit");
        let _ = std::fs::remove_file(&path);
    }

    /// Satellite: flow mode is exactly as deterministic as packet mode —
    /// at every fidelity level a mixed batch is byte-identical at
    /// `--jobs 1` and `--jobs 4`, and a spec that never mentions
    /// `fidelity` behaves exactly like an explicit `packet` one.
    #[test]
    fn every_fidelity_level_is_jobs_invariant() {
        use ibox_runner::Fidelity;
        let batch_at = |fidelity: Fidelity| {
            let mut b = BatchSpec::builder();
            for (i, model) in [ModelKind::IBoxNet, ModelKind::StatisticalLoss, ModelKind::IBoxNet]
                .into_iter()
                .enumerate()
            {
                b = b.run(
                    RunSpec::builder()
                        .synth("ethernet", "cubic", 200 + i as u64)
                        .protocol(if i % 2 == 0 { "cubic" } else { "reno" })
                        .duration_s(3.0)
                        .seed(30 + i as u64)
                        .model(model)
                        .fidelity(fidelity)
                        .build()
                        .unwrap(),
                );
            }
            b.build().unwrap()
        };
        for fidelity in Fidelity::ALL {
            let batch = batch_at(fidelity);
            let r1 = run_batch_jobs(&batch, 1).unwrap();
            let r4 = run_batch_jobs(&batch, 4).unwrap();
            assert_eq!(r1.to_json(), r4.to_json(), "{fidelity} results must not depend on jobs");
        }
        // Default == packet, byte for byte: a legacy batch file with no
        // `fidelity` field anywhere replays identically to an explicit
        // packet-fidelity batch.
        let packet = run_batch_jobs(&batch_at(Fidelity::Packet), 1).unwrap();
        let legacy = {
            let mut v = serde_json::parse_value(&batch_at(Fidelity::Packet).to_json()).unwrap();
            if let serde::Value::Object(fields) = &mut v {
                for (key, val) in fields.iter_mut() {
                    if key != "runs" {
                        continue;
                    }
                    if let serde::Value::Array(runs) = val {
                        for run in runs.iter_mut() {
                            if let serde::Value::Object(rf) = run {
                                rf.retain(|(k, _)| k != "fidelity");
                            }
                        }
                    }
                }
            }
            let json = serde_json::to_string(&v).expect("value serializes");
            run_batch_jobs(&BatchSpec::from_json(&json).unwrap(), 1).unwrap()
        };
        assert_eq!(packet.to_json(), legacy.to_json());
        // And flow mode genuinely takes the fluid path: its records differ
        // from packet mode's (distributionally close, not bit-equal).
        let flow = run_batch_jobs(&batch_at(Fidelity::Flow), 1).unwrap();
        assert_ne!(packet.to_json(), flow.to_json());
    }

    /// Acceptance: a 3-stage composed path replays deterministically at
    /// every fidelity level and any `--jobs` value, and actually changes
    /// the replay (it is not silently ignored). Hybrid fidelity degrades
    /// to the packet engine on multi-stage chains — counted, and still
    /// jobs-invariant.
    #[test]
    fn composed_paths_are_jobs_invariant_at_every_fidelity() {
        use ibox_runner::Fidelity;
        let chain = serde_json::parse_value(
            r#"[
                {"rate_bps": 20e6, "prop_delay_ms": 5, "buffer_bytes": 80000},
                {"rate_bps": 8e6, "prop_delay_ms": 12, "buffer_bytes": 60000},
                {"rate_bps": 30e6, "prop_delay_ms": 3, "buffer_bytes": 120000}
            ]"#,
        )
        .unwrap();
        let batch_at = |fidelity: Fidelity, path: Option<serde::Value>| {
            let mut b = BatchSpec::builder();
            for i in 0..2u64 {
                let mut run = RunSpec::builder()
                    .synth("ethernet", "cubic", 300 + i)
                    .protocol(if i == 0 { "cubic" } else { "reno" })
                    .duration_s(3.0)
                    .seed(40 + i)
                    .fidelity(fidelity);
                if let Some(p) = &path {
                    run = run.path(p.clone());
                }
                b = b.run(run.build().unwrap());
            }
            b.build().unwrap()
        };
        for fidelity in Fidelity::ALL {
            let composed = batch_at(fidelity, Some(chain.clone()));
            let scope = ibox_obs::scoped();
            let r1 = run_batch_jobs(&composed, 1).unwrap();
            let metrics = scope.finish().snapshot();
            let r4 = run_batch_jobs(&composed, 4).unwrap();
            assert_eq!(
                r1.to_json(),
                r4.to_json(),
                "{fidelity} composed-path results must not depend on jobs"
            );
            let flat = run_batch_jobs(&batch_at(fidelity, None), 1).unwrap();
            assert_ne!(r1.to_json(), flat.to_json(), "{fidelity} replay must honor the path");
            if fidelity == Fidelity::Hybrid {
                // The flow-level warmup cannot model a multi-stage chain,
                // so hybrid degrades to packet — visibly.
                assert!(
                    metrics.counters.get("fidelity.fallback").copied().unwrap_or(0) >= 2,
                    "hybrid over a chain must count its packet fallback"
                );
            }
        }
        // Hybrid's fallback is the packet engine, byte for byte.
        let hybrid = run_batch_jobs(&batch_at(Fidelity::Hybrid, Some(chain.clone())), 1).unwrap();
        let packet = run_batch_jobs(&batch_at(Fidelity::Packet, Some(chain)), 1).unwrap();
        assert_eq!(hybrid.to_json(), packet.to_json());
    }

    /// A malformed or empty `path` is rejected with the run index, not a
    /// panic deep inside the engine.
    #[test]
    fn bad_path_specs_are_rejected_with_the_run_index() {
        let run_with = |raw: &str| {
            let spec = RunSpec::builder()
                .synth("ethernet", "cubic", 1)
                .protocol("cubic")
                .duration_s(2.0)
                .path(serde_json::parse_value(raw).unwrap())
                .build()
                .unwrap();
            run_batch_jobs(&BatchSpec::builder().run(spec).build().unwrap(), 1).unwrap_err()
        };
        let err = run_with("[]");
        assert!(err.contains("at least one stage"), "{err}");
        let err = run_with(r#"[{"prop_delay_ms": 5}]"#);
        assert!(err.contains("bad path spec"), "{err}");
    }

    /// Satellite: batch runs an `IBoxMl` spec like any other kind, and the
    /// fit cache collapses duplicate (trace, kind, config, seed) fits.
    #[test]
    fn batch_fits_iboxml_and_dedups_identical_fits() {
        let ml = ModelKind::IBoxMl(ibox_runner::IBoxMlSpec {
            hidden_sizes: vec![6],
            epochs: 1,
            lr: 5e-3,
            tbptt: 32,
            with_cross_traffic: false,
            seed: 3,
        });
        // Two specs share (source, model); only the replay seed differs —
        // one fit, two replays.
        let spec = |seed: u64| {
            RunSpec::builder()
                .synth("ethernet", "cubic", 41)
                .protocol("vegas")
                .duration_s(3.0)
                .seed(seed)
                .model(ml.clone())
                .build()
                .unwrap()
        };
        let batch = BatchSpec::builder().run(spec(1)).run(spec(2)).build().unwrap();

        let run = |jobs: usize| {
            let scope = ibox_obs::scoped();
            let result = run_batch_jobs(&batch, jobs).unwrap();
            (result, scope.finish().snapshot())
        };
        let (r1, m1) = run(1);
        let (r2, m2) = run(2);
        assert_eq!(r1.to_json(), r2.to_json(), "results must not depend on jobs");
        assert_eq!(m1.counters, m2.counters, "cache counters must not depend on jobs");
        assert_eq!(r1.records[0].model, "iBoxML");
        assert_eq!(m1.counters["model.fit"], 1, "identical fits must be cached");
        assert_eq!(m1.counters["fitcache.miss"], 1);
        assert_eq!(m1.counters["fitcache.hit"], 1);
        assert_ne!(r1.records[0].metrics, r1.records[1].metrics, "replay seeds differ");
    }

    /// ML replays through the batched session stay jobs-invariant — a
    /// 4-run iBoxML batch produces byte-identical results at `--jobs 1` and
    /// `--jobs 4` — and a batch file still carrying the retired
    /// `"batch_streams": false` key parses and runs to the same bytes.
    #[test]
    fn ml_replay_is_jobs_invariant_and_ignores_the_retired_session_key() {
        let ml = ModelKind::IBoxMl(ibox_runner::IBoxMlSpec {
            hidden_sizes: vec![5],
            epochs: 1,
            lr: 5e-3,
            tbptt: 32,
            with_cross_traffic: false,
            seed: 9,
        });
        let mut b = BatchSpec::builder();
        for i in 0..4u64 {
            b = b.run(
                RunSpec::builder()
                    .synth("ethernet", "cubic", 51)
                    .protocol("vegas")
                    .duration_s(2.0)
                    .seed(20 + i)
                    .model(ml.clone())
                    .build()
                    .unwrap(),
            );
        }
        let batch = b.build().unwrap();
        let r1 = run_batch_jobs(&batch, 1).unwrap();
        let r4 = run_batch_jobs(&batch, 4).unwrap();
        assert_eq!(r1.to_json(), r4.to_json(), "ML replay must not depend on jobs");

        let json = batch.to_json();
        let with_key =
            json.replace("\"fidelity\":", "\"batch_streams\": false,\n      \"fidelity\":");
        assert_eq!(with_key.matches("batch_streams").count(), 4);
        let legacy = BatchSpec::from_json(&with_key).unwrap();
        assert_eq!(legacy, batch, "an unknown key must not change the parsed spec");
        assert_eq!(run_batch_jobs(&legacy, 4).unwrap().to_json(), r1.to_json());
    }
}
