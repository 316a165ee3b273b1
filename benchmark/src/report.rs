//! Metric definitions, the result manifest, and the result file.
//!
//! The tables here are the single source of metric names, units,
//! directions and bounds; a self-test checks `BENCHMARK.json` against them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

use crate::harness::{peak_rss_mib, Outcome};
use crate::stats::{percentile, sorted};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the daemon sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports, measured with the
/// benchmark's tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "op_p50_ms", unit: "ms", better: Better::Lower, bound: 0.12 },
    EndToEnd { name: "op_p90_ms", unit: "ms", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "records_per_s", unit: "records/s", better: Better::Higher, bound: 0.12 },
    EndToEnd { name: "cpu_s_per_kop", unit: "s/kop", better: Better::Lower, bound: 0.12 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// One per-layer metric: name, unit, direction of improvement.
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// Every per-layer metric the traced run reports, for every workload; a
/// layer a workload never enters reads 0. `*_ms` are medians of busy time
/// per operation that entered the layer.
pub const PER_LAYER: [PerLayer; 48] = [
    lower("serve.http.parse_ms", "ms"),
    lower("serve.http.parse_bytes", "bytes"),
    lower("serve.routes.body_json_ms", "ms"),
    lower("serve.registry.resolve_ms", "ms"),
    lower("serve.registry.get_ms", "ms"),
    lower("serve.registry.artifact_bytes", "bytes"),
    lower("fs.read_ms", "ms"),
    lower("core.artifact.parse_ms", "ms"),
    lower("serve.registry.put_ms", "ms"),
    lower("core.model.replay_ms", "ms"),
    lower("sim.engine.run_ms", "ms"),
    lower("sim.engine.events", "count"),
    lower("sim.engine.ns_per_event", "ns"),
    higher("sim.engine.pps", "1/s"),
    lower("sim.fluid.run_ms", "ms"),
    lower("sim.fluid.segments", "count"),
    lower("sim.fluid.episodes", "count"),
    lower("sim.fidelity.fallback_ratio", "ratio"),
    lower("ml.driver_ms", "ms"),
    lower("ml.predict_ms", "ms"),
    lower("ml.steps", "count"),
    lower("ml.us_per_step", "us"),
    lower("trace.encode_ms", "ms"),
    higher("trace.encode_mb_per_s", "MB/s"),
    lower("trace.decode_ms", "ms"),
    lower("trace.metrics_ms", "ms"),
    lower("trace.digest_ms", "ms"),
    lower("serve.http.write_ms", "ms"),
    lower("serve.http.write_bytes", "bytes"),
    lower("ingest.append_ms", "ms"),
    higher("ingest.append_records_per_s", "records/s"),
    lower("ingest.append_wait_ms", "ms"),
    lower("ingest.fold_ms", "ms"),
    lower("ingest.refit_ms", "ms"),
    lower("ingest.finalize_ms", "ms"),
    lower("core.fit_ms", "ms"),
    higher("core.fitcache.hit_ratio", "ratio"),
    lower("testbed.synth_ms", "ms"),
    lower("runner.batch_ms", "ms"),
    higher("runner.pool.speedup_x", "x"),
    lower("client.send_ms", "ms"),
    lower("client.wait_ms", "ms"),
    lower("client.read_body_ms", "ms"),
    lower("e2e.untraced_op_p50_ms", "ms"),
    lower("e2e.inprocess_op_ms", "ms"),
    lower("e2e.residual_pct", "%"),
    lower("bench.trace_overhead_pct", "%"),
    lower("quality.delay_ks", "ks"),
];

/// Which way metric `name` improves, if it is a defined metric.
fn direction(name: &str) -> Option<Better> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.better)))
        .find_map(|(n, better)| (n == name).then_some(better))
}

/// Where and how a result was measured — enough to refuse comparing two
/// results that were not measured alike.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Workload name.
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// Length of the timed window asked for, seconds.
    pub seconds: f64,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Correctness-only run of one pass; never a baseline.
    pub smoke: bool,
    /// Requests sent in the timed window.
    pub attempted: u64,
    /// Timed operations sampled for the latency percentiles.
    pub samples: u64,
    /// Git revision of the checkout, when it is one.
    pub git_rev: Option<String>,
    /// Logical CPUs available to the process.
    pub nproc: u64,
    /// CPU model name.
    pub cpu_model: String,
    /// Compiler that built the benchmark and the daemon.
    pub rustc: String,
    /// Cargo build profile.
    pub build_profile: String,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Manifest {
    /// The manifest of a run of `workload` on this machine and build.
    pub fn new(workload: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Manifest {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        Manifest {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            smoke,
            attempted: 0,
            samples: 0,
            git_rev: ibox_obs::git_rev(&cwd),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu_model: cpu_model(),
            rustc: env!("BENCH_RUSTC_VERSION").to_string(),
            build_profile: env!("BENCH_BUILD_PROFILE").to_string(),
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// One run's result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// How it was measured.
    pub manifest: Manifest,
    /// Whether every reply matched its reference.
    pub correct: bool,
    /// Requests sent in the timed window.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The metrics, by name.
    pub metrics: BTreeMap<String, Metric>,
}

impl RunResult {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn final_line(&self) -> String {
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), self.metrics.to_value()),
        ]);
        serde_json::to_string(&line).expect("value trees serialize")
    }

    /// File name of this result under an output directory.
    pub fn file_name(&self) -> String {
        let m = &self.manifest;
        let kind = match (m.smoke, m.traced) {
            (true, _) => "smoke",
            (false, true) => "traced",
            (false, false) => "e2e",
        };
        format!("{}.seed{}.{kind}.json", m.workload, m.seed)
    }

    /// Write the result under `dir`.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(self.file_name());
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Print every metric by name with its unit.
    pub fn print_table(&self) {
        let m = &self.manifest;
        println!(
            "{} seed {} ({}): {} requests, {} failed, {} timed samples",
            m.workload,
            m.seed,
            if m.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            m.samples
        );
        for (name, metric) in &self.metrics {
            let better = direction(name).map_or("", |b| b.as_str());
            println!("  {name:<32} {:>16.4} {:<10} {better} is better", metric.value, metric.unit);
        }
    }
}

/// The end-to-end metrics of a timed window. `setup_s` is the median of
/// the run's set-ups.
pub fn end_to_end(outcome: &Outcome, setup_s: f64) -> BTreeMap<String, Metric> {
    let lat = sorted(outcome.latencies_ms.clone());
    let values = [
        percentile(&lat, 0.5),
        percentile(&lat, 0.9),
        outcome.records as f64 / outcome.wall_s,
        outcome.cpu_s / lat.len() as f64 * 1000.0,
        peak_rss_mib(),
        setup_s,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| (def.name.to_string(), Metric { value, unit: def.unit.to_string() }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut manifest = Manifest::new("replay_flow", 7, 10.0, false, false);
        manifest.attempted = 32;
        manifest.samples = 32;
        let outcome = Outcome {
            latencies_ms: (1..=32).map(f64::from).collect(),
            attempted: 32,
            failed: 0,
            records: 64_000,
            wall_s: 2.0,
            cpu_s: 1.6,
            ..Outcome::default()
        };
        RunResult {
            manifest,
            correct: true,
            attempted: 32,
            failed: 0,
            metrics: end_to_end(&outcome, 1.25),
        }
    }

    #[test]
    fn manifest_round_trips_through_the_result_file() {
        let result = sample();
        let json = serde_json::to_string_pretty(&result).unwrap();
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, result);
        assert_eq!(back.manifest.build_profile, env!("BENCH_BUILD_PROFILE"));
        assert!(back.manifest.nproc >= 1);
        assert!(back.manifest.rustc.starts_with("rustc"), "{}", back.manifest.rustc);
    }

    #[test]
    fn end_to_end_metrics_follow_their_definitions() {
        let r = sample();
        let v = |name: &str| r.metrics[name].value;
        assert_eq!(v("op_p50_ms"), 16.0);
        assert_eq!(v("op_p90_ms"), 29.0);
        assert_eq!(v("records_per_s"), 32_000.0);
        assert_eq!(v("cpu_s_per_kop"), 50.0);
        assert_eq!(v("setup_s"), 1.25);
        assert!(v("peak_rss_mb") > 1.0);
    }

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let line = sample().final_line();
        let v = serde_json::parse_value(&line).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (_, m) in metrics {
            assert!(m.get("value").is_some() && m.get("unit").is_some());
        }
        assert!(!line.contains('\n'));
    }
}
