//! The request ledger: end-to-end loopback workloads against the
//! `ibox-serve` daemon, and a traced per-layer table.
//!
//! ```text
//! ibox-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--smoke] [--out <dir>] [--dump-requests <dir>]
//! ibox-benchmark compare <dir-a> <dir-b>
//! ```
//!
//! See `benchmark/README.md` for the metric and workload definitions.

mod compare;
mod gen;
mod harness;
mod ingest;
mod layers;
mod report;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Manifest, RunResult};
use workload::Bench;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Timed-window length used when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: PathBuf,
    dump_requests: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: ibox-benchmark --workload <{}> [--seed <u64>] [--seconds <s>] [--trace <0|1>]\n\
         \x20      [--smoke] [--out <dir>] [--dump-requests <dir>]\n\
         \x20      ibox-benchmark compare <dir-a> <dir-b>",
        gen::WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        dump_requests: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => {
                opts.seed = value()?.parse().map_err(|_| "--seed takes a u64".to_string())?;
            }
            "--seconds" => {
                opts.seconds =
                    value()?.parse().map_err(|_| "--seconds takes a number".to_string())?;
                if !opts.seconds.is_finite() || opts.seconds < 0.0 {
                    return Err("--seconds must be non-negative".to_string());
                }
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = PathBuf::from(value()?),
            "--dump-requests" => opts.dump_requests = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !gen::WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {}", gen::WORKLOADS.join(", ")));
    }
    Ok(opts)
}

fn dump_requests(opts: &Options, dir: &std::path::Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let bodies = gen::plan(&opts.workload, opts.seed)?.bodies();
    for (name, body) in &bodies {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("wrote {} request bodies to {}", bodies.len(), dir.display());
    Ok(())
}

/// The untraced run: set up `SETUP_REPS` times (the last one serves the
/// timed window), measure for `seconds`, report the end-to-end metrics.
fn run_untraced(opts: &Options, scratch: &std::path::Path) -> Result<RunResult, String> {
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut bench = None;
    for _ in 0..reps {
        // The previous daemon drains and its directory goes before the
        // next set-up starts.
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(Bench::prepare(&opts.workload, opts.seed, scratch)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let seconds = if opts.smoke { 0.0 } else { opts.seconds };
    let outcome = bench.run(false, seconds)?;
    drop(bench);

    if let Some(why) = &outcome.first_failure {
        eprintln!("first failed request: {why}");
    }
    let mut manifest = Manifest::new(&opts.workload, opts.seed, opts.seconds, false, opts.smoke);
    manifest.attempted = outcome.attempted;
    manifest.samples = outcome.latencies_ms.len() as u64;
    Ok(RunResult {
        manifest,
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: report::end_to_end(&outcome, stats::median(&setups)),
    })
}

fn run(opts: &Options) -> Result<RunResult, String> {
    // The daemon's info lines would interleave with the result.
    ibox_obs::log::set_max_level(ibox_obs::log::Level::Warn);
    let scratch = opts.out.join(format!("tmp-{}", std::process::id()));
    let result = if opts.traced {
        layers::run_traced(&opts.workload, opts.seed, opts.seconds, &scratch, &opts.out)
    } else {
        run_untraced(opts, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let result = result?;
    let path = result.write(&opts.out)?;
    result.print_table();
    if !gen::GATED_WORKLOADS.contains(&opts.workload.as_str()) {
        println!("note: {} is reported but not gated by BENCHMARK.json", opts.workload);
    }
    println!("result file: {}", path.display());
    Ok(result)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &opts.dump_requests {
        return match dump_requests(&opts, dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(why) => {
                eprintln!("error: {why}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&opts) {
        Ok(result) => {
            println!("{}", result.final_line());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// A `--smoke` pass of all five workloads: one verified warm-up pass,
    /// one timed pass, no failed operation.
    #[test]
    fn smoke_pass_of_every_workload_has_no_failures() {
        let out = std::env::temp_dir().join(format!("ibox-benchmark-smoke-{}", std::process::id()));
        for workload in gen::WORKLOADS {
            let opts = Options {
                workload: workload.to_string(),
                seed: 5,
                seconds: DEFAULT_SECONDS,
                traced: false,
                smoke: true,
                out: out.clone(),
                dump_requests: None,
            };
            let result = run(&opts).unwrap_or_else(|why| panic!("{workload}: {why}"));
            assert!(result.correct, "{workload}: {} of {} failed", result.failed, result.attempted);
            assert!(result.attempted > 0 && result.manifest.smoke);
            assert!(result.file_name().ends_with(".smoke.json"));
            for def in &report::END_TO_END {
                let m = &result.metrics[def.name];
                assert!(
                    m.value > 0.0 && m.unit == def.unit,
                    "{workload}: {} = {}",
                    def.name,
                    m.value
                );
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }

    /// The traced run reports every per-layer metric, checks its in-process
    /// chain against the same references, and accounts for the operation.
    #[test]
    fn traced_run_reports_every_layer_and_verifies_its_own_chain() {
        let out =
            std::env::temp_dir().join(format!("ibox-benchmark-traced-{}", std::process::id()));
        let opts = Options {
            workload: "replay_flow".to_string(),
            seed: 5,
            seconds: 1.0,
            traced: true,
            smoke: false,
            out: out.clone(),
            dump_requests: None,
        };
        let result = run(&opts).expect("traced run");
        assert!(result.correct, "{} of {} failed", result.failed, result.attempted);
        assert_eq!(result.metrics.len(), report::PER_LAYER.len());
        let v = |name: &str| result.metrics[name].value;
        assert!(v("trace.encode_ms") > 0.0 && v("sim.fluid.run_ms") > 0.0);
        assert_eq!(
            v("sim.engine.run_ms"),
            0.0,
            "no request of this workload runs the packet engine"
        );
        assert!(v("e2e.residual_pct").abs() < 50.0, "residual {}", v("e2e.residual_pct"));
        assert!(out.join("replay_flow.spans.json").is_file());
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = parse(&args(&[
            "--workload",
            "replay_ml",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.traced),
            ("replay_ml", 9, 2.5, true)
        );
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--workload", "replay_ml", "--trace", "2"])).is_err());
        assert!(parse(&args(&["--workload", "replay_ml", "--seed"])).is_err());
        assert!(parse(&args(&["--seed", "1"])).is_err());
    }

    /// `BENCHMARK.json` declares what the tables in this crate define.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = serde_json::parse_value(&text).expect("BENCHMARK.json is json");
        let strings = |v: &Value, key: &str| -> Vec<String> {
            v.as_array()
                .expect("array")
                .iter()
                .map(|row| match row.get(key) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key}: {other:?}"),
                })
                .collect()
        };
        assert_eq!(strings(v.get("workloads").unwrap(), "name"), gen::GATED_WORKLOADS);
        assert_eq!(v.get("run_seconds").and_then(Value::as_f64), Some(DEFAULT_SECONDS));

        let e2e = v.get("end_to_end").unwrap();
        let declared: Vec<(String, String, String, f64)> = e2e
            .as_array()
            .unwrap()
            .iter()
            .zip(strings(e2e, "name"))
            .zip(strings(e2e, "unit"))
            .zip(strings(e2e, "better"))
            .map(|(((row, n), u), b)| (n, u, b, row.get("bound").and_then(Value::as_f64).unwrap()))
            .collect();
        let defined: Vec<(String, String, String, f64)> = report::END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into(), m.bound))
            .collect();
        assert_eq!(declared, defined);

        let layers = v.get("per_layer").unwrap();
        let declared: Vec<(String, String, String)> = strings(layers, "name")
            .into_iter()
            .zip(strings(layers, "unit"))
            .zip(strings(layers, "better"))
            .map(|((n, u), b)| (n, u, b))
            .collect();
        let defined: Vec<(String, String, String)> = report::PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(declared, defined);
    }
}
