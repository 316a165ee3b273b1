//! Subcommand implementations.
//!
//! Each subcommand owns a declarative [`CmdSpec`] grammar; parsing, the
//! usage text, and unknown-option errors all derive from those tables.

use std::path::Path;

use ibox::{
    fit_model, load_trace, load_training_trace, BatchSpec, FitCache, FittedModel, IBoxMlSpec,
    ModelArtifact, ModelKind, ReplayRequest, RunRecord, RunSpec, ValidityRegion,
};
use ibox_obs::{RunManifest, RunManifestBuilder};
use ibox_trace::metrics::TraceMetrics;

use crate::args::{parse, CmdSpec, OptSpec, PosSpec, UsageError};
use crate::io::{save_text, save_trace};

const OUTPUT: OptSpec = OptSpec::value("--output", "path").with_short("-o");
const DURATION: OptSpec = OptSpec::value("--duration", "S");
const SEED: OptSpec = OptSpec::value("--seed", "N");
const JOBS: OptSpec = OptSpec::value("--jobs", "N");
const PROTOCOL: OptSpec = OptSpec::value("--protocol", "cubic|reno|vegas|bbr|rtc");
const MODEL_CACHE: OptSpec = OptSpec::value("--model-cache", "dir");

const FIT: CmdSpec = CmdSpec {
    name: "fit",
    positionals: &[PosSpec { name: "trace.{json,csv}", required: true, variadic: false }],
    opts: &[
        OUTPUT,
        OptSpec::value("--model", "iboxnet|statistical-loss|iboxml"),
        OptSpec::flag("--no-cross"),
        OptSpec::flag("--with-reordering"),
    ],
};

const REPLAY: CmdSpec = CmdSpec {
    name: "replay",
    positionals: &[PosSpec { name: "model.json", required: true, variadic: false }],
    opts: &[
        PROTOCOL,
        DURATION,
        SEED,
        OptSpec::value("--fidelity", "packet|flow|hybrid"),
        OptSpec::value("--path", "path.json"),
        OUTPUT,
    ],
};

const SIMULATE: CmdSpec = CmdSpec {
    name: "simulate",
    positionals: &[PosSpec { name: "profile.json", required: true, variadic: false }],
    opts: &[PROTOCOL, DURATION, SEED, OptSpec::value("--runs", "N"), JOBS, MODEL_CACHE, OUTPUT],
};

const METRICS: CmdSpec = CmdSpec {
    name: "metrics",
    positionals: &[PosSpec { name: "trace.{json,csv}", required: true, variadic: false }],
    opts: &[],
};

const SYNTH: CmdSpec = CmdSpec {
    name: "synth",
    positionals: &[],
    opts: &[
        OptSpec::value(
            "--profile",
            "india-cellular|india-cellular-pf|ethernet|token-bucket-wifi|wifi|satellite|cellular-handover",
        ),
        PROTOCOL,
        DURATION,
        SEED,
        OUTPUT,
    ],
};

const VALIDITY: CmdSpec = CmdSpec {
    name: "validity",
    positionals: &[PosSpec { name: "more-train-traces", required: false, variadic: true }],
    opts: &[
        OptSpec::repeated("--train", "trace"),
        OptSpec::value("--check", "trace"),
        JOBS,
        MODEL_CACHE,
    ],
};

const BATCH: CmdSpec = CmdSpec {
    name: "batch",
    positionals: &[PosSpec { name: "batch.json", required: true, variadic: false }],
    opts: &[JOBS, MODEL_CACHE, OUTPUT],
};

const SERVE: CmdSpec = CmdSpec {
    name: "serve",
    positionals: &[],
    opts: &[
        OptSpec::value("--addr", "host:port"),
        JOBS,
        MODEL_CACHE,
        OptSpec::value("--max-inflight", "K"),
        OptSpec::value("--read-timeout", "S"),
        OptSpec::value("--refit-chunks", "N"),
        OptSpec::value("--registry-cap", "bytes"),
        OptSpec::value("--fitcache-entries", "N"),
    ],
};

const CALL: CmdSpec = CmdSpec {
    name: "call",
    positionals: &[PosSpec { name: "url", required: true, variadic: false }],
    opts: &[
        OptSpec::value("--data", "body.json"),
        OptSpec::flag("--post"),
        OptSpec::value("--timeout", "S"),
        OptSpec::value("--trace-id", "id"),
        OUTPUT,
    ],
};

const TRACE: CmdSpec = CmdSpec {
    name: "trace",
    positionals: &[
        PosSpec { name: "export", required: true, variadic: false },
        PosSpec { name: "batch.json", required: true, variadic: false },
    ],
    opts: &[JOBS, MODEL_CACHE, OptSpec::flag("--timeline"), OUTPUT],
};

const INGEST: CmdSpec = CmdSpec {
    name: "ingest",
    positionals: &[
        PosSpec { name: "append|finalize|status", required: true, variadic: false },
        PosSpec { name: "trace.{json,csv}", required: false, variadic: false },
    ],
    opts: &[
        OptSpec::value("--url", "http://host:port"),
        OptSpec::value("--session", "id"),
        OptSpec::value("--chunks", "N"),
        OptSpec::value("--timeout", "S"),
    ],
};

const VERSION: CmdSpec = CmdSpec { name: "version", positionals: &[], opts: &[] };

/// Every subcommand grammar, in help order.
const COMMANDS: [&CmdSpec; 12] = [
    &FIT, &REPLAY, &SIMULATE, &METRICS, &SYNTH, &VALIDITY, &BATCH, &SERVE, &CALL, &INGEST, &TRACE,
    &VERSION,
];

/// Usage text shown on errors — generated from the [`CmdSpec`] tables.
pub fn usage() -> String {
    let mut s = String::from("usage:\n");
    for cmd in COMMANDS {
        s.push_str(&cmd.usage_line());
        s.push('\n');
    }
    s.push_str(
        "\nglobal flags: --verbose (debug diagnostics on stderr), --quiet (errors only);
the IBOX_LOG env var (off|error|warn|info|debug|trace) sets the default.
--jobs N spreads independent runs over N worker threads (0 = all cores)
without changing any result — batches are bit-identical at any value.
Commands with an output file also write a <output>.manifest.<ext> run
manifest (seed, config hash, git rev, metrics).",
    );
    s
}

/// Why a command failed. A usage error means the command line was wrong,
/// and `ibox` follows it with the usage block; a runtime error means the
/// arguments were fine and the work failed (an unreadable or unfittable
/// trace, a daemon's 4xx), and one line says why.
#[derive(Debug)]
pub enum CliError {
    /// The arguments do not fit the command's grammar or value ranges.
    Usage(String),
    /// The command ran and failed.
    Run(String),
}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> Self {
        CliError::Usage(e.0)
    }
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Run(e)
    }
}

impl From<&str> for CliError {
    fn from(e: &str) -> Self {
        CliError::Run(e.to_string())
    }
}

impl From<ibox::ArtifactError> for CliError {
    fn from(e: ibox::ArtifactError) -> Self {
        CliError::Run(e.to_string())
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) | CliError::Run(e) => f.write_str(e),
        }
    }
}

/// A [`CliError::Usage`] from any message.
fn usage_error(e: impl Into<String>) -> CliError {
    CliError::Usage(e.into())
}

/// Dispatch a full argv (starting at the subcommand).
pub fn dispatch(argv: &[String]) -> Result<(), CliError> {
    // Verbosity flags apply to every subcommand; map them onto the
    // process-wide log filter before any command logic runs.
    let quiet = argv.iter().any(|a| a == "--quiet");
    let verbose = argv.iter().any(|a| a == "--verbose");
    ibox_obs::log::set_level_from_flags(quiet, verbose);

    let Some(cmd) = argv.first() else {
        return Err(usage_error("no subcommand"));
    };
    let rest = &argv[1..];
    ibox_obs::debug!("dispatching {cmd} {rest:?}");
    match cmd.as_str() {
        "fit" => cmd_fit(rest),
        "replay" => cmd_replay(rest),
        "simulate" => cmd_simulate(rest),
        "metrics" => cmd_metrics(rest),
        "synth" => cmd_synth(rest),
        "validity" => cmd_validity(rest),
        "batch" => cmd_batch(rest),
        "serve" => cmd_serve(rest),
        "call" => cmd_call(rest),
        "ingest" => cmd_ingest(rest),
        "trace" => cmd_trace(rest),
        "version" | "--version" | "-V" => {
            println!("{}", version_line());
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(usage_error(format!("unknown subcommand {other:?}"))),
    }
}

/// Write the run manifest next to `out`, carrying the global registry
/// snapshot (the simulator folds each run's per-run metrics into it).
fn write_manifest(builder: RunManifestBuilder, out: &str) -> Result<(), String> {
    let manifest = builder.finish(ibox_obs::global().snapshot());
    let path = RunManifest::path_for_output(Path::new(out));
    manifest
        .write_to(&path)
        .map_err(|e| format!("cannot write manifest {}: {e}", path.display()))?;
    ibox_obs::info!("run manifest written to {}", path.display());
    Ok(())
}

/// Resolve `--model-cache <dir>` into a fit cache: disk-backed when the
/// flag is given, otherwise an invocation-local in-memory cache.
fn model_cache(p: &crate::args::Parsed) -> Result<FitCache, String> {
    match p.opt("--model-cache") {
        Some(dir) => FitCache::with_dir(dir),
        None => Ok(FitCache::in_memory()),
    }
}

/// `--protocol`, `--duration` and `--seed` as a replay request — checked
/// here, before any file is opened.
fn replay_flags(p: &crate::args::Parsed) -> Result<ReplayRequest, CliError> {
    let mut replay = ReplayRequest::new(p.required("--protocol")?);
    replay.duration_s = p.num("--duration", replay.duration_s)?;
    replay.seed = p.num("--seed", replay.seed)?;
    replay.check().map_err(usage_error)?;
    Ok(replay)
}

/// Map the `fit --model` selector (plus the legacy iBoxNet fit-variant
/// flags) onto a [`ModelKind`].
fn fit_kind(p: &crate::args::Parsed) -> Result<ModelKind, CliError> {
    let kind = match p.opt("--model") {
        None | Some("iboxnet") => ModelKind::IBoxNet,
        Some("statistical-loss") => ModelKind::StatisticalLoss,
        Some("iboxml") => ModelKind::IBoxMl(IBoxMlSpec::default()),
        Some(other) => {
            return Err(usage_error(format!(
                "unknown model kind {other:?} (use iboxnet, statistical-loss, or iboxml)"
            )))
        }
    };
    match (p.flag("--no-cross"), p.flag("--with-reordering")) {
        (false, false) => Ok(kind),
        _ if kind != ModelKind::IBoxNet => {
            Err(usage_error("--no-cross/--with-reordering only apply to the iboxnet model"))
        }
        (true, false) => Ok(ModelKind::IBoxNetNoCross),
        (false, true) => Ok(ModelKind::IBoxNetReorder),
        (true, true) => Err(usage_error("--no-cross and --with-reordering are mutually exclusive")),
    }
}

fn cmd_fit(argv: &[String]) -> Result<(), CliError> {
    let p = parse(argv, &FIT)?;
    let kind = fit_kind(&p)?;
    let trace = load_training_trace(p.positional(0, "trace file")?)?;
    let artifact = ModelArtifact::new(&kind, fit_model(&kind, &trace));
    println!("fitted {} from {} packets:", kind.name(), trace.len());
    match &artifact.model {
        FittedModel::IBoxNet(model) => {
            println!("  bandwidth   : {:.3} Mbps", model.params.bandwidth_bps / 1e6);
            println!("  prop delay  : {:.2} ms", model.params.prop_delay.as_millis_f64());
            println!("  buffer      : {} bytes", model.params.buffer_bytes);
            println!("  cross bytes : {:.0}", model.cross.total_bytes());
            if let Some(r) = &model.reorder {
                println!(
                    "  reordering  : p={:.4}, extra {:.1}-{:.1} ms",
                    r.probability,
                    r.extra_min.as_millis_f64(),
                    r.extra_max.as_millis_f64()
                );
            }
        }
        FittedModel::StatisticalLoss(model) => {
            println!("  bandwidth   : {:.3} Mbps", model.params.bandwidth_bps / 1e6);
            println!("  prop delay  : {:.2} ms", model.params.prop_delay.as_millis_f64());
            println!("  loss rate   : {:.4}", model.loss_rate);
        }
        FittedModel::IBoxMl(_) => {
            println!("  learned state-space model (LSTM weights in the artifact)");
        }
    }
    println!("  config hash : {}", artifact.config_hash);
    if let Some(out) = p.opt("--output") {
        artifact.save(Path::new(out))?;
        ibox_obs::info!("model artifact written to {out}");
        write_manifest(RunManifestBuilder::new("fit").config(&kind), out)?;
    }
    Ok(())
}

fn cmd_replay(argv: &[String]) -> Result<(), CliError> {
    let p = parse(argv, &REPLAY)?;
    let mut replay = replay_flags(&p)?;
    let fidelity = p.opt("--fidelity").unwrap_or(replay.fidelity.as_str());
    replay.fidelity = fidelity.parse().map_err(usage_error)?;
    // A composed chain of stages to replay through, not the recorded path.
    replay.path = p.opt("--path").map(ibox::load_path).transpose()?;
    let artifact = ModelArtifact::load(Path::new(p.positional(0, "model artifact")?))?;
    let trace = replay.run(&artifact)?;
    if let Some(spec) = &replay.path {
        println!(
            "path          : {} stage(s), bottleneck {:.3} Mbps, prop {:.2} ms",
            spec.len(),
            spec.bottleneck_rate_bps() / 1e6,
            spec.total_prop_delay().as_millis_f64()
        );
    }
    println!("model         : {} (fitted on {})", artifact.kind, artifact.fitted_on);
    print_metrics(&trace);
    println!("trace digest  : {}", trace.digest());
    if let Some(out) = p.opt("--output") {
        save_trace(&trace, out)?;
        ibox_obs::info!("replayed trace written to {out}");
        write_manifest(
            RunManifestBuilder::new("replay").seed(replay.seed).config(&artifact.config_hash),
            out,
        )?;
    }
    Ok(())
}

fn cmd_simulate(argv: &[String]) -> Result<(), CliError> {
    let p = parse(argv, &SIMULATE)?;
    let builder = RunManifestBuilder::new("simulate");
    let profile_path = p.positional(0, "profile file")?;
    let replay = replay_flags(&p)?;
    let runs = p.num("--runs", 1usize)?;
    let jobs = p.num("--jobs", 1usize)?;
    if runs == 0 {
        return Err(usage_error("--runs must be at least 1"));
    }

    if runs > 1 {
        // A replay ensemble: the same fitted profile under `runs`
        // consecutive seeds, executed as a batch on the runner pool.
        let mut b = BatchSpec::builder().jobs(jobs);
        for i in 0..runs {
            b = b.run(
                RunSpec::builder()
                    .profile_file(profile_path)
                    .protocol(&replay.protocol)
                    .duration_s(replay.duration_s)
                    .seed(replay.seed + i as u64)
                    .build()?,
            );
        }
        let batch = b.build()?;
        let cache = model_cache(&p)?;
        let wall = std::time::Instant::now();
        let result = ibox::run_batch_with_cache(&batch, batch.jobs, &cache)?;
        record_batch_timing(wall.elapsed().as_secs_f64(), batch.jobs, batch.runs.len());
        print_records(&result.records);
        if let Some(out) = p.opt("--output") {
            save_text(&result.to_json(), out)?;
            ibox_obs::info!("batch results written to {out}");
            write_manifest(builder.seed(replay.seed).config(&batch), out)?;
        }
        return Ok(());
    }

    let artifact = ModelArtifact::load(Path::new(profile_path))?;
    let trace = replay.run(&artifact)?;
    print_metrics(&trace);
    if let Some(out) = p.opt("--output") {
        save_trace(&trace, out)?;
        ibox_obs::info!("counterfactual trace written to {out}");
        write_manifest(builder.seed(replay.seed).config(&artifact.config_hash), out)?;
    }
    Ok(())
}

fn cmd_metrics(argv: &[String]) -> Result<(), CliError> {
    let p = parse(argv, &METRICS)?;
    let trace = load_trace(p.positional(0, "trace file")?)?;
    print_metrics(&trace);
    Ok(())
}

fn cmd_synth(argv: &[String]) -> Result<(), CliError> {
    let p = parse(argv, &SYNTH)?;
    let builder = RunManifestBuilder::new("synth");
    let seed = p.num("--seed", 1u64)?;
    let (inst, trace) = ibox_testbed::synth(
        p.required("--profile")?,
        p.required("--protocol")?,
        p.num("--duration", 30.0f64)?,
        seed,
    )?;
    print_metrics(&trace);
    if let Some(out) = p.opt("--output") {
        save_trace(&trace, out)?;
        ibox_obs::info!("trace written to {out}");
        write_manifest(builder.seed(seed).config(&inst.path), out)?;
    }
    Ok(())
}

fn cmd_validity(argv: &[String]) -> Result<(), CliError> {
    let p = parse(argv, &VALIDITY)?;
    // `--train` repeats; bare positionals are accepted as extra training
    // traces for back-compatibility with the single-value parser.
    let mut train_paths: Vec<&str> = p.opt_all("--train");
    for extra in &p.positional {
        train_paths.push(extra);
    }
    if train_paths.is_empty() {
        return Err(usage_error("validity needs --train <trace> [--train <trace>…]"));
    }
    let check_path = p.required("--check")?;
    let jobs = p.num("--jobs", 1usize)?;
    let cache = model_cache(&p)?;
    let train: Result<Vec<_>, _> = train_paths.iter().map(|t| load_training_trace(t)).collect();
    let region = ValidityRegion::fit_jobs_cached(&train?, jobs, &cache);
    let report = region.check(&load_trace(check_path)?);
    println!("coverage: {:.3}", report.coverage);
    for (feature, frac) in &report.out_of_range {
        println!("  out of range: {feature} ({:.1}% of packets)", frac * 100.0);
    }
    println!("valid at 0.95: {}", report.is_valid(0.95));
    Ok(())
}

fn cmd_batch(argv: &[String]) -> Result<(), CliError> {
    let p = parse(argv, &BATCH)?;
    let builder = RunManifestBuilder::new("batch");
    let spec_path = p.positional(0, "batch spec file")?;
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let mut batch = BatchSpec::from_json(&text)?;
    if let Some(jobs) = p.opt("--jobs") {
        batch.jobs =
            jobs.parse().map_err(|_| usage_error(format!("invalid value for --jobs: {jobs:?}")))?;
    }
    let cache = model_cache(&p)?;
    let wall = std::time::Instant::now();
    let result = ibox::run_batch_with_cache(&batch, batch.jobs, &cache)?;
    record_batch_timing(wall.elapsed().as_secs_f64(), batch.jobs, batch.runs.len());
    print_records(&result.records);
    if let Some(out) = p.opt("--output") {
        save_text(&result.to_json(), out)?;
        ibox_obs::info!("batch results written to {out}");
        write_manifest(builder.config(&batch), out)?;
    }
    Ok(())
}

fn cmd_serve(argv: &[String]) -> Result<(), CliError> {
    let p = parse(argv, &SERVE)?;
    let addr = p.opt("--addr").unwrap_or("127.0.0.1:7070").to_string();
    // The registry/cache dir doubles as the daemon's state dir; without
    // --model-cache, models live only for this daemon's lifetime.
    let model_dir = match p.opt("--model-cache") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("ibox-serve-{}", std::process::id())),
    };
    let mut config = ibox_serve::ServeConfig::new(addr, &model_dir);
    config.jobs = p.num("--jobs", 0usize)?;
    config.max_inflight = p.num("--max-inflight", 64usize)?.max(1);
    let read_timeout_s: u64 = p.num("--read-timeout", 10u64)?;
    config.read_timeout = std::time::Duration::from_secs(read_timeout_s.max(1));
    // Streaming-ingest knobs: re-fit cadence (0 = only on finalize),
    // registry byte cap (0 = unbounded), fit-cache entry cap.
    config.ingest.refit_every_chunks = p.num("--refit-chunks", 0u64)?;
    config.registry_cap_bytes = p.num("--registry-cap", 0u64)?;
    config.fitcache_max_entries = p.num("--fitcache-entries", 0usize)?;

    let server = ibox_serve::Server::bind(config)?;
    // The line scripts poll for; stdout, flushed, before blocking.
    println!("listening on http://{}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();

    // The daemon has no output file to anchor the manifest to; write it
    // into the state dir instead so every run leaves provenance behind.
    let manifest = RunManifestBuilder::new("serve").finish(ibox_obs::global().snapshot());
    let path = model_dir.join("serve.manifest.json");
    manifest
        .write_to(&path)
        .map_err(|e| format!("cannot write manifest {}: {e}", path.display()))?;
    ibox_obs::info!("run manifest written to {}", path.display());
    Ok(())
}

fn cmd_call(argv: &[String]) -> Result<(), CliError> {
    let p = parse(argv, &CALL)?;
    let url = p.positional(0, "url")?;
    let timeout_s: u64 = p.num("--timeout", 10u64)?;
    let body = match p.opt("--data") {
        Some(path) => Some(std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?),
        None => None,
    };
    let method = if body.is_some() || p.flag("--post") { "POST" } else { "GET" };
    // `--trace-id <id>` names the request's causal trace so the caller
    // can fetch GET /trace/<id> afterwards (hex, or any token — the
    // daemon hashes non-hex ids deterministically).
    let headers: Vec<(String, String)> = match p.opt("--trace-id") {
        Some(id) => vec![("x-ibox-trace-id".to_string(), id.to_string())],
        None => Vec::new(),
    };
    let (status, resp) = ibox_serve::request_url_with_headers(
        url,
        method,
        &headers,
        body.as_deref(),
        std::time::Duration::from_secs(timeout_s.max(1)),
    )?;
    let text = String::from_utf8_lossy(&resp);
    if status >= 400 {
        return Err(CliError::Run(format!("{method} {url} failed with {status}: {text}")));
    }
    match p.opt("--output") {
        Some(out) => save_text(&text, out)?,
        None => println!("{text}"),
    }
    Ok(())
}

/// `ibox ingest <append|finalize|status>`: the client side of the
/// daemon's streaming-ingest API. `append` streams a local trace file
/// to `POST /traces/<session>/append` in `--chunks` pieces (carrying
/// the trace's own meta, so the finalized fit is byte-identical to a
/// one-shot `fit` of the same file), `finalize` seals the session and
/// registers the fitted model's next lineage version, and `status`
/// reads `/ingest/sessions[/<session>]`.
fn cmd_ingest(argv: &[String]) -> Result<(), CliError> {
    let p = parse(argv, &INGEST)?;
    let action = p.positional(0, "ingest action")?;
    let base = p.opt("--url").unwrap_or("http://127.0.0.1:7070").trim_end_matches('/').to_string();
    let timeout_s: u64 = p.num("--timeout", 30u64)?;
    let timeout = std::time::Duration::from_secs(timeout_s.max(1));
    let session = p.opt("--session");
    match action {
        "append" => {
            let session = session.ok_or(usage_error("ingest append needs --session <id>"))?;
            let trace = load_trace(p.positional(1, "trace file")?)?;
            let records = trace.records();
            if records.is_empty() {
                return Err(CliError::Run("trace has no records to append".into()));
            }
            let chunks: usize = p.num("--chunks", 8usize)?;
            let per = records.len().div_ceil(chunks.clamp(1, records.len()));
            let meta = serde_json::to_string(&trace.meta)
                .map_err(|e| format!("cannot serialize trace meta: {e}"))?;
            let url = format!("{base}/traces/{session}/append");
            let mut last = String::new();
            let mut done = 0;
            while done < records.len() {
                let end = (done + per).min(records.len());
                let payload = serde_json::to_string(&records[done..end])
                    .map_err(|e| format!("cannot serialize records: {e}"))?;
                let body = format!(r#"{{"offset": {done}, "meta": {meta}, "records": {payload}}}"#);
                let (status, resp) =
                    ibox_serve::request_url(&url, "POST", Some(body.as_bytes()), timeout)?;
                let text = String::from_utf8_lossy(&resp).into_owned();
                if status >= 400 {
                    return Err(CliError::Run(format!(
                        "append of records {done}..{end} failed {status}: {text}"
                    )));
                }
                ibox_obs::debug!("appended records {done}..{end}: {text}");
                last = text;
                done = end;
            }
            println!("{last}");
            Ok(())
        }
        "finalize" => {
            let session = session.ok_or(usage_error("ingest finalize needs --session <id>"))?;
            let url = format!("{base}/traces/{session}/finalize");
            let (status, resp) = ibox_serve::request_url(&url, "POST", Some(b"{}"), timeout)?;
            let text = String::from_utf8_lossy(&resp);
            if status >= 400 {
                return Err(CliError::Run(format!("finalize failed {status}: {text}")));
            }
            println!("{text}");
            Ok(())
        }
        "status" => {
            let url = match session {
                Some(id) => format!("{base}/ingest/sessions/{id}"),
                None => format!("{base}/ingest/sessions"),
            };
            let (status, resp) = ibox_serve::request_url(&url, "GET", None, timeout)?;
            let text = String::from_utf8_lossy(&resp);
            if status >= 400 {
                return Err(CliError::Run(format!("status failed {status}: {text}")));
            }
            println!("{text}");
            Ok(())
        }
        other => {
            let expected = "expected append, finalize, or status";
            Err(usage_error(format!("unknown ingest action {other:?} ({expected})")))
        }
    }
}

/// `ibox trace export <batch.json> -o trace.json`: run a batch with
/// causal tracing on and write the span tree as Chrome trace-event JSON
/// — load the file at <https://ui.perfetto.dev> to see the fit/replay
/// phases and per-job lanes on a timeline. `--timeline` additionally
/// records the simulator's queue-depth counter track and drop/RTO
/// instants for every sim-backed run.
fn cmd_trace(argv: &[String]) -> Result<(), CliError> {
    let p = parse(argv, &TRACE)?;
    let action = p.positional(0, "trace action")?;
    if action != "export" {
        return Err(usage_error(format!("unknown trace action {action:?} (expected \"export\")")));
    }
    let spec_path = p.positional(1, "batch spec file")?;
    let out = p.required("--output")?;
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let mut batch = BatchSpec::from_json(&text)?;
    if let Some(jobs) = p.opt("--jobs") {
        batch.jobs =
            jobs.parse().map_err(|_| usage_error(format!("invalid value for --jobs: {jobs:?}")))?;
    }
    let cache = model_cache(&p)?;

    ibox_obs::trace::set_enabled(true);
    if p.flag("--timeline") {
        ibox_obs::trace::set_timeline(true);
    }
    let trace_id = ibox_obs::trace::next_trace_id();
    let scope =
        ibox_obs::trace::start_root(trace_id, "trace-export").expect("tracing was just enabled");
    let result = ibox::run_batch_with_cache(&batch, batch.jobs, &cache)?;
    drop(scope);

    let (name, events) = ibox_obs::trace::collector()
        .get(trace_id)
        .ok_or("trace was not recorded (collector ring too small for this batch?)")?;
    save_text(&ibox_obs::trace::to_chrome_json(trace_id, &name, &events), out)?;
    print_records(&result.records);
    println!(
        "trace {} ({} events) written to {out}",
        ibox_obs::trace::format_trace_id(trace_id),
        events.len()
    );
    println!("open https://ui.perfetto.dev and load the file to view the timeline");
    write_manifest(RunManifestBuilder::new("trace").config(&batch), out)?;
    Ok(())
}

/// The `ibox version` line: crate version plus the two on-disk schema
/// versions peers need for compatibility checks.
fn version_line() -> String {
    format!(
        "ibox {} (model artifact schema {}, run manifest schema {})",
        env!("CARGO_PKG_VERSION"),
        ibox::MODEL_ARTIFACT_SCHEMA,
        ibox_obs::manifest::MANIFEST_SCHEMA,
    )
}

/// Record batch wall time and the measured speedup over serial execution
/// (sum of per-run `batch-run` spans ÷ wall time) as manifest gauges.
/// Timing lives in the manifest, never in the results JSON — results stay
/// byte-identical at any `--jobs`.
fn record_batch_timing(wall_s: f64, jobs: usize, runs: usize) {
    let registry = ibox_obs::global();
    let effective = if jobs == 0 { ibox::suggested_jobs() } else { jobs }.min(runs).max(1);
    registry.gauge("batch.wall_time_s").set(wall_s);
    registry.gauge("batch.jobs").set(effective as f64);
    let serial_s = registry.snapshot().spans.get("batch-run").map_or(0.0, |s| s.sum / 1e9);
    if wall_s > 0.0 && serial_s > 0.0 {
        let speedup = serial_s / wall_s;
        registry.gauge("batch.speedup_x").set(speedup);
        ibox_obs::info!(
            "batch: {runs} runs in {wall_s:.2}s at {effective} worker(s) — {speedup:.2}x vs serial"
        );
    }
}

fn print_records(records: &[RunRecord]) {
    println!(
        "{:<10} {:<24} {:<8} {:>6} {:>11} {:>9} {:>7} {:>9}",
        "id", "model", "proto", "seed", "rate(Mbps)", "p95(ms)", "loss%", "reorder"
    );
    for r in records {
        println!(
            "{:<10} {:<24} {:<8} {:>6} {:>11.3} {:>9.1} {:>7.2} {:>9.4}",
            r.id,
            r.model,
            r.protocol,
            r.seed,
            r.metrics.avg_rate_mbps,
            r.metrics.p95_delay_ms,
            r.metrics.loss_pct,
            r.metrics.mean_reorder_rate
        );
    }
}

fn print_metrics(trace: &ibox_trace::FlowTrace) {
    let m = TraceMetrics::of(trace);
    println!("packets       : {}", trace.len());
    println!("avg rate      : {:.3} Mbps", m.avg_rate_mbps);
    println!("p95 delay     : {:.1} ms", m.p95_delay_ms);
    println!("loss          : {:.2} %", m.loss_pct);
    println!("reordering    : {:.4} (mean per-1s-window rate)", m.mean_reorder_rate);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn help_succeeds() {
        assert!(dispatch(&argv(&["help"])).is_ok());
    }

    #[test]
    fn usage_covers_every_command() {
        let u = usage();
        for cmd in [
            "fit", "replay", "simulate", "metrics", "synth", "validity", "batch", "serve", "call",
            "ingest", "trace", "version",
        ] {
            assert!(u.contains(&format!("ibox {cmd}")), "usage must mention {cmd}:\n{u}");
        }
        assert!(u.contains("--jobs <N>"), "{u}");
        assert!(u.contains("--model-cache <dir>"), "{u}");
        assert!(u.contains("--addr <host:port>"), "{u}");
        assert!(u.contains("--session <id>"), "{u}");
    }

    #[test]
    fn ingest_argument_errors_are_reported_without_a_daemon() {
        // Grammar-level failures must not require a live server.
        assert!(dispatch(&argv(&["ingest"])).is_err());
        let err = dispatch(&argv(&["ingest", "shred"])).unwrap_err().to_string();
        assert!(err.contains("unknown ingest action"), "{err}");
        let err = dispatch(&argv(&["ingest", "append", "t.json"])).unwrap_err().to_string();
        assert!(err.contains("--session"), "{err}");
        let err = dispatch(&argv(&["ingest", "finalize"])).unwrap_err().to_string();
        assert!(err.contains("--session"), "{err}");
    }

    #[test]
    fn version_reports_crate_and_schema_versions() {
        let line = version_line();
        assert!(line.starts_with(&format!("ibox {}", env!("CARGO_PKG_VERSION"))), "{line}");
        assert!(
            line.contains(&format!("model artifact schema {}", ibox::MODEL_ARTIFACT_SCHEMA)),
            "{line}"
        );
        assert!(
            line.contains(&format!("run manifest schema {}", ibox_obs::manifest::MANIFEST_SCHEMA)),
            "{line}"
        );
        // Both spellings reach the same code path.
        assert!(dispatch(&argv(&["version"])).is_ok());
        assert!(dispatch(&argv(&["--version"])).is_ok());
    }

    #[test]
    fn mistyped_flag_is_rejected_not_swallowed() {
        // `--no-crossx trace.json` must error, not treat the trace path as
        // the value of an invented option (the old parser's behaviour).
        let err =
            dispatch(&argv(&["fit", "--no-crossx", "whatever.json"])).unwrap_err().to_string();
        assert!(err.contains("unknown option --no-crossx"), "{err}");
        assert!(err.contains("did you mean `--no-cross`?"), "{err}");
    }

    #[test]
    fn full_pipeline_synth_fit_simulate() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("ibox_cli_e2e_trace.json").to_string_lossy().into_owned();
        let profile_path = dir.join("ibox_cli_e2e_profile.json").to_string_lossy().into_owned();
        let out_path = dir.join("ibox_cli_e2e_out.csv").to_string_lossy().into_owned();

        dispatch(&argv(&[
            "synth",
            "--profile",
            "india-cellular",
            "--protocol",
            "cubic",
            "--duration",
            "5",
            "--seed",
            "3",
            "-o",
            &trace_path,
        ]))
        .unwrap();
        dispatch(&argv(&["fit", &trace_path, "-o", &profile_path])).unwrap();
        dispatch(&argv(&[
            "simulate",
            &profile_path,
            "--protocol",
            "vegas",
            "--duration",
            "5",
            "--seed",
            "11",
            "-o",
            &out_path,
        ]))
        .unwrap();
        dispatch(&argv(&["metrics", &out_path])).unwrap();

        // Every command with an output wrote a manifest next to it; the
        // simulate manifest carries the engine's per-run metrics.
        let manifest_path = RunManifest::path_for_output(Path::new(&out_path));
        let text = std::fs::read_to_string(&manifest_path).unwrap();
        let manifest: RunManifest = serde_json::from_str(&text).unwrap();
        assert_eq!(manifest.schema, ibox_obs::manifest::MANIFEST_SCHEMA);
        assert_eq!(manifest.command, "simulate");
        assert_eq!(manifest.seed, Some(11));
        assert!(manifest.config_hash.is_some());
        assert!(
            manifest.metrics.len() >= 10,
            "expected a rich snapshot, got {} metrics",
            manifest.metrics.len()
        );
        assert!(manifest.metrics.counters["sim.events_processed"] > 0);
        assert!(manifest.metrics.counters["sim.packets_delivered"] > 0);
        assert!(manifest.metrics.gauges["sim.events_per_sec"] > 0.0);
        assert!(manifest.metrics.spans.contains_key("estimate.static_params"));

        let fit_manifest = RunManifest::path_for_output(Path::new(&profile_path));
        assert!(fit_manifest.exists());

        for p in [&trace_path, &profile_path, &out_path] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(RunManifest::path_for_output(Path::new(p)));
        }
    }

    #[test]
    fn batch_command_is_deterministic_across_jobs() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("ibox_cli_batch_spec.json").to_string_lossy().into_owned();
        let out1 = dir.join("ibox_cli_batch_j1.json").to_string_lossy().into_owned();
        let out4 = dir.join("ibox_cli_batch_j4.json").to_string_lossy().into_owned();

        let mut b = BatchSpec::builder().jobs(1);
        for i in 0..4u64 {
            b = b.run(
                RunSpec::builder()
                    .synth("ethernet", "cubic", 50 + i)
                    .protocol(if i % 2 == 0 { "vegas" } else { "reno" })
                    .duration_s(3.0)
                    .seed(i)
                    .build()
                    .unwrap(),
            );
        }
        std::fs::write(&spec_path, b.build().unwrap().to_json()).unwrap();

        dispatch(&argv(&["batch", &spec_path, "--jobs", "1", "-o", &out1])).unwrap();
        dispatch(&argv(&["batch", &spec_path, "--jobs", "4", "-o", &out4])).unwrap();

        let r1 = std::fs::read_to_string(&out1).unwrap();
        let r4 = std::fs::read_to_string(&out4).unwrap();
        assert_eq!(r1, r4, "batch results must be byte-identical at any --jobs");
        assert!(ibox::BatchResult::from_json(&r1).unwrap().records.len() == 4);

        // The manifest records wall time and the measured speedup.
        let manifest_path = RunManifest::path_for_output(Path::new(&out4));
        let manifest: RunManifest =
            serde_json::from_str(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
        assert_eq!(manifest.command, "batch");
        assert!(manifest.metrics.gauges["batch.wall_time_s"] > 0.0);
        assert!(manifest.metrics.gauges["batch.speedup_x"] > 0.0);

        for p in [&spec_path, &out1, &out4] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(RunManifest::path_for_output(Path::new(p)));
        }
    }

    #[test]
    fn simulate_runs_flag_produces_a_replay_ensemble() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("ibox_cli_runs_trace.json").to_string_lossy().into_owned();
        let profile_path = dir.join("ibox_cli_runs_profile.json").to_string_lossy().into_owned();
        let out_path = dir.join("ibox_cli_runs_out.json").to_string_lossy().into_owned();

        dispatch(&argv(&[
            "synth",
            "--profile",
            "ethernet",
            "--protocol",
            "cubic",
            "--duration",
            "3",
            "-o",
            &trace_path,
        ]))
        .unwrap();
        dispatch(&argv(&["fit", &trace_path, "-o", &profile_path])).unwrap();
        dispatch(&argv(&[
            "simulate",
            &profile_path,
            "--protocol",
            "vegas",
            "--duration",
            "3",
            "--runs",
            "3",
            "--jobs",
            "2",
            "-o",
            &out_path,
        ]))
        .unwrap();

        let result =
            ibox::BatchResult::from_json(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(result.records.len(), 3);
        // Consecutive seeds from the base seed (default 1).
        assert_eq!(result.records.iter().map(|r| r.seed).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(result.records.iter().all(|r| r.model == "profile replay"));

        for p in [&trace_path, &profile_path, &out_path] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(RunManifest::path_for_output(Path::new(p)));
        }
    }

    /// `--duration` is validated before any file is opened or engine
    /// built: a sentence, never an engine assert.
    #[test]
    fn non_positive_durations_are_rejected_with_a_sentence() {
        for bad in ["-5", "0", "nan"] {
            for cmd in [
                &["replay", "m.json", "--protocol", "cubic"][..],
                &["simulate", "p.json", "--protocol", "cubic"],
                &["synth", "--profile", "ethernet", "--protocol", "cubic"],
            ] {
                let err =
                    dispatch(&argv(&[cmd, &["--duration", bad]].concat())).unwrap_err().to_string();
                assert!(
                    err.contains("duration must be a positive number of seconds"),
                    "{} --duration {bad}: {err}",
                    cmd[0]
                );
            }
        }
    }

    #[test]
    fn fit_rejects_missing_file() {
        assert!(dispatch(&argv(&["fit", "/nope/missing.json"])).is_err());
    }

    #[test]
    fn fit_rejects_conflicting_model_flags() {
        let err = dispatch(&argv(&["fit", "--model", "iboxml", "--no-cross", "t.json"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("only apply to the iboxnet model"), "{err}");
        let err = dispatch(&argv(&["fit", "--model", "magic", "t.json"])).unwrap_err().to_string();
        assert!(err.contains("unknown model kind"), "{err}");
    }

    #[test]
    fn replay_reports_typed_errors_with_the_path() {
        let err = dispatch(&argv(&["replay", "/nope/model.json", "--protocol", "cubic"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("/nope/model.json"), "{err}");
    }

    #[test]
    fn fit_then_replay_is_deterministic_across_reloads() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("ibox_cli_replay_trace.json").to_string_lossy().into_owned();
        let model_path = dir.join("ibox_cli_replay_model.json").to_string_lossy().into_owned();
        let out1 = dir.join("ibox_cli_replay_out1.json").to_string_lossy().into_owned();
        let out2 = dir.join("ibox_cli_replay_out2.json").to_string_lossy().into_owned();

        dispatch(&argv(&[
            "synth",
            "--profile",
            "ethernet",
            "--protocol",
            "cubic",
            "--duration",
            "3",
            "-o",
            &trace_path,
        ]))
        .unwrap();
        dispatch(&argv(&["fit", &trace_path, "--model", "statistical-loss", "-o", &model_path]))
            .unwrap();

        // The written artifact is a versioned envelope around the fitted
        // model, and two separate loads replay byte-identically.
        let artifact = ModelArtifact::load(Path::new(&model_path)).unwrap();
        assert_eq!(artifact.schema, ibox::MODEL_ARTIFACT_SCHEMA);
        assert_eq!(artifact.kind, "Statistical loss");
        for out in [&out1, &out2] {
            dispatch(&argv(&[
                "replay",
                &model_path,
                "--protocol",
                "vegas",
                "--duration",
                "3",
                "--seed",
                "7",
                "-o",
                out,
            ]))
            .unwrap();
        }
        let t1 = std::fs::read_to_string(&out1).unwrap();
        let t2 = std::fs::read_to_string(&out2).unwrap();
        assert_eq!(t1, t2, "saved-then-loaded model must replay byte-identically");

        for p in [&trace_path, &model_path, &out1, &out2] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(RunManifest::path_for_output(Path::new(p)));
        }
    }

    #[test]
    fn replay_path_flag_replays_through_a_composed_chain() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("ibox_cli_path_trace.json").to_string_lossy().into_owned();
        let model_path = dir.join("ibox_cli_path_model.json").to_string_lossy().into_owned();
        let chain_path = dir.join("ibox_cli_path_chain.json").to_string_lossy().into_owned();
        let out_flat = dir.join("ibox_cli_path_flat.json").to_string_lossy().into_owned();
        let out_chain = dir.join("ibox_cli_path_chain_out.json").to_string_lossy().into_owned();
        let out_chain2 = dir.join("ibox_cli_path_chain_out2.json").to_string_lossy().into_owned();

        dispatch(&argv(&[
            "synth",
            "--profile",
            "ethernet",
            "--protocol",
            "cubic",
            "--duration",
            "3",
            "-o",
            &trace_path,
        ]))
        .unwrap();
        dispatch(&argv(&["fit", &trace_path, "-o", &model_path])).unwrap();
        std::fs::write(
            &chain_path,
            r#"[{"rate_bps":20e6,"prop_delay_ms":5,"buffer_bytes":80000},
                {"rate_bps":8e6,"prop_delay_ms":12,"buffer_bytes":60000}]"#,
        )
        .unwrap();

        let replay = |out: &str, extra: &[&str]| {
            let mut args =
                vec!["replay", &model_path, "--protocol", "cubic", "--duration", "3", "-o", out];
            args.extend_from_slice(extra);
            dispatch(&argv(&args)).unwrap();
        };
        replay(&out_flat, &[]);
        replay(&out_chain, &["--path", &chain_path]);
        replay(&out_chain2, &["--path", &chain_path]);

        let flat = std::fs::read_to_string(&out_flat).unwrap();
        let chain = std::fs::read_to_string(&out_chain).unwrap();
        assert_ne!(flat, chain, "the composed path must change the replay");
        assert_eq!(
            chain,
            std::fs::read_to_string(&out_chain2).unwrap(),
            "composed replay must be deterministic"
        );

        // Bad path files are typed errors, not panics.
        let err = dispatch(&argv(&[
            "replay",
            &model_path,
            "--protocol",
            "cubic",
            "--path",
            "/nope/chain.json",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("/nope/chain.json"), "{err}");
        std::fs::write(&chain_path, "[]").unwrap();
        let err =
            dispatch(&argv(&["replay", &model_path, "--protocol", "cubic", "--path", &chain_path]))
                .unwrap_err()
                .to_string();
        assert!(err.contains("at least one stage"), "{err}");
        // Stages an engine would assert on: one sentence naming the stage
        // and the field.
        let ok = r#"{"rate_bps":5e6,"prop_delay_ms":10,"buffer_bytes":60000"#;
        for (stage, field) in [
            (r#"{"rate_bps":5e6,"prop_delay_ms":10,"buffer_bytes":0}"#.to_string(), "buffer_bytes"),
            (r#"{"rate_bps":0,"prop_delay_ms":10,"buffer_bytes":60000}"#.to_string(), "rate"),
            (format!(r#"{ok},"random_loss":2}}"#), "random_loss"),
            (
                format!(
                    r#"{ok},"cross":[{{"Cbr":{{"rate_bps":1e6,"pkt_size":1200,"start":5,"stop":5}}}}]}}"#
                ),
                "cross[0]",
            ),
            (
                r#"{"rate_bps":5e6,"prop_delay_ms":-4,"buffer_bytes":60000}"#.to_string(),
                "prop_delay_ms",
            ),
            (
                format!(r#"{ok},"reorder":{{"probability":0.1,"extra_min":9,"extra_max":3}}}}"#),
                "reorder",
            ),
        ] {
            std::fs::write(&chain_path, format!("[{ok}}}, {stage}]")).unwrap();
            let err = dispatch(&argv(&[
                "replay",
                &model_path,
                "--protocol",
                "cubic",
                "--path",
                &chain_path,
            ]))
            .unwrap_err()
            .to_string();
            assert!(err.contains("stage 1") && err.contains(field), "{field}: {err}");
        }

        for p in [&trace_path, &model_path, &chain_path, &out_flat, &out_chain, &out_chain2] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(RunManifest::path_for_output(Path::new(p)));
        }
    }

    #[test]
    fn batch_model_cache_persists_fits_across_invocations() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("ibox_cli_cache_spec.json").to_string_lossy().into_owned();
        let cache_dir = dir
            .join(format!("ibox_cli_cache_dir_{}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let out1 = dir.join("ibox_cli_cache_out1.json").to_string_lossy().into_owned();
        let out2 = dir.join("ibox_cli_cache_out2.json").to_string_lossy().into_owned();
        let _ = std::fs::remove_dir_all(&cache_dir);

        let batch = BatchSpec::builder()
            .jobs(1)
            .run(
                RunSpec::builder()
                    .synth("ethernet", "cubic", 60)
                    .protocol("vegas")
                    .duration_s(3.0)
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        std::fs::write(&spec_path, batch.to_json()).unwrap();

        dispatch(&argv(&["batch", &spec_path, "--model-cache", &cache_dir, "-o", &out1])).unwrap();
        let cached: Vec<_> = std::fs::read_dir(&cache_dir).unwrap().collect();
        assert_eq!(cached.len(), 1, "one fit ⇒ one cache entry on disk");

        dispatch(&argv(&["batch", &spec_path, "--model-cache", &cache_dir, "-o", &out2])).unwrap();
        assert_eq!(
            std::fs::read_to_string(&out1).unwrap(),
            std::fs::read_to_string(&out2).unwrap(),
            "a disk-cache hit must reproduce the fresh-fit results byte for byte"
        );

        let _ = std::fs::remove_dir_all(&cache_dir);
        for p in [&spec_path, &out1, &out2] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(RunManifest::path_for_output(Path::new(p)));
        }
    }

    #[test]
    fn trace_export_writes_perfetto_loadable_json() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("ibox_cli_trace_spec.json").to_string_lossy().into_owned();
        let out_path = dir.join("ibox_cli_trace_out.json").to_string_lossy().into_owned();

        let batch = BatchSpec::builder()
            .jobs(2)
            .run(
                RunSpec::builder()
                    .synth("ethernet", "cubic", 71)
                    .protocol("vegas")
                    .duration_s(3.0)
                    .build()
                    .unwrap(),
            )
            .run(
                RunSpec::builder()
                    .synth("ethernet", "cubic", 72)
                    .protocol("reno")
                    .duration_s(3.0)
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        std::fs::write(&spec_path, batch.to_json()).unwrap();

        dispatch(&argv(&["trace", "export", &spec_path, "--timeline", "-o", &out_path])).unwrap();

        let text = std::fs::read_to_string(&out_path).unwrap();
        let value = serde_json::parse_value(&text).unwrap();
        assert!(value.get("traceEvents").and_then(|v| v.as_array()).is_some_and(|a| !a.is_empty()));
        for span in ["trace-export", "batch-run", "fit-cache", "model-fit", "job-0", "job-1"] {
            assert!(text.contains(&format!("\"{span}\"")), "span {span:?} missing");
        }
        // --timeline recorded the sim's counter track.
        assert!(text.contains("sim.queue_depth_bytes"), "timeline counter track missing");

        assert!(dispatch(&argv(&["trace", "import", &spec_path, "-o", &out_path])).is_err());

        for p in [&spec_path, &out_path] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(RunManifest::path_for_output(Path::new(p)));
        }
    }

    #[test]
    fn simulate_rejects_unknown_protocol() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("ibox_cli_proto_trace.json").to_string_lossy().into_owned();
        let profile_path = dir.join("ibox_cli_proto_profile.json").to_string_lossy().into_owned();
        dispatch(&argv(&[
            "synth",
            "--profile",
            "ethernet",
            "--protocol",
            "reno",
            "--duration",
            "3",
            "-o",
            &trace_path,
        ]))
        .unwrap();
        dispatch(&argv(&["fit", &trace_path, "-o", &profile_path])).unwrap();
        assert!(dispatch(&argv(&["simulate", &profile_path, "--protocol", "quic-quac"])).is_err());
        for p in [&trace_path, &profile_path] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(RunManifest::path_for_output(Path::new(p)));
        }
    }
}
