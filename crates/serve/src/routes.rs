//! Endpoint handlers and the shared application state.
//!
//! Every handler is a pure `(App, Request) → Response` function over the
//! JSON API; the transport loop lives in [`crate::server`]. Handlers are
//! wrapped by [`handle`], which records the per-endpoint observability
//! contract — `serve.requests.<ep>`, `serve.errors.<ep>`, and a latency
//! histogram whose snapshot reports p50/p90/p95/p99 — and converts a
//! handler panic into a 500 instead of killing the worker thread.
//!
//! Determinism: `/replay` answers with exactly
//! `serde_json::to_string(&trace)` for the registered model — the same
//! bytes the offline `ibox replay -o` path writes — and `/batch` answers
//! with `BatchResult::to_json()`, which is jobs-invariant by the batch
//! layer's contract.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use serde::{Deserialize, Value};

use ibox_obs::Stopwatch;

use ibox::{BatchSpec, FitCache, FitCacheKey, ModelArtifact, ModelKind, ReplayRequest};
use ibox_ingest::{FinalizeOutput, SessionStore};
use ibox_trace::{FlowMeta, FlowTrace, PacketRecord};

use crate::http::{Request, Response};
use crate::registry::{relock, split_version, ModelRegistry};
use crate::server::ServeConfig;

/// State of an asynchronous `/fit` job keyed by model id.
enum FitJob {
    /// A worker thread is fitting (or about to).
    Pending,
    /// The fit failed; the error is served once to the next `/fit`
    /// request for the same id (which clears it, allowing a retry).
    Failed(String),
}

/// Everything the handlers share: the fit cache, the artifact registry,
/// the ingest session store, and the async-fit job table.
pub struct App {
    /// Content-addressed fit cache, in memory and bounded like the
    /// registry's decoded tier; the registry is the daemon's disk store.
    pub cache: FitCache,
    /// The artifact registry backing `GET /models`.
    pub registry: ModelRegistry,
    /// Chunked ingest sessions under `<model_dir>/ingest`.
    pub ingest: SessionStore,
    batch_jobs_cap: usize,
    max_async_fits: usize,
    stop: Arc<AtomicBool>,
    addr: OnceLock<SocketAddr>,
    started: Stopwatch,
    fit_jobs: Mutex<HashMap<String, FitJob>>,
    fits_active: AtomicUsize,
    fit_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl App {
    /// Build the state for a daemon serving `config.model_dir` under its
    /// ingest budgets and registry cap. `jobs` bounds `/batch` parallelism
    /// and, at least two, concurrent background fits; `stop` is the shared
    /// shutdown flag the `/shutdown` endpoint trips.
    pub fn new(config: &ServeConfig, jobs: usize, stop: Arc<AtomicBool>) -> Result<Self, String> {
        let dir = &config.model_dir;
        let registry = ModelRegistry::open(dir)?.with_byte_cap(config.registry_cap_bytes);
        Ok(Self {
            cache: FitCache::in_memory().with_byte_cap(registry.decoded_cap()),
            registry,
            ingest: SessionStore::open(dir, config.ingest.clone()).map_err(|e| e.to_string())?,
            batch_jobs_cap: jobs.max(1),
            max_async_fits: jobs.max(2),
            stop,
            addr: OnceLock::new(),
            started: Stopwatch::start(),
            fit_jobs: Mutex::new(HashMap::new()),
            fits_active: AtomicUsize::new(0),
            fit_threads: Mutex::new(Vec::new()),
        })
    }

    /// Record the bound listener address (used by `/shutdown` to wake
    /// the blocking acceptor with a self-connection).
    pub fn set_addr(&self, addr: SocketAddr) {
        let _ = self.addr.set(addr);
    }

    /// Whether shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Trip the shutdown flag and wake the acceptor.
    pub fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(addr) = self.addr.get() {
            // A throwaway connection unblocks the acceptor's accept().
            let _ = std::net::TcpStream::connect_timeout(addr, std::time::Duration::from_secs(1));
        }
    }

    /// Join every background fit thread (part of graceful drain).
    pub fn drain_fits(&self) {
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *relock(&self.fit_threads));
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Stable label for per-endpoint metrics (bounded cardinality: hostile
/// paths all fall into `other`).
pub fn endpoint_label(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("GET", "/healthz") => "healthz",
        ("GET", "/metrics") => "metrics",
        ("GET", "/models") => "models",
        ("GET", _) if path.starts_with("/models/") && path.ends_with("/versions") => {
            "models_versions"
        }
        ("GET", _) if path.starts_with("/models/") => "models_id",
        ("GET", "/traces") => "traces",
        ("GET", _) if path.starts_with("/trace/") => "trace",
        ("GET", "/ingest/sessions") => "ingest_sessions",
        ("GET", _) if path.starts_with("/ingest/sessions/") => "ingest_session",
        ("POST", _) if path.starts_with("/traces/") && path.ends_with("/append") => "ingest_append",
        ("POST", _) if path.starts_with("/traces/") && path.ends_with("/finalize") => {
            "ingest_finalize"
        }
        ("POST", "/fit") => "fit",
        ("POST", "/replay") => "replay",
        ("POST", "/batch") => "batch",
        ("POST", "/shutdown") => "shutdown",
        _ => "other",
    }
}

/// Whether requests to this endpoint get a causal trace of their own.
/// Observability read endpoints are exempt: tracing the act of reading
/// traces would pollute the collector with noise, and `other` covers
/// hostile paths whose traces nobody will ever look up.
fn traced_endpoint(label: &str) -> bool {
    !matches!(label, "healthz" | "metrics" | "trace" | "traces" | "other")
}

/// Route and execute `req`, recording the per-endpoint metrics contract.
/// A panicking handler is caught and answered as a 500 — one bad request
/// must not take a worker thread (and its queue slot) down with it.
pub fn handle(app: &Arc<App>, req: &Request) -> Response {
    let label = endpoint_label(&req.method, &req.path);
    let t0 = Stopwatch::start();
    // Each traced request becomes a root span `request.<label>` under its
    // own trace ID — the caller's via `x-ibox-trace-id` (hex, or any
    // token: non-hex hashes deterministically), otherwise server-assigned.
    let scope = if traced_endpoint(label) {
        let trace = req
            .header("x-ibox-trace-id")
            .and_then(ibox_obs::trace::parse_trace_id)
            .unwrap_or_else(ibox_obs::trace::next_trace_id);
        ibox_obs::trace::start_root(trace, &format!("request.{label}"))
    } else {
        None
    };
    let resp = std::panic::catch_unwind(AssertUnwindSafe(|| dispatch(app, req)))
        .unwrap_or_else(|_| Response::error(500, "internal error: handler panicked"));
    // Flush the trace before the metrics block so `/trace/<id>` reflects
    // a request as soon as its response is on the wire.
    drop(scope);
    let latency_ms = t0.elapsed_ms();

    let reg = ibox_obs::global();
    reg.counter("serve.requests").inc();
    reg.counter(&format!("serve.requests.{label}")).inc();
    if resp.status >= 400 {
        reg.counter("serve.errors").inc();
        reg.counter(&format!("serve.errors.{label}")).inc();
    }
    reg.histogram(&format!("serve.latency_ms.{label}")).record(latency_ms);
    resp
}

fn dispatch(app: &Arc<App>, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(app),
        ("GET", "/metrics") => handle_metrics(req),
        ("GET", "/models") => handle_models(app),
        ("GET", path) if path.starts_with("/models/") && path.ends_with("/versions") => {
            let id = &path["/models/".len()..path.len() - "/versions".len()];
            handle_model_versions(app, id)
        }
        ("GET", path) if path.starts_with("/models/") => {
            handle_model_by_id(app, &path["/models/".len()..])
        }
        ("GET", "/traces") => handle_traces(),
        ("GET", path) if path.starts_with("/trace/") => {
            handle_trace_by_id(&path["/trace/".len()..], req)
        }
        ("GET", "/ingest/sessions") => handle_ingest_sessions(app),
        ("GET", path) if path.starts_with("/ingest/sessions/") => {
            handle_ingest_session_by_id(app, &path["/ingest/sessions/".len()..])
        }
        ("POST", path) if path.starts_with("/traces/") && path.ends_with("/append") => {
            let id = &path["/traces/".len()..path.len() - "/append".len()];
            handle_ingest_append(app, id, req)
        }
        ("POST", path) if path.starts_with("/traces/") && path.ends_with("/finalize") => {
            let id = &path["/traces/".len()..path.len() - "/finalize".len()];
            handle_ingest_finalize(app, id)
        }
        // Disambiguation 404 (typed): `/traces/{id}` is neither a causal
        // trace (`/trace/{id}`) nor a session view (`/ingest/sessions/{id}`).
        // (`GET` on an append/finalize path still 405s below.)
        ("GET", path)
            if path.starts_with("/traces/")
                && !path.ends_with("/append")
                && !path.ends_with("/finalize") =>
        {
            Response::error(
                404,
                &format!(
                    "no resource at {path}: ingest sessions are read at \
                     /ingest/sessions/{{id}}, causal traces at /trace/{{id}}"
                ),
            )
        }
        ("POST", "/fit") => handle_fit(app, req),
        ("POST", "/replay") => handle_replay(app, req).unwrap_or_else(|resp| resp),
        ("POST", "/batch") => handle_batch(app, req).unwrap_or_else(|resp| resp),
        ("POST", "/shutdown") => handle_shutdown(app),
        (_, path)
            if KNOWN_PATHS.contains(&path)
                || path.starts_with("/models/")
                || path.starts_with("/trace/")
                || path.starts_with("/traces/")
                || path.starts_with("/ingest/sessions/") =>
        {
            Response::error(405, &format!("method {} not allowed on {path}", req.method))
        }
        (_, path) => Response::error(404, &format!("no such endpoint {path}")),
    }
}

/// Paths that exist (under some method), for distinguishing 405 from 404.
const KNOWN_PATHS: &[&str] = &[
    "/healthz",
    "/metrics",
    "/models",
    "/traces",
    "/ingest/sessions",
    "/fit",
    "/replay",
    "/batch",
    "/shutdown",
];

/// Build a compact JSON object response from string pairs.
fn object_response(status: u16, fields: &[(&str, &str)]) -> Response {
    let value = Value::Object(
        fields.iter().map(|(k, v)| (k.to_string(), Value::Str(v.to_string()))).collect(),
    );
    Response::json(status, serde_json::to_string(&value).expect("object body serializes"))
}

fn handle_healthz(app: &Arc<App>) -> Response {
    let uptime = (app.started.elapsed_s() as u64).to_string();
    object_response(200, &[("status", "ok"), ("uptime_s", &uptime)])
}

fn handle_metrics(req: &Request) -> Response {
    let snapshot = ibox_obs::global().snapshot();
    match req.query_param("format") {
        Some("prometheus") => {
            Response::text(200, "text/plain; version=0.0.4", snapshot.to_prometheus())
        }
        Some(other) => Response::error(400, &format!("unknown metrics format {other:?}")),
        None => match serde_json::to_string(&snapshot) {
            Ok(json) => Response::json(200, json),
            Err(e) => Response::error(500, &format!("cannot serialize metrics: {e}")),
        },
    }
}

/// Bounded most-recent-first listing of traces still in the ring.
fn handle_traces() -> Response {
    let summaries = ibox_obs::trace::collector().list(32);
    match serde_json::to_string(&summaries) {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::error(500, &format!("cannot serialize trace list: {e}")),
    }
}

fn handle_trace_by_id(id: &str, req: &Request) -> Response {
    let Some(trace) = ibox_obs::trace::parse_trace_id(id) else {
        return Response::error(400, &format!("bad trace id {id:?}"));
    };
    let Some((name, events)) = ibox_obs::trace::collector().get(trace) else {
        return Response::error(404, &format!("no trace {id:?} (not recorded, or evicted)"));
    };
    match req.query_param("format") {
        Some("chrome") => {
            Response::json(200, ibox_obs::trace::to_chrome_json(trace, &name, &events))
        }
        Some(other) => Response::error(400, &format!("unknown trace format {other:?}")),
        None => Response::json(200, ibox_obs::trace::to_json(trace, &name, &events)),
    }
}

fn handle_models(app: &Arc<App>) -> Response {
    let summaries = app.registry.list();
    match serde_json::to_string(&summaries) {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::error(500, &format!("cannot serialize model list: {e}")),
    }
}

fn handle_model_by_id(app: &Arc<App>, id: &str) -> Response {
    if let Some(job) = relock(&app.fit_jobs).get(id) {
        return match job {
            FitJob::Pending => object_response(202, &[("model", id), ("status", "pending")]),
            FitJob::Failed(e) => Response::error_with(
                500,
                "fit_failed",
                &format!("fit failed for model {id}"),
                Some(e),
            ),
        };
    }
    match app.registry.get(id) {
        Ok(artifact) => Response::json(200, artifact.to_json()),
        Err(e) => Response::error(e.status(), &e.to_string()),
    }
}

/// Parse a request body as a JSON object, mapping failures to 400s.
fn body_object(req: &Request) -> Result<Value, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::error(400, "body is not valid utf-8"))?;
    let value = serde_json::parse_value(text)
        .map_err(|e| Response::error(400, &format!("body is not valid json: {e}")))?;
    if value.as_object().is_none() {
        return Err(Response::error(400, "body must be a json object"));
    }
    Ok(value)
}

/// Extract an optional typed field, mapping type errors to 400s.
fn field<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, Response> {
    ibox::replay::field(v, name).map_err(|e| Response::error(400, &e))
}

/// Extract a required typed field.
fn required<T: Deserialize>(v: &Value, name: &str) -> Result<T, Response> {
    field(v, name)?.ok_or_else(|| Response::error(400, &format!("missing field {name:?}")))
}

/// The longest replay or synthesis the daemon runs for a request, seconds:
/// `/replay`, `/fit`'s `synth`, every `/batch` run. (Offline commands keep
/// only the engine's bound: finite, positive.)
const MAX_SERVED_DURATION_S: f64 = 3600.0;

fn served_duration(duration_s: f64) -> Result<(), String> {
    if duration_s > MAX_SERVED_DURATION_S {
        return Err(format!(
            "duration_s must be at most {MAX_SERVED_DURATION_S} when served, got {duration_s}"
        ));
    }
    Ok(())
}

/// A replay the daemon will run: its own checks plus the served ceiling.
fn served(replay: Result<ReplayRequest, String>) -> Result<ReplayRequest, String> {
    let replay = replay?;
    served_duration(replay.duration_s)?;
    replay.check()?;
    Ok(replay)
}

/// Resolve the training trace of a `/fit` request: either an inline
/// `"trace"` (a serialized `FlowTrace`) or a `"synth"` spec naming a
/// testbed profile.
fn training_trace(body: &Value) -> Result<FlowTrace, Response> {
    if let Some(t) = body.get("trace") {
        return FlowTrace::from_value(t)
            .map_err(|e| Response::error(400, &format!("field \"trace\": {e}")));
    }
    let Some(synth) = body.get("synth") else {
        return Err(Response::error(400, "fit request needs \"trace\" or \"synth\""));
    };
    let profile: String = required(synth, "profile")?;
    let protocol: String = field(synth, "protocol")?.unwrap_or_else(|| "cubic".to_string());
    let seed: u64 = field(synth, "seed")?.unwrap_or(1);
    let duration_s: f64 = field(synth, "duration_s")?.unwrap_or(10.0);
    served_duration(duration_s)
        .and_then(|()| ibox_testbed::synth(&profile, &protocol, duration_s, seed))
        .map(|(_, trace)| trace)
        .map_err(|e| Response::error(400, &e))
}

/// Fit through the single-flight cache and publish the artifact under
/// its content-addressed id.
fn fit_and_register(
    app: &App,
    kind: &ModelKind,
    train: &FlowTrace,
    id: &str,
) -> Result<(), String> {
    let (key, model) = app.cache.fit_path_model_keyed(kind, train);
    debug_assert_eq!(key.id(), id);
    let artifact = ModelArtifact::new(kind, model);
    app.registry.put(id, &artifact).map_err(|e| e.to_string())
}

/// Map an ingest-layer error onto the typed HTTP envelope.
fn ingest_error(e: &ibox_ingest::IngestError) -> Response {
    Response::error(e.http_status(), &e.to_string())
}

fn handle_ingest_sessions(app: &Arc<App>) -> Response {
    match app.ingest.list() {
        Ok(sessions) => match serde_json::to_string(&sessions) {
            Ok(json) => Response::json(200, json),
            Err(e) => Response::error(500, &format!("cannot serialize session list: {e}")),
        },
        Err(e) => ingest_error(&e),
    }
}

fn handle_ingest_session_by_id(app: &Arc<App>, id: &str) -> Response {
    match app.ingest.status(id) {
        Ok(status) => match serde_json::to_string(&status) {
            Ok(json) => Response::json(200, json),
            Err(e) => Response::error(500, &format!("cannot serialize session: {e}")),
        },
        Err(e) => ingest_error(&e),
    }
}

/// Fit a session's (snapshot or finalized) trace through the
/// single-flight cache and register it as the next lineage version
/// `<id>-v<fit_seq>` plus the latest pointer at `<id>`.
fn fit_session_version(app: &App, id: &str, out: &FinalizeOutput) -> Result<String, Response> {
    let (_key, model) = app.cache.fit_path_model_keyed(&out.kind, &out.trace);
    let parent = (out.fit_seq > 1).then(|| format!("{id}-v{}", out.fit_seq - 1));
    let artifact =
        ModelArtifact::new(&out.kind, model).with_lineage(parent, out.trace.digest(), out.fit_seq);
    app.registry.put_version(id, &artifact).map_err(|e| Response::error(e.status(), &e.to_string()))
}

fn handle_ingest_append(app: &Arc<App>, id: &str, req: &Request) -> Response {
    let body = match body_object(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let parsed = (|| {
        let offset: u64 = required(&body, "offset")?;
        let records: Vec<PacketRecord> = required(&body, "records")?;
        let kind: Option<ModelKind> = field(&body, "model")?;
        let meta: Option<FlowMeta> = field(&body, "meta")?;
        Ok((offset, records, kind, meta))
    })();
    let (offset, records, kind, meta) = match parsed {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let res = match app.ingest.append(id, kind, meta, offset, records) {
        Ok(r) => r,
        Err(e) => return ingest_error(&e),
    };
    // Configured refit cadence: fold the stream so far into the next
    // registered version, synchronously — the client learns the version
    // id its chunk produced.
    let version = if res.refit_due {
        match app.ingest.snapshot(id) {
            Ok(out) => match fit_session_version(app, id, &out) {
                Ok(v) => Some(v),
                Err(resp) => return resp,
            },
            Err(e) => return ingest_error(&e),
        }
    } else {
        None
    };
    let mut fields = vec![
        ("session".to_string(), Value::Str(id.to_string())),
        ("outcome".to_string(), Value::Str(res.outcome.as_str().to_string())),
        ("next_offset".to_string(), Value::U64(res.next_offset)),
        ("chunks".to_string(), Value::U64(res.chunks)),
        ("buffered".to_string(), Value::U64(res.buffered as u64)),
    ];
    if let Some(wm) = &res.watermark {
        fields.push(("watermark".to_string(), serde::Serialize::to_value(wm)));
    }
    if let Some(v) = version {
        fields.push(("version".to_string(), Value::Str(v)));
    }
    match serde_json::to_string(&Value::Object(fields)) {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::error(500, &format!("cannot serialize append result: {e}")),
    }
}

fn handle_ingest_finalize(app: &Arc<App>, id: &str) -> Response {
    let out = match app.ingest.finalize(id) {
        Ok(o) => o,
        Err(e) => return ingest_error(&e),
    };
    let version = match fit_session_version(app, id, &out) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let records = out.trace.len().to_string();
    let fit_seq = out.fit_seq.to_string();
    object_response(
        200,
        &[
            ("model", id),
            ("version", &version),
            ("fit_seq", &fit_seq),
            ("records", &records),
            ("status", "ready"),
        ],
    )
}

fn handle_model_versions(app: &Arc<App>, id: &str) -> Response {
    match app.registry.versions(id) {
        Ok(versions) => match serde_json::to_string(&versions) {
            Ok(json) => Response::json(200, json),
            Err(e) => Response::error(500, &format!("cannot serialize versions: {e}")),
        },
        Err(e) => Response::error(e.status(), &e.to_string()),
    }
}

fn handle_fit(app: &Arc<App>, req: &Request) -> Response {
    let body = match body_object(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let parsed = (|| {
        let kind: ModelKind = field(&body, "model")?.unwrap_or(ModelKind::IBoxNet);
        let wait: bool = field(&body, "wait")?.unwrap_or(false);
        let train = training_trace(&body)?;
        Ok((kind, wait, train))
    })();
    let (kind, wait, train) = match parsed {
        Ok(p) => p,
        Err(resp) => return resp,
    };

    let id = FitCacheKey::for_fit(&kind, &train).id();
    if app.registry.contains(&id) {
        return object_response(200, &[("model", &id), ("status", "ready")]);
    }
    // A trace the estimators refuse is the client's error, answered before
    // a fit (or a job slot) is spent on it.
    if let Err(e) = ibox::check_fit(&train) {
        return Response::error(400, &format!("the training trace cannot be fitted: {e}"));
    }

    if wait {
        return match fit_and_register(app, &kind, &train, &id) {
            Ok(()) => object_response(200, &[("model", &id), ("status", "ready")]),
            Err(e) => Response::error_with(
                500,
                "fit_failed",
                &format!("fit failed for model {id}"),
                Some(&e),
            ),
        };
    }

    // Async path: claim the job slot under the table lock, then spawn.
    {
        let mut jobs = relock(&app.fit_jobs);
        match jobs.get(&id) {
            Some(FitJob::Pending) => {
                return object_response(202, &[("model", &id), ("status", "pending")]);
            }
            Some(FitJob::Failed(_)) => {
                let Some(FitJob::Failed(e)) = jobs.remove(&id) else { unreachable!() };
                return Response::error_with(
                    500,
                    "fit_failed",
                    &format!("fit failed for model {id}"),
                    Some(&e),
                );
            }
            None => {
                if app.fits_active.load(Ordering::SeqCst) >= app.max_async_fits {
                    ibox_obs::global().counter("serve.shed.fit").inc();
                    return Response::overloaded("fit queue full, retry later");
                }
                jobs.insert(id.clone(), FitJob::Pending);
                app.fits_active.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    let app2 = Arc::clone(app);
    let id2 = id.clone();
    // The background fit outlives this request's root scope, so it gets a
    // detached child span that flushes straight to the collector: the
    // request's trace grows an `async-fit` subtree when the fit lands.
    let link = ibox_obs::trace::link(1);
    let handle = std::thread::spawn(move || {
        let _tracing = link.as_ref().map(|l| l.thread_scope(0, "async-fit"));
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            fit_and_register(&app2, &kind, &train, &id2)
        }))
        .unwrap_or_else(|_| Err("fit panicked".to_string()));
        let mut jobs = relock(&app2.fit_jobs);
        match outcome {
            Ok(()) => {
                jobs.remove(&id2);
            }
            Err(e) => {
                ibox_obs::warn!("async fit {id2} failed: {e}");
                jobs.insert(id2.clone(), FitJob::Failed(e));
            }
        }
        drop(jobs);
        app2.fits_active.fetch_sub(1, Ordering::SeqCst);
    });
    {
        // Keep the handle for graceful drain; reap finished threads so
        // the list stays bounded by max_async_fits in steady state.
        let mut threads = relock(&app.fit_threads);
        let (done, running): (Vec<_>, Vec<_>) = threads.drain(..).partition(|t| t.is_finished());
        for t in done {
            let _ = t.join();
        }
        *threads = running;
        threads.push(handle);
    }
    object_response(202, &[("model", &id), ("status", "pending")])
}

/// `POST /replay`: the body's replay options become one
/// [`ReplayRequest`]; an `Err` is the error response to send.
fn handle_replay(app: &Arc<App>, req: &Request) -> Result<Response, Response> {
    let body = body_object(req)?;
    let model_id: String = required(&body, "model")?;
    let replay = served(ReplayRequest::from_value(&body)).map_err(|e| Response::error(400, &e))?;
    // Version resolution: an explicit `<id>-vN` pins that version; a
    // base id with lineage resolves deterministically to its newest
    // version. The pin holds for the whole replay, so registry eviction
    // cannot remove the resolved version mid-read.
    let resolved = if split_version(&model_id).is_some() {
        model_id.clone()
    } else {
        app.registry.latest_version(&model_id).unwrap_or_else(|| model_id.clone())
    };
    let _pin = app.registry.pin(&resolved);
    let artifact =
        app.registry.get(&resolved).map_err(|e| Response::error(e.status(), &e.to_string()))?;
    // The request passed `check()`: an error here is the recorded path's.
    let trace = replay
        .run(&artifact)
        .map_err(|e| Response::error(500, &format!("model {resolved}: {e}")))?;
    ibox_obs::global().counter("serve.replay.packets").add(trace.len() as u64);
    // Exactly the bytes `ibox replay -o out.json` writes for this model:
    // the replay path is byte-identical online and offline.
    let encoded = {
        let _span = ibox_obs::span!("json.encode");
        serde_json::to_string(&trace)
    };
    let json =
        encoded.map_err(|e| Response::error(500, &format!("cannot serialize trace: {e}")))?;
    ibox_obs::global().counter("serve.replay.encode_bytes").add(json.len() as u64);
    Ok(Response::json(200, json))
}

/// `POST /batch`; an `Err` is the error response to send.
fn handle_batch(app: &Arc<App>, req: &Request) -> Result<Response, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::error(400, "body is not valid utf-8"))?;
    let batch: BatchSpec = serde_json::from_str(text)
        .map_err(|e| Response::error(400, &format!("bad batch spec: {e}")))?;
    // Invalid replay options are the client's error, refused by run index
    // before any run starts; what fails later is the server's.
    for (i, run) in batch.runs.iter().enumerate() {
        served(ReplayRequest::from_spec(run))
            .map_err(|e| Response::error(400, &format!("run {i}: {e}")))?;
    }
    // The spec's own `jobs` applies, capped by the server's budget; the
    // result bytes are identical at any value by the batch contract.
    let jobs =
        if batch.jobs == 0 { app.batch_jobs_cap } else { batch.jobs.min(app.batch_jobs_cap) };
    ibox::run_batch_with_cache(&batch, jobs, &app.cache)
        .map(|result| Response::json(200, result.to_json()))
        .map_err(|e| Response::error(500, &format!("batch failed: {e}")))
}

fn handle_shutdown(app: &Arc<App>) -> Response {
    ibox_obs::info!("shutdown requested over http");
    app.begin_shutdown();
    let mut resp = object_response(200, &[("status", "draining")]);
    resp.close = true;
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox::RunSpec;
    use std::path::PathBuf;

    fn test_app(tag: &str) -> (Arc<App>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("ibox_routes_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig::new("127.0.0.1:0", &dir);
        let app = App::new(&config, 2, Arc::new(AtomicBool::new(false))).expect("app state builds");
        (Arc::new(app), dir)
    }

    fn get(target: &str) -> Request {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: query.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn body_text(resp: &Response) -> String {
        String::from_utf8(resp.body.clone()).expect("utf-8 body")
    }

    #[test]
    fn metrics_content_type_switches_with_format() {
        let (app, dir) = test_app("metrics_ct");

        let json = handle(&app, &get("/metrics"));
        assert_eq!(json.status, 200);
        assert_eq!(json.content_type, "application/json");
        assert!(body_text(&json).starts_with('{'), "json snapshot body");

        let prom = handle(&app, &get("/metrics?format=prometheus"));
        assert_eq!(prom.status, 200);
        assert_eq!(prom.content_type, "text/plain; version=0.0.4");
        let text = body_text(&prom);
        assert!(text.contains("# TYPE "), "exposition has TYPE lines:\n{text}");
        assert!(!text.starts_with('{'), "prometheus body must not be json");

        assert_eq!(handle(&app, &get("/metrics?format=xml")).status, 400);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_fit_exposes_its_span_tree_over_http() {
        ibox_obs::trace::set_enabled(true);
        let (app, dir) = test_app("traced_fit");

        let mut fit = get("/fit");
        fit.method = "POST".to_string();
        fit.headers.push(("x-ibox-trace-id".to_string(), "routes-test-fit".to_string()));
        fit.body = br#"{"wait":true,"model":"IBoxNet",
            "synth":{"profile":"ethernet","protocol":"cubic","seed":417,"duration_s":2}}"#
            .to_vec();
        let resp = handle(&app, &fit);
        assert_eq!(resp.status, 200, "{}", body_text(&resp));

        // The caller-supplied (non-hex, hence hashed) id resolves to the
        // same trace on the read side.
        let trace = handle(&app, &get("/trace/routes-test-fit"));
        assert_eq!(trace.status, 200, "{}", body_text(&trace));
        let body = body_text(&trace);
        for span in ["request.fit", "fit-cache", "model-fit"] {
            assert!(body.contains(span), "span {span:?} missing from:\n{body}");
        }

        let chrome = handle(&app, &get("/trace/routes-test-fit?format=chrome"));
        assert_eq!(chrome.status, 200);
        assert!(body_text(&chrome).contains("traceEvents"));
        assert_eq!(handle(&app, &get("/trace/routes-test-fit?format=xml")).status, 400);

        // Listing includes the request trace; unknown traces 404.
        let listing = body_text(&handle(&app, &get("/traces")));
        assert!(listing.contains("request.fit"), "{listing}");
        assert_eq!(handle(&app, &get("/trace/ffffffffffffff01")).status, 404);

        // A traced replay of the fitted model shows its layers: the model
        // replay, the engine run under it, and the reply encode.
        let fit_body = serde_json::parse_value(&body_text(&resp)).unwrap();
        let Some(serde::Value::Str(model)) = fit_body.get("model") else {
            panic!("fit reply names no model: {fit_body:?}");
        };
        let mut replay = post(
            "/replay",
            &format!(r#"{{"model":"{model}","protocol":"vegas","duration_s":2,"seed":5}}"#),
        );
        replay.headers.push(("x-ibox-trace-id".to_string(), "routes-test-replay".to_string()));
        let encoded_before = ibox_obs::global().counter("serve.replay.encode_bytes").get();
        let reply = handle(&app, &replay);
        assert_eq!(reply.status, 200, "{}", body_text(&reply));
        let encoded =
            ibox_obs::global().counter("serve.replay.encode_bytes").get() - encoded_before;
        assert!(encoded >= reply.body.len() as u64, "{encoded} < {}", reply.body.len());
        let body = body_text(&handle(&app, &get("/trace/routes-test-replay")));
        for span in ["request.replay", "model-replay", "sim-run", "json.encode"] {
            assert!(body.contains(span), "span {span:?} missing from:\n{body}");
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store's spans need no call-site wiring: `span!` joins whatever
    /// trace the request opened.
    #[test]
    fn traced_ingest_requests_show_the_store_spans() {
        ibox_obs::trace::set_enabled(true);
        let (app, dir) = test_app("traced_ingest");
        let records: Vec<String> = (0..40u64)
            .map(|i| {
                let (send, recv) = (i * 1_000_000, i * 1_000_000 + 30_000_000);
                format!(r#"{{"seq":{i},"send_ns":{send},"size":1200,"recv_ns":{recv}}}"#)
            })
            .collect();
        let traced = |req: &mut Request, id: &str| {
            req.headers.push(("x-ibox-trace-id".to_string(), id.to_string()));
        };
        let spans_of = |id: &str| body_text(&handle(&app, &get(&format!("/trace/{id}"))));

        let body = format!(r#"{{"offset":0,"records":[{}]}}"#, records.join(","));
        let mut append = post("/traces/traced/append", &body);
        traced(&mut append, "routes-test-append");
        let resp = handle(&app, &append);
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let spans = spans_of("routes-test-append");
        for span in ["request.ingest_append", "ingest.append"] {
            assert!(spans.contains(span), "span {span:?} missing from:\n{spans}");
        }

        // After a restart the first touch folds the log, visibly.
        app.ingest.forget_all();
        let mut status = get("/ingest/sessions/traced");
        traced(&mut status, "routes-test-status");
        assert_eq!(handle(&app, &status).status, 200);
        assert!(spans_of("routes-test-status").contains("ingest.recover"));

        let mut finalize = post("/traces/traced/finalize", "{}");
        traced(&mut finalize, "routes-test-finalize");
        let resp = handle(&app, &finalize);
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let spans = spans_of("routes-test-finalize");
        for span in ["request.ingest_finalize", "ingest.finalize", "ingest.log.sync", "model-fit"] {
            assert!(spans.contains(span), "span {span:?} missing from:\n{spans}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn post(path: &str, body: &str) -> Request {
        let mut req = get(path);
        req.method = "POST".to_string();
        req.body = body.as_bytes().to_vec();
        req
    }

    /// Parse `{"error": {"code", "message", "detail"?}}` out of an error
    /// response, failing the test on any other shape.
    fn envelope(resp: &Response) -> (String, String, Option<String>) {
        let v = serde_json::parse_value(&body_text(resp)).expect("error body is json");
        let err = v.get("error").expect("body has an \"error\" field");
        assert!(err.as_object().is_some(), "\"error\" must be an object, got {err:?}");
        let text = |field: &str| match err.get(field) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("error.{field} must be a string, got {other:?}"),
        };
        let detail = err.get("detail").map(|_| text("detail"));
        (text("code"), text("message"), detail)
    }

    /// Satellite: every error, on every route, is the one typed envelope —
    /// status-appropriate `code`, human `message`, optional `detail`.
    #[test]
    fn error_responses_share_one_typed_envelope() {
        let (app, dir) = test_app("error_envelope");

        // 404: unknown endpoint.
        let resp = handle(&app, &get("/nope"));
        assert_eq!(resp.status, 404);
        let (code, message, detail) = envelope(&resp);
        assert_eq!(code, "not_found");
        assert!(message.contains("/nope"), "{message}");
        assert_eq!(detail, None);

        // 405: known path, wrong method.
        let mut resp = handle(&app, &post("/healthz", ""));
        assert_eq!(resp.status, 405);
        assert_eq!(envelope(&resp).0, "method_not_allowed");

        // 400s: bad body, bad field type, unknown protocol, bad format.
        for (req, needle) in [
            (post("/replay", "not json"), "not valid json"),
            (post("/replay", r#"{"protocol": "cubic"}"#), "missing field \"model\""),
            (
                post("/replay", r#"{"model": "m", "protocol": "cubic", "fidelity": "fluid"}"#),
                "unknown fidelity",
            ),
            (post("/replay", r#"{"model": "m", "protocol": "warp"}"#), "unknown protocol"),
            (post("/batch", r#"{"jobs": []}"#), "bad batch spec"),
            (get("/metrics?format=xml"), "unknown metrics format"),
            (get("/trace/"), "bad trace id"),
        ] {
            resp = handle(&app, &req);
            assert_eq!(resp.status, 400, "{} {}", req.method, req.path);
            let (code, message, _) = envelope(&resp);
            assert_eq!(code, "bad_request");
            assert!(message.contains(needle), "{message:?} missing {needle:?}");
        }

        // 404: replaying a model that is not registered.
        resp = handle(&app, &post("/replay", r#"{"model": "absent", "protocol": "cubic"}"#));
        assert_eq!(resp.status, 404);
        assert_eq!(envelope(&resp).0, "not_found");

        // 500: a failed async fit reports the typed envelope with detail.
        relock(&app.fit_jobs).insert("m1".to_string(), FitJob::Failed("boom".to_string()));
        resp = handle(&app, &get("/models/m1"));
        assert_eq!(resp.status, 500);
        let (code, message, detail) = envelope(&resp);
        assert_eq!(code, "fit_failed");
        assert!(message.contains("m1"), "{message}");
        assert_eq!(detail.as_deref(), Some("boom"));

        // 503: the load-shedding response carries the overloaded code.
        resp = Response::overloaded("server at capacity");
        assert_eq!(envelope(&resp).0, "overloaded");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `/replay` body still carrying the retired `batch_streams` key is
    /// answered like any body with an unknown key: the bytes of the same
    /// body without it.
    #[test]
    fn replay_ignores_the_retired_batch_streams_key() {
        let (app, dir) = test_app("replay_knob");
        let id = fit_ethernet(&app);

        let replay = |extra: &str| {
            let body =
                format!(r#"{{"model":"{id}","protocol":"vegas","duration_s":2,"seed":5{extra}}}"#);
            let resp = handle(&app, &post("/replay", &body));
            assert_eq!(resp.status, 200, "{}", body_text(&resp));
            resp.body
        };
        assert_eq!(replay(""), replay(r#","batch_streams":false"#));

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `/replay` accepts the `fidelity` knob: omitting it and spelling
    /// `"packet"` are byte-identical (existing clients are untouched),
    /// while `"flow"` and `"hybrid"` select the fluid engine and return
    /// valid — but engine-distinct — traces.
    #[test]
    fn replay_fidelity_knob_is_accepted_and_defaults_to_packet() {
        let (app, dir) = test_app("replay_fidelity");
        let id = fit_ethernet(&app);

        let replay = |extra: &str| {
            let body =
                format!(r#"{{"model":"{id}","protocol":"cubic","duration_s":2,"seed":5{extra}}}"#);
            let resp = handle(&app, &post("/replay", &body));
            assert_eq!(resp.status, 200, "{}", body_text(&resp));
            resp.body
        };
        let default = replay("");
        let packet = replay(r#","fidelity":"packet""#);
        assert_eq!(default, packet, "absent fidelity must mean the packet engine");
        for fidelity in ["flow", "hybrid"] {
            let fluid = replay(&format!(r#","fidelity":"{fidelity}""#));
            assert_ne!(fluid, packet, "{fidelity} must route to the fluid engine");
            let trace = serde_json::parse_value(std::str::from_utf8(&fluid).unwrap())
                .expect("fluid replay returns a json trace");
            assert!(trace.get("records").is_some(), "{fidelity} trace has records");
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `/replay` accepts a composed `path` (a chain of bottleneck stages):
    /// the chain changes the replay, an empty chain is a 400, and a
    /// fidelity the chain cannot support falls back to the packet engine
    /// with the `fidelity.fallback` counter incremented (satellite).
    #[test]
    fn replay_accepts_a_composed_path_and_counts_fallbacks() {
        let (app, dir) = test_app("replay_path");
        let id = fit_ethernet(&app);

        let chain = r#","path":[
            {"rate_bps":20e6,"prop_delay_ms":5,"buffer_bytes":80000},
            {"rate_bps":8e6,"prop_delay_ms":12,"buffer_bytes":60000}]"#;
        let replay = |extra: &str| {
            let body =
                format!(r#"{{"model":"{id}","protocol":"cubic","duration_s":2,"seed":5{extra}}}"#);
            let resp = handle(&app, &post("/replay", &body));
            assert_eq!(resp.status, 200, "{}", body_text(&resp));
            resp.body
        };
        let flat = replay("");
        let composed = replay(chain);
        assert_ne!(flat, composed, "the composed path must change the replay");

        // Determinism: the same composed request answers the same bytes.
        assert_eq!(composed, replay(chain));

        // Flow fidelity runs the chained fluid engine; hybrid cannot model
        // a multi-stage chain, so it degrades to packet — counted.
        let flow = replay(&format!(r#"{chain},"fidelity":"flow""#));
        assert_ne!(flow, composed, "flow over a chain must use the fluid engine");
        let scope = ibox_obs::scoped();
        let hybrid = replay(&format!(r#"{chain},"fidelity":"hybrid""#));
        let metrics = scope.finish().snapshot();
        assert_eq!(hybrid, composed, "hybrid's chain fallback is the packet engine");
        assert!(
            metrics.counters.get("fidelity.fallback").copied().unwrap_or(0) >= 1,
            "the fallback must be counted: {:?}",
            metrics.counters
        );

        // An empty chain is a client error, not a panic.
        let body = format!(r#"{{"model":"{id}","protocol":"cubic","path":[]}}"#);
        let resp = handle(&app, &post("/replay", &body));
        assert_eq!(resp.status, 400, "{}", body_text(&resp));
        assert!(body_text(&resp).contains("at least one stage"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fit a 2 s ethernet/cubic synth trace synchronously; the model id.
    fn fit_ethernet(app: &Arc<App>) -> String {
        let fit = post(
            "/fit",
            r#"{"wait":true,"model":"IBoxNet",
                "synth":{"profile":"ethernet","protocol":"cubic","seed":11,"duration_s":2}}"#,
        );
        let resp = handle(app, &fit);
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let fit_body = serde_json::parse_value(&body_text(&resp)).unwrap();
        let Some(Value::Str(id)) = fit_body.get("model").cloned() else { panic!("model id") };
        id
    }

    /// The serve-side twin of `crates/core/tests/doors.rs`: for every model
    /// kind × {no path, request path, recorded 2-stage path} × {packet,
    /// flow}, the `/replay` reply is byte for byte what
    /// `ReplayRequest::run` and a batch `ProfileFile` run of the same
    /// registry file answer.
    #[test]
    fn replay_over_http_answers_the_bytes_of_the_other_doors() {
        const REQUEST_CHAIN: &str = r#"[
            {"rate_bps":20e6,"prop_delay_ms":5,"buffer_bytes":80000},
            {"rate_bps":8e6,"prop_delay_ms":12,"buffer_bytes":60000}]"#;
        const RECORDED_CHAIN: &str = r#"[
            {"rate_bps":15e6,"prop_delay_ms":8,"buffer_bytes":90000},
            {"rate_bps":6e6,"prop_delay_ms":20,"buffer_bytes":50000}]"#;
        let (app, dir) = test_app("doors");
        let (_, train) = ibox_testbed::synth("ethernet", "cubic", 3.0, 11).unwrap();
        let mut kinds = ModelKind::all().to_vec();
        kinds.push(ModelKind::IBoxMl(ibox::IBoxMlSpec {
            hidden_sizes: vec![6],
            epochs: 1,
            tbptt: 32,
            ..Default::default()
        }));
        for (k, kind) in kinds.iter().enumerate() {
            let plain = ModelArtifact::new(kind, ibox::fit_model(kind, &train));
            let mut recorded = plain.clone();
            recorded.path = Some(serde_json::from_str(RECORDED_CHAIN).unwrap());
            app.registry.put(&format!("plain{k}"), &plain).unwrap();
            app.registry.put(&format!("recorded{k}"), &recorded).unwrap();
            let rows = [
                (format!("plain{k}"), &plain, false),
                (format!("plain{k}"), &plain, true),
                (format!("recorded{k}"), &recorded, false),
            ];
            let mut answers = Vec::new();
            for fidelity in ["packet", "flow"] {
                for (id, artifact, with_path) in &rows {
                    let path = if *with_path { REQUEST_CHAIN } else { "null" };
                    let body = format!(
                        r#"{{"model":"{id}","protocol":"vegas","duration_s":2,"seed":5,
                            "fidelity":"{fidelity}","path":{path}}}"#
                    );
                    let label = format!("{} / {body}", kind.name());
                    let reply = handle(&app, &post("/replay", &body));
                    assert_eq!(reply.status, 200, "{label}: {}", body_text(&reply));

                    let request =
                        ReplayRequest::from_value(&serde_json::parse_value(&body).unwrap())
                            .unwrap();
                    let direct = serde_json::to_string(&request.run(artifact).unwrap()).unwrap();
                    assert_eq!(body_text(&reply), direct, "{label}: /replay vs run");

                    let file = ModelArtifact::registry_path(app.registry.dir(), id);
                    let mut spec = RunSpec::builder()
                        .profile_file(file.to_string_lossy())
                        .protocol("vegas")
                        .duration_s(2.0)
                        .seed(5)
                        .fidelity(fidelity.parse().unwrap());
                    if *with_path {
                        spec = spec.path(serde_json::parse_value(REQUEST_CHAIN).unwrap());
                    }
                    let (_, trace) =
                        ibox::execute_run_cached(&spec.build().unwrap(), &app.cache).unwrap();
                    assert_eq!(direct, serde_json::to_string(&trace).unwrap(), "{label}: batch");
                    answers.push(direct);
                }
            }
            assert_ne!(answers[0], answers[2], "{}: a recorded chain must apply", kind.name());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Stages an engine would assert on are the client's error on every
    /// served surface: a `400` naming the stage and the field, never
    /// `handler panicked` or a panicked pool job.
    #[test]
    fn hostile_path_stages_are_400s_naming_stage_and_field() {
        let (app, dir) = test_app("hostile_path");
        let id = fit_ethernet(&app);
        for (stage, field) in [
            (r#"{"rate_bps":5e6,"prop_delay_ms":10,"buffer_bytes":0}"#, "buffer_bytes"),
            (r#"{"rate_bps":0,"prop_delay_ms":10,"buffer_bytes":60000}"#, "rate"),
            (
                r#"{"rate_bps":5e6,"prop_delay_ms":10,"buffer_bytes":60000,"random_loss":2}"#,
                "random_loss",
            ),
            (
                r#"{"rate_bps":5e6,"prop_delay_ms":10,"buffer_bytes":60000,"cross":
                    [{"Cbr":{"rate_bps":1e6,"pkt_size":1200,"start":5,"stop":5}}]}"#,
                "cross[0]",
            ),
            (r#"{"rate_bps":5e6,"prop_delay_ms":-4,"buffer_bytes":60000}"#, "prop_delay_ms"),
            (
                r#"{"rate_bps":5e6,"prop_delay_ms":10,"buffer_bytes":60000,"reorder":
                    {"probability":0.1,"extra_min":9,"extra_max":3}}"#,
                "reorder",
            ),
            (
                r#"{"rate_bps":5e6,"prop_delay_ms":10,"buffer_bytes":60000,"scheduler":
                    {"Codel":{"target":0,"interval":0}}}"#,
                "scheduler",
            ),
        ] {
            let replay =
                format!(r#"{{"model":"{id}","protocol":"cubic","duration_s":2,"path":[{stage}]}}"#);
            let batch = format!(
                r#"{{"jobs":1,"runs":[{{"id":"","source":{{"Synth":{{"profile":"ethernet",
                    "protocol":"cubic","seed":1}}}},"protocol":"cubic","duration_s":2,"seed":1,
                    "model":"IBoxNet","path":[{stage}]}}]}}"#
            );
            for (route, body) in [("/replay", replay), ("/batch", batch)] {
                let resp = handle(&app, &post(route, &body));
                let text = body_text(&resp);
                assert_eq!(resp.status, 400, "{route} {field}: {text}");
                assert!(text.contains("stage 0") && text.contains(field), "{route}: {text}");
                assert!(!text.contains("panicked"), "{route}: {text}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The served-duration ceiling covers every served duration: a two-hour
    /// `/batch` run is refused by index, like a two-hour `/replay` or a
    /// two-hour `/fit` synth.
    #[test]
    fn every_served_duration_obeys_the_ceiling() {
        let (app, dir) = test_app("duration_ceiling");
        let batch = |duration_s: f64| {
            let ok = RunSpec::builder().synth("ethernet", "cubic", 1).protocol("cubic");
            let runs = [ok.clone().duration_s(2.0), ok.duration_s(duration_s)];
            let mut b = BatchSpec::builder().jobs(1);
            for run in runs {
                b = b.run(run.build().unwrap());
            }
            handle(&app, &post("/batch", &b.build().unwrap().to_json()))
        };
        assert_eq!(batch(2.0).status, 200);
        let resp = batch(7200.0);
        assert_eq!(resp.status, 400, "{}", body_text(&resp));
        let (_, message, _) = envelope(&resp);
        assert!(message.contains("run 1") && message.contains("3600"), "{message}");

        for (route, body) in [
            ("/replay", r#"{"model":"m","protocol":"cubic","duration_s":7200}"#),
            ("/fit", r#"{"synth":{"profile":"ethernet","duration_s":7200}}"#),
        ] {
            let resp = handle(&app, &post(route, body));
            assert_eq!(resp.status, 400, "{route}: {}", body_text(&resp));
            assert!(envelope(&resp).1.contains("3600"), "{route}: {}", body_text(&resp));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A thread that panics while holding the fit-thread list poisons its
    /// mutex; `/fit` and the shutdown drain must keep working through it.
    #[test]
    fn a_poisoned_fit_thread_list_does_not_brick_fit() {
        let (app, dir) = test_app("poisoned_fit_threads");
        let poisoner = Arc::clone(&app);
        let _ = std::thread::spawn(move || {
            let _held = poisoner.fit_threads.lock().unwrap();
            panic!("poison the fit thread list");
        })
        .join();
        assert!(app.fit_threads.is_poisoned());

        let fit = post(
            "/fit",
            r#"{"synth":{"profile":"ethernet","protocol":"cubic","seed":23,"duration_s":2}}"#,
        );
        let resp = handle(&app, &fit);
        assert_eq!(resp.status, 202, "{}", body_text(&resp));
        app.drain_fits();
        let again = handle(&app, &fit);
        assert_eq!(again.status, 200, "{}", body_text(&again));
        assert!(body_text(&again).contains("ready"));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
