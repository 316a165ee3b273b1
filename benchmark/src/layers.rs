//! The traced run: where an operation's time goes, layer by layer.
//!
//! Three passes share one set-up. Pass A repeats the untraced closed loop
//! (its median is the figure the others are compared with). Pass B sends
//! the same requests over a bare socket and records client-side spans —
//! `client.send`, `client.wait`, `client.read_body`; the difference between
//! A and B is the tracing overhead, and `GET /metrics` before and after B
//! gives the daemon's own counters for exactly those requests. Pass C
//! replays the same requests in-process through the layer calls in handler
//! order, with a span around each public call, and checks the bytes it
//! produces against the same references. Nothing inside the repository's
//! crates is instrumented: every span is around a call made from here.
//!
//! End-to-end metrics are never taken from this run.

use std::collections::BTreeMap;
use std::io::{BufReader, Read};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Instant;

use serde::{Deserialize, Serialize, Value};

use ibox::estimator::DEFAULT_BIN_SECS;
use ibox::{
    fit_model, run_batch_with_cache, BatchSpec, Fidelity, FitCache, FittedModel, ModelArtifact,
    ModelKind, PathModel, ReplayOpts,
};
use ibox_ingest::{OnlineCrossTraffic, OnlineStaticParams, SessionStore};
use ibox_serve::http::parse_request;
use ibox_serve::{HttpLimits, ModelRegistry, Request, Response};
use ibox_sim::{FluidLaw, PathSpec, SimTime};
use ibox_testbed::Profile;
use ibox_trace::metrics::TraceMetrics;
use ibox_trace::{FlowMeta, FlowTrace, PacketRecord};

use crate::gen::{
    first_append_body, session_id, session_meta, session_replay_body, BenchPath, Op, OpKind, Rng,
    SessionTrace, CHUNK_RECORDS,
};
use crate::harness::{
    ingest_config, replay_offline, request_head, whole_passes, Client, Expected, Outcome,
    DAEMON_JOBS,
};
use crate::ingest::SessionReference;
use crate::report::{Manifest, Metric, RunResult, PER_LAYER};
use crate::spans::{per_op_ms, Recorder};
use crate::stats::{delay_ks, median, percentile, sorted};
use crate::workload::Bench;

/// A connected loopback socket whose peer drains, for timing
/// `Response::write_to` against a real kernel socket.
struct Sink {
    stream: TcpStream,
    drain: JoinHandle<u64>,
}

impl Sink {
    fn open() -> Result<Sink, String> {
        let io = |e: std::io::Error| format!("loopback sink: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let stream = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
        let _ = stream.set_nodelay(true);
        let (mut peer, _) = listener.accept().map_err(io)?;
        let drain = std::thread::spawn(move || {
            let mut buf = vec![0u8; 256 * 1024];
            let mut total = 0u64;
            while let Ok(n) = peer.read(&mut buf) {
                if n == 0 {
                    break;
                }
                total += n as u64;
            }
            total
        });
        Ok(Sink { stream, drain })
    }

    /// Close the socket and wait for the drain thread to see the end.
    fn close(self) {
        drop(self.stream);
        let _ = self.drain.join();
    }
}

/// What the in-process pass accumulates.
struct Ledger {
    /// Spans of the operation chains (one `op.*` root per operation).
    chain: Recorder,
    /// Spans of side measurements that are not part of an operation's
    /// blocking path (serial decompositions, fold-only passes).
    detail: Recorder,
    /// Per-operation counts, by metric name.
    counts: BTreeMap<&'static str, Vec<f64>>,
    outcome: Outcome,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            chain: Recorder::new(),
            detail: Recorder::new(),
            counts: BTreeMap::new(),
            outcome: Outcome::default(),
        }
    }

    fn tally(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    fn count_median(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |v| median(v))
    }
}

/// The request as the daemon's parser sees it on the wire.
fn wire(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = request_head(method, path, "127.0.0.1:0", body.len()).into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

fn parse_wire(ledger: &mut Ledger, wire: &[u8]) -> Result<Request, String> {
    ledger.tally("serve.http.parse_bytes", wire.len() as f64);
    ledger
        .chain
        .time("serve.http.parse", || {
            parse_request(&mut BufReader::new(wire), &HttpLimits::default())
        })
        .map_err(|e| format!("in-process parse failed: {e}"))
}

fn write_reply(ledger: &mut Ledger, sink: &mut Sink, body: Vec<u8>) -> Result<(), String> {
    ledger.tally("serve.http.write_bytes", body.len() as f64);
    let response = Response::json(200, body);
    ledger
        .chain
        .time("serve.http.write", || response.write_to(&mut sink.stream))
        .map_err(|e| format!("in-process write failed: {e}"))
}

fn body_value(req: &Request) -> Result<Value, String> {
    let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
    serde_json::parse_value(text).map_err(|e| e.to_string())
}

fn field<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, String> {
    match v.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => T::from_value(x).map(Some).map_err(|e| format!("field {name:?}: {e}")),
    }
}

fn required<T: Deserialize>(v: &Value, name: &str) -> Result<T, String> {
    field(v, name)?.ok_or_else(|| format!("missing field {name:?}"))
}

/// A `/replay` body, parsed field by field as `handle_replay` parses it.
struct ReplayRequest {
    model: String,
    protocol: String,
    duration: SimTime,
    seed: u64,
    fidelity: Fidelity,
    path: Option<PathSpec>,
}

fn parse_replay_body(req: &Request) -> Result<ReplayRequest, String> {
    let body = body_value(req)?;
    Ok(ReplayRequest {
        model: required(&body, "model")?,
        protocol: required(&body, "protocol")?,
        duration: SimTime::from_secs_f64(field(&body, "duration_s")?.unwrap_or(30.0)),
        seed: field(&body, "seed")?.unwrap_or(1),
        fidelity: field(&body, "fidelity")?.unwrap_or_default(),
        path: field(&body, "path")?,
    })
}

/// `IBoxNet::simulate_fidelity_over`, opened up so the engine call gets a
/// span of its own: build the emulator, pick the engine the way
/// `fluid_plan` does, run, normalize. The bytes are checked against the
/// reference afterwards, so a drift from the real function shows as a
/// failed operation.
fn replay_net(ledger: &mut Ledger, model: &ibox::IBoxNet, r: &ReplayRequest) -> FlowTrace {
    let spec = r.path.clone().unwrap_or_else(|| model.path_spec());
    let emu = model.emulator_over(spec, r.duration);
    let hybrid = r.fidelity == Fidelity::Hybrid;
    let law = (r.fidelity != Fidelity::Packet
        && emu.spec.fluid_unsupported_reason(hybrid).is_none())
    .then(|| FluidLaw::by_name(&r.protocol))
    .flatten();
    let out = match law {
        Some(law) => {
            let out = ledger.chain.time("sim.fluid.run", || {
                emu.run_sender_fluid(law, r.protocol.as_str(), r.seed, hybrid)
            });
            for (metric, counter) in
                [("sim.fluid.segments", "fluid.segments"), ("sim.fluid.episodes", "fluid.episodes")]
            {
                ledger
                    .tally(metric, out.metrics.counters.get(counter).copied().unwrap_or(0) as f64);
            }
            out
        }
        None => {
            let cc = ibox_cc::by_name(&r.protocol).expect("generated protocols exist");
            let out = ledger
                .chain
                .time("sim.engine.run", || emu.run_sender(cc, r.protocol.as_str(), r.seed));
            let events = out.metrics.counters.get("sim.events_processed").copied().unwrap_or(0);
            ledger.tally("sim.engine.events", events as f64);
            ledger.tally("sim.engine.packets", out.traces[0].len() as f64);
            out
        }
    };
    out.traces.into_iter().next().expect("one recorded flow").into_normalized()
}

/// `FittedIBoxMl::simulate_with`, opened up: the driver's send pattern,
/// then the learned heads' sampled prediction over it.
fn replay_ml(ledger: &mut Ledger, model: &ibox::FittedIBoxMl, r: &ReplayRequest) -> FlowTrace {
    let pattern = ledger.chain.time("ml.driver", || {
        model.driver.simulate_fidelity_over(
            &r.protocol,
            r.duration,
            r.seed,
            r.fidelity,
            r.path.as_ref(),
        )
    });
    // The same SplitMix64 decorrelation of the sampling seed.
    let mut z = r.seed ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let sample_seed = z ^ (z >> 31);
    ledger.tally("ml.steps", pattern.len() as f64);
    ledger.chain.time("ml.predict", || model.ml.predict_trace_sampled(&pattern, sample_seed))
}

/// One `/replay` through the layer calls in handler order.
fn replay_chain(
    ledger: &mut Ledger,
    registry: &ModelRegistry,
    sink: &mut Sink,
    body: &[u8],
    expected: &Expected,
) -> Result<(), String> {
    let wire = wire("POST", "/replay", body);
    ledger.chain.next_op();
    let root = ledger.chain.enter("op.replay");
    let req = parse_wire(ledger, &wire)?;
    let r = ledger.chain.time("serve.routes.body_json", || parse_replay_body(&req))?;

    let resolve = ledger.chain.enter("serve.registry.resolve");
    let resolved = if ibox_serve::split_version(&r.model).is_some() {
        r.model.clone()
    } else {
        registry.latest_version(&r.model).unwrap_or_else(|| r.model.clone())
    };
    let _pin = registry.pin(&resolved);
    ledger.chain.exit(resolve);

    // `ModelRegistry::get` is `ModelArtifact::load`: read the file, parse it.
    let get = ledger.chain.enter("serve.registry.get");
    let file = ModelArtifact::registry_path(registry.dir(), &resolved);
    let text = ledger
        .chain
        .time("fs.read", || std::fs::read_to_string(&file))
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let artifact = ledger
        .chain
        .time("core.artifact.parse", || ModelArtifact::parse(&text, &file))
        .map_err(|e| e.to_string())?;
    ledger.chain.exit(get);
    ledger.tally("serve.registry.artifact_bytes", text.len() as f64);

    let replay = ledger.chain.enter("core.model.replay");
    let trace = match &artifact.model {
        FittedModel::IBoxNet(m) => replay_net(ledger, m, &r),
        FittedModel::IBoxMl(m) => replay_ml(ledger, m, &r),
        FittedModel::StatisticalLoss(_) => return Err("no workload replays this family".into()),
    };
    ledger.chain.exit(replay);

    let json = ledger
        .chain
        .time("trace.encode", || serde_json::to_string(&trace))
        .map_err(|e| e.to_string())?;
    ledger.tally("trace.encode_bytes", json.len() as f64);
    let reply = json.into_bytes();
    let verdict = expected.check(200, &reply).map(|()| expected.records);
    write_reply(ledger, sink, reply)?;
    ledger.chain.exit(root);
    ledger.outcome.count(verdict);
    Ok(())
}

/// One `/batch` through the layer calls in handler order.
fn batch_chain(
    ledger: &mut Ledger,
    cache: &FitCache,
    sink: &mut Sink,
    body: &[u8],
    expected: &Expected,
) -> Result<(), String> {
    let wire = wire("POST", "/batch", body);
    ledger.chain.next_op();
    let root = ledger.chain.enter("op.batch");
    let req = parse_wire(ledger, &wire)?;
    let batch: BatchSpec = ledger.chain.time("serve.routes.body_json", || {
        std::str::from_utf8(&req.body).map_err(|e| e.to_string()).and_then(|text| {
            serde_json::from_str(text).map_err(|e: serde_json::Error| e.to_string())
        })
    })?;
    let result =
        ledger.chain.time("runner.batch", || run_batch_with_cache(&batch, DAEMON_JOBS, cache))?;
    let reply = ledger.chain.time("serve.routes.reply_json", || result.to_json()).into_bytes();
    let verdict = expected.check(200, &reply).map(|()| expected.records);
    write_reply(ledger, sink, reply)?;
    ledger.chain.exit(root);
    ledger.outcome.count(verdict);
    Ok(())
}

/// Off the operation's path: the same batch at `jobs = 1` and then run by
/// run, for the pool's speed-up and the shares of synth, fit, replay and
/// metrics. A pass of its own — interleaved with the parallel batches it
/// slowed them by ≈15 %.
fn batch_detail(ledger: &mut Ledger, cache: &FitCache, batch: &BatchSpec) -> Result<(), String> {
    ledger.detail.next_op();
    ledger.detail.time("runner.batch.serial", || run_batch_with_cache(batch, 1, cache))?;
    for run in &batch.runs {
        let ibox::RunSource::Synth { profile, protocol, seed } = &run.source else {
            return Err("generated batches only hold synth runs".into());
        };
        let duration = SimTime::from_secs_f64(run.duration_s);
        let train = ledger.detail.time("testbed.synth", || {
            let inst =
                Profile::from_name(profile)?.builder().seed(*seed).duration(duration).sample();
            Ok::<_, String>(ibox_testbed::run_protocol(&inst, protocol, duration, *seed))
        })?;
        let fitted = ledger.detail.time("core.fit", || cache.fit_path_model(&run.model, &train));
        let sim = ledger.detail.time("core.model.replay", || {
            fitted.simulate_with(&run.protocol, duration, run.seed, ReplayOpts::default())
        });
        ledger.detail.time("trace.metrics", || TraceMetrics::of(&sim));
    }
    Ok(())
}

/// The in-process stand-in for the daemon's ingest state.
struct IngestEnv {
    store: SessionStore,
    registry: ModelRegistry,
    cache: FitCache,
}

impl IngestEnv {
    fn open(dir: &Path) -> Result<IngestEnv, String> {
        Ok(IngestEnv {
            store: SessionStore::open(dir, ingest_config()).map_err(|e| e.to_string())?,
            registry: ModelRegistry::open(dir)?,
            cache: FitCache::with_dir(dir)?,
        })
    }

    /// `fit_session_version`: fit through the cache, digest the trace,
    /// register the next lineage version.
    fn fit_version(
        &self,
        rec: &mut Recorder,
        id: &str,
        out: &ibox_ingest::FinalizeOutput,
    ) -> Result<(), String> {
        let (_key, model) =
            rec.time("core.fit", || self.cache.fit_path_model_keyed(&out.kind, &out.trace));
        let digest = rec.time("trace.digest", || out.trace.digest());
        let parent = (out.fit_seq > 1).then(|| format!("{id}-v{}", out.fit_seq - 1));
        let artifact =
            ModelArtifact::new(&out.kind, model).with_lineage(parent, digest, out.fit_seq);
        rec.time("serve.registry.put", || self.registry.put_version(id, &artifact))
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// One `/append` through the layer calls in handler order.
fn append_chain(
    ledger: &mut Ledger,
    env: &IngestEnv,
    sink: &mut Sink,
    id: &str,
    body: &[u8],
    want_next_offset: u64,
) -> Result<(), String> {
    let wire = wire("POST", &format!("/traces/{id}/append"), body);
    ledger.chain.next_op();
    let root = ledger.chain.enter("op.append");
    let req = parse_wire(ledger, &wire)?;
    let (offset, records, kind, meta) = ledger.chain.time("serve.routes.body_json", || {
        let body = body_value(&req)?;
        let offset: u64 = required(&body, "offset")?;
        let records: Vec<PacketRecord> = required(&body, "records")?;
        let kind: Option<ModelKind> = field(&body, "model")?;
        let meta: Option<FlowMeta> = field(&body, "meta")?;
        Ok::<_, String>((offset, records, kind, meta))
    })?;
    let len = records.len();
    let res = ledger
        .chain
        .time("ingest.append", || env.store.append(id, kind, meta, offset, records))
        .map_err(|e| e.to_string())?;
    if res.refit_due {
        let refit = ledger.chain.enter("ingest.refit");
        let out = env.store.snapshot(id).map_err(|e| e.to_string())?;
        env.fit_version(&mut ledger.chain, id, &out)?;
        ledger.chain.exit(refit);
    }
    let reply = ledger.chain.time("serve.routes.reply_json", || {
        let mut fields = vec![
            ("session".to_string(), Value::Str(id.to_string())),
            ("outcome".to_string(), Value::Str(res.outcome.as_str().to_string())),
            ("next_offset".to_string(), Value::U64(res.next_offset)),
            ("chunks".to_string(), Value::U64(res.chunks)),
            ("buffered".to_string(), Value::U64(res.buffered as u64)),
        ];
        if let Some(wm) = &res.watermark {
            fields.push(("watermark".to_string(), wm.to_value()));
        }
        serde_json::to_string(&Value::Object(fields)).expect("value trees serialize")
    });
    write_reply(ledger, sink, reply.into_bytes())?;
    ledger.chain.exit(root);
    ledger.outcome.count(if res.next_offset == want_next_offset {
        Ok(len as u64)
    } else {
        Err(format!(
            "in-process append reached offset {}, expected {want_next_offset}",
            res.next_offset
        ))
    });
    Ok(())
}

/// One whole session in-process: appends, finalize, the closing replay.
fn session_chain(
    ledger: &mut Ledger,
    env: &IngestEnv,
    sink: &mut Sink,
    n: usize,
    s: &SessionTrace,
    reference: &SessionReference,
) -> Result<(), String> {
    // Connection number 9 keeps these ids apart from the socket passes'.
    let id = session_id(9, n);
    let first = first_append_body(&s.trace, &session_meta(9, n));
    let mut offset = 0u64;
    let mut statics = OnlineStaticParams::new();
    let mut cross: Option<OnlineCrossTraffic> = None;
    for (body, chunk) in
        std::iter::once(&first).chain(&s.tail_bodies).zip(s.trace.records().chunks(CHUNK_RECORDS))
    {
        offset += chunk.len() as u64;
        append_chain(ledger, env, sink, &id, body, offset)?;
        // The estimator fold alone, on the same chunk (inside
        // `SessionStore::append` it runs under the store lock).
        ledger.detail.next_op();
        let fold = ledger.detail.enter("ingest.fold");
        statics.fold_chunk(chunk);
        if let Some(cross) = cross.as_mut() {
            cross.fold_chunk(chunk);
        }
        ledger.detail.exit(fold);
        if cross.is_none() {
            cross = statics.params().map(|p| OnlineCrossTraffic::new(&p, DEFAULT_BIN_SECS));
        }
    }

    ledger.chain.next_op();
    let root = ledger.chain.enter("op.finalize");
    let finalize = ledger.chain.enter("ingest.finalize");
    let out = env.store.finalize(&id).map_err(|e| e.to_string())?;
    env.fit_version(&mut ledger.chain, &id, &out)?;
    ledger.chain.exit(finalize);
    ledger.chain.exit(root);
    let artifact = env.registry.get(&id).map_err(|e| e.to_string())?;
    let model_json = serde_json::to_string(&artifact.model).map_err(|e| e.to_string())?;
    ledger.outcome.count(
        if out.fit_seq == reference.versions && model_json == reference.final_model_json {
            Ok(0)
        } else {
            Err("in-process finalize differs from the offline one-shot fit".to_string())
        },
    );

    replay_chain(ledger, &env.registry, sink, &session_replay_body(&id, s), &reference.replay)
}

/// Time waited for the store lock: the mean `SessionStore::append` when
/// two threads stream distinct sessions at once, minus the mean when one
/// streams alone. Means, not medians: the lock is not fair, so a thread can
/// keep re-taking it while the other's one append waits out the whole
/// burst, which a median would never see.
fn append_lock_wait_ms(pool: &[SessionTrace], dir: &Path) -> Result<f64, String> {
    let env = IngestEnv::open(dir)?;
    let stream = |label: &str, s: &SessionTrace| -> Result<Vec<f64>, String> {
        let mut times = Vec::new();
        for (i, chunk) in s.trace.records().chunks(CHUNK_RECORDS).enumerate() {
            let offset = (i * CHUNK_RECORDS) as u64;
            let t0 = Instant::now();
            env.store
                .append(label, None, None, offset, chunk.to_vec())
                .map_err(|e| e.to_string())?;
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        Ok(times)
    };
    let mean = |times: &[f64]| times.iter().sum::<f64>() / times.len() as f64;
    let solo = stream("solo", &pool[0])?;
    let start = Barrier::new(2);
    let duo: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = [("duo-a", &pool[1]), ("duo-b", &pool[2])]
            .into_iter()
            .map(|(label, s)| {
                let (start, stream) = (&start, &stream);
                scope.spawn(move || {
                    start.wait();
                    stream(label, s)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("append thread")).collect()
    });
    let mut together = Vec::new();
    for times in duo {
        together.extend(times?);
    }
    Ok(mean(&together) - mean(&solo))
}

/// `quality.delay_ks`: mean KS distance between each distinct reply's
/// delays (from the offline replays, which the replies equal byte for byte)
/// and its reference — for an approximate-fidelity request the
/// packet-fidelity replay of the same request, for a learned model a
/// held-out ground-truth run of the same protocol over the path it was
/// trained on. Exact replays of an emulator model have no reference to
/// differ from and contribute nothing.
fn delay_ks_of(seed: u64, models: &[FittedModel], ops: &[Op]) -> f64 {
    let mut held_out = Rng::new(seed, 9);
    let distances: Vec<f64> = ops
        .iter()
        .filter_map(|op| {
            let OpKind::Replay { fit, protocol, duration_s, seed, fidelity, .. } = &op.kind else {
                return None;
            };
            let reference = match &models[*fit] {
                FittedModel::IBoxMl(_) => {
                    BenchPath::Cellular.trace(protocol, *duration_s, held_out.sim_seed())
                }
                model if *fidelity != Fidelity::Packet => {
                    model.simulate(protocol, SimTime::from_secs(*duration_s), *seed)
                }
                _ => return None,
            };
            Some(delay_ks(&replay_offline(models, op), &reference))
        })
        .collect();
    if distances.is_empty() {
        0.0
    } else {
        distances.iter().sum::<f64>() / distances.len() as f64
    }
}

/// Counters of the daemon's registry, read over its public endpoint.
fn daemon_counters(addr: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut client = Client::connect(addr, false)?;
    let (status, reply, _) = client.request("GET", "/metrics", None)?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    let v = serde_json::parse_value(&String::from_utf8_lossy(&reply)).map_err(|e| e.to_string())?;
    let counters = v.get("counters").ok_or("metrics snapshot has no counters")?;
    BTreeMap::<String, u64>::from_value(counters).map_err(|e| e.to_string())
}

fn p50(outcome: &Outcome) -> f64 {
    percentile(&sorted(outcome.latencies_ms.clone()), 0.5)
}

/// The traced run of `workload`: the per-layer table.
pub fn run_traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let mut bench = Bench::prepare(workload, seed, scratch)?;
    let addr = bench.daemon().addr.clone();

    // Pass A: the untraced loop. Pass B: the same with client spans,
    // between two readings of the daemon's counters.
    let untraced = bench.run(false, seconds / 4.0)?;
    let before = daemon_counters(&addr)?;
    let traced = bench.run(true, seconds / 4.0)?;
    let after = daemon_counters(&addr)?;
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0).saturating_sub(before.get(name).copied().unwrap_or(0))
    };

    // Pass C: in-process, whole passes until half the window has gone.
    let mut ledger = Ledger::new();
    let mut sink = Sink::open()?;
    let mut side: BTreeMap<&'static str, f64> = BTreeMap::new();
    let t0 = Instant::now();
    let timed_root = match &bench {
        Bench::Requests(p) if p.plan.fits.is_empty() => {
            // Warm the fit cache first, as the daemon's is.
            let cache = FitCache::in_memory();
            for op in &p.plan.ops {
                if let OpKind::Batch(spec) = &op.kind {
                    run_batch_with_cache(spec, DAEMON_JOBS, &cache)?;
                }
            }
            whole_passes(t0, seconds / 4.0, || {
                p.plan.ops.iter().zip(&p.expected).try_for_each(|(op, exp)| {
                    batch_chain(&mut ledger, &cache, &mut sink, &op.body, exp)
                })
            })?;
            whole_passes(t0, seconds / 2.0, || {
                p.plan.ops.iter().try_for_each(|op| match &op.kind {
                    OpKind::Batch(spec) => batch_detail(&mut ledger, &cache, spec),
                    OpKind::Replay { .. } => Ok(()),
                })
            })?;
            "op.batch"
        }
        Bench::Requests(p) => {
            let registry = ModelRegistry::open(&p.daemon.dir)?;
            whole_passes(t0, seconds / 2.0, || {
                p.plan.ops.iter().zip(&p.expected).try_for_each(|(op, exp)| {
                    replay_chain(&mut ledger, &registry, &mut sink, &op.body, exp)
                })
            })?;
            // Set-up costs of the inline-trace `/fit`, measured once each.
            for fit in &p.plan.fits {
                // The inline `"trace"` of the `/fit` body.
                let trace_json = serde_json::to_string(&fit.train).map_err(|e| e.to_string())?;
                ledger.detail.next_op();
                ledger
                    .detail
                    .time("trace.decode", || serde_json::from_str::<FlowTrace>(&trace_json))
                    .map_err(|e| e.to_string())?;
                ledger.detail.time("core.fit", || fit_model(&fit.kind, &fit.train));
            }
            side.insert("quality.delay_ks", delay_ks_of(seed, &p.models, &p.plan.ops));
            "op.replay"
        }
        Bench::Ingest(p) => {
            let env = IngestEnv::open(&scratch.join("layers"))?;
            let pool = &p.plan.sessions;
            let mut n = 0;
            whole_passes(t0, seconds / 2.0, || {
                let k = n % pool.len();
                n += 1;
                session_chain(&mut ledger, &env, &mut sink, n - 1, &pool[k], &p.refs[k])
            })?;
            side.insert(
                "ingest.append_wait_ms",
                append_lock_wait_ms(pool, &scratch.join("lockwait"))?,
            );
            "op.append"
        }
    };
    sink.close();
    drop(bench);

    // The table.
    let chain = per_op_ms(ledger.chain.spans(), false, None);
    let detail = per_op_ms(ledger.detail.spans(), false, None);
    let client = per_op_ms(&traced.spans, false, None);
    let layer_ms = |name: &str| {
        chain
            .get(name)
            .or_else(|| detail.get(name))
            .or_else(|| client.get(name))
            .map_or(0.0, |v| median(v))
    };
    let untraced_p50 = p50(&untraced);
    let inprocess_op = layer_ms(timed_root);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for def in &PER_LAYER {
        if let Some(span) = def.name.strip_suffix("_ms") {
            values.insert(def.name, layer_ms(span));
        } else {
            values.insert(def.name, ledger.count_median(def.name));
        }
    }
    let engine_s = layer_ms("sim.engine.run") / 1e3;
    values.insert(
        "sim.engine.ns_per_event",
        ratio(engine_s * 1e9, ledger.count_median("sim.engine.events")),
    );
    values.insert("sim.engine.pps", ratio(ledger.count_median("sim.engine.packets"), engine_s));
    values.insert(
        "ml.us_per_step",
        ratio(layer_ms("ml.predict") * 1e3, ledger.count_median("ml.steps")),
    );
    values.insert(
        "trace.encode_mb_per_s",
        ratio(ledger.count_median("trace.encode_bytes") / 1e6, layer_ms("trace.encode") / 1e3),
    );
    values.insert(
        "ingest.append_records_per_s",
        ratio(CHUNK_RECORDS as f64, layer_ms("ingest.append") / 1e3),
    );
    values.insert(
        "runner.pool.speedup_x",
        ratio(layer_ms("runner.batch.serial"), layer_ms("runner.batch")),
    );
    let requests_b = traced.attempted as f64;
    values.insert(
        "sim.fidelity.fallback_ratio",
        ratio(delta("fidelity.fallback") as f64, requests_b),
    );
    let (hits, misses) = (delta("fitcache.hit") as f64, delta("fitcache.miss") as f64);
    values.insert("core.fitcache.hit_ratio", ratio(hits, hits + misses));
    values.insert("e2e.untraced_op_p50_ms", untraced_p50);
    values.insert("e2e.inprocess_op_ms", inprocess_op);
    values.insert("e2e.residual_pct", ratio(untraced_p50 - inprocess_op, untraced_p50) * 100.0);
    values.insert(
        "bench.trace_overhead_pct",
        ratio(p50(&traced) - untraced_p50, untraced_p50) * 100.0,
    );
    values.extend(side);

    // The table: the timed operation's own spans. A layer most operations
    // skip (a cadence refit) shows its cost when entered and how often.
    let timed = per_op_ms(ledger.chain.spans(), false, Some(timed_root));
    let timed_self = per_op_ms(ledger.chain.spans(), true, Some(timed_root));
    let ops = timed.get(timed_root).map_or(0, Vec::len);
    println!("{workload}: layers of `{timed_root}` (socket-to-socket p50 {untraced_p50:.3} ms)");
    println!(
        "  {:<28} {:>10} {:>10} {:>8} {:>8}",
        "span", "median ms", "self ms", "share", "entered"
    );
    for (name, totals) in &timed {
        let own = timed_self.get(name).map_or(0.0, |v| median(v));
        let entered = ratio(totals.len() as f64, ops as f64);
        let share = if entered >= 0.5 { ratio(own, untraced_p50) * 100.0 } else { 0.0 };
        println!(
            "  {name:<28} {:>10.3} {own:>10.3} {share:>7.1}% {:>7.1}%",
            median(totals),
            entered * 100.0
        );
    }
    let residual = values["e2e.residual_pct"];
    if residual.abs() > 15.0 {
        println!(
            "  warning: {residual:.1}% of the operation is not accounted for by the layer chain"
        );
    }

    let spans_path = out_dir.join(format!("{workload}.spans.json"));
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let file = Value::Object(vec![
        ("workload".to_string(), Value::Str(workload.to_string())),
        ("seed".to_string(), Value::U64(seed)),
        ("client".to_string(), traced.spans.to_value()),
        ("chain".to_string(), ledger.chain.spans().to_value()),
        ("detail".to_string(), ledger.detail.spans().to_value()),
    ]);
    std::fs::write(&spans_path, serde_json::to_string(&file).map_err(|e| e.to_string())?)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    let mut total = untraced;
    total.absorb(traced);
    total.absorb(ledger.outcome);
    if let Some(why) = &total.first_failure {
        eprintln!("first failed request: {why}");
    }
    let mut manifest = Manifest::new(workload, seed, seconds, true, false);
    manifest.attempted = total.attempted;
    manifest.samples = total.latencies_ms.len() as u64;
    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let value = values.get(def.name).copied().unwrap_or(0.0);
            (def.name.to_string(), Metric { value, unit: def.unit.to_string() })
        })
        .collect();
    Ok(RunResult {
        manifest,
        correct: total.failed == 0,
        attempted: total.attempted,
        failed: total.failed,
        metrics,
    })
}
