//! End-to-end tests over a real loopback socket: fit/replay/batch
//! round-trips, byte-identity with the offline replay path, overload
//! shedding, hostile bytes, and graceful drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use ibox::{FitCache, FitCacheKey, ModelArtifact, ModelKind, PathModel};
use ibox_serve::{HttpClient, ServeConfig, Server};
use ibox_sim::SimTime;

/// A fresh daemon on an ephemeral port with its own registry dir.
fn start(configure: impl FnOnce(&mut ServeConfig)) -> (Server, PathBuf) {
    let dir = fresh_dir();
    (start_in(&dir, configure), dir)
}

/// A new, empty directory of this test process.
fn fresh_dir() -> PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ibox-serve-e2e-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A daemon on an ephemeral port serving the models in `dir`.
fn start_in(dir: &Path, configure: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut config = ServeConfig::new("127.0.0.1:0", dir);
    config.jobs = 2;
    config.read_timeout = Duration::from_secs(5);
    configure(&mut config);
    Server::bind(config).expect("bind")
}

fn client(server: &Server) -> HttpClient {
    HttpClient::connect(&server.addr().to_string(), Duration::from_secs(10)).expect("connect")
}

/// A small fit request over a synthesized trace (fast, deterministic).
fn fit_body(wait: bool) -> Vec<u8> {
    format!(
        r#"{{"model": "IBoxNet", "wait": {wait},
            "synth": {{"profile": "ethernet", "protocol": "cubic", "seed": 7, "duration_s": 3}}}}"#
    )
    .into_bytes()
}

/// A string field off a parsed JSON object (the vendored `Value` has no
/// `as_str`).
fn str_field(v: &serde::Value, key: &str) -> Option<String> {
    match v.get(key) {
        Some(serde::Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// POST /fit with wait=true and return the registered model id.
fn fit_sync(c: &mut HttpClient) -> String {
    let (status, body) = c.request("POST", "/fit", Some(&fit_body(true))).expect("fit");
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{text}");
    let v = serde_json::parse_value(&text).unwrap();
    assert_eq!(str_field(&v, "status").as_deref(), Some("ready"), "{text}");
    str_field(&v, "model").expect("model id")
}

#[test]
fn healthz_metrics_and_unknown_paths() {
    let (server, _dir) = start(|_| {});
    let mut c = client(&server);

    let (status, body) = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"ok\""));

    // Metrics include the request counters this very connection bumped.
    let (status, body) = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("serve.requests"));

    let (status, _) = c.request("GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = c.request("POST", "/healthz", None).unwrap();
    assert_eq!(status, 405);

    server.handle().shutdown();
    server.join();
}

#[test]
fn fit_then_replay_matches_offline_simulation_bytes() {
    let (server, dir) = start(|_| {});
    let mut c = client(&server);
    let id = fit_sync(&mut c);

    // The model shows up in the registry listing.
    let (status, body) = c.request("GET", "/models", None).unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains(&id));

    // Replay over HTTP...
    let replay = format!(r#"{{"model": "{id}", "protocol": "vegas", "duration_s": 4, "seed": 9}}"#);
    let (status, online) = c.request("POST", "/replay", Some(replay.as_bytes())).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&online));

    // ...must produce exactly the bytes the offline path serializes:
    // load the artifact straight off disk and simulate locally.
    let artifact = ModelArtifact::load(&ModelArtifact::registry_path(&dir, &id)).unwrap();
    let trace = artifact.model.simulate("vegas", SimTime::from_secs_f64(4.0), 9);
    let offline = serde_json::to_string(&trace).unwrap();
    assert_eq!(String::from_utf8(online).unwrap(), offline);

    // A second fit of the same trace is answered "ready" from the
    // registry without refitting.
    let (status, body) = c.request("POST", "/fit", Some(&fit_body(true))).unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("ready"));

    server.handle().shutdown();
    server.join();
}

#[test]
fn async_fit_answers_202_then_becomes_ready() {
    let (server, _dir) = start(|_| {});
    let mut c = client(&server);

    let (status, body) = c.request("POST", "/fit", Some(&fit_body(false))).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert!(status == 202 || status == 200, "unexpected fit answer {status}: {text}");
    let v = serde_json::parse_value(&text).unwrap();
    let id = str_field(&v, "model").expect("model id");

    // Poll GET /models/<id> until the artifact lands (202 while pending).
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = c.request("GET", &format!("/models/{id}"), None).unwrap();
        match status {
            200 => {
                assert!(String::from_utf8_lossy(&body).contains("\"schema\""));
                break;
            }
            202 => {
                assert!(std::time::Instant::now() < deadline, "fit never completed");
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("unexpected status {other}: {}", String::from_utf8_lossy(&body)),
        }
    }

    server.handle().shutdown();
    server.join();
}

#[test]
fn concurrent_replays_are_byte_identical() {
    let (server, _dir) = start(|c| c.jobs = 4);
    let mut c = client(&server);
    let id = fit_sync(&mut c);
    let replay = format!(r#"{{"model": "{id}", "protocol": "cubic", "duration_s": 3, "seed": 5}}"#);

    let addr = server.addr().to_string();
    let answers: Vec<Vec<u8>> = std::thread::scope(|s| {
        (0..8)
            .map(|_| {
                let addr = &addr;
                let replay = &replay;
                s.spawn(move || {
                    let mut c = HttpClient::connect(addr, Duration::from_secs(30)).unwrap();
                    let (status, body) =
                        c.request("POST", "/replay", Some(replay.as_bytes())).unwrap();
                    assert_eq!(status, 200);
                    body
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert!(!answers[0].is_empty());
    for a in &answers[1..] {
        assert_eq!(a, &answers[0], "replay must be deterministic across workers");
    }

    server.handle().shutdown();
    server.join();
}

/// A counter off `GET /metrics` (0 when absent). Counters are process-wide
/// and tests run in parallel, so only a lower bound on a delta is sound.
fn counter(c: &mut HttpClient, name: &str) -> u64 {
    let (status, body) = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let v = serde_json::parse_value(&String::from_utf8(body).unwrap()).unwrap();
    v.get("counters").and_then(|c| c.get(name)).and_then(serde::Value::as_f64).unwrap_or(0.0) as u64
}

/// Replays share one decoded artifact, and the decoded tier follows the
/// file on disk: a rewrite by another registry on the same directory is
/// served at once, a deleted file is a 404.
#[test]
fn replays_share_one_decode_and_follow_the_file_on_disk() {
    let (server, dir) = start(|_| {});
    let mut c = client(&server);
    let id = fit_sync(&mut c);
    let replay = format!(r#"{{"model": "{id}", "protocol": "cubic", "duration_s": 2, "seed": 3}}"#);
    let mut replay = || {
        let (status, bytes) = c.request("POST", "/replay", Some(replay.as_bytes())).unwrap();
        (status, String::from_utf8(bytes).unwrap())
    };
    let offline = |artifact: &ModelArtifact| {
        let trace = artifact.model.simulate("cubic", SimTime::from_secs(2), 3);
        (200, serde_json::to_string(&trace).unwrap())
    };

    let fitted = ModelArtifact::load(&ModelArtifact::registry_path(&dir, &id)).unwrap();
    let hits_before = counter(&mut client(&server), "registry.decode_hit");
    for _ in 0..5 {
        assert_eq!(replay(), offline(&fitted));
    }
    let hits = counter(&mut client(&server), "registry.decode_hit") - hits_before;
    assert!(hits >= 4, "five replays of one file decode it at most once ({hits} hits)");
    assert!(counter(&mut client(&server), "registry.decode") >= 1);

    let duration = SimTime::from_secs(2);
    let train = ibox_testbed::run_protocol(
        &ibox_testbed::Profile::Ethernet.builder().seed(8).duration(duration).sample(),
        "cubic",
        duration,
        8,
    );
    let other = ModelArtifact::new(
        &ibox::ModelKind::IBoxNet,
        ibox::fit_model(&ibox::ModelKind::IBoxNet, &train),
    );
    ibox_serve::ModelRegistry::open(&dir).unwrap().put(&id, &other).unwrap();
    assert_ne!(offline(&other), offline(&fitted));
    assert_eq!(replay(), offline(&other), "a rewrite on disk is served at once");

    std::fs::remove_file(ModelArtifact::registry_path(&dir, &id)).unwrap();
    assert_eq!(replay().0, 404);

    server.handle().shutdown();
    server.join();
}

#[test]
fn batch_over_http_is_byte_identical_to_the_offline_runner() {
    let (server, _dir) = start(|_| {});
    let mut c = client(&server);
    let spec = ibox::BatchSpec::builder()
        .run(
            ibox::RunSpec::builder()
                .id("a")
                .synth("ethernet", "cubic", 7)
                .protocol("cubic")
                .duration_s(3.0)
                .seed(1)
                .build()
                .unwrap(),
        )
        .run(
            ibox::RunSpec::builder()
                .id("b")
                .synth("ethernet", "cubic", 7)
                .protocol("vegas")
                .duration_s(3.0)
                .seed(2)
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();

    let (status, body) = c.request("POST", "/batch", Some(spec.to_json().as_bytes())).unwrap();
    let online = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{online}");

    // Same spec through the in-process runner: identical bytes, by the
    // batch layer's jobs-invariance contract.
    let offline =
        ibox::run_batch_with_cache(&spec, 3, &ibox::FitCache::in_memory()).unwrap().to_json();
    assert_eq!(online, offline);

    let (status, _) = c.request("POST", "/batch", Some(b"{not json")).unwrap();
    assert_eq!(status, 400);

    server.handle().shutdown();
    server.join();
}

#[test]
fn overload_sheds_with_503_and_never_hangs() {
    // One worker, one queue slot: concurrent slow-ish requests beyond
    // two must be shed with 503 + Retry-After on the acceptor thread.
    let (server, _dir) = start(|c| {
        c.jobs = 1;
        c.max_inflight = 1;
    });
    let mut warm = client(&server);
    let id = fit_sync(&mut warm);
    drop(warm);

    let addr = server.addr().to_string();
    let replay = format!(r#"{{"model": "{id}", "protocol": "cubic", "duration_s": 3, "seed": 2}}"#);
    let outcomes: Vec<Result<u16, String>> = std::thread::scope(|s| {
        (0..8)
            .map(|_| {
                let addr = &addr;
                let replay = &replay;
                s.spawn(move || {
                    let mut c = HttpClient::connect(addr, Duration::from_secs(60))?;
                    c.request("POST", "/replay", Some(replay.as_bytes())).map(|(s, _)| s)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });

    let served = outcomes.iter().filter(|o| matches!(o, Ok(200))).count();
    // Every request got SOME deterministic outcome — a status, or a clean
    // connection error when the 503-and-close races the client's send.
    // The barrage returning at all proves it didn't deadlock.
    assert!(served >= 1, "at least one request is served: {outcomes:?}");
    for status in outcomes.iter().flatten() {
        assert!(*status == 200 || *status == 503, "unexpected status {status}");
    }
    // The shed path is asserted server-side: the tests share one process
    // with the server, so the global registry sees its counters.
    let shed = ibox_obs::global().snapshot().counters.get("serve.shed").copied().unwrap_or(0);
    assert!(shed >= 1, "an 8-deep barrage at capacity 2 must shed: {outcomes:?}");

    server.handle().shutdown();
    server.join();
}

#[test]
fn hostile_bytes_get_4xx_not_a_crash() {
    let (server, _dir) = start(|_| {});

    // Raw garbage on the socket → a 400-class answer, connection closed.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"EXPLODE /!!! nonsense\r\n\r\n").unwrap();
    let mut answer = String::new();
    let _ = raw.read_to_string(&mut answer);
    assert!(answer.starts_with("HTTP/1.1 4") || answer.starts_with("HTTP/1.1 5"), "{answer}");
    drop(raw);

    // The daemon is still healthy afterwards.
    let mut c = client(&server);
    let (status, _) = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    // Bad JSON bodies and bad fields are typed 400s.
    let (status, body) = c.request("POST", "/fit", Some(b"\xff\xfe")).unwrap();
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    let (status, body) = c.request("POST", "/replay", Some(b"{}")).unwrap();
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    let (status, body) = c
        .request("POST", "/replay", Some(br#"{"model": "x", "protocol": "warp", "seed": 1}"#))
        .unwrap();
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    let (status, body) = c.request("GET", "/models/no-such-model", None).unwrap();
    assert_eq!(status, 404, "{}", String::from_utf8_lossy(&body));
    let (status, body) = c.request("GET", "/models/..%2fescape", None).unwrap();
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));

    server.handle().shutdown();
    server.join();
}

#[test]
fn truncated_request_is_closed_within_the_read_timeout() {
    let (server, _dir) = start(|c| c.read_timeout = Duration::from_secs(1));

    // Send half a request and stop: the worker must give up at its read
    // timeout and close, not pin the slot forever.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"POST /fit HTTP/1.1\r\ncontent-length: 100\r\n\r\nonly-part").unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let t0 = std::time::Instant::now();
    let mut buf = Vec::new();
    let _ = raw.read_to_end(&mut buf); // returns once the server closes
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "server held a truncated connection too long ({:?})",
        t0.elapsed()
    );

    // And the daemon still serves.
    let mut c = client(&server);
    let (status, _) = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    server.handle().shutdown();
    server.join();
}

#[test]
fn shutdown_endpoint_drains_gracefully() {
    let (server, _dir) = start(|_| {});
    let mut c = client(&server);
    let (status, body) = c.request("POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("draining"));
    // join() returns: acceptor unblocked, workers drained, fits joined.
    server.join();
}

/// Streaming ingest over HTTP: chunks append (including out of order),
/// the session is visible under `/ingest/sessions`, finalize registers
/// a lineage version, and `/replay` resolves the base id to the pinned
/// newest version — byte-identical to replaying that version directly.
#[test]
fn ingest_append_finalize_replay_roundtrip() {
    let (server, _dir) = start(|c| c.ingest.refit_every_chunks = 2);
    let mut c = client(&server);

    let duration = SimTime::from_secs(2);
    let train = ibox_testbed::run_protocol(
        &ibox_testbed::Profile::Ethernet.builder().seed(7).duration(duration).sample(),
        "cubic",
        duration,
        7,
    );
    let records = train.records();
    let (a, b) = (records.len() / 3, 2 * records.len() / 3);
    let meta = serde_json::to_string(&train.meta).unwrap();
    let chunk = |offset: usize, recs: &[ibox_trace::PacketRecord]| {
        format!(
            r#"{{"offset": {offset}, "model": "IBoxNet", "meta": {meta}, "records": {}}}"#,
            serde_json::to_string(&recs.to_vec()).unwrap()
        )
        .into_bytes()
    };

    // Chunk 3 arrives before chunk 2: buffered, then drained.
    let (status, body) =
        c.request("POST", "/traces/live/append", Some(&chunk(0, &records[..a]))).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{text}");
    let v = serde_json::parse_value(&text).unwrap();
    assert_eq!(str_field(&v, "outcome").as_deref(), Some("accepted"), "{text}");
    assert!(v.get("watermark").is_some(), "first chunk already yields an estimate: {text}");

    let (status, body) =
        c.request("POST", "/traces/live/append", Some(&chunk(b, &records[b..]))).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{text}");
    assert_eq!(
        str_field(&serde_json::parse_value(&text).unwrap(), "outcome").as_deref(),
        Some("buffered"),
        "{text}"
    );

    let (status, body) =
        c.request("POST", "/traces/live/append", Some(&chunk(a, &records[a..b]))).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{text}");
    let v = serde_json::parse_value(&text).unwrap();
    assert_eq!(str_field(&v, "outcome").as_deref(), Some("accepted"), "{text}");
    // The cadence (every 2 chunks) fired on this append and registered
    // a mid-stream version.
    assert_eq!(str_field(&v, "version").as_deref(), Some("live-v1"), "{text}");

    // The session is introspectable under both listing and singular routes.
    let (status, body) = c.request("GET", "/ingest/sessions", None).unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"live\""));
    let (status, body) = c.request("GET", "/ingest/sessions/live", None).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{text}");
    let v = serde_json::parse_value(&text).unwrap();
    assert_eq!(v.get("chunks").and_then(serde::Value::as_f64), Some(3.0), "{text}");

    // Typed 404s on both trace route families.
    let (status, _) = c.request("GET", "/ingest/sessions/ghost", None).unwrap();
    assert_eq!(status, 404);
    let (status, body) = c.request("GET", "/traces/ghost", None).unwrap();
    assert_eq!(status, 404);
    assert!(String::from_utf8_lossy(&body).contains("/ingest/sessions"));

    // Finalize: seals, fits, registers the next lineage version.
    let (status, body) = c.request("POST", "/traces/live/finalize", Some(b"{}")).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{text}");
    let v = serde_json::parse_value(&text).unwrap();
    assert_eq!(str_field(&v, "version").as_deref(), Some("live-v2"), "{text}");
    assert_eq!(str_field(&v, "status").as_deref(), Some("ready"), "{text}");

    // Appending to a sealed session is a conflict; re-finalizing too.
    let (status, _) =
        c.request("POST", "/traces/live/append", Some(&chunk(0, &records[..a]))).unwrap();
    assert_eq!(status, 409);

    // The latest pointer and the lineage are both served.
    let (status, body) = c.request("GET", "/models/live", None).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"fit_seq\":2"), "{text}");
    assert!(text.contains(&format!("\"trace_digest\":\"{}\"", train.digest())), "{text}");
    let (status, body) = c.request("GET", "/models/live/versions", None).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("live-v1") && text.contains("live-v2"), "{text}");
    assert!(text.contains("\"parent\":\"live-v1\""), "{text}");

    // Replay resolves the base id to the newest version, pinned: the
    // bytes equal an explicit replay of that version.
    let replay = |c: &mut HttpClient, model: &str| {
        let body = format!(r#"{{"model": "{model}", "protocol": "cubic", "duration_s": 2}}"#);
        let (status, bytes) = c.request("POST", "/replay", Some(body.as_bytes())).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
        bytes
    };
    assert_eq!(replay(&mut c, "live"), replay(&mut c, "live-v2"));

    server.handle().shutdown();
    server.join();
}

/// Finalize is byte-identical to a one-shot `/fit` of the same records:
/// the fitted model the lineage registers equals the content-addressed
/// artifact a single `/fit` of the full trace produces.
#[test]
fn ingest_finalize_fit_matches_one_shot_fit_bytes() {
    let (server, dir) = start(|_| {});
    let mut c = client(&server);

    let duration = SimTime::from_secs(2);
    let train = ibox_testbed::run_protocol(
        &ibox_testbed::Profile::Ethernet.builder().seed(9).duration(duration).sample(),
        "cubic",
        duration,
        9,
    );
    let records = train.records();
    let mid = records.len() / 2;
    let meta = serde_json::to_string(&train.meta).unwrap();
    for (offset, recs) in [(0, &records[..mid]), (mid, &records[mid..])] {
        let body = format!(
            r#"{{"offset": {offset}, "meta": {meta}, "records": {}}}"#,
            serde_json::to_string(&recs.to_vec()).unwrap()
        );
        let (status, resp) =
            c.request("POST", "/traces/oneshot/append", Some(body.as_bytes())).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    }
    let (status, resp) = c.request("POST", "/traces/oneshot/finalize", Some(b"{}")).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));

    // One-shot fit of the full inline trace.
    let fit = format!(r#"{{"wait": true, "trace": {}}}"#, serde_json::to_string(&train).unwrap());
    let (status, resp) = c.request("POST", "/fit", Some(fit.as_bytes())).unwrap();
    let text = String::from_utf8(resp).unwrap();
    assert_eq!(status, 200, "{text}");
    let fit_id = str_field(&serde_json::parse_value(&text).unwrap(), "model").unwrap();

    let ingested = ModelArtifact::load(&ModelArtifact::registry_path(&dir, "oneshot-v1")).unwrap();
    let oneshot = ModelArtifact::load(&ModelArtifact::registry_path(&dir, &fit_id)).unwrap();
    assert_eq!(
        serde_json::to_string(&ingested.model).unwrap(),
        serde_json::to_string(&oneshot.model).unwrap(),
        "chunked-ingest fit must be byte-identical to the one-shot fit"
    );

    server.handle().shutdown();
    server.join();
}

/// The crash the directory layout could not survive: the daemon dies
/// inside a chunk write. On restart the torn tail of that session's log is
/// cut at its last complete frame — whether it was cut mid-frame, mid-header
/// or down to nothing — the session beside it and the listing are
/// unaffected, and the resumed stream finalizes to the bytes of a one-shot
/// fit. The ingest directory holds one log per session and nothing else.
#[test]
fn ingest_survives_a_crash_mid_write_and_resumes() {
    let (server, dir) = start(|_| {});
    let duration = SimTime::from_secs(2);
    let train = ibox_testbed::run_protocol(
        &ibox_testbed::Profile::Ethernet.builder().seed(13).duration(duration).sample(),
        "cubic",
        duration,
        13,
    );
    let meta = serde_json::to_string(&train.meta).unwrap();
    let per = train.len().div_ceil(4);
    let chunks: Vec<(usize, Vec<u8>)> = train
        .records()
        .chunks(per)
        .enumerate()
        .map(|(i, recs)| {
            let records = serde_json::to_string(&recs.to_vec()).unwrap();
            let body =
                format!(r#"{{"offset": {}, "meta": {meta}, "records": {records}}}"#, i * per);
            (i * per, body.into_bytes())
        })
        .collect();
    let stream = |c: &mut HttpClient, id: &str| {
        for (offset, body) in &chunks {
            let (status, resp) =
                c.request("POST", &format!("/traces/{id}/append"), Some(body)).unwrap();
            assert_eq!(status, 200, "{id} @ {offset}: {}", String::from_utf8_lossy(&resp));
        }
    };
    let mut c = client(&server);
    for id in ["mid-frame", "mid-header", "emptied", "bystander"] {
        stream(&mut c, id);
    }
    drop(c); // an idle keep-alive connection would hold the drain for its read timeout
    server.handle().shutdown();
    server.join();

    let ingest = dir.join("ingest");
    let mut files: Vec<String> = std::fs::read_dir(&ingest)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["bystander.log", "emptied.log", "mid-frame.log", "mid-header.log"]);
    let cut = |id: &str, keep: &dyn Fn(&[u8]) -> usize| {
        let path = ingest.join(format!("{id}.log"));
        let log = std::fs::read(&path).unwrap();
        std::fs::write(&path, &log[..keep(&log)]).unwrap();
    };
    cut("mid-frame", &|log| log.len() - 1000);
    cut("mid-header", &|_| 20);
    cut("emptied", &|_| 0);

    let mut config = ServeConfig::new("127.0.0.1:0", &dir);
    config.jobs = 2;
    let server = Server::bind(config).expect("rebind");
    let mut c = client(&server);
    let (status, body) = c.request("GET", "/ingest/sessions", None).unwrap();
    let listing = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{listing}");
    assert!(listing.contains("\"bystander\"") && listing.contains("\"mid-frame\""), "{listing}");
    let (status, body) = c.request("GET", "/ingest/sessions/mid-frame", None).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{text}");
    let v = serde_json::parse_value(&text).unwrap();
    assert_eq!(
        v.get("next_offset").and_then(serde::Value::as_f64),
        Some((3 * per) as f64),
        "{text}"
    );
    for id in ["mid-header", "emptied"] {
        let (status, _) = c.request("GET", &format!("/ingest/sessions/{id}"), None).unwrap();
        assert_eq!(status, 404, "{id}: a log without a header is a session that never was");
    }

    // Every client re-sends its stream (accepted chunks answer as
    // duplicates) and finalizes; all four fits are the one-shot fit.
    let oneshot =
        serde_json::to_string(&ibox::fit_model(&ibox::ModelKind::IBoxNet, &train)).unwrap();
    for id in ["mid-frame", "mid-header", "emptied", "bystander"] {
        if id != "bystander" {
            stream(&mut c, id);
        }
        let (status, resp) =
            c.request("POST", &format!("/traces/{id}/finalize"), Some(b"{}")).unwrap();
        assert_eq!(status, 200, "{id}: {}", String::from_utf8_lossy(&resp));
        let fitted =
            ModelArtifact::load(&ModelArtifact::registry_path(&dir, &format!("{id}-v1"))).unwrap();
        assert_eq!(serde_json::to_string(&fitted.model).unwrap(), oneshot, "{id}");
    }
    assert_eq!(std::fs::read_dir(&ingest).unwrap().count(), 4, "one log per session, no more");

    drop(c);
    server.handle().shutdown();
    server.join();
}

/// The names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// A 2 s ethernet/cubic training trace.
fn short_trace(seed: u64) -> ibox_trace::FlowTrace {
    let duration = SimTime::from_secs(2);
    ibox_testbed::run_protocol(
        &ibox_testbed::Profile::Ethernet.builder().seed(seed).duration(duration).sample(),
        "cubic",
        duration,
        seed,
    )
}

/// One file per fitted model: after a `/fit`, an ingest refit and a
/// `/batch`, the model dir holds the fit's envelope, the session's
/// version and latest pointer, and the ingest logs — nothing else.
#[test]
fn a_daemon_writes_one_file_per_fitted_model() {
    let (server, dir) = start(|_| {});
    let mut c = client(&server);
    let fit_id = fit_sync(&mut c);

    let train = short_trace(21);
    let body = format!(
        r#"{{"offset": 0, "meta": {}, "records": {}}}"#,
        serde_json::to_string(&train.meta).unwrap(),
        serde_json::to_string(&train.records().to_vec()).unwrap()
    );
    let (status, resp) = c.request("POST", "/traces/once/append", Some(body.as_bytes())).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    let (status, resp) = c.request("POST", "/traces/once/finalize", Some(b"{}")).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));

    let run =
        ibox::RunSpec::builder().synth("ethernet", "cubic", 23).protocol("vegas").duration_s(2.0);
    let spec = ibox::BatchSpec::builder().run(run.build().unwrap()).build().unwrap();
    let (status, resp) = c.request("POST", "/batch", Some(spec.to_json().as_bytes())).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    drop(c);
    server.handle().shutdown();
    server.join();

    let mut want = vec![
        format!("{fit_id}.artifact.json"),
        "ingest".to_string(),
        "once-v1.artifact.json".to_string(),
        "once.artifact.json".to_string(),
    ];
    want.sort();
    assert_eq!(listing(&dir), want);
}

/// A directory an older build wrote: its `/fit` left a bare `<id>.json`
/// beside the envelope, its `/batch` a bare `<id>.json` alone. The daemon
/// serves the envelope; a disk-backed fit cache disk-hits it and refits
/// the bare-only entry once. The bare files are never read.
#[test]
fn a_directory_with_bare_model_entries_serves_envelopes_and_refits_the_rest() {
    let dir = fresh_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let kind = ModelKind::IBoxNet;
    let (served, bare_only) = (short_trace(31), short_trace(32));
    let model = ibox::fit_model(&kind, &served);
    let id = FitCacheKey::for_fit(&kind, &served).id();
    let bare_id = FitCacheKey::for_fit(&kind, &bare_only).id();
    let bare = |id: &str| dir.join(format!("{id}.json"));
    std::fs::write(bare(&id), serde_json::to_string(&model).unwrap()).unwrap();
    ModelArtifact::new(&kind, model.clone())
        .save(&ModelArtifact::registry_path(&dir, &id))
        .unwrap();
    let bare_model = serde_json::to_string(&ibox::fit_model(&kind, &bare_only)).unwrap();
    std::fs::write(bare(&bare_id), &bare_model).unwrap();

    let server = start_in(&dir, |_| {});
    let mut c = client(&server);
    let replay = format!(r#"{{"model": "{id}", "protocol": "vegas", "duration_s": 2, "seed": 4}}"#);
    let (status, online) = c.request("POST", "/replay", Some(replay.as_bytes())).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&online));
    let offline = serde_json::to_string(&model.simulate("vegas", SimTime::from_secs(2), 4));
    assert_eq!(String::from_utf8(online).unwrap(), offline.unwrap());
    drop(c);
    server.handle().shutdown();
    server.join();

    let cache = FitCache::with_dir(&dir).unwrap();
    let scope = ibox_obs::scoped();
    cache.fit_path_model(&kind, &served);
    let counters = scope.finish().snapshot().counters;
    assert_eq!(counters.get("fitcache.disk_hit"), Some(&1), "{counters:?}");
    assert!(!counters.contains_key("model.fit"), "{counters:?}");

    let scope = ibox_obs::scoped();
    cache.fit_path_model(&kind, &bare_only);
    cache.fit_path_model(&kind, &bare_only);
    let counters = scope.finish().snapshot().counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!((count("model.fit"), count("fitcache.miss"), count("fitcache.hit")), (1, 1, 1));
    assert_eq!(std::fs::read_to_string(bare(&bare_id)).unwrap(), bare_model, "bare files stay");
    assert!(ModelArtifact::load(&ModelArtifact::registry_path(&dir, &bare_id)).is_ok());
}

/// A fit made offline through a disk-backed fit cache is the daemon's
/// model: `/fit` of the same trace answers `ready` at once (an async fit
/// would answer `202`), and the file holds the bytes a daemon's own
/// `/fit` writes.
#[test]
fn an_offline_cache_fit_is_served_without_a_refit() {
    let (server, fresh) = start(|_| {});
    let id = fit_sync(&mut client(&server));
    server.handle().shutdown();
    server.join();

    let dir = fresh_dir();
    let (_, train) = ibox_testbed::synth("ethernet", "cubic", 3.0, 7).unwrap();
    let (key, _) =
        FitCache::with_dir(&dir).unwrap().fit_path_model_keyed(&ModelKind::IBoxNet, &train);
    assert_eq!(key.id(), id, "fit_body's trace");

    let server = start_in(&dir, |_| {});
    let (status, body) = client(&server).request("POST", "/fit", Some(&fit_body(false))).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"ready\""), "{text}");
    server.handle().shutdown();
    server.join();

    let file = |dir: &Path| std::fs::read(ModelArtifact::registry_path(dir, &id)).unwrap();
    assert_eq!(file(&dir), file(&fresh));
}
