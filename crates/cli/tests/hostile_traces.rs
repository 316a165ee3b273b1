//! Hostile training traces through every fit door — `ibox fit`, `POST /fit`
//! over a real socket, an ingest session's append + finalize — for every
//! model kind: each ends in the same typed error or a model within 1 s, and
//! the daemon keeps serving.

use std::process::Command;
use std::time::{Duration, Instant};

use ibox::estimator::FitError;
use ibox::{check_fit, IBoxMlSpec, ModelKind};
use ibox_serve::{HttpClient, ServeConfig, Server};
use ibox_trace::{FlowMeta, FlowTrace, PacketRecord};

/// Each trace, and the refusal it must get at every door (`None`: a model).
fn cases() -> Vec<(&'static str, Vec<PacketRecord>, Option<FitError>)> {
    let (d, ms) = (PacketRecord::delivered, 1_000_000);
    let (far, top) = ((1u64 << 62) - 1, u64::MAX - 2_000_000_000);
    let backwards = PacketRecord { seq: 1, send_ns: 1_000 * ms, size: 1200, recv_ns: Some(5) };
    let span = FitError::SpanTooLong { span_secs: ibox_trace::ns_to_secs(far) };
    vec![
        ("far-future send_ns", vec![d(0, 0, 1200, 30 * ms), d(1, far, 1200, far)], Some(span)),
        (
            "u64::MAX times",
            vec![d(0, top, 1200, top + 30 * ms), d(1, u64::MAX, 1200, u64::MAX)],
            None,
        ),
        (
            "recv_ns < send_ns",
            vec![d(0, 0, 1200, 30 * ms), backwards],
            Some(FitError::ReceivedBeforeSent { seq: 1 }),
        ),
        ("size 0", (0..20).map(|i| d(i, i * ms, 0, (i + 30) * ms)).collect(), None),
        ("one record", vec![d(0, 0, 1200, 30 * ms)], None),
        (
            "zero delivered",
            (0..5).map(|i| PacketRecord::lost(i, i * ms, 1200)).collect(),
            Some(FitError::NoDeliveredPackets),
        ),
        ("duplicate seq", (0..10).map(|i| d(7, i * ms, 1200, (i + 30) * ms)).collect(), None),
    ]
}

/// Run `door`, failing the test if it takes a second or more.
fn timed<T>(what: &str, door: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = door();
    assert!(t0.elapsed() < Duration::from_secs(1), "{what} took {:?}", t0.elapsed());
    out
}

#[test]
fn hostile_traces_end_in_a_typed_error_or_a_model_at_every_door() {
    let dir = std::env::temp_dir().join(format!("ibox-hostile-traces-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::bind(ServeConfig::new("127.0.0.1:0", dir.join("models"))).expect("bind");
    let mut c = HttpClient::connect(&server.addr().to_string(), Duration::from_secs(10)).unwrap();
    let kinds: [(ModelKind, &[&str]); 5] = [
        (ModelKind::IBoxNet, &[]),
        (ModelKind::IBoxNetNoCross, &["--no-cross"]),
        (ModelKind::IBoxNetReorder, &["--with-reordering"]),
        (ModelKind::StatisticalLoss, &["--model", "statistical-loss"]),
        (ModelKind::IBoxMl(IBoxMlSpec::default()), &["--model", "iboxml"]),
    ];

    for (n, (name, records, refusal)) in cases().into_iter().enumerate() {
        let meta = FlowMeta::new(name, "hostile", "test");
        let trace = FlowTrace::from_records(meta.clone(), records.clone());
        assert_eq!(check_fit(&trace).err(), refusal, "{name}");
        let trace_json = serde_json::to_string(&trace).unwrap();
        let trace_path = dir.join(format!("trace-{n}.json"));
        std::fs::write(&trace_path, &trace_json).unwrap();
        let (records, meta) =
            (serde_json::to_string(&records).unwrap(), serde_json::to_string(&meta).unwrap());

        for (k, (kind, flags)) in kinds.iter().enumerate() {
            let what = format!("{name} × {}", kind.name());
            let kind = serde_json::to_string(kind).unwrap();
            let out = timed(&format!("ibox fit {what}"), || {
                let mut fit = Command::new(env!("CARGO_BIN_EXE_ibox"));
                fit.arg("fit").arg(&trace_path).args(*flags).arg("-o").arg(dir.join("m.json"));
                fit.arg("--quiet").output().expect("run ibox fit")
            });
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.success(), refusal.is_none(), "ibox fit {what}: {stderr}");
            assert!(
                refusal.is_none() || stderr.contains("cannot fit"),
                "ibox fit {what}: {stderr}"
            );

            let mut door = |method, path: String, body: Option<String>, want: u16| {
                let label = format!("{method} {path} ({what})");
                let body = body.as_ref().map(String::as_bytes);
                let (status, reply) = timed(&label, || c.request(method, &path, body)).unwrap();
                assert_eq!(status, want, "{label}: {}", String::from_utf8_lossy(&reply));
                assert_eq!(
                    c.request("GET", "/healthz", None).unwrap().0,
                    200,
                    "/healthz after {label}"
                );
            };
            let (fit, fin) = if refusal.is_some() { (400, 409) } else { (200, 200) };
            let body = format!(r#"{{"wait": true, "model": {kind}, "trace": {trace_json}}}"#);
            door("POST", "/fit".into(), Some(body), fit);
            let chunk = format!(
                r#"{{"offset": 0, "model": {kind}, "meta": {meta}, "records": {records}}}"#
            );
            door("POST", format!("/traces/hostile-{n}-{k}/append"), Some(chunk), 200);
            door("POST", format!("/traces/hostile-{n}-{k}/finalize"), None, fin);
        }
    }

    server.handle().shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
