//! How `ibox` reports a failure: an argument error is followed by the usage
//! block, and a runtime error — the arguments were fine, the work failed —
//! is one line on stderr and exit status 1.

use std::process::{Command, Output};
use std::time::Duration;

use ibox_serve::{HttpClient, ServeConfig, Server};
use ibox_trace::{FlowMeta, FlowTrace, PacketRecord};

fn ibox(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ibox")).args(args).output().expect("run ibox")
}

/// Exit status 1 and exactly one line on stderr, with no usage block.
fn one_line_failure(out: &Output, what: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
    assert!(!stderr.contains("usage:"), "{what} printed the usage block:\n{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{what}:\n{stderr}");
    stderr
}

/// Five lost packets: no trace a fit can use.
fn unfittable() -> (FlowMeta, Vec<PacketRecord>) {
    let records = (0..5).map(|i| PacketRecord::lost(i, i * 1_000_000, 1200)).collect();
    (FlowMeta::new("unfittable", "lost", "test"), records)
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ibox-cli-errors-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn an_unfittable_fit_is_one_line_without_usage() {
    let dir = scratch("fit");
    let (meta, records) = unfittable();
    let path = dir.join("trace.json");
    let trace = FlowTrace::from_records(meta, records);
    std::fs::write(&path, serde_json::to_string(&trace).unwrap()).unwrap();
    let out = ibox(&["fit", path.to_str().unwrap()]);
    let line = one_line_failure(&out, "ibox fit of an unfittable trace");
    assert!(line.contains("cannot fit"), "{line}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_409_from_ingest_finalize_is_one_line_without_usage() {
    let dir = scratch("finalize");
    let server = Server::bind(ServeConfig::new("127.0.0.1:0", dir.join("models"))).expect("bind");
    let url = format!("http://{}", server.addr());
    let mut c = HttpClient::connect(&server.addr().to_string(), Duration::from_secs(10)).unwrap();
    let (meta, records) = unfittable();
    let chunk = format!(
        r#"{{"offset": 0, "meta": {}, "records": {}}}"#,
        serde_json::to_string(&meta).unwrap(),
        serde_json::to_string(&records).unwrap()
    );
    let (status, _) = c.request("POST", "/traces/lost/append", Some(chunk.as_bytes())).unwrap();
    assert_eq!(status, 200);

    let out = ibox(&["ingest", "finalize", "--url", &url, "--session", "lost"]);
    let line = one_line_failure(&out, "ibox ingest finalize answered 409");
    assert!(line.contains("finalize failed 409"), "{line}");

    drop(c);
    server.handle().shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_argument_error_is_followed_by_the_usage_block() {
    for args in [&["fit", "--no-crossx", "t.json"][..], &["frobnicate"], &["ingest", "finalize"]] {
        let out = ibox(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "ibox {args:?}: {stderr}");
        assert!(stderr.contains("usage:\n"), "ibox {args:?}:\n{stderr}");
    }
}
