//! Streaming-ingest guardrails: the online estimators must make the
//! per-chunk refit *cheaper* than batch re-estimation, or the whole
//! subsystem is pointless.
//!
//! Three measurements per chunk count (1, 8, 64 chunks of one training
//! trace):
//!
//! 1. **Append throughput** — records/s through a real
//!    [`ibox_ingest::SessionStore`] (the session-log writes
//!    included), i.e. what `POST /traces/{id}/append` costs below HTTP.
//! 2. **Online refit** — fold each chunk into the incremental
//!    estimators and read the watermark `(b, d, B, C)` after every
//!    chunk: the O(chunk) path a live session runs at its cadence.
//! 3. **Batch refit** — after every chunk, re-run the offline
//!    estimators (`StaticParams::estimate` +
//!    `CrossTrafficEstimate::estimate`) over the whole accepted prefix:
//!    what refitting would cost *without* the online fold.
//!
//! Asserted in-binary (a failed run exits nonzero): at 64 chunks the
//! online fold's throughput is at least the batch-refit throughput —
//! the O(chunk)-vs-O(total) win the ingest subsystem promises.
//!
//! Results land as `ingest.*` gauges in `BENCH_ingest.json`. With
//! `--baseline <path>` the committed manifest is read before being
//! overwritten and the 64-chunk online speedup must not fall below
//! half of it (see the gate in `main` for why the tolerance is wider
//! than the other benches').
//!
//! Run: `cargo run -p ibox-bench --release --bin ingest [--quick]
//! [--baseline BENCH_ingest.json]`

use std::hint::black_box;

use criterion::Criterion;
use ibox::estimator::{CrossTrafficEstimate, StaticParams, DEFAULT_BIN_SECS};
use ibox_bench::{cell, check_baseline, render_table, Better, Scale};
use ibox_ingest::{IngestConfig, OnlineCrossTraffic, OnlineStaticParams, SessionStore, Watermark};
use ibox_sim::SimTime;
use ibox_testbed::pantheon::run_protocol;
use ibox_testbed::Profile;
use ibox_trace::{FlowTrace, PacketRecord};

const PROTOCOL: &str = "cubic";
const TRAIN_SEED: u64 = 11;

/// Split the trace into `n` near-equal contiguous chunks.
fn chunked(records: &[PacketRecord], n: usize) -> Vec<(u64, Vec<PacketRecord>)> {
    let per = records.len().div_ceil(n.clamp(1, records.len()));
    (0..records.len())
        .step_by(per)
        .map(|start| {
            let end = (start + per).min(records.len());
            (start as u64, records[start..end].to_vec())
        })
        .collect()
}

/// One full session through the store: open fresh, append every chunk.
fn store_pass(dir: &std::path::Path, trace: &FlowTrace, chunks: &[(u64, Vec<PacketRecord>)]) {
    let _ = std::fs::remove_dir_all(dir);
    let store = SessionStore::open(dir, IngestConfig::default()).expect("open store");
    for (offset, records) in chunks {
        store
            .append("bench", None, Some(trace.meta.clone()), *offset, records.clone())
            .expect("append");
    }
}

/// The online cadence: fold each chunk, then read the watermark — what
/// a live session computes per `refit_every_chunks` boundary.
fn online_pass(chunks: &[(u64, Vec<PacketRecord>)]) -> Watermark {
    let mut statics = OnlineStaticParams::new();
    let mut cross: Option<OnlineCrossTraffic> = None;
    let mut last = None;
    for (i, (_, records)) in chunks.iter().enumerate() {
        statics.fold_chunk(records);
        if cross.is_none() {
            if let Some(params) = statics.params() {
                // First delivery seen: anchor the cross estimator and
                // replay the prefix through it (one-time O(session),
                // exactly what the session store does).
                let mut c = OnlineCrossTraffic::new(&params, DEFAULT_BIN_SECS);
                for (_, prior) in &chunks[..=i] {
                    c.fold_chunk(prior);
                }
                cross = Some(c);
            }
        } else if let Some(c) = cross.as_mut() {
            c.fold_chunk(records);
        }
        last = Watermark::of(&statics, cross.as_ref());
    }
    last.expect("watermark after full trace")
}

/// The naive cadence: after each chunk, batch-estimate over the whole
/// accepted prefix — O(total) per chunk instead of O(chunk).
fn batch_pass(trace: &FlowTrace, chunks: &[(u64, Vec<PacketRecord>)]) -> StaticParams {
    let mut prefix: Vec<PacketRecord> = Vec::new();
    let mut params = None;
    for (_, records) in chunks {
        prefix.extend(records.iter().cloned());
        let t = FlowTrace::from_records(trace.meta.clone(), prefix.clone());
        let p = StaticParams::estimate(&t);
        black_box(CrossTrafficEstimate::estimate(&t, &p, DEFAULT_BIN_SECS));
        params = Some(p);
    }
    params.expect("params after full trace")
}

fn main() {
    let bench = ibox_bench::BenchRun::start("ingest");
    let mut criterion = Criterion::default();
    let scale = Scale::from_args();

    let duration = SimTime::from_secs(scale.pick(5, 20) as u64);
    let inst = Profile::Ethernet.sample(TRAIN_SEED, duration);
    let train = run_protocol(&inst, PROTOCOL, duration, TRAIN_SEED);
    let n_records = train.records().len() as f64;
    let dir = std::env::temp_dir().join(format!("ibox-bench-ingest-{}", std::process::id()));

    let registry = ibox_obs::global();
    let mut rows = Vec::new();
    let mut online_rps_64 = 0.0;
    let mut batch_rps_64 = 0.0;

    let mut group = criterion.benchmark_group("ingest");
    group.sample_size(scale.pick(3, 5));
    for n_chunks in [1usize, 8, 64] {
        let chunks = chunked(train.records(), n_chunks);

        let append = group
            .bench_function_timed(format!("append_{n_chunks}"), |b| {
                b.iter(|| store_pass(&dir, &train, black_box(&chunks)))
            })
            .expect("measured");
        let append_rps = n_records / (append.min_ns / 1e9).max(1e-12);

        let online = group
            .bench_function_timed(format!("online_refit_{n_chunks}"), |b| {
                b.iter(|| black_box(online_pass(black_box(&chunks))))
            })
            .expect("measured");
        let online_s = online.min_ns / 1e9;
        let online_rps = n_records / online_s.max(1e-12);

        let batch = group
            .bench_function_timed(format!("batch_refit_{n_chunks}"), |b| {
                b.iter(|| black_box(batch_pass(&train, black_box(&chunks))))
            })
            .expect("measured");
        let batch_s = batch.min_ns / 1e9;
        let batch_rps = n_records / batch_s.max(1e-12);

        if n_chunks == 64 {
            online_rps_64 = online_rps;
            batch_rps_64 = batch_rps;
        }

        registry.gauge(&format!("ingest.append_rps_{n_chunks}")).set(append_rps);
        registry
            .gauge(&format!("ingest.online_refit_ms_{n_chunks}"))
            .set(online_s * 1e3 / n_chunks as f64);
        registry
            .gauge(&format!("ingest.batch_refit_ms_{n_chunks}"))
            .set(batch_s * 1e3 / n_chunks as f64);
        registry
            .gauge(&format!("ingest.online_vs_batch_{n_chunks}_x"))
            .set(batch_s / online_s.max(1e-12));

        rows.push(vec![
            n_chunks.to_string(),
            cell(append_rps, 0),
            cell(online_s * 1e3 / n_chunks as f64, 3),
            cell(batch_s * 1e3 / n_chunks as f64, 3),
            format!("{:.1}x", batch_s / online_s.max(1e-12)),
        ]);
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);

    // Read the committed baseline BEFORE finish() overwrites the file.
    // The 64-chunk online speedup must not fall below half the baseline.
    // The tolerance is wider than the other benches' 20% because the
    // committed manifest is a full run while the CI gate runs `--quick`:
    // the quick trace has ~4x fewer records per chunk, so the fixed
    // per-chunk watermark cost weighs more and the measured speedup sits
    // structurally below the full-run number (~0.65x of it) before any
    // real regression. Append throughput and absolute refit times are
    // deliberately not gated — they track machine speed, not the
    // algorithmic win.
    let baseline_failures = check_baseline(&[(
        "ingest.online_vs_batch_64_x",
        online_rps_64 / batch_rps_64.max(1e-12),
        0.50,
        Better::Higher,
    )]);

    print!(
        "{}",
        render_table(
            "Streaming ingest: append throughput and refit cost per cadence",
            &[
                "chunks",
                "append rec/s",
                "online refit ms/chunk",
                "batch refit ms/chunk",
                "online speedup"
            ],
            &rows,
        )
    );

    bench.finish();

    // The tentpole promise: at a 64-chunk cadence the online fold beats
    // re-running the batch estimators from scratch every chunk.
    assert!(
        online_rps_64 >= batch_rps_64,
        "online fold must be at least batch-refit throughput at 64 chunks \
         (online {online_rps_64:.0} rec/s vs batch {batch_rps_64:.0} rec/s)"
    );

    ibox_bench::exit_on_regressions("ingest", &baseline_failures);
}
