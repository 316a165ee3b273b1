//! Property tests for the streaming ingest pipeline — the tentpole
//! guarantee: folding a trace through the estimators in *any* chunking is
//! **bit-identical** to the batch estimators they replaced (kept in
//! `reference/` for this comparison), and a chunked-ingest finalize
//! produces a fitted model byte-identical to a one-shot fit of the same
//! records.

mod reference;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use ibox::estimator::{CrossTrafficEstimate, FitError, StaticParams, DEFAULT_BIN_SECS};
use ibox::fit_model;
use ibox_ingest::{IngestConfig, OnlineCrossTraffic, OnlineStaticParams, SessionStore};
use ibox_runner::{IBoxMlSpec, ModelKind};
use ibox_sim::SimTime;
use ibox_trace::{FlowTrace, PacketRecord};

fn train() -> &'static FlowTrace {
    static CELL: OnceLock<FlowTrace> = OnceLock::new();
    CELL.get_or_init(|| {
        let duration = SimTime::from_secs(3);
        ibox_testbed::run_protocol(
            &ibox_testbed::Profile::Ethernet.builder().seed(17).duration(duration).sample(),
            "cubic",
            duration,
            17,
        )
    })
}

/// The reference traces: ethernet; india-cellular (loss and Markov
/// capacity); ethernet whose first and last records are lost (so `t0` and
/// the span's end come from lost packets); ethernet with every third
/// arrival held back 700 ms (arrival order far from send order); one
/// delivered record; none. These decide the fold's release order, its
/// padding to the span and its fewer-than-two-probes case.
fn references() -> &'static [FlowTrace] {
    static CELL: OnceLock<Vec<FlowTrace>> = OnceLock::new();
    CELL.get_or_init(|| {
        let duration = SimTime::from_secs(3);
        let profile = ibox_testbed::Profile::IndiaCellular.builder().seed(23).duration(duration);
        let cellular = ibox_testbed::run_protocol(&profile.sample(), "cubic", duration, 23);
        let base = train();
        let n = base.len() as u64;
        let later = |r: &PacketRecord| PacketRecord {
            send_ns: r.send_ns + 5_000_000,
            recv_ns: r.recv_ns.map(|ns| ns + 5_000_000),
            ..*r
        };
        let mut edges = vec![PacketRecord::lost(n, 0, 1400)];
        edges.extend(base.records().iter().map(later));
        edges.push(PacketRecord::lost(n + 1, 10_000_000_000, 1400));
        let delivering = |k: Option<usize>| -> Vec<PacketRecord> {
            let keep = |(i, r): (usize, &PacketRecord)| {
                if Some(i) == k {
                    *r
                } else {
                    PacketRecord::lost(r.seq, r.send_ns, r.size)
                }
            };
            base.records().iter().enumerate().map(keep).collect()
        };
        let held = |(i, r): (usize, &PacketRecord)| PacketRecord {
            recv_ns: r.recv_ns.map(|ns| ns + if i % 3 == 0 { 700_000_000 } else { 0 }),
            ..*r
        };
        let reordered = base.records().iter().enumerate().map(held).collect();
        let mut all = vec![base.clone(), cellular];
        for records in [edges, reordered, delivering(Some(base.len() / 2)), delivering(None)] {
            all.push(FlowTrace::from_records(base.meta.clone(), records));
        }
        all
    })
}

/// Split `records` at the given (arbitrary) cut points into nonempty
/// contiguous chunks, returned as `(offset, records)` pairs.
fn chunked(records: &[PacketRecord], cuts: &[u64]) -> Vec<(u64, Vec<PacketRecord>)> {
    let n = records.len();
    let mut bounds: Vec<usize> = cuts.iter().map(|c| (*c as usize) % n).collect();
    bounds.push(0);
    bounds.push(n);
    bounds.sort_unstable();
    bounds.dedup();
    bounds.windows(2).map(|w| (w[0] as u64, records[w[0]..w[1]].to_vec())).collect()
}

fn unique_id(prefix: &str) -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    format!("{prefix}-{}-{}", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed))
}

fn fresh_store(tag: &str) -> (SessionStore, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(unique_id(&format!("ibox_ingest_props_{tag}")));
    let _ = std::fs::remove_dir_all(&dir);
    (SessionStore::open(&dir, IngestConfig::default()).unwrap(), dir)
}

/// Drive a full session: append the chunks (rotated by `rot`, so most
/// cases exercise the out-of-order buffering path), then finalize.
fn ingest_all(
    store: &SessionStore,
    id: &str,
    kind: &ModelKind,
    chunks: &[(u64, Vec<PacketRecord>)],
    rot: u64,
) -> FlowTrace {
    let start = (rot as usize) % chunks.len();
    for i in 0..chunks.len() {
        let (offset, records) = &chunks[(start + i) % chunks.len()];
        store
            .append(id, Some(kind.clone()), Some(train().meta.clone()), *offset, records.clone())
            .unwrap();
    }
    store.finalize(id).unwrap().trace
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Tentpole invariant, estimator level: folding in random chunk
    /// splits equals the batch estimators on the whole trace bit-for-bit —
    /// both the static `(b, d, B)` and the cross-traffic bins — on every
    /// reference trace; and the one-shot entry points are that fold.
    #[test]
    fn online_estimators_match_batch_bit_for_bit_under_any_chunking(
        cuts in prop::collection::vec(any::<u64>(), 0..12),
    ) {
        for trace in references() {
            let chunks = chunked(trace.records(), &cuts);
            let mut statics = OnlineStaticParams::new();
            for (_, records) in &chunks {
                statics.fold_chunk(records);
                statics.params(); // a mid-stream watermark must not perturb the fold
            }
            // With nothing delivered there is no (b, d, B); any params drive C.
            let params = if trace.delivered_count() == 0 {
                prop_assert_eq!(statics.check(), Err(FitError::NoDeliveredPackets));
                prop_assert_eq!(statics.params(), None);
                StaticParams::estimate(train())
            } else {
                prop_assert_eq!(statics.check(), Ok(()));
                let want = reference::static_params(trace);
                let got = statics.params().expect("delivered packets");
                prop_assert_eq!(got.bandwidth_bps.to_bits(), want.bandwidth_bps.to_bits());
                prop_assert_eq!(got.prop_delay, want.prop_delay);
                prop_assert_eq!(got.buffer_bytes, want.buffer_bytes);
                prop_assert_eq!(StaticParams::estimate(trace), want);
                want
            };

            let mut cross = OnlineCrossTraffic::new(&params, DEFAULT_BIN_SECS);
            for (_, records) in &chunks {
                cross.fold_chunk(records);
            }
            let got = cross.finish(trace.span_secs());
            let want = reference::cross_traffic(trace, &params, DEFAULT_BIN_SECS);
            prop_assert_eq!(got.bins.len(), want.bins.len());
            for (k, (g, w)) in got.bins.iter().zip(&want.bins).enumerate() {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "bin {} diverged", k);
            }
            let once = CrossTrafficEstimate::estimate(trace, &params, DEFAULT_BIN_SECS);
            prop_assert_eq!(once, got);
        }
    }

    /// Tentpole invariant, fit level: a session fed random chunk splits
    /// (in rotated arrival order, exercising the buffering path)
    /// finalizes to a trace — and therefore a fitted model — that is
    /// byte-identical to the one-shot equivalent, for every emulator
    /// ModelKind. (iBoxML rides on the same trace byte-identity; its
    /// fit is compared once in `ml_finalize_fit_is_byte_identical`,
    /// since an ML fit per proptest case would dominate the suite.)
    #[test]
    fn finalize_then_fit_is_byte_identical_to_one_shot(
        cuts in prop::collection::vec(any::<u64>(), 0..10),
        rot in any::<u64>(),
    ) {
        let trace = train();
        let chunks = chunked(trace.records(), &cuts);
        let (store, dir) = fresh_store("fit");
        for kind in ModelKind::all() {
            let id = unique_id("s");
            let finalized = ingest_all(&store, &id, &kind, &chunks, rot);
            prop_assert_eq!(
                serde_json::to_string(&finalized).unwrap(),
                serde_json::to_string(trace).unwrap(),
                "{}: finalized trace must serialize byte-identically", kind.name()
            );
            prop_assert_eq!(&finalized.digest(), &trace.digest());
            let online = serde_json::to_string(&fit_model(&kind, &finalized)).unwrap();
            let oneshot = serde_json::to_string(&fit_model(&kind, trace)).unwrap();
            prop_assert_eq!(online, oneshot, "{}: fitted models diverged", kind.name());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The ML corner of the all-ModelKinds claim: one chunked session,
/// finalize, fit — byte-identical to the one-shot iBoxML fit.
#[test]
fn ml_finalize_fit_is_byte_identical() {
    let trace = train();
    let kind = ModelKind::IBoxMl(IBoxMlSpec {
        hidden_sizes: vec![6],
        epochs: 1,
        lr: 5e-3,
        tbptt: 32,
        with_cross_traffic: true,
        seed: 5,
    });
    let chunks = chunked(trace.records(), &[97, 19, 523, 1201]);
    let (store, dir) = fresh_store("ml");
    let id = unique_id("ml");
    let finalized = ingest_all(&store, &id, &kind, &chunks, 3);
    let online = serde_json::to_string(&fit_model(&kind, &finalized)).unwrap();
    let oneshot = serde_json::to_string(&fit_model(&kind, trace)).unwrap();
    assert_eq!(online, oneshot, "iBoxML fit diverged after chunked ingest");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: kill the daemon mid-stream (drop the store), reopen the
/// session directory, resume appends, finalize cleanly — and the result
/// still fits byte-identically.
#[test]
fn restart_mid_stream_resumes_and_finalizes() {
    let trace = train();
    let chunks = chunked(trace.records(), &[311, 642, 1007, 1555, 88]);
    let dir = std::env::temp_dir().join(unique_id("ibox_ingest_props_restart"));
    let _ = std::fs::remove_dir_all(&dir);
    let id = "restarted";
    let half = chunks.len() / 2;
    {
        let store = SessionStore::open(&dir, IngestConfig::default()).unwrap();
        for (offset, records) in &chunks[..half] {
            store.append(id, None, Some(train().meta.clone()), *offset, records.clone()).unwrap();
        }
    } // dropped: simulated daemon kill
    let store = SessionStore::open(&dir, IngestConfig::default()).unwrap();
    for (offset, records) in &chunks[half..] {
        store.append(id, None, None, *offset, records.clone()).unwrap();
    }
    let finalized = store.finalize(id).unwrap().trace;
    assert_eq!(
        serde_json::to_string(&finalized).unwrap(),
        serde_json::to_string(trace).unwrap(),
        "trace after restart must be byte-identical"
    );
    let kind = ModelKind::IBoxNet;
    assert_eq!(
        serde_json::to_string(&fit_model(&kind, &finalized)).unwrap(),
        serde_json::to_string(&fit_model(&kind, trace)).unwrap(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
