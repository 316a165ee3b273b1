//! The ingest session log's contract: a session's state is a pure fold over
//! the frames in `<id>.log`, so what a restart recovers is what was running,
//! a log cut at any byte recovers to the chunks that were completely
//! written, and damaged bytes are a typed error for that session alone.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use ibox::{fit_model, ModelKind};
use ibox_ingest::{AppendOutcome, IngestConfig, IngestError, SessionStatus, SessionStore};
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

/// `serde_json` of the one-shot fit of [`train`] — the oracle a resumed
/// session's fit must equal byte for byte.
fn one_shot_fit() -> &'static str {
    static CELL: OnceLock<String> = OnceLock::new();
    CELL.get_or_init(|| serde_json::to_string(&fit_model(&ModelKind::IBoxNet, train())).unwrap())
}

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("ibox_ingest_log_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn log_path(dir: &Path, id: &str) -> PathBuf {
    dir.join("ingest").join(format!("{id}.log"))
}

fn log_bytes(dir: &Path, id: &str) -> Vec<u8> {
    std::fs::read(log_path(dir, id)).unwrap_or_default()
}

/// Split the training records at the given cut points into nonempty
/// contiguous `(offset, records)` chunks.
fn chunked(cuts: &[u64]) -> Vec<(u64, Vec<PacketRecord>)> {
    let records = train().records();
    let mut bounds: Vec<usize> = cuts.iter().map(|c| (*c as usize) % records.len()).collect();
    bounds.extend([0, records.len()]);
    bounds.sort_unstable();
    bounds.dedup();
    bounds.windows(2).map(|w| (w[0] as u64, records[w[0]..w[1]].to_vec())).collect()
}

/// Field-for-field equality of two statuses, floats by bits.
fn same_status(a: &SessionStatus, b: &SessionStatus) -> Result<(), TestCaseError> {
    prop_assert_eq!(serde_json::to_string(a).unwrap(), serde_json::to_string(b).unwrap());
    let bits = |s: &SessionStatus| {
        s.watermark.as_ref().map(|w| {
            (w.bandwidth_bps.to_bits(), w.prop_delay_ms.to_bits(), w.cross_total_bytes.to_bits())
        })
    };
    prop_assert_eq!(bits(a), bits(b));
    Ok(())
}

/// What recovery must make of a log: whether a header was committed, and
/// the contiguous prefix of completely written chunk frames. Computed from
/// the bytes alone, not through the store.
fn contiguous_prefix(log: &[u8]) -> Option<u64> {
    let text = String::from_utf8_lossy(log);
    let mut lines = text.split_inclusive('\n').filter(|line| line.ends_with('\n'));
    lines.next()?;
    let mut chunks: Vec<(u64, u64)> = lines
        .filter_map(|line| {
            let v = serde_json::parse_value(line).ok()?;
            let offset = v.get("offset")?.as_f64()? as u64;
            Some((offset, v.get("records")?.as_array()?.len() as u64))
        })
        .collect();
    chunks.sort_unstable();
    Some(
        chunks
            .iter()
            .fold(0, |next, (offset, len)| if *offset == next { next + len } else { next }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// (a) Replay equivalence. After any sequence of appends — in order,
    /// ahead of the prefix, duplicate, overlapping, send-order-violating,
    /// over budget — and snapshots, forgetting the in-memory state and
    /// folding the log again yields the same status field for field, and
    /// every refused or duplicate append left the log byte for byte as it
    /// was.
    #[test]
    fn recovery_folds_to_the_state_that_was_running(
        ops in prop::collection::vec((0u8..11, any::<u64>(), any::<u64>()), 1..28),
    ) {
        let dir = fresh_dir("fold");
        let config = IngestConfig {
            session_budget_bytes: 64 << 10,
            global_budget_bytes: 1 << 20,
            refit_every_chunks: 0,
        };
        let store = SessionStore::open(&dir, config).unwrap();
        let records = train().records();
        let slice = |from: u64, len: u64| -> Vec<PacketRecord> {
            let from = (from as usize).min(records.len() - 1);
            records[from..(from + len as usize).min(records.len())].to_vec()
        };
        let meta = Some(train().meta.clone());
        let mut next = 0u64;
        for (kind, a, b) in ops {
            let before = log_bytes(&dir, "s");
            let (offset, chunk) = match kind {
                // In order.
                0..=3 => (next, slice(next, 1 + b % 120)),
                // Ahead of the accepted prefix.
                4 | 5 => (next + 1 + a % 200, slice(next + 1 + a % 200, 1 + b % 80)),
                // A retry of records already accepted.
                6 => (a % (next + 1), slice(a % (next + 1), (next - a % (next + 1)).min(1 + b % 50))),
                // Straddling the end of the accepted prefix.
                7 => (next.saturating_sub(1 + a % 20), slice(next.saturating_sub(1 + a % 20), 25 + b % 40)),
                // The right offset, records from the wrong part of the trace.
                8 => (next, slice(a % (next / 2 + 1), 1 + b % 60)),
                // More than the session budget allows.
                9 => (next, slice(next, 1500)),
                _ => {
                    let shot = store.snapshot("s");
                    let grew = log_bytes(&dir, "s").len() > before.len();
                    prop_assert_eq!(shot.is_ok(), grew, "a snapshot writes its mark iff it succeeds");
                    continue;
                }
            };
            if chunk.is_empty() {
                continue;
            }
            match store.append("s", None, meta.clone(), offset, chunk) {
                Ok(result) => {
                    next = result.next_offset;
                    let grew = log_bytes(&dir, "s").len() > before.len();
                    prop_assert_eq!(grew, result.outcome != AppendOutcome::Duplicate);
                }
                Err(e) => {
                    prop_assert!(matches!(e.http_status(), 409 | 413), "{}", e);
                    prop_assert_eq!(log_bytes(&dir, "s"), before, "a refused append wrote: {}", e);
                }
            }
        }
        if let Ok(running) = store.status("s") {
            prop_assert_eq!(running.bytes, log_bytes(&dir, "s").len() as u64);
            store.forget_all();
            same_status(&running, &store.status("s").unwrap())?;
            // A second store over the same directory: the same fold again.
            let reopened = SessionStore::open(&dir, IngestConfig::default()).unwrap();
            same_status(&running, &reopened.status("s").unwrap())?;
        } else {
            prop_assert!(!log_path(&dir, "s").exists(), "no session, no file");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// (b) Crash at any byte. A byte prefix of a log — cut mid-frame,
    /// mid-header, at a frame boundary, at zero — opens without an error,
    /// resumes at the contiguous prefix of the chunk frames that were
    /// completely written, and after the client re-sends its chunks
    /// finalizes to the trace, and the fit, of the uninterrupted stream.
    #[test]
    fn a_log_cut_at_any_byte_resumes_and_fits_like_the_one_shot(
        cuts in prop::collection::vec(any::<u64>(), 1..8),
        rot in any::<u64>(),
        snapshot_after in 0usize..8,
        mode in 0u8..4,
        cut in any::<u64>(),
    ) {
        let chunks = chunked(&cuts);
        let meta = Some(train().meta.clone());
        let written = fresh_dir("whole");
        {
            let store = SessionStore::open(&written, IngestConfig::default()).unwrap();
            let start = (rot as usize) % chunks.len();
            for i in 0..chunks.len() {
                let (offset, records) = &chunks[(start + i) % chunks.len()];
                store.append("s", None, meta.clone(), *offset, records.clone()).unwrap();
                if i == snapshot_after {
                    let _ = store.snapshot("s");
                }
            }
        }
        let whole = log_bytes(&written, "s");
        let header_len = whole.iter().position(|b| *b == b'\n').unwrap() + 1;
        let frame_ends: Vec<usize> =
            whole.iter().enumerate().filter(|(_, b)| **b == b'\n').map(|(i, _)| i + 1).collect();
        let cut = match mode {
            0 => cut as usize % (header_len + 1),
            1 => frame_ends[cut as usize % frame_ends.len()],
            _ => cut as usize % (whole.len() + 1),
        };

        let crashed = fresh_dir("cut");
        std::fs::create_dir_all(crashed.join("ingest")).unwrap();
        std::fs::write(log_path(&crashed, "s"), &whole[..cut]).unwrap();
        let store = SessionStore::open(&crashed, IngestConfig::default()).unwrap();
        match (contiguous_prefix(&whole[..cut]), store.status("s")) {
            (Some(next), Ok(status)) => prop_assert_eq!(status.next_offset, next, "cut at {}", cut),
            (None, Err(IngestError::UnknownSession { .. })) => {}
            (want, got) => prop_assert!(false, "cut at {}: expected {:?}, got {:?}", cut, want, got),
        }
        prop_assert!(store.list().is_ok());
        for (offset, records) in &chunks {
            store.append("s", None, meta.clone(), *offset, records.clone()).unwrap();
        }
        let finalized = store.finalize("s").unwrap().trace;
        prop_assert_eq!(
            serde_json::to_string(&finalized).unwrap(),
            serde_json::to_string(train()).unwrap()
        );
        let fit = serde_json::to_string(&fit_model(&ModelKind::IBoxNet, &finalized)).unwrap();
        prop_assert_eq!(fit.as_str(), one_shot_fit());
        let _ = std::fs::remove_dir_all(&written);
        let _ = std::fs::remove_dir_all(&crashed);
    }

    /// (c) Hostile bytes. Bytes overwritten inside a log, or a log of
    /// arbitrary bytes, make that session answer a typed error (or, when
    /// the damage happens to leave a valid log, a status) — never a panic —
    /// and the session beside it lists, appends and finalizes as before.
    #[test]
    fn damaged_bytes_are_a_typed_error_for_that_session_only(
        noise in prop::collection::vec(0u8..255, 1..64),
        at in any::<u64>(),
        stride in 1usize..400,
    ) {
        let dir = fresh_dir("hostile");
        let store = SessionStore::open(&dir, IngestConfig::default()).unwrap();
        let records = train().records();
        for id in ["victim", "bystander"] {
            for (i, chunk) in records[..240].chunks(60).enumerate() {
                store.append(id, None, None, i as u64 * 60, chunk.to_vec()).unwrap();
            }
        }
        let real = log_bytes(&dir, "victim");
        let mut overwritten = real.clone();
        for (i, b) in noise.iter().enumerate() {
            let pos = (at as usize + stride * i) % real.len();
            overwritten[pos] = *b;
        }
        for bytes in [overwritten, noise.clone()] {
            std::fs::write(log_path(&dir, "victim"), &bytes).unwrap();
            store.forget_all();
            let listed: Vec<String> = store.list().unwrap().into_iter().map(|s| s.id).collect();
            prop_assert!(listed.contains(&"bystander".to_string()), "{:?}", listed);
            match store.status("victim") {
                Ok(status) => prop_assert!(listed.contains(&status.id)),
                Err(IngestError::Parse { id, .. }) | Err(IngestError::UnknownSession { id }) => {
                    prop_assert_eq!(id.as_str(), "victim");
                    prop_assert!(!listed.contains(&id));
                }
                Err(other) => prop_assert!(false, "untyped failure: {}", other),
            }
            // Whatever the damage left, the write path answers, too.
            let _ = store.append("victim", None, None, 240, records[240..300].to_vec());
            let _ = store.snapshot("victim");
        }
        store.append("bystander", None, None, 240, records[240..300].to_vec()).unwrap();
        prop_assert_eq!(store.finalize("bystander").unwrap().trace.len(), 300);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
