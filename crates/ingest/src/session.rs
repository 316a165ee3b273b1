//! Chunked ingest sessions: append-only packet-record chunks on disk.
//!
//! A session is a directory under `<model_dir>/ingest/<id>/`:
//!
//! ```text
//! manifest.json           — envelope: meta, model kind, accepted counts
//! chunk-<offset12>.json   — accepted chunks, named by record offset
//! pending-<offset12>.json — buffered out-of-order chunks
//! ```
//!
//! Chunk files are written **before** the manifest is updated, so a
//! crash between the two leaves an orphan chunk that recovery re-adopts
//! (it is contiguous by construction). Sessions are recovered lazily on
//! first touch after a restart by re-folding the chunk files through the
//! online estimators — O(session) once, O(chunk) per append after.
//!
//! Protocol invariants:
//!
//! * **Monotone record offsets.** A chunk carries the record offset of
//!   its first record. `offset == next` is accepted and folded;
//!   a fully-seen chunk is acknowledged as a duplicate (idempotent
//!   retries); a partial overlap is a conflict; a future offset is
//!   persisted and buffered until the gap fills.
//! * **Send-ordered records.** Records are sorted within a chunk, and a
//!   chunk must start strictly after the last accepted record in
//!   `(send_ns, seq)` order — this makes the fold order equal to
//!   [`FlowTrace`]'s sort order, which the bit-identical estimator
//!   guarantee depends on.
//! * **Byte budgets.** Per-session and store-global byte budgets bound
//!   disk usage; exceeding either is a typed error the serving layer
//!   maps to HTTP 413.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use ibox::estimator::DEFAULT_BIN_SECS;
use ibox_runner::ModelKind;
use ibox_trace::{FlowMeta, FlowTrace, PacketRecord};

use crate::estimator::{OnlineCrossTraffic, OnlineStaticParams, Watermark};

/// Manifest schema version for session directories.
const SESSION_SCHEMA: u32 = 1;

/// Budgets and refit cadence for a [`SessionStore`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Maximum serialized bytes (accepted + buffered chunks) per session.
    pub session_budget_bytes: u64,
    /// Maximum serialized bytes across all sessions in the store.
    pub global_budget_bytes: u64,
    /// Re-fit (and register a new model version) every N accepted
    /// chunks; `0` fits only on finalize.
    pub refit_every_chunks: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            session_budget_bytes: 64 << 20,
            global_budget_bytes: 256 << 20,
            refit_every_chunks: 0,
        }
    }
}

/// Why an ingest operation failed. [`IngestError::http_status`] gives
/// the serving layer its typed responses (the daemon's error envelope
/// derives the machine-readable code from the status).
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The session id is not usable as a registry model id.
    InvalidId {
        /// The offending id.
        id: String,
        /// Human-readable constraint that failed.
        reason: &'static str,
    },
    /// No such session on disk or in memory.
    UnknownSession {
        /// The id that was looked up.
        id: String,
    },
    /// The session was already finalized.
    Sealed {
        /// The sealed session.
        id: String,
    },
    /// Finalize was requested while buffered chunks still wait on a gap.
    Gap {
        /// The session.
        id: String,
        /// The record offset the next accepted chunk must start at.
        expected: u64,
        /// How many chunks are buffered beyond the gap.
        buffered: usize,
    },
    /// A chunk partially overlaps records that were already accepted.
    Overlap {
        /// The session.
        id: String,
        /// The chunk's claimed offset.
        offset: u64,
        /// The offset the session expected.
        expected: u64,
    },
    /// A chunk's records do not extend the accepted send order.
    OutOfOrderRecords {
        /// The session.
        id: String,
    },
    /// A chunk with no records.
    EmptyChunk {
        /// The session.
        id: String,
    },
    /// Accepting the chunk would exceed the per-session byte budget.
    SessionBudget {
        /// The session.
        id: String,
        /// The configured budget.
        limit: u64,
        /// Bytes the session would hold after the chunk.
        needed: u64,
    },
    /// Accepting the chunk would exceed the store-global byte budget.
    GlobalBudget {
        /// The configured budget.
        limit: u64,
        /// Bytes the store would hold after the chunk.
        needed: u64,
    },
    /// Finalize/refit on a session with no delivered packets.
    NoDeliveredPackets {
        /// The session.
        id: String,
    },
    /// Filesystem failure underneath the session.
    Io {
        /// The session ("" for store-level failures).
        id: String,
        /// Stringified OS error.
        detail: String,
    },
    /// A persisted session file failed to parse.
    Parse {
        /// The session.
        id: String,
        /// Stringified serde error.
        detail: String,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::InvalidId { id, reason } => {
                write!(f, "invalid session id {id:?}: {reason}")
            }
            IngestError::UnknownSession { id } => write!(f, "no such ingest session {id:?}"),
            IngestError::Sealed { id } => write!(f, "ingest session {id:?} is finalized"),
            IngestError::Gap { id, expected, buffered } => write!(
                f,
                "session {id:?} has a gap: next accepted offset is {expected}, \
                 {buffered} chunk(s) buffered beyond it"
            ),
            IngestError::Overlap { id, offset, expected } => write!(
                f,
                "chunk at offset {offset} partially overlaps session {id:?} \
                 (expected offset {expected})"
            ),
            IngestError::OutOfOrderRecords { id } => {
                write!(f, "chunk records for session {id:?} do not extend the accepted send order")
            }
            IngestError::EmptyChunk { id } => {
                write!(f, "empty chunk for session {id:?}")
            }
            IngestError::SessionBudget { id, limit, needed } => {
                write!(f, "session {id:?} byte budget exceeded: {needed} > {limit}")
            }
            IngestError::GlobalBudget { limit, needed } => {
                write!(f, "ingest store byte budget exceeded: {needed} > {limit}")
            }
            IngestError::NoDeliveredPackets { id } => {
                write!(f, "session {id:?} has no delivered packets to fit on")
            }
            IngestError::Io { id, detail } => write!(f, "ingest i/o error ({id}): {detail}"),
            IngestError::Parse { id, detail } => {
                write!(f, "corrupt ingest session {id:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl IngestError {
    /// The HTTP status the serving layer should answer with.
    pub fn http_status(&self) -> u16 {
        match self {
            IngestError::InvalidId { .. } | IngestError::EmptyChunk { .. } => 400,
            IngestError::UnknownSession { .. } => 404,
            IngestError::Sealed { .. }
            | IngestError::Gap { .. }
            | IngestError::Overlap { .. }
            | IngestError::OutOfOrderRecords { .. }
            | IngestError::NoDeliveredPackets { .. } => 409,
            IngestError::SessionBudget { .. } | IngestError::GlobalBudget { .. } => 413,
            IngestError::Io { .. } | IngestError::Parse { .. } => 500,
        }
    }
}

/// How an append was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The chunk extended the accepted prefix (possibly draining
    /// buffered successors).
    Accepted,
    /// The chunk is ahead of the accepted prefix and was buffered.
    Buffered,
    /// Every record in the chunk was already accepted or buffered —
    /// an idempotent retry.
    Duplicate,
}

impl AppendOutcome {
    /// Wire label for responses.
    pub fn as_str(self) -> &'static str {
        match self {
            AppendOutcome::Accepted => "accepted",
            AppendOutcome::Buffered => "buffered",
            AppendOutcome::Duplicate => "duplicate",
        }
    }
}

/// Result of one append call.
#[derive(Debug, Clone)]
pub struct AppendResult {
    /// What happened to the chunk.
    pub outcome: AppendOutcome,
    /// The record offset the next in-order chunk must start at.
    pub next_offset: u64,
    /// Accepted chunks so far.
    pub chunks: u64,
    /// Buffered (out-of-order) chunks waiting on a gap.
    pub buffered: usize,
    /// Whether the configured refit cadence fired on this append.
    pub refit_due: bool,
    /// Current mid-stream estimate (None before any delivery).
    pub watermark: Option<Watermark>,
}

/// Introspection view of a session (also the `GET /ingest/sessions/{id}`
/// payload).
#[derive(Debug, Clone, Serialize)]
pub struct SessionStatus {
    /// Session (and registry model) id.
    pub id: String,
    /// The record offset the next in-order chunk must start at.
    pub next_offset: u64,
    /// Accepted chunks.
    pub chunks: u64,
    /// Serialized bytes held (accepted + buffered).
    pub bytes: u64,
    /// Whether the session is finalized.
    pub sealed: bool,
    /// Fits performed so far (== latest registered version).
    pub fit_seq: u64,
    /// Buffered out-of-order chunks.
    pub buffered: usize,
    /// Current mid-stream estimate (None before any delivery).
    pub watermark: Option<Watermark>,
}

/// What a refit or finalize hands to the fitting layer.
#[derive(Debug, Clone)]
pub struct FinalizeOutput {
    /// The concatenated trace over all accepted chunks.
    pub trace: FlowTrace,
    /// The model kind the session was opened with.
    pub kind: ModelKind,
    /// 1-based fit counter (already bumped and persisted).
    pub fit_seq: u64,
    /// Whether this output sealed the session.
    pub sealed: bool,
}

/// The persisted envelope of a session.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    schema: u32,
    id: String,
    meta: FlowMeta,
    kind: ModelKind,
    next_offset: u64,
    chunks: u64,
    bytes: u64,
    sealed: bool,
    fit_seq: u64,
}

/// On-disk chunk format (both accepted and pending files), as read back.
#[derive(Debug, Clone, Deserialize)]
struct ChunkFile {
    offset: u64,
    records: Vec<PacketRecord>,
}

/// [`ChunkFile`] as written: the same keys in the same order, over borrowed
/// records — the append path prints a chunk without copying it.
#[derive(Serialize)]
struct ChunkFileRef<'a> {
    offset: u64,
    records: &'a [PacketRecord],
}

impl ChunkFileRef<'_> {
    fn to_json(&self) -> String {
        serde_json::to_string(self).expect("chunk serialization cannot fail")
    }
}

/// One live session: manifest plus fold state.
struct Session {
    man: Manifest,
    /// `(send_ns, seq)` of the last folded record — the next chunk must
    /// start strictly after it.
    last_key: Option<(u64, u64)>,
    /// Buffered out-of-order chunks by offset → (bytes, records).
    pending: BTreeMap<u64, (u64, Vec<PacketRecord>)>,
    statics: OnlineStaticParams,
    cross: Option<OnlineCrossTraffic>,
}

impl Session {
    fn total_bytes(&self) -> u64 {
        self.man.bytes + self.pending.values().map(|(b, _)| b).sum::<u64>()
    }

    fn status(&self) -> SessionStatus {
        SessionStatus {
            id: self.man.id.clone(),
            next_offset: self.man.next_offset,
            chunks: self.man.chunks,
            bytes: self.total_bytes(),
            sealed: self.man.sealed,
            fit_seq: self.man.fit_seq,
            buffered: self.pending.len(),
            watermark: Watermark::of(&self.statics, self.cross.as_ref()),
        }
    }
}

struct StoreInner {
    sessions: HashMap<String, Session>,
    /// Serialized bytes across all sessions (accepted + buffered),
    /// including sessions on disk that have not been touched yet.
    global_bytes: u64,
}

/// The store of all ingest sessions under one artifact directory.
pub struct SessionStore {
    root: PathBuf,
    config: IngestConfig,
    inner: Mutex<StoreInner>,
}

impl SessionStore {
    /// Open (or create) the store rooted at `<model_dir>/ingest`.
    /// Existing sessions are discovered for the global byte count but
    /// recovered lazily on first touch.
    pub fn open(model_dir: &Path, config: IngestConfig) -> Result<Self, IngestError> {
        let root = model_dir.join("ingest");
        std::fs::create_dir_all(&root)
            .map_err(|e| IngestError::Io { id: String::new(), detail: e.to_string() })?;
        let global_bytes = scan_bytes(&root)?;
        Ok(Self {
            root,
            config,
            inner: Mutex::new(StoreInner { sessions: HashMap::new(), global_bytes }),
        })
    }

    /// The directory sessions live under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store's budgets and refit cadence.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    fn dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// Append a chunk of `records` starting at record `offset`. Creates
    /// the session on first touch: `kind` selects the model to fit
    /// (defaults to iBoxNet) and `meta` the trace metadata (defaults to
    /// `(id, "ingest", "live")`); both are fixed at creation. Supplying
    /// the original trace's meta makes the finalize fit byte-identical
    /// to a one-shot `/fit` of that trace, since fitted models embed
    /// `meta.path` as their provenance label.
    pub fn append(
        &self,
        id: &str,
        kind: Option<ModelKind>,
        meta: Option<FlowMeta>,
        offset: u64,
        mut records: Vec<PacketRecord>,
    ) -> Result<AppendResult, IngestError> {
        let _span = ibox_obs::span!("ingest.append");
        validate_id(id)?;
        if records.is_empty() {
            return Err(IngestError::EmptyChunk { id: id.to_string() });
        }
        // Establish the fold order within the chunk up front.
        records.sort_by_key(|r| (r.send_ns, r.seq));
        let mut inner = self.inner.lock().expect("ingest store lock");
        let inner = &mut *inner;
        if !inner.sessions.contains_key(id) {
            match self.load_session(id) {
                Ok(session) => {
                    inner.sessions.insert(id.to_string(), session);
                }
                Err(IngestError::UnknownSession { .. }) => {
                    let session = self.create_session(
                        id,
                        kind.unwrap_or(ModelKind::IBoxNet),
                        meta.unwrap_or_else(|| FlowMeta::new(id, "ingest", "live")),
                    )?;
                    inner.sessions.insert(id.to_string(), session);
                }
                Err(e) => return Err(e),
            }
        }
        let session = inner.sessions.get_mut(id).expect("inserted above");
        if session.man.sealed {
            return Err(IngestError::Sealed { id: id.to_string() });
        }

        let len = records.len() as u64;
        if offset.checked_add(len).is_none() {
            return Err(IngestError::Overlap {
                id: id.to_string(),
                offset,
                expected: session.man.next_offset,
            });
        }
        let next = session.man.next_offset;
        if offset + len <= next || session.pending.contains_key(&offset) {
            ibox_obs::global().counter("ingest.append.duplicate").inc();
            return Ok(self.result(session, AppendOutcome::Duplicate, false));
        }
        if offset < next {
            return Err(IngestError::Overlap { id: id.to_string(), offset, expected: next });
        }

        let text = ChunkFileRef { offset, records: &records }.to_json();
        let bytes = text.len() as u64;
        let session_total = session.total_bytes() + bytes;
        if session_total > self.config.session_budget_bytes {
            return Err(IngestError::SessionBudget {
                id: id.to_string(),
                limit: self.config.session_budget_bytes,
                needed: session_total,
            });
        }
        let global_total = inner.global_bytes + bytes;
        if global_total > self.config.global_budget_bytes {
            return Err(IngestError::GlobalBudget {
                limit: self.config.global_budget_bytes,
                needed: global_total,
            });
        }

        if offset > next {
            // Ahead of the accepted prefix: persist and buffer.
            write_file(&self.dir(id).join(pending_name(offset)), &text, id)?;
            session.pending.insert(offset, (bytes, records));
            inner.global_bytes += bytes;
            ibox_obs::global().counter("ingest.append.buffered").inc();
            return Ok(self.result(session, AppendOutcome::Buffered, false));
        }

        // In-order: the chunk must extend the accepted send order.
        let chunks_before = session.man.chunks;
        self.accept_chunk(session, offset, records, &text, bytes)?;
        inner.global_bytes += bytes;
        // Drain buffered successors that are now contiguous.
        while let Some((&pend_off, _)) = session.pending.first_key_value() {
            if pend_off != session.man.next_offset {
                break;
            }
            let (pend_bytes, pend_records) =
                session.pending.remove(&pend_off).expect("checked key");
            let pend_text = ChunkFileRef { offset: pend_off, records: &pend_records }.to_json();
            let pending_path = self.dir(id).join(pending_name(pend_off));
            match self.accept_chunk(session, pend_off, pend_records, &pend_text, pend_bytes) {
                Ok(()) => {
                    let _ = std::fs::remove_file(&pending_path);
                }
                Err(e) => {
                    // The buffered chunk is unusable (send order broken):
                    // drop it and surface the conflict.
                    let _ = std::fs::remove_file(&pending_path);
                    inner.global_bytes = inner.global_bytes.saturating_sub(pend_bytes);
                    return Err(e);
                }
            }
        }
        ibox_obs::global().counter("ingest.append.accepted").inc();
        ibox_obs::global().counter("ingest.append.bytes").add(bytes);
        let refit_due = self.config.refit_every_chunks > 0
            && session.man.chunks / self.config.refit_every_chunks
                > chunks_before / self.config.refit_every_chunks;
        Ok(self.result(session, AppendOutcome::Accepted, refit_due))
    }

    /// Accept one in-order chunk: persist, fold, update the manifest.
    fn accept_chunk(
        &self,
        session: &mut Session,
        offset: u64,
        records: Vec<PacketRecord>,
        text: &str,
        bytes: u64,
    ) -> Result<(), IngestError> {
        let id = session.man.id.clone();
        if let (Some(last), Some(first)) = (session.last_key, records.first()) {
            if (first.send_ns, first.seq) <= last {
                return Err(IngestError::OutOfOrderRecords { id });
            }
        }
        let dir = self.dir(&id);
        write_file(&dir.join(chunk_name(offset)), text, &id)?;
        for rec in &records {
            session.statics.fold(rec);
            if let Some(cross) = session.cross.as_mut() {
                cross.fold(rec);
            }
        }
        session.last_key = records.last().map(|r| (r.send_ns, r.seq));
        session.man.next_offset = offset + records.len() as u64;
        session.man.chunks += 1;
        session.man.bytes += bytes;
        // First delivery: anchor a provisional cross-traffic fold over
        // everything accepted so far (one-time O(session), then O(chunk)).
        if session.cross.is_none() {
            if let Some(params) = session.statics.params() {
                let mut cross = OnlineCrossTraffic::new(&params, DEFAULT_BIN_SECS);
                self.for_each_chunk(&id, |chunk| {
                    cross.fold_chunk(&chunk.records);
                    Ok(())
                })?;
                session.cross = Some(cross);
            }
        }
        self.write_manifest(&session.man)
    }

    /// Current status of a session.
    pub fn status(&self, id: &str) -> Result<SessionStatus, IngestError> {
        validate_id(id)?;
        let mut inner = self.inner.lock().expect("ingest store lock");
        if !inner.sessions.contains_key(id) {
            let session = self.load_session(id)?;
            inner.sessions.insert(id.to_string(), session);
        }
        Ok(inner.sessions[id].status())
    }

    /// All sessions (on disk and in memory), sorted by id.
    pub fn list(&self) -> Result<Vec<SessionStatus>, IngestError> {
        let mut ids: Vec<String> = Vec::new();
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| IngestError::Io { id: String::new(), detail: e.to_string() })?;
        for entry in entries.flatten() {
            if entry.path().join("manifest.json").is_file() {
                ids.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        {
            let inner = self.inner.lock().expect("ingest store lock");
            for id in inner.sessions.keys() {
                if !ids.contains(id) {
                    ids.push(id.clone());
                }
            }
        }
        ids.sort();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            out.push(self.status(&id)?);
        }
        Ok(out)
    }

    /// Seal the session and hand back the concatenated trace for the
    /// final fit. Refuses while buffered chunks wait on a gap, and when
    /// nothing was delivered (there is nothing to learn from silence).
    pub fn finalize(&self, id: &str) -> Result<FinalizeOutput, IngestError> {
        let _span = ibox_obs::span!("ingest.finalize");
        validate_id(id)?;
        let mut inner = self.inner.lock().expect("ingest store lock");
        if !inner.sessions.contains_key(id) {
            let session = self.load_session(id)?;
            inner.sessions.insert(id.to_string(), session);
        }
        let session = inner.sessions.get_mut(id).expect("inserted above");
        if session.man.sealed {
            return Err(IngestError::Sealed { id: id.to_string() });
        }
        if !session.pending.is_empty() {
            return Err(IngestError::Gap {
                id: id.to_string(),
                expected: session.man.next_offset,
                buffered: session.pending.len(),
            });
        }
        if session.statics.delivered() == 0 {
            return Err(IngestError::NoDeliveredPackets { id: id.to_string() });
        }
        let trace = self.concatenated(session)?;
        session.man.sealed = true;
        session.man.fit_seq += 1;
        self.write_manifest(&session.man)?;
        ibox_obs::global().counter("ingest.finalize").inc();
        Ok(FinalizeOutput {
            trace,
            kind: session.man.kind.clone(),
            fit_seq: session.man.fit_seq,
            sealed: true,
        })
    }

    /// Mid-stream refit: hand back the accepted prefix as a trace and
    /// bump the fit counter, without sealing. Also re-anchors the
    /// provisional cross-traffic fold on the fresh parameters.
    pub fn snapshot(&self, id: &str) -> Result<FinalizeOutput, IngestError> {
        validate_id(id)?;
        let mut inner = self.inner.lock().expect("ingest store lock");
        if !inner.sessions.contains_key(id) {
            let session = self.load_session(id)?;
            inner.sessions.insert(id.to_string(), session);
        }
        let session = inner.sessions.get_mut(id).expect("inserted above");
        if session.man.sealed {
            return Err(IngestError::Sealed { id: id.to_string() });
        }
        if session.statics.delivered() == 0 {
            return Err(IngestError::NoDeliveredPackets { id: id.to_string() });
        }
        let trace = self.concatenated(session)?;
        session.man.fit_seq += 1;
        self.write_manifest(&session.man)?;
        if let Some(params) = session.statics.params() {
            let mut cross = OnlineCrossTraffic::new(&params, DEFAULT_BIN_SECS);
            for rec in trace.records() {
                cross.fold(rec);
            }
            session.cross = Some(cross);
        }
        ibox_obs::global().counter("ingest.refit").inc();
        Ok(FinalizeOutput {
            trace,
            kind: session.man.kind.clone(),
            fit_seq: session.man.fit_seq,
            sealed: false,
        })
    }

    /// Drop every in-memory session (the on-disk state stays). Testing
    /// hook simulating a daemon restart without rebuilding the store.
    pub fn forget_all(&self) {
        self.inner.lock().expect("ingest store lock").sessions.clear();
    }

    // ----- internals -------------------------------------------------

    fn result(&self, session: &Session, outcome: AppendOutcome, refit_due: bool) -> AppendResult {
        AppendResult {
            outcome,
            next_offset: session.man.next_offset,
            chunks: session.man.chunks,
            buffered: session.pending.len(),
            refit_due,
            watermark: Watermark::of(&session.statics, session.cross.as_ref()),
        }
    }

    fn create_session(
        &self,
        id: &str,
        kind: ModelKind,
        meta: FlowMeta,
    ) -> Result<Session, IngestError> {
        let dir = self.dir(id);
        std::fs::create_dir_all(&dir)
            .map_err(|e| IngestError::Io { id: id.to_string(), detail: e.to_string() })?;
        let man = Manifest {
            schema: SESSION_SCHEMA,
            id: id.to_string(),
            meta,
            kind,
            next_offset: 0,
            chunks: 0,
            bytes: 0,
            sealed: false,
            fit_seq: 0,
        };
        self.write_manifest(&man)?;
        ibox_obs::global().counter("ingest.sessions.created").inc();
        Ok(Session {
            man,
            last_key: None,
            pending: BTreeMap::new(),
            statics: OnlineStaticParams::new(),
            cross: None,
        })
    }

    /// Recover a session from disk by re-folding its chunk files.
    fn load_session(&self, id: &str) -> Result<Session, IngestError> {
        let dir = self.dir(id);
        let man_path = dir.join("manifest.json");
        let text = match std::fs::read_to_string(&man_path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(IngestError::UnknownSession { id: id.to_string() })
            }
            Err(e) => return Err(IngestError::Io { id: id.to_string(), detail: e.to_string() }),
        };
        let mut man: Manifest = serde_json::from_str(&text)
            .map_err(|e| IngestError::Parse { id: id.to_string(), detail: e.to_string() })?;
        let mut session = Session {
            man: Manifest { next_offset: 0, chunks: 0, bytes: 0, ..man.clone() },
            last_key: None,
            pending: BTreeMap::new(),
            statics: OnlineStaticParams::new(),
            cross: None,
        };
        // Re-fold accepted chunks in offset order; counts are recomputed
        // from the files themselves, which re-adopts a chunk written just
        // before a crash (the manifest write is the commit point, but an
        // orphan chunk is contiguous by construction).
        let mut expected = 0u64;
        self.for_each_chunk(id, |chunk| {
            if chunk.offset != expected {
                return Err(IngestError::Parse {
                    id: id.to_string(),
                    detail: format!(
                        "chunk offset {} does not follow accepted prefix {expected}",
                        chunk.offset
                    ),
                });
            }
            session.statics.fold_chunk(&chunk.records);
            session.last_key = chunk.records.last().map(|r| (r.send_ns, r.seq));
            expected += chunk.records.len() as u64;
            session.man.chunks += 1;
            session.man.bytes += chunk.bytes;
            Ok(())
        })?;
        session.man.next_offset = expected;
        // Provisional cross fold over the recovered prefix.
        if let Some(params) = session.statics.params() {
            let mut cross = OnlineCrossTraffic::new(&params, DEFAULT_BIN_SECS);
            self.for_each_chunk(id, |chunk| {
                cross.fold_chunk(&chunk.records);
                Ok(())
            })?;
            session.cross = Some(cross);
        }
        // Buffered chunks.
        for entry in list_files(&dir, "pending-", id)? {
            let text = std::fs::read_to_string(&entry)
                .map_err(|e| IngestError::Io { id: id.to_string(), detail: e.to_string() })?;
            let chunk: ChunkFile = serde_json::from_str(&text)
                .map_err(|e| IngestError::Parse { id: id.to_string(), detail: e.to_string() })?;
            if chunk.offset >= session.man.next_offset {
                session.pending.insert(chunk.offset, (text.len() as u64, chunk.records));
            } else {
                // Already covered by the accepted prefix: stale file.
                let _ = std::fs::remove_file(&entry);
            }
        }
        if man.next_offset != session.man.next_offset || man.chunks != session.man.chunks {
            // Manifest lagged a crash; persist the recovered truth.
            man = session.man.clone();
            self.write_manifest(&man)?;
        }
        ibox_obs::global().counter("ingest.sessions.recovered").inc();
        Ok(session)
    }

    /// Visit accepted chunks in offset order.
    fn for_each_chunk(
        &self,
        id: &str,
        mut visit: impl FnMut(&LoadedChunk) -> Result<(), IngestError>,
    ) -> Result<(), IngestError> {
        for path in list_files(&self.dir(id), "chunk-", id)? {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| IngestError::Io { id: id.to_string(), detail: e.to_string() })?;
            let chunk: ChunkFile = serde_json::from_str(&text)
                .map_err(|e| IngestError::Parse { id: id.to_string(), detail: e.to_string() })?;
            visit(&LoadedChunk {
                offset: chunk.offset,
                bytes: text.len() as u64,
                records: chunk.records,
            })?;
        }
        Ok(())
    }

    /// The concatenated trace over all accepted chunks.
    fn concatenated(&self, session: &Session) -> Result<FlowTrace, IngestError> {
        let mut records = Vec::new();
        self.for_each_chunk(&session.man.id, |chunk| {
            records.extend_from_slice(&chunk.records);
            Ok(())
        })?;
        Ok(FlowTrace::from_records(session.man.meta.clone(), records))
    }

    fn write_manifest(&self, man: &Manifest) -> Result<(), IngestError> {
        let dir = self.dir(&man.id);
        let text = serde_json::to_string(man).expect("manifest serialization cannot fail");
        let tmp = dir.join(format!(".manifest.tmp-{}", std::process::id()));
        std::fs::write(&tmp, &text)
            .map_err(|e| IngestError::Io { id: man.id.clone(), detail: e.to_string() })?;
        std::fs::rename(&tmp, dir.join("manifest.json"))
            .map_err(|e| IngestError::Io { id: man.id.clone(), detail: e.to_string() })
    }
}

/// An accepted chunk as read back from disk.
struct LoadedChunk {
    offset: u64,
    bytes: u64,
    records: Vec<PacketRecord>,
}

fn chunk_name(offset: u64) -> String {
    format!("chunk-{offset:012}.json")
}

fn pending_name(offset: u64) -> String {
    format!("pending-{offset:012}.json")
}

fn write_file(path: &Path, text: &str, id: &str) -> Result<(), IngestError> {
    std::fs::write(path, text)
        .map_err(|e| IngestError::Io { id: id.to_string(), detail: e.to_string() })
}

/// Files under `dir` whose name starts with `prefix`, sorted by name
/// (offsets are zero-padded, so name order == offset order).
fn list_files(dir: &Path, prefix: &str, id: &str) -> Result<Vec<PathBuf>, IngestError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| IngestError::Io { id: id.to_string(), detail: e.to_string() })?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(prefix) && name.ends_with(".json") {
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}

/// Total serialized bytes of all chunk and pending files under `root`.
fn scan_bytes(root: &Path) -> Result<u64, IngestError> {
    let mut total = 0u64;
    let entries = std::fs::read_dir(root)
        .map_err(|e| IngestError::Io { id: String::new(), detail: e.to_string() })?;
    for entry in entries.flatten() {
        let dir = entry.path();
        if !dir.is_dir() {
            continue;
        }
        let Ok(files) = std::fs::read_dir(&dir) else { continue };
        for file in files.flatten() {
            let name = file.file_name().to_string_lossy().into_owned();
            if name.starts_with("chunk-") || name.starts_with("pending-") {
                if let Ok(meta) = file.metadata() {
                    total += meta.len();
                }
            }
        }
    }
    Ok(total)
}

/// Session ids double as registry model ids, so the rules are the
/// registry's plus one ingest-specific constraint: ids must not end in
/// `-v<digits>`, which is the reserved version-file suffix.
fn validate_id(id: &str) -> Result<(), IngestError> {
    let err = |reason| Err(IngestError::InvalidId { id: id.to_string(), reason });
    if id.is_empty() {
        return err("must be nonempty");
    }
    if id.len() > 64 {
        return err("must be at most 64 characters");
    }
    if !id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') {
        return err("allowed characters are ASCII letters, digits, '-' and '_'");
    }
    if id.starts_with('-') {
        return err("must not start with '-'");
    }
    if let Some(pos) = id.rfind("-v") {
        let tail = &id[pos + 2..];
        if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) {
            return err("must not end in -v<digits> (reserved for model versions)");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> PacketRecord {
        // 1 ms spacing, 30 ms delay, one loss every 10 packets.
        let send = i * 1_000_000;
        if i % 10 == 9 {
            PacketRecord::lost(i, send, 1200)
        } else {
            PacketRecord::delivered(i, send, 1200, send + 30_000_000)
        }
    }

    fn recs(range: std::ops::Range<u64>) -> Vec<PacketRecord> {
        range.map(rec).collect()
    }

    /// What the chunk file at `offset` must hold: the owned `ChunkFile`
    /// layout, whichever type wrote it.
    fn chunk_bytes(offset: u64, records: &[PacketRecord]) -> String {
        format!(r#"{{"offset":{offset},"records":{}}}"#, serde_json::to_string(records).unwrap())
    }

    fn store(tag: &str, config: IngestConfig) -> (SessionStore, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("ibox_ingest_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (SessionStore::open(&dir, config).unwrap(), dir)
    }

    #[test]
    fn in_order_appends_accumulate_and_finalize() {
        let (store, dir) = store("inorder", IngestConfig::default());
        let r = store.append("s1", None, None, 0, recs(0..50)).unwrap();
        assert_eq!(r.outcome, AppendOutcome::Accepted);
        assert_eq!(r.next_offset, 50);
        let r = store.append("s1", None, None, 50, recs(50..100)).unwrap();
        assert_eq!(r.next_offset, 100);
        assert!(r.watermark.is_some());
        let out = store.finalize("s1").unwrap();
        assert_eq!(out.trace.len(), 100);
        assert_eq!(out.fit_seq, 1);
        // Sealed: further appends and finalizes conflict.
        let err = store.append("s1", None, None, 100, recs(100..110)).unwrap_err();
        assert!(matches!(err, IngestError::Sealed { .. }));
        let err = store.finalize("s1").unwrap_err();
        assert!(matches!(err, IngestError::Sealed { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_chunks_buffer_then_drain() {
        let (store, dir) = store("ooo", IngestConfig::default());
        let r = store.append("s1", None, None, 40, recs(40..60)).unwrap();
        assert_eq!(r.outcome, AppendOutcome::Buffered);
        assert_eq!(r.next_offset, 0);
        assert_eq!(r.buffered, 1);
        let session_dir = store.dir("s1");
        assert_eq!(
            std::fs::read_to_string(session_dir.join(pending_name(40))).unwrap(),
            chunk_bytes(40, &recs(40..60))
        );
        // Finalize refuses while the gap is open.
        let err = store.finalize("s1").unwrap_err();
        assert!(matches!(err, IngestError::Gap { expected: 0, buffered: 1, .. }));
        // Filling the gap drains the buffer.
        let r = store.append("s1", None, None, 0, recs(0..40)).unwrap();
        assert_eq!(r.outcome, AppendOutcome::Accepted);
        assert_eq!(r.next_offset, 60);
        assert_eq!(r.buffered, 0);
        assert_eq!(r.chunks, 2);
        // Both write sites (direct, and the drained pending chunk) leave the
        // owned `ChunkFile` bytes on disk, and they read back as such.
        for (offset, records) in [(0, recs(0..40)), (40, recs(40..60))] {
            let text = std::fs::read_to_string(session_dir.join(chunk_name(offset))).unwrap();
            assert_eq!(text, chunk_bytes(offset, &records));
            let back: ChunkFile = serde_json::from_str(&text).unwrap();
            assert_eq!((back.offset, back.records), (offset, records));
        }
        assert_eq!(store.finalize("s1").unwrap().trace.len(), 60);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicates_are_idempotent_and_overlaps_conflict() {
        let (store, dir) = store("dedup", IngestConfig::default());
        store.append("s1", None, None, 0, recs(0..50)).unwrap();
        let r = store.append("s1", None, None, 0, recs(0..50)).unwrap();
        assert_eq!(r.outcome, AppendOutcome::Duplicate);
        assert_eq!(r.chunks, 1);
        let r = store.append("s1", None, None, 10, recs(10..30)).unwrap();
        assert_eq!(r.outcome, AppendOutcome::Duplicate);
        let err = store.append("s1", None, None, 30, recs(30..70)).unwrap_err();
        assert!(matches!(err, IngestError::Overlap { offset: 30, expected: 50, .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgets_reject_with_typed_errors() {
        let config = IngestConfig {
            session_budget_bytes: 4_000,
            global_budget_bytes: 3_000,
            refit_every_chunks: 0,
        };
        let (store, dir) = store("budget", config);
        store.append("s1", None, None, 0, recs(0..30)).unwrap();
        let err = store.append("s1", None, None, 30, recs(30..90)).unwrap_err();
        assert!(matches!(err, IngestError::SessionBudget { .. }));
        assert_eq!(err.http_status(), 413);
        // A second session is within its own budget but trips the
        // store-global one.
        let err = store.append("s2", None, None, 0, recs(0..30)).unwrap_err();
        assert!(matches!(err, IngestError::GlobalBudget { .. }));
        assert_eq!(err.http_status(), 413);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_records_conflict() {
        let (store, dir) = store("order", IngestConfig::default());
        store.append("s1", None, None, 0, recs(0..50)).unwrap();
        // Next chunk re-uses earlier send times: protocol violation.
        let err = store.append("s1", None, None, 50, recs(10..20)).unwrap_err();
        assert!(matches!(err, IngestError::OutOfOrderRecords { .. }));
        assert_eq!(err.http_status(), 409);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_and_invalid_ids_are_typed() {
        let (store, dir) = store("ids", IngestConfig::default());
        let err = store.status("nope").unwrap_err();
        assert!(matches!(err, IngestError::UnknownSession { .. }));
        assert_eq!(err.http_status(), 404);
        for bad in ["", "a/b", "-x", "m-v3"] {
            let err = store.append(bad, None, None, 0, recs(0..5)).unwrap_err();
            assert!(matches!(err, IngestError::InvalidId { .. }), "{bad}");
        }
        // `-v` without digits is a normal id.
        assert!(store.append("m-vivid", None, None, 0, recs(0..5)).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refit_cadence_fires_every_n_chunks() {
        let config = IngestConfig { refit_every_chunks: 2, ..IngestConfig::default() };
        let (store, dir) = store("cadence", config);
        let due: Vec<bool> = (0..6)
            .map(|i| {
                store
                    .append("s1", None, None, i * 10, recs(i * 10..(i + 1) * 10))
                    .unwrap()
                    .refit_due
            })
            .collect();
        assert_eq!(due, [false, true, false, true, false, true]);
        let snap = store.snapshot("s1").unwrap();
        assert_eq!(snap.fit_seq, 1);
        assert!(!snap.sealed);
        assert_eq!(store.finalize("s1").unwrap().fit_seq, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sessions_survive_restart_and_resume() {
        let dir =
            std::env::temp_dir().join(format!("ibox_ingest_test_restart_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wm_before;
        {
            let store = SessionStore::open(&dir, IngestConfig::default()).unwrap();
            store.append("s1", None, None, 0, recs(0..40)).unwrap();
            // One buffered chunk rides across the restart too.
            let r = store.append("s1", None, None, 60, recs(60..80)).unwrap();
            assert_eq!(r.outcome, AppendOutcome::Buffered);
            wm_before = store.status("s1").unwrap().watermark.unwrap();
        } // store dropped: "daemon killed"
        let store = SessionStore::open(&dir, IngestConfig::default()).unwrap();
        let st = store.status("s1").unwrap();
        assert_eq!(st.next_offset, 40);
        assert_eq!(st.buffered, 1);
        let wm = st.watermark.unwrap();
        assert_eq!(wm.bandwidth_bps.to_bits(), wm_before.bandwidth_bps.to_bits());
        assert_eq!(wm.buffer_bytes, wm_before.buffer_bytes);
        // Resume: fill the gap, drain the buffered chunk, finalize.
        let r = store.append("s1", None, None, 40, recs(40..60)).unwrap();
        assert_eq!(r.next_offset, 80);
        assert_eq!(r.buffered, 0);
        let out = store.finalize("s1").unwrap();
        assert_eq!(out.trace.len(), 80);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_reports_all_sessions() {
        let (store, dir) = store("list", IngestConfig::default());
        store.append("alpha", None, None, 0, recs(0..10)).unwrap();
        store.append("beta", None, None, 0, recs(0..10)).unwrap();
        store.forget_all();
        let ids: Vec<String> = store.list().unwrap().into_iter().map(|s| s.id).collect();
        assert_eq!(ids, ["alpha", "beta"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
