//! Chunked ingest sessions: one append-only log per session.
//!
//! A session is the file `<model_dir>/ingest/<id>.log` — newline-terminated
//! JSON frames in the order they were accepted, never rewritten:
//!
//! ```text
//! {"schema":2,"id":…,"meta":…,"kind":…}  header, written with the first chunk
//! {"offset":N,"records":[…]}             chunk, in-order and ahead-of-prefix alike
//! {"mark":"fit"}                         a mid-stream refit was handed out (`snapshot`)
//! {"mark":"seal"}                        the final fit was handed out (`finalize`)
//! ```
//!
//! **State is a fold over the frames.** [`Session::check`] says whether a
//! frame may follow what the log holds and [`Session::apply`] folds it in.
//! An append is check → one `write_all` → apply; recovery is check → apply
//! over the frames read back, so a restarted session is by construction the
//! session that was running; the trace a fit needs is the same fold,
//! collecting the records it accepts.
//!
//! **The `\n` commits a frame.** Recovery folds up to the last complete
//! line and cuts the file there: a tail without its newline, or a log
//! without a complete header, is what a crash inside a write leaves. A
//! complete line that does not parse or does not follow from the frames
//! before it is corruption: that id answers [`IngestError::Parse`], every
//! other session is unaffected. A failed write is cut back, memory untouched.
//!
//! **Sync rule.** Appends are not synced: a crash loses at most chunks the
//! client re-sends, and `next_offset` tells it which. The log (and its
//! directory) is synced exactly where the store hands a trace to the fitter,
//! before `snapshot` and `finalize` return, so no registered model version
//! describes records the log could lose.
//!
//! [`Session::check`] enforces the protocol before a byte is written:
//!
//! * **Monotone record offsets.** A chunk carries the offset of its first
//!   record. `offset == next` is accepted and folded; a fully-seen chunk is
//!   a duplicate (idempotent retries); a partial overlap with accepted or
//!   buffered records is a conflict; a future offset is logged and buffered
//!   until the gap fills.
//! * **Send-ordered records.** Records are sorted within a chunk, and a
//!   chunk must lie strictly between its neighbours (the accepted prefix or
//!   a buffered chunk below, a buffered chunk above) in `(send_ns, seq)`
//!   order. Draining the buffer therefore cannot fail, and the fold order is
//!   [`FlowTrace`]'s sort order, which the bit-identical fit depends on.
//! * **Byte budgets.** Per-session and store-global budgets bound the log
//!   bytes on disk; exceeding either is the typed error behind HTTP 413.
//!
//! Session directories in the layout before the log are not read: `open`
//! warns about each and its id is refused by name ([`OLD_LAYOUT`]).

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use serde::{Deserialize, Serialize, Value};

use ibox::estimator::{FitError, DEFAULT_BIN_SECS};
use ibox_runner::ModelKind;
use ibox_trace::{FlowMeta, FlowTrace, PacketRecord};

use crate::estimator::{OnlineCrossTraffic, OnlineStaticParams, Watermark};

/// Schema version in a log's header (1 was the directory layout).
const LOG_SCHEMA: u32 = 2;

/// Why an id that names a schema-1 session directory is refused.
const OLD_LAYOUT: &str = "names a schema-1 session directory (one file per chunk), a layout \
                          that is not read; move it away or stream to a new id";

/// Budgets and refit cadence for a [`SessionStore`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Maximum bytes of one session's log.
    pub session_budget_bytes: u64,
    /// Maximum log bytes across all sessions in the store.
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
    /// Finalize/refit on a session whose records cannot be fitted.
    Unfittable {
        /// The session.
        id: String,
        /// Why, as the estimator's fold decides it.
        error: FitError,
    },
    /// Filesystem failure underneath the session.
    Io {
        /// The session ("" for store-level failures).
        id: String,
        /// Stringified OS error.
        detail: String,
    },
    /// A session log holds a complete frame that does not parse or does
    /// not follow from the frames before it.
    Parse {
        /// The session.
        id: String,
        /// Where and why.
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
            IngestError::Unfittable { id, error } => {
                write!(f, "session {id:?} cannot be fitted: {error}")
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
            | IngestError::Unfittable { .. } => 409,
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
    /// Bytes of the session's log.
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

impl IngestError {
    fn io(id: &str, e: impl std::fmt::Display) -> Self {
        IngestError::Io { id: id.to_string(), detail: e.to_string() }
    }
}

/// The first line of a log: what the session is, fixed at creation.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Header {
    schema: u32,
    id: String,
    meta: FlowMeta,
    kind: ModelKind,
}

/// One line of a session log after the header.
enum Frame {
    Chunk {
        offset: u64,
        records: Vec<PacketRecord>,
    },
    /// A mid-stream refit was handed out.
    Fit,
    /// The final fit was handed out; nothing follows.
    Seal,
}

impl Frame {
    /// The frame as its log line, ending in the `\n` that commits it.
    fn encode(&self) -> Result<String, serde_json::Error> {
        Ok(match self {
            Frame::Chunk { offset, records } => {
                format!("{{\"offset\":{offset},\"records\":{}}}\n", serde_json::to_string(records)?)
            }
            Frame::Fit => "{\"mark\":\"fit\"}\n".to_string(),
            Frame::Seal => "{\"mark\":\"seal\"}\n".to_string(),
        })
    }

    fn decode(line: &str) -> Result<Frame, String> {
        let bad = |e: serde::Error| e.to_string();
        let v = serde_json::parse_value(line).map_err(|e| e.to_string())?;
        match (v.get("offset"), v.get("records"), v.get("mark")) {
            (Some(offset), Some(records), _) => Ok(Frame::Chunk {
                offset: u64::from_value(offset).map_err(bad)?,
                records: Vec::from_value(records).map_err(bad)?,
            }),
            (_, _, Some(Value::Str(mark))) if mark == "fit" => Ok(Frame::Fit),
            (_, _, Some(Value::Str(mark))) if mark == "seal" => Ok(Frame::Seal),
            _ => Err("neither a chunk nor a mark".to_string()),
        }
    }
}

fn send_key(rec: &PacketRecord) -> (u64, u64) {
    (rec.send_ns, rec.seq)
}

/// One session: its header plus the fold of every frame after it.
struct Session {
    header: Header,
    /// Bytes of the log on disk; 0 until the first chunk creates it.
    len: u64,
    next_offset: u64,
    chunks: u64,
    sealed: bool,
    fit_seq: u64,
    /// `(send_ns, seq)` of the last accepted record.
    last_key: Option<(u64, u64)>,
    /// Chunks ahead of the accepted prefix, by offset. `check` keeps them
    /// disjoint and send-ordered among themselves and against the prefix.
    pending: BTreeMap<u64, Vec<PacketRecord>>,
    statics: OnlineStaticParams,
    cross: Option<OnlineCrossTraffic>,
}

impl Session {
    fn new(header: Header) -> Self {
        Session {
            header,
            len: 0,
            next_offset: 0,
            chunks: 0,
            sealed: false,
            fit_seq: 0,
            last_key: None,
            pending: BTreeMap::new(),
            statics: OnlineStaticParams::new(),
            cross: None,
        }
    }

    /// What `frame` would do here, or why it cannot follow the frames
    /// already folded. Runs before every write and on every frame read
    /// back, so [`apply`](Self::apply) never meets a frame it cannot fold.
    fn check(&self, frame: &Frame) -> Result<AppendOutcome, IngestError> {
        let id = || self.header.id.clone();
        if self.sealed {
            return Err(IngestError::Sealed { id: id() });
        }
        let next = self.next_offset;
        let (offset, records) = match frame {
            Frame::Chunk { offset, records } => (*offset, records),
            Frame::Seal if !self.pending.is_empty() => {
                let buffered = self.pending.len();
                return Err(IngestError::Gap { id: id(), expected: next, buffered });
            }
            Frame::Fit | Frame::Seal => return Ok(AppendOutcome::Accepted),
        };
        let overlap = || IngestError::Overlap { id: id(), offset, expected: next };
        let (Some(first), Some(last)) = (records.first(), records.last()) else {
            return Err(IngestError::EmptyChunk { id: id() });
        };
        let end = offset.checked_add(records.len() as u64).ok_or_else(overlap)?;
        if end <= next || self.pending.contains_key(&offset) {
            return Ok(AppendOutcome::Duplicate);
        }
        if offset < next {
            return Err(overlap());
        }
        // The chunk must fit between its neighbours, in offsets and in send
        // order: a buffered chunk (else the accepted prefix) below, a
        // buffered chunk above.
        let below = self.pending.range(..offset).next_back();
        let above = self.pending.range(offset..).next();
        if below.is_some_and(|(at, recs)| at + recs.len() as u64 > offset)
            || above.is_some_and(|(at, _)| end > *at)
        {
            return Err(overlap());
        }
        let floor = below.and_then(|(_, recs)| recs.last()).map(send_key).or(self.last_key);
        let ceiling = above.and_then(|(_, recs)| recs.first()).map(send_key);
        if !records.windows(2).all(|w| send_key(&w[0]) <= send_key(&w[1]))
            || floor.is_some_and(|key| send_key(first) <= key)
            || ceiling.is_some_and(|key| send_key(last) >= key)
        {
            return Err(IngestError::OutOfOrderRecords { id: id() });
        }
        Ok(if offset == next { AppendOutcome::Accepted } else { AppendOutcome::Buffered })
    }

    /// Fold one checked frame. `accepted` holds the accepted records before
    /// the frame and receives the ones it accepts; it is read only to
    /// anchor the cross-traffic estimate — at the first delivery and at
    /// every `fit` — so a caller that knows neither can happen may pass an
    /// empty one.
    fn apply(&mut self, frame: Frame, accepted: &mut Vec<PacketRecord>) {
        match frame {
            Frame::Chunk { offset, records } if offset == self.next_offset => {
                self.accept(records, accepted);
                while let Some(records) = self.pending.remove(&self.next_offset) {
                    self.accept(records, accepted);
                }
            }
            Frame::Chunk { offset, records } => {
                self.pending.insert(offset, records);
            }
            Frame::Fit => {
                self.fit_seq += 1;
                self.anchor(accepted);
            }
            Frame::Seal => {
                self.fit_seq += 1;
                self.sealed = true;
            }
        }
    }

    fn accept(&mut self, mut records: Vec<PacketRecord>, accepted: &mut Vec<PacketRecord>) {
        self.statics.fold_chunk(&records);
        if let Some(cross) = self.cross.as_mut() {
            cross.fold_chunk(&records);
        }
        self.last_key = records.last().map(send_key);
        self.next_offset += records.len() as u64;
        self.chunks += 1;
        accepted.append(&mut records);
        if self.cross.is_none() {
            self.anchor(accepted);
        }
    }

    /// (Re)start the provisional cross-traffic fold on the current static
    /// parameters, over everything accepted so far. A no-op before the
    /// first delivery.
    fn anchor(&mut self, accepted: &[PacketRecord]) {
        if let Some(params) = self.statics.params() {
            let mut cross = OnlineCrossTraffic::new(&params, DEFAULT_BIN_SECS);
            cross.fold_chunk(accepted);
            self.cross = Some(cross);
        }
    }

    fn status(&self) -> SessionStatus {
        SessionStatus {
            id: self.header.id.clone(),
            next_offset: self.next_offset,
            chunks: self.chunks,
            bytes: self.len,
            sealed: self.sealed,
            fit_seq: self.fit_seq,
            buffered: self.pending.len(),
            watermark: Watermark::of(&self.statics, self.cross.as_ref()),
        }
    }
}

/// A session's place in the store: `None` until its log has been folded,
/// which happens under this lock, not the store's.
type Slot = Arc<Mutex<Option<Session>>>;

/// Lock the session map, tolerating poison: insert, remove and clear each
/// leave it valid, so one panic must not brick every session.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The store of all ingest sessions under one artifact directory.
pub struct SessionStore {
    root: PathBuf,
    config: IngestConfig,
    sessions: Mutex<HashMap<String, Slot>>,
    /// Log bytes across all sessions, folded or not: what the global
    /// budget meters.
    bytes: AtomicU64,
}

impl SessionStore {
    /// Open (or create) the store rooted at `<model_dir>/ingest`.
    /// Existing logs count toward the global budget and are folded lazily
    /// on first touch.
    pub fn open(model_dir: &Path, config: IngestConfig) -> Result<Self, IngestError> {
        let root = model_dir.join("ingest");
        std::fs::create_dir_all(&root).map_err(|e| IngestError::io("", e))?;
        let mut bytes = 0u64;
        for entry in std::fs::read_dir(&root).map_err(|e| IngestError::io("", e))?.flatten() {
            let path = entry.path();
            if path.is_dir() {
                ibox_obs::warn!(
                    "ingest: {} is a session directory in the pre-log layout; it is not read",
                    path.display()
                );
            } else if path.extension().is_some_and(|ext| ext == "log") {
                bytes += entry.metadata().map_or(0, |m| m.len());
            }
        }
        Ok(Self { root, config, sessions: Mutex::default(), bytes: AtomicU64::new(bytes) })
    }

    /// The directory sessions live under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store's budgets and refit cadence.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    fn log_path(&self, id: &str) -> PathBuf {
        self.root.join(format!("{id}.log"))
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
        // Establish the fold order within the chunk up front.
        records.sort_by_key(send_key);
        let header = Header {
            schema: LOG_SCHEMA,
            id: id.to_string(),
            meta: meta.unwrap_or_else(|| FlowMeta::new(id, "ingest", "live")),
            kind: kind.unwrap_or(ModelKind::IBoxNet),
        };
        self.with_session(id, Some(header), |session| {
            let frame = Frame::Chunk { offset, records };
            let outcome = session.check(&frame)?;
            let chunks_before = session.chunks;
            let counters = ibox_obs::global();
            if outcome != AppendOutcome::Duplicate {
                // The fold reads the accepted prefix only to anchor at the
                // first delivery: empty before any chunk, not read after.
                let mut accepted = if session.cross.is_none() && session.chunks > 0 {
                    self.accepted_records(session)?
                } else {
                    Vec::new()
                };
                let bytes = self.commit(session, frame, &mut accepted)?;
                counters.counter("ingest.append.bytes").add(bytes);
            }
            counters.counter(&format!("ingest.append.{}", outcome.as_str())).inc();
            let every = self.config.refit_every_chunks;
            Ok(AppendResult {
                outcome,
                next_offset: session.next_offset,
                chunks: session.chunks,
                buffered: session.pending.len(),
                refit_due: every > 0 && session.chunks / every > chunks_before / every,
                watermark: Watermark::of(&session.statics, session.cross.as_ref()),
            })
        })
    }

    /// Current status of a session.
    pub fn status(&self, id: &str) -> Result<SessionStatus, IngestError> {
        self.with_session(id, None, |session| Ok(session.status()))
    }

    /// All readable sessions, sorted by id (every session has a log, live
    /// or not). One whose log is corrupt is left out with a warning — its
    /// own id answers the typed error — so one bad file cannot hide the rest.
    pub fn list(&self) -> Result<Vec<SessionStatus>, IngestError> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.root).map_err(|e| IngestError::io("", e))?.flatten() {
            let name = entry.file_name();
            if let Some(id) = name.to_str().and_then(|name| name.strip_suffix(".log")) {
                ids.push(id.to_string());
            }
        }
        ids.sort();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            match self.status(&id) {
                Ok(status) => out.push(status),
                Err(IngestError::UnknownSession { .. }) => {}
                Err(e) => {
                    ibox_obs::warn!("ingest: session {id:?} left out of the listing: {e}");
                    ibox_obs::global().counter("ingest.sessions.unreadable").inc();
                }
            }
        }
        Ok(out)
    }

    /// Seal the session and hand back the concatenated trace for the
    /// final fit. Refuses while buffered chunks wait on a gap, and when
    /// the records cannot be fitted ([`FitError`]).
    pub fn finalize(&self, id: &str) -> Result<FinalizeOutput, IngestError> {
        let _span = ibox_obs::span!("ingest.finalize");
        self.hand_out(id, Frame::Seal)
    }

    /// Mid-stream refit: hand back the accepted prefix as a trace and
    /// bump the fit counter, without sealing. Also re-anchors the
    /// provisional cross-traffic fold on the fresh parameters.
    pub fn snapshot(&self, id: &str) -> Result<FinalizeOutput, IngestError> {
        self.hand_out(id, Frame::Fit)
    }

    /// Drop every in-memory session (the logs stay). Testing hook
    /// simulating a daemon restart without rebuilding the store.
    pub fn forget_all(&self) {
        relock(&self.sessions).clear();
    }

    // ----- internals -------------------------------------------------

    /// Run `op` on session `id` under the session's own lock, folding its
    /// log first if this is the first touch. With a `create` header an
    /// unknown id runs `op` on a fresh session, which is kept only if `op`
    /// wrote its first chunk.
    fn with_session<T>(
        &self,
        id: &str,
        create: Option<Header>,
        op: impl FnOnce(&mut Session) -> Result<T, IngestError>,
    ) -> Result<T, IngestError> {
        validate_id(id)?;
        let slot = Arc::clone(relock(&self.sessions).entry(id.to_string()).or_default());
        let mut guard = slot.lock().unwrap_or_else(|poisoned| {
            // A panic mid-fold may have left the state half applied. The
            // log is the truth: drop the state and fold it again.
            slot.clear_poison();
            let mut guard = poisoned.into_inner();
            *guard = None;
            guard
        });
        let out = (|| {
            if guard.is_none() {
                let _span = ibox_obs::span!("ingest.recover");
                *guard = self.replay(id)?.map(|(session, _)| session);
                if guard.is_some() {
                    ibox_obs::global().counter("ingest.sessions.recovered").inc();
                }
            }
            match (guard.as_mut(), create) {
                (Some(session), _) => op(session),
                (None, Some(header)) => {
                    let mut session = Session::new(header);
                    let out = op(&mut session)?;
                    if session.len > 0 {
                        *guard = Some(session);
                        ibox_obs::global().counter("ingest.sessions.created").inc();
                    }
                    Ok(out)
                }
                (None, None) => Err(IngestError::UnknownSession { id: id.to_string() }),
            }
        })();
        if guard.is_none() {
            drop(guard);
            // Nothing to keep. Slots are cloned under the map lock only, so
            // a count of two (the map's and ours) means nobody waits on it.
            let mut sessions = relock(&self.sessions);
            if Arc::strong_count(&slot) == 2 {
                sessions.remove(id);
            }
        }
        out
    }

    /// Fold the log of `id` from its first byte: the session it describes
    /// and its accepted records in offset order, or `None` when no header
    /// was ever committed. Bytes after the last complete frame are what a
    /// crash mid-write left and are cut off.
    fn replay(&self, id: &str) -> Result<Option<(Session, Vec<PacketRecord>)>, IngestError> {
        let path = self.log_path(id);
        let file = match File::open(&path) {
            Ok(file) => file,
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(IngestError::io(id, e));
            }
            Err(_) if self.root.join(id).is_dir() => {
                return Err(IngestError::InvalidId { id: id.to_string(), reason: OLD_LAYOUT });
            }
            Err(_) => return Ok(None),
        };
        // Bounded by the length now: a log only ever grows under this lock.
        let len = file.metadata().map_err(|e| IngestError::io(id, e))?.len();
        let mut reader = BufReader::new(file.take(len));
        let mut line = Vec::new();
        let mut session: Option<Session> = None;
        let mut accepted = Vec::new();
        let mut good = 0u64;
        loop {
            line.clear();
            let n = reader.read_until(b'\n', &mut line).map_err(|e| IngestError::io(id, e))?;
            if line.last() != Some(&b'\n') {
                break;
            }
            let folded = std::str::from_utf8(&line).map_err(|e| e.to_string()).and_then(|text| {
                let Some(session) = session.as_mut() else {
                    let header: Header = serde_json::from_str(text).map_err(|e| e.to_string())?;
                    if header.schema != LOG_SCHEMA || header.id != id {
                        let (schema, named) = (header.schema, header.id);
                        return Err(format!("header of schema {schema} session {named:?}"));
                    }
                    session = Some(Session::new(header));
                    return Ok(());
                };
                let frame = Frame::decode(text)?;
                match session.check(&frame).map_err(|e| e.to_string())? {
                    AppendOutcome::Duplicate => return Err("repeats records already held".into()),
                    _ => session.apply(frame, &mut accepted),
                }
                Ok(())
            });
            folded.map_err(|why| IngestError::Parse {
                id: id.to_string(),
                detail: format!("frame at byte {good}: {why}"),
            })?;
            good += n as u64;
        }
        let torn = line.len() as u64;
        if torn > 0 {
            let cut = OpenOptions::new().write(true).open(&path).and_then(|f| f.set_len(good));
            cut.map_err(|e| IngestError::io(id, e))?;
            self.bytes.fetch_sub(torn, Ordering::Relaxed);
        }
        if let Some(session) = session.as_mut() {
            session.len = good;
        } else {
            // Not even a header: the session was never created.
            let _ = std::fs::remove_file(&path);
        }
        Ok(session.map(|session| (session, accepted)))
    }

    /// The accepted records of a live session, read back from its log.
    fn accepted_records(&self, session: &Session) -> Result<Vec<PacketRecord>, IngestError> {
        Ok(self.replay(&session.header.id)?.map(|(_, records)| records).unwrap_or_default())
    }

    /// Commit `mark`, count it, and hand the accepted prefix to the fitter.
    fn hand_out(&self, id: &str, mark: Frame) -> Result<FinalizeOutput, IngestError> {
        let counter = if matches!(mark, Frame::Seal) { "ingest.finalize" } else { "ingest.refit" };
        self.with_session(id, None, |session| {
            session.check(&mark)?;
            // Only a new mark is refused: one already in a log stays read.
            let unfittable = |error| IngestError::Unfittable { id: id.to_string(), error };
            session.statics.check().map_err(unfittable)?;
            let mut records = self.accepted_records(session)?;
            self.commit(session, mark, &mut records)?;
            ibox_obs::global().counter(counter).inc();
            Ok(FinalizeOutput {
                trace: FlowTrace::from_records(session.header.meta.clone(), records),
                kind: session.header.kind.clone(),
                fit_seq: session.fit_seq,
                sealed: session.sealed,
            })
        })
    }

    /// Write one checked frame to the session's log — behind the header if
    /// it is the first — then fold it; returns the bytes written. Chunks
    /// are metered against the budgets and not synced; marks are synced and
    /// not metered (a full session must still be able to finalize). A
    /// failed write is cut back and leaves the session as it was.
    fn commit(
        &self,
        session: &mut Session,
        frame: Frame,
        accepted: &mut Vec<PacketRecord>,
    ) -> Result<u64, IngestError> {
        let id = session.header.id.clone();
        let mut text = String::new();
        if session.len == 0 {
            text = serde_json::to_string(&session.header).map_err(|e| IngestError::io(&id, e))?;
            text.push('\n');
        }
        text.push_str(&frame.encode().map_err(|e| IngestError::io(&id, e))?);
        let bytes = text.len() as u64;
        let is_chunk = matches!(frame, Frame::Chunk { .. });
        let limit = self.config.session_budget_bytes;
        if is_chunk && session.len + bytes > limit {
            return Err(IngestError::SessionBudget { id, limit, needed: session.len + bytes });
        }
        let limit = self.config.global_budget_bytes;
        let needed = self.bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let written = if is_chunk && needed > limit {
            Err(IngestError::GlobalBudget { limit, needed })
        } else {
            self.write(&id, session.len, &text, !is_chunk)
        };
        if let Err(e) = written {
            self.bytes.fetch_sub(bytes, Ordering::Relaxed);
            return Err(e);
        }
        session.len += bytes;
        session.apply(frame, accepted);
        Ok(bytes)
    }

    /// One `write_all` at the end of `id`'s log, which is `len` bytes long.
    /// The file is opened per write: a handle per live session would let a
    /// fleet of idle sessions exhaust the daemon's descriptors.
    fn write(&self, id: &str, len: u64, text: &str, sync: bool) -> Result<(), IngestError> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.log_path(id))
            .map_err(|e| IngestError::io(id, e))?;
        let mut done = file.write_all(text.as_bytes());
        if sync && done.is_ok() {
            let _span = ibox_obs::span!("ingest.log.sync");
            done = file.sync_data().and_then(|()| File::open(&self.root)?.sync_all());
        }
        done.map_err(|e| {
            let _ = file.set_len(len);
            IngestError::io(id, e)
        })
    }
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

    /// The chunk frame the log must hold for `records` at `offset`.
    fn chunk_bytes(offset: u64, records: &[PacketRecord]) -> String {
        format!(r#"{{"offset":{offset},"records":{}}}"#, serde_json::to_string(records).unwrap())
    }

    /// The frames of `id`'s log, header first.
    fn log_lines(store: &SessionStore, id: &str) -> Vec<String> {
        let text = std::fs::read_to_string(store.log_path(id)).unwrap();
        assert!(text.ends_with('\n'), "every frame is committed by its newline");
        text.lines().map(str::to_string).collect()
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
        assert_eq!(log_lines(&store, "s1")[1], chunk_bytes(40, &recs(40..60)));
        // Finalize refuses while the gap is open.
        let err = store.finalize("s1").unwrap_err();
        assert!(matches!(err, IngestError::Gap { expected: 0, buffered: 1, .. }));
        // Filling the gap drains the buffer.
        let r = store.append("s1", None, None, 0, recs(0..40)).unwrap();
        assert_eq!(r.outcome, AppendOutcome::Accepted);
        assert_eq!(r.next_offset, 60);
        assert_eq!(r.buffered, 0);
        assert_eq!(r.chunks, 2);
        // The log holds the frames in arrival order — the drained chunk is
        // not rewritten — and they read back as such.
        let lines = log_lines(&store, "s1");
        assert_eq!(lines.len(), 3);
        for (line, (offset, records)) in
            lines[1..].iter().zip([(40, recs(40..60)), (0, recs(0..40))])
        {
            assert_eq!(*line, chunk_bytes(offset, &records));
            let Ok(Frame::Chunk { offset: o, records: r }) = Frame::decode(line) else {
                panic!("not a chunk frame: {line}")
            };
            assert_eq!((o, r), (offset, records));
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

    /// Sum of the log sizes on disk: what the store's byte meter must read.
    fn disk_bytes(store: &SessionStore) -> u64 {
        std::fs::read_dir(store.root()).unwrap().map(|e| e.unwrap().metadata().unwrap().len()).sum()
    }

    #[test]
    fn a_torn_tail_is_cut_on_next_touch_and_the_session_resumes() {
        let (store, dir) = store("torn", IngestConfig::default());
        for i in 0..4 {
            store.append("s1", None, None, i * 25, recs(i * 25..(i + 1) * 25)).unwrap();
        }
        store.append("other", None, None, 0, recs(0..10)).unwrap();
        // What a crash inside the last write leaves: half a frame.
        let path = store.log_path("s1");
        let full = std::fs::read(&path).unwrap();
        let last_frame = full[..full.len() - 1].iter().rposition(|b| *b == b'\n').unwrap() + 1;
        std::fs::write(&path, &full[..(last_frame + full.len()) / 2]).unwrap();
        drop(store);

        let store = SessionStore::open(&dir, IngestConfig::default()).unwrap();
        let ids: Vec<String> = store.list().unwrap().into_iter().map(|s| s.id).collect();
        assert_eq!(ids, ["other", "s1"]);
        let st = store.status("s1").unwrap();
        assert_eq!((st.next_offset, st.chunks), (75, 3));
        assert_eq!(st.bytes, last_frame as u64, "the log ends at its last complete frame");
        assert_eq!(std::fs::read(&path).unwrap(), &full[..last_frame]);
        assert_eq!(store.bytes.load(Ordering::Relaxed), disk_bytes(&store));
        // The client re-sends from `next_offset`; the log is whole again.
        store.append("s1", None, None, 75, recs(75..100)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), full);
        assert_eq!(store.finalize("s1").unwrap().trace.len(), 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fit_mark_already_in_a_log_reads_back_though_a_new_one_is_refused() {
        let (store, dir) = store("oldfit", IngestConfig::default());
        let mut records = recs(0..20);
        records.push(PacketRecord { seq: 20, send_ns: 30_000_000, size: 1200, recv_ns: Some(5) });
        store.append("s1", None, None, 0, records).unwrap();
        let unfittable = |e| matches!(e, IngestError::Unfittable { .. });
        assert!(store.snapshot("s1").is_err_and(unfittable));
        // A log written before such records were refused holds a fit mark.
        let mut log = std::fs::OpenOptions::new().append(true).open(store.log_path("s1")).unwrap();
        log.write_all(Frame::Fit.encode().unwrap().as_bytes()).unwrap();
        drop(store);

        let store = SessionStore::open(&dir, IngestConfig::default()).unwrap();
        assert_eq!(store.list().unwrap().len(), 1);
        let st = store.status("s1").unwrap();
        assert_eq!((st.next_offset, st.fit_seq), (21, 1));
        assert!(store.finalize("s1").is_err_and(unfittable));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_without_a_complete_header_is_a_session_that_never_was() {
        let (store, dir) = store("tornheader", IngestConfig::default());
        store.append("s1", None, None, 0, recs(0..20)).unwrap();
        let full = std::fs::read(store.log_path("s1")).unwrap();
        for cut in [0, 1, 17] {
            std::fs::write(store.log_path("s1"), &full[..cut]).unwrap();
            let store = SessionStore::open(&dir, IngestConfig::default()).unwrap();
            assert!(matches!(store.status("s1"), Err(IngestError::UnknownSession { .. })), "{cut}");
            assert!(store.list().unwrap().is_empty());
            assert!(!store.log_path("s1").exists(), "the empty log is removed");
            assert_eq!(store.bytes.load(Ordering::Relaxed), 0);
            assert!(relock(&store.sessions).is_empty(), "nothing is kept for an unknown id");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_frame_is_typed_for_its_id_and_left_out_of_the_listing() {
        let (store, dir) = store("corrupt", IngestConfig::default());
        for id in ["bad", "good"] {
            store.append(id, None, None, 0, recs(0..20)).unwrap();
            store.append(id, None, None, 20, recs(20..40)).unwrap();
        }
        // A complete line that is not a frame, followed by a good one.
        let path = store.log_path("bad");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        std::fs::write(&path, format!("{}\n{{\"offset\":\n{}\n", lines[0], lines[2])).unwrap();
        store.forget_all();

        let scope = ibox_obs::scoped();
        let ids: Vec<String> = store.list().unwrap().into_iter().map(|s| s.id).collect();
        assert_eq!(ids, ["good"]);
        assert_eq!(scope.finish().snapshot().counters["ingest.sessions.unreadable"], 1);
        for err in [
            store.status("bad").unwrap_err(),
            store.finalize("bad").unwrap_err(),
            store.append("bad", None, None, 40, recs(40..50)).unwrap_err(),
        ] {
            assert!(matches!(err, IngestError::Parse { .. }), "{err}");
            assert_eq!(err.http_status(), 500);
            assert!(err.to_string().contains("frame at byte"), "{err}");
        }
        assert_eq!(store.finalize("good").unwrap().trace.len(), 40);
        // A frame that parses but cannot follow its predecessors is corrupt too.
        std::fs::write(&path, format!("{}\n{}\n{}\n", lines[0], lines[1], lines[1])).unwrap();
        let err = store.status("bad").unwrap_err();
        assert!(matches!(err, IngestError::Parse { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn directories_in_the_old_layout_are_refused_by_name() {
        let (store, dir) = store("oldlayout", IngestConfig::default());
        std::fs::create_dir_all(store.root().join("legacy")).unwrap();
        let store = SessionStore::open(&dir, IngestConfig::default()).unwrap();
        for err in [
            store.status("legacy").unwrap_err(),
            store.append("legacy", None, None, 0, recs(0..5)).unwrap_err(),
        ] {
            assert!(matches!(err, IngestError::InvalidId { .. }), "{err}");
            assert_eq!(err.http_status(), 400);
            assert!(err.to_string().contains("schema-1 session directory"), "{err}");
        }
        assert!(store.list().unwrap().is_empty());
        assert!(!store.log_path("legacy").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_chunk_must_fit_between_its_neighbours_and_a_rejection_writes_nothing() {
        let (store, dir) = store("neighbours", IngestConfig::default());
        let shifted = |range: std::ops::Range<u64>, by: u64| -> Vec<PacketRecord> {
            range.map(|i| PacketRecord::lost(i, (i + by) * 1_000_000, 1200)).collect()
        };
        // A first chunk that is refused leaves no file and no session.
        let err = store.append("s1", None, None, u64::MAX, recs(0..5)).unwrap_err();
        assert!(matches!(err, IngestError::Overlap { .. }));
        assert!(!store.log_path("s1").exists() && relock(&store.sessions).is_empty());

        store.append("s1", None, None, 0, recs(0..20)).unwrap();
        store.append("s1", None, None, 40, recs(40..60)).unwrap();
        let before = std::fs::read(store.log_path("s1")).unwrap();
        let refused = [
            // Overlaps the buffered chunk from below, and from above.
            (30, recs(30..45), 409),
            (50, recs(50..70), 409),
            // Fits by offset but not by send time: above the buffered
            // chunk's first record, below the prefix's last, unsorted inside.
            (20, shifted(20..40, 30), 409),
            (
                60,
                shifted(60..70, 0).into_iter().map(|r| PacketRecord { send_ns: 5, ..r }).collect(),
                409,
            ),
            (20, Vec::new(), 400),
        ];
        for (offset, records, status) in refused {
            let err = store.append("s1", None, None, offset, records).unwrap_err();
            assert_eq!(err.http_status(), status, "{offset}: {err}");
            assert_eq!(std::fs::read(store.log_path("s1")).unwrap(), before, "{offset}: {err}");
        }
        assert_eq!(store.bytes.load(Ordering::Relaxed), before.len() as u64);
        // The gap still fills and drains.
        let r = store.append("s1", None, None, 20, recs(20..40)).unwrap();
        assert_eq!((r.next_offset, r.buffered), (60, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A write the file system refuses (here: the log is `/dev/full`) is a
    /// typed error that leaves the session, the meter and the log as they were.
    #[cfg(unix)]
    #[test]
    fn a_failed_write_leaves_memory_and_the_meter_untouched() {
        let (store, dir) = store("enospc", IngestConfig::default());
        store.append("s1", None, None, 0, recs(0..20)).unwrap();
        let before = store.status("s1").unwrap();
        let aside = dir.join("s1.aside");
        std::fs::rename(store.log_path("s1"), &aside).unwrap();
        std::os::unix::fs::symlink("/dev/full", store.log_path("s1")).unwrap();
        let err = store.append("s1", None, None, 20, recs(20..40)).unwrap_err();
        assert!(matches!(err, IngestError::Io { .. }), "{err}");
        std::fs::rename(&aside, store.log_path("s1")).unwrap();
        let after = store.status("s1").unwrap();
        assert_eq!((after.next_offset, after.chunks, after.bytes), (20, 1, before.bytes));
        assert_eq!(store.bytes.load(Ordering::Relaxed), before.bytes);
        store.append("s1", None, None, 20, recs(20..40)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A panic under a session's lock, or under the store's map lock, must
    /// not take the next request down with it.
    #[test]
    fn poisoned_locks_still_serve_the_next_request() {
        let (store, dir) = store("poison", IngestConfig::default());
        store.append("s1", None, None, 0, recs(0..50)).unwrap();
        let slot = Arc::clone(&relock(&store.sessions)["s1"]);
        let crashed = std::thread::spawn(move || {
            let _guard = slot.lock().unwrap();
            panic!("poisoning the session lock (expected in this test)");
        });
        assert!(crashed.join().is_err());
        // The state is folded again from the log, and the lock is usable.
        assert_eq!(store.status("s1").unwrap().next_offset, 50);
        assert!(!relock(&store.sessions)["s1"].is_poisoned());
        assert_eq!(store.append("s1", None, None, 50, recs(50..60)).unwrap().next_offset, 60);

        std::thread::scope(|scope| {
            let crashed = scope.spawn(|| {
                let _guard = store.sessions.lock().unwrap();
                panic!("poisoning the store map (expected in this test)");
            });
            assert!(crashed.join().is_err());
        });
        assert!(store.sessions.is_poisoned());
        assert_eq!(store.append("s2", None, None, 0, recs(0..10)).unwrap().next_offset, 10);
        assert_eq!(store.list().unwrap().len(), 2);
        assert_eq!(store.finalize("s1").unwrap().trace.len(), 60);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The one place the live fold reads the log back: the cross-traffic
    /// anchor at a first delivery that is not in the first chunk. Recovery
    /// must land on the same bits.
    #[test]
    fn the_anchor_after_a_lost_only_prefix_is_the_one_recovery_computes() {
        let duration = ibox_sim::SimTime::from_secs(3);
        let inst = ibox_testbed::Profile::Ethernet.builder().seed(11).duration(duration).sample();
        let trace = ibox_testbed::run_protocol(&inst, "cubic", duration, 11);
        let mut records = trace.records()[..4000].to_vec();
        for rec in &mut records[..50] {
            rec.recv_ns = None;
        }
        let (store, dir) = store("anchor", IngestConfig::default());
        store.append("s1", None, None, 0, records[..50].to_vec()).unwrap();
        assert!(store.status("s1").unwrap().watermark.is_none());
        store.append("s1", None, None, 50, records[50..2000].to_vec()).unwrap();
        store.append("s1", None, None, 2000, records[2000..].to_vec()).unwrap();
        let live = store.status("s1").unwrap().watermark.unwrap();
        assert!(live.cross_total_bytes > 0.0, "the trace must exercise the cross fold");
        store.forget_all();
        let recovered = store.status("s1").unwrap().watermark.unwrap();
        assert_eq!(recovered.cross_total_bytes.to_bits(), live.cross_total_bytes.to_bits());
        assert_eq!(recovered.bandwidth_bps.to_bits(), live.bandwidth_bps.to_bits());
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
