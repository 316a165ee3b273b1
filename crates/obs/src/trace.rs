//! Causal tracing: who spent time where, per request — not just
//! aggregate wall time per label like [`crate::metrics`] spans.
//!
//! The model is deliberately small:
//!
//! * A **trace** is one causal unit of work (an HTTP request, a batch,
//!   a CLI export run), identified by a `u64` trace ID rendered as 16
//!   hex digits (the `x-ibox-trace-id` header value).
//! * Within a trace, **spans** nest. Span IDs are *derived*, not drawn
//!   from a clock or RNG: the root span is `derive_id(trace_id, 1)` and
//!   the `k`-th child of a span is `derive_id(parent_span, k)` (SplitMix64,
//!   the same mix as the runner's seed derivation). Same work ⇒ same
//!   IDs, at any `--jobs`.
//! * Events are plain structs ([`TraceEvent`]): span begin/end with
//!   parent IDs, instant markers, and counter samples, each stamped
//!   with nanoseconds since the trace epoch and a **lane** (exported as
//!   the Chrome `tid`, so parallel pool jobs render as parallel tracks).
//!
//! Recording is thread-local and allocation-light: an active scope
//! buffers events in a `Vec` and flushes to the shared ring-buffer
//! [`TraceCollector`] once, when the scope ends. When tracing is
//! disabled — or no scope is active on the thread — [`span!`](crate::span),
//! [`instant`], and [`counter`] are a single thread-local branch and
//! record no event, so steady-state hot paths stay allocation-free.
//!
//! Parallel work propagates causality explicitly: the thread that owns
//! a scope calls [`link`] to reserve child-span slots, hands the
//! returned [`TraceLink`] to workers (it is `Send + Sync`), each worker
//! records into a private buffer via [`TraceLink::job_scope`], and the
//! owner folds the buffers back with [`fold`] in spec-index order —
//! exactly the discipline `ibox-runner` already uses for metrics, which
//! is what makes span trees deterministic under `--jobs`.

use crate::metrics::{Registry, Stopwatch};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TracePhase {
    /// A span opened (`name` is the span label, `parent` its parent).
    Begin,
    /// A span closed (`span` links it to its `Begin`).
    End,
    /// A point-in-time marker inside the enclosing span.
    Instant,
    /// A sampled counter value (`value`) inside the enclosing span.
    Counter,
}

/// One structured trace event. `span`/`parent` are SplitMix64-derived
/// IDs (`parent == 0` marks the trace root); `lane` separates parallel
/// tracks (0 = the scope that started the trace, pool job `i` gets its
/// reserved child slot); `t_ns` is nanoseconds since the trace epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Nanoseconds since the trace's root scope started.
    pub t_ns: u64,
    /// Parallel track (Chrome `tid`): 0 for the root scope, the
    /// reserved child index for pool jobs.
    pub lane: u32,
    /// Span this event belongs to (the opened span for `Begin`/`End`,
    /// the enclosing span for `Instant`/`Counter`).
    pub span: u64,
    /// Parent span ID; 0 for the trace root.
    pub parent: u64,
    /// Event kind.
    pub phase: TracePhase,
    /// Span label / marker / counter name (empty for `End`).
    pub name: String,
    /// Counter sample value (0 otherwise).
    pub value: f64,
}

/// SplitMix64 derivation, identical in shape to the runner's
/// `derive_seed`: deterministic, well-mixed child IDs from a parent ID
/// and a slot index.
pub fn derive_id(parent: u64, slot: u64) -> u64 {
    let mut z = parent ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Render a trace ID as its canonical 16-hex-digit form (the
/// `x-ibox-trace-id` wire format).
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a caller-supplied trace ID. Accepts 1–16 hex digits (with an
/// optional `0x` prefix); any other non-empty string is FNV-1a-hashed
/// so arbitrary correlation tokens still yield a stable ID.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let hex = s.strip_prefix("0x").unwrap_or(s);
    if hex.len() <= 16 && !hex.is_empty() {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return Some(v.max(1));
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    Some(h.max(1))
}

/// Next process-unique trace ID: SplitMix64 over a monotone counter, so
/// the sequence is identical from one run to the next (determinism over
/// novelty — this is a debugging substrate).
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    derive_id(0x1b0c_5eed_1b0c_5eed, n).max(1)
}

// --- global sampling knobs ---------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static TIMELINE: AtomicBool = AtomicBool::new(false);

/// Master sampling switch. Off (the default) makes [`start_root`]
/// return `None`, so every downstream recording call is a no-op branch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether trace capture is globally enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Default for the sim engine's opt-in timeline mode (queue-depth
/// counter tracks, drop/RTO instants). Per-`Simulation` overrides win.
pub fn set_timeline(on: bool) {
    TIMELINE.store(on, Ordering::Relaxed);
}

/// Whether sim timeline capture defaults to on.
pub fn timeline() -> bool {
    TIMELINE.load(Ordering::Relaxed)
}

// --- the collector ------------------------------------------------------

/// Summary row for the bounded `GET /traces` listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Canonical 16-hex trace ID.
    pub id: String,
    /// Root span name (e.g. `request.fit`).
    pub name: String,
    /// Events captured for this trace.
    pub events: usize,
    /// Span of event timestamps, milliseconds.
    pub duration_ms: f64,
}

struct TraceRecord {
    name: String,
    events: Vec<TraceEvent>,
}

struct CollectorState {
    traces: HashMap<u64, TraceRecord>,
    /// Insertion order, oldest first — the ring's eviction order.
    order: VecDeque<u64>,
    total_events: usize,
}

/// Fixed-capacity ring buffer of completed traces. Capacity bounds the
/// *total event count*; when full, whole oldest traces are evicted
/// (the newest trace is always kept, even if it alone exceeds the
/// capacity). Scopes buffer thread-locally and ingest in one lock
/// acquisition per scope, so the mutex is cold.
#[derive(Clone)]
pub struct TraceCollector {
    inner: Arc<Mutex<CollectorState>>,
    capacity: usize,
}

impl TraceCollector {
    /// A collector bounded to `capacity` total events.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(CollectorState {
                traces: HashMap::new(),
                order: VecDeque::new(),
                total_events: 0,
            })),
            capacity: capacity.max(1),
        }
    }

    /// Append a buffer of events to `trace`'s record (creating it if
    /// new), then evict oldest traces past capacity.
    pub fn ingest(&self, trace: u64, events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        let root_name = events
            .iter()
            .find(|e| e.phase == TracePhase::Begin && e.parent == 0)
            .map(|e| e.name.clone());
        let mut state = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let added = events.len();
        match state.traces.get_mut(&trace) {
            Some(record) => {
                if record.name.is_empty() {
                    if let Some(name) = root_name {
                        record.name = name;
                    }
                }
                record.events.extend(events);
            }
            None => {
                state
                    .traces
                    .insert(trace, TraceRecord { name: root_name.unwrap_or_default(), events });
                state.order.push_back(trace);
            }
        }
        state.total_events += added;
        while state.total_events > self.capacity && state.order.len() > 1 {
            if let Some(oldest) = state.order.pop_front() {
                if let Some(record) = state.traces.remove(&oldest) {
                    state.total_events -= record.events.len();
                }
            }
        }
    }

    /// The events of one trace (root name, event buffer), if present.
    pub fn get(&self, trace: u64) -> Option<(String, Vec<TraceEvent>)> {
        let state = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        state.traces.get(&trace).map(|r| (r.name.clone(), r.events.clone()))
    }

    /// Most-recent-first summaries, at most `limit` rows.
    pub fn list(&self, limit: usize) -> Vec<TraceSummary> {
        let state = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        state
            .order
            .iter()
            .rev()
            .take(limit)
            .filter_map(|id| {
                let record = state.traces.get(id)?;
                let (mut lo, mut hi) = (u64::MAX, 0u64);
                for e in &record.events {
                    lo = lo.min(e.t_ns);
                    hi = hi.max(e.t_ns);
                }
                Some(TraceSummary {
                    id: format_trace_id(*id),
                    name: record.name.clone(),
                    events: record.events.len(),
                    duration_ms: if lo <= hi { (hi - lo) as f64 / 1e6 } else { 0.0 },
                })
            })
            .collect()
    }

    /// Total buffered events across all traces.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).total_events
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every buffered trace (tests, benches).
    pub fn clear(&self) {
        let mut state = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        state.traces.clear();
        state.order.clear();
        state.total_events = 0;
    }
}

/// The process-wide collector (capacity 65 536 events) that serve, the
/// CLI, and the benches share.
pub fn collector() -> &'static TraceCollector {
    static GLOBAL: OnceLock<TraceCollector> = OnceLock::new();
    GLOBAL.get_or_init(|| TraceCollector::new(64 * 1024))
}

// --- thread-local recording scopes --------------------------------------

struct Frame {
    span: u64,
    parent: u64,
    children: u64,
}

struct ScopeState {
    trace: u64,
    lane: u32,
    epoch: std::time::Instant,
    frames: Vec<Frame>,
    buf: Vec<TraceEvent>,
}

thread_local! {
    static STACK: RefCell<Vec<ScopeState>> = const { RefCell::new(Vec::new()) };
}

/// Whether a recording scope is active on this thread — the branch that
/// makes disabled tracing free.
pub fn active() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

fn with_scope<R>(f: impl FnOnce(&mut ScopeState) -> R) -> Option<R> {
    STACK.with(|s| s.borrow_mut().last_mut().map(f))
}

fn push_event(
    state: &mut ScopeState,
    phase: TracePhase,
    span: u64,
    parent: u64,
    name: &str,
    value: f64,
) {
    let t_ns = state.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    state.buf.push(TraceEvent {
        t_ns,
        lane: state.lane,
        span,
        parent,
        phase,
        name: name.to_string(),
        value,
    });
}

fn begin_child(state: &mut ScopeState, name: &str) -> u64 {
    let top = state.frames.last_mut().expect("scope always has a root frame");
    top.children += 1;
    let (parent, slot) = (top.span, top.children);
    let span = derive_id(parent, slot);
    push_event(state, TracePhase::Begin, span, parent, name, 0.0);
    state.frames.push(Frame { span, parent, children: 0 });
    span
}

fn end_span_in(state: &mut ScopeState, span: u64) {
    if let Some(pos) = state.frames.iter().rposition(|f| f.span == span) {
        // Close any frames a misbehaving caller left open, innermost
        // first, so Begin/End stay balanced for the Chrome export.
        let leaked: Vec<(u64, u64)> =
            state.frames.drain(pos..).map(|f| (f.span, f.parent)).collect();
        for (span, parent) in leaked.into_iter().rev() {
            push_event(state, TracePhase::End, span, parent, "", 0.0);
        }
    }
}

/// RAII guard from [`span`] / [`span!`](crate::span): when it drops it
/// ends the trace span (if a scope was active when it opened) and folds
/// the wall time into the per-label aggregation.
#[must_use = "dropping the guard immediately ends the span"]
pub struct TraceSpanGuard {
    /// The trace and span opened in the active scope, if there was one.
    traced: Option<(u64, u64)>,
    registry: Registry,
    label: String,
    started: Stopwatch,
}

impl Drop for TraceSpanGuard {
    fn drop(&mut self) {
        if let Some((trace, span)) = self.traced {
            with_scope(|state| {
                if state.trace == trace {
                    end_span_in(state, span);
                }
            });
        }
        self.registry.record_span_ns(&self.label, self.started.elapsed_ns());
    }
}

/// Time a scope under `name`: the wall time always lands in this thread's
/// [`global`](crate::global) registry, and when a trace scope is active on
/// the thread the span also opens as a child of the innermost active span
/// (one thread-local branch otherwise).
pub fn span(name: &str) -> TraceSpanGuard {
    let traced = with_scope(|state| (state.trace, begin_child(state, name)));
    TraceSpanGuard {
        traced,
        registry: crate::global(),
        label: name.to_string(),
        started: Stopwatch::start(),
    }
}

/// Record a point-in-time marker inside the enclosing span (no-op
/// without an active scope).
pub fn instant(name: &str) {
    with_scope(|state| {
        let top = state.frames.last().expect("scope always has a root frame");
        let (span, parent) = (top.span, top.parent);
        push_event(state, TracePhase::Instant, span, parent, name, 0.0);
    });
}

/// Record a counter sample inside the enclosing span (no-op without an
/// active scope). Renders as a counter track in Perfetto.
pub fn counter(name: &str, value: f64) {
    with_scope(|state| {
        let top = state.frames.last().expect("scope always has a root frame");
        let (span, parent) = (top.span, top.parent);
        push_event(state, TracePhase::Counter, span, parent, name, value);
    });
}

/// Guard from [`start_root`]: while alive, this thread records trace
/// events. Dropping it closes the root span and flushes the buffered
/// events to the collector in one lock acquisition.
#[must_use = "dropping the guard immediately ends the trace"]
pub struct RootScope {
    collector: TraceCollector,
    trace: u64,
}

impl RootScope {
    /// The trace being recorded.
    pub fn trace_id(&self) -> u64 {
        self.trace
    }
}

impl Drop for RootScope {
    fn drop(&mut self) {
        let flushed = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            match stack.last() {
                Some(state) if state.trace == self.trace => {
                    let mut state = stack.pop().expect("just observed");
                    let root = state.frames.first().map(|f| f.span).unwrap_or(0);
                    end_span_in(&mut state, root);
                    Some(std::mem::take(&mut state.buf))
                }
                _ => None,
            }
        });
        if let Some(buf) = flushed {
            self.collector.ingest(self.trace, buf);
        }
    }
}

/// Start recording `trace` on this thread with a root span named
/// `name`, flushing into the global [`collector`]. Returns `None` when
/// tracing is disabled — callers hold an `Option<RootScope>` and pay
/// one branch.
pub fn start_root(trace: u64, name: &str) -> Option<RootScope> {
    if !enabled() {
        return None;
    }
    start_root_in(collector().clone(), trace, name)
}

/// [`start_root`] against a specific collector (tests).
pub fn start_root_in(target: TraceCollector, trace: u64, name: &str) -> Option<RootScope> {
    let root = derive_id(trace, 1);
    let mut state = ScopeState {
        trace,
        lane: 0,
        epoch: std::time::Instant::now(),
        frames: Vec::with_capacity(8),
        buf: Vec::with_capacity(64),
    };
    push_event(&mut state, TracePhase::Begin, root, 0, name, 0.0);
    state.frames.push(Frame { span: root, parent: 0, children: 0 });
    STACK.with(|s| s.borrow_mut().push(state));
    Some(RootScope { collector: target, trace })
}

// --- cross-thread propagation (pool jobs, detached threads) -------------

/// A `Send + Sync` capture of "where we are" in the active trace:
/// trace ID, parent span, the trace epoch, and a block of reserved
/// child-span slots. Workers turn it into recording scopes; the
/// reserving thread folds their buffers back in index order.
#[derive(Clone)]
pub struct TraceLink {
    collector: TraceCollector,
    trace: u64,
    parent_span: u64,
    base: u64,
    epoch: std::time::Instant,
}

impl TraceLink {
    /// The linked trace's ID.
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    fn child_state(&self, index: usize, name: &str) -> ScopeState {
        let slot = self.base + index as u64 + 1;
        let span = derive_id(self.parent_span, slot);
        let mut state = ScopeState {
            trace: self.trace,
            lane: slot.min(u64::from(u32::MAX)) as u32,
            epoch: self.epoch,
            frames: Vec::with_capacity(8),
            buf: Vec::with_capacity(32),
        };
        push_event(&mut state, TracePhase::Begin, span, self.parent_span, name, 0.0);
        state.frames.push(Frame { span, parent: self.parent_span, children: 0 });
        state
    }

    /// Install a buffering scope for reserved child `index` on the
    /// calling (worker) thread. [`JobScope::finish`] returns the event
    /// buffer for the owner to [`fold`] in index order.
    pub fn job_scope(&self, index: usize) -> JobScope {
        let state = self.child_state(index, &format!("job-{index}"));
        STACK.with(|s| s.borrow_mut().push(state));
        JobScope { trace: self.trace, finished: false }
    }

    /// Install a scope for reserved child `index` on a detached thread
    /// (e.g. an async `/fit` worker) that flushes straight to the
    /// collector when dropped — the parent scope may be long gone.
    pub fn thread_scope(&self, index: usize, name: &str) -> ThreadScope {
        let state = self.child_state(index, name);
        STACK.with(|s| s.borrow_mut().push(state));
        ThreadScope { collector: self.collector.clone(), trace: self.trace }
    }
}

fn pop_scope(trace: u64) -> Option<Vec<TraceEvent>> {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        match stack.last() {
            Some(state) if state.trace == trace => {
                let mut state = stack.pop().expect("just observed");
                let root = state.frames.first().map(|f| f.span).unwrap_or(0);
                end_span_in(&mut state, root);
                Some(std::mem::take(&mut state.buf))
            }
            _ => None,
        }
    })
}

/// Worker-side recording scope from [`TraceLink::job_scope`].
#[must_use = "dropping the scope discards its events; call finish()"]
pub struct JobScope {
    trace: u64,
    finished: bool,
}

impl JobScope {
    /// Close the job span and hand the buffered events back for the
    /// owning thread to [`fold`].
    pub fn finish(mut self) -> Vec<TraceEvent> {
        self.finished = true;
        pop_scope(self.trace).unwrap_or_default()
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        if !self.finished {
            // Panic unwinding through the job: pop the scope so the
            // worker thread is clean, discard the partial buffer.
            let _ = pop_scope(self.trace);
        }
    }
}

/// Detached-thread recording scope from [`TraceLink::thread_scope`]:
/// flushes to the collector on drop.
#[must_use = "dropping the guard immediately ends the scope"]
pub struct ThreadScope {
    collector: TraceCollector,
    trace: u64,
}

impl Drop for ThreadScope {
    fn drop(&mut self) {
        if let Some(buf) = pop_scope(self.trace) {
            self.collector.ingest(self.trace, buf);
        }
    }
}

/// Reserve `children` child-span slots of the innermost active span and
/// return a [`TraceLink`] for workers. `None` when no scope is active
/// (tracing off), so pool code pays one branch.
pub fn link(children: usize) -> Option<TraceLink> {
    let captured = with_scope(|state| {
        let top = state.frames.last_mut().expect("scope always has a root frame");
        let base = top.children;
        top.children += children as u64;
        (state.trace, top.span, base, state.epoch)
    });
    captured.map(|(trace, parent_span, base, epoch)| TraceLink {
        collector: collector().clone(),
        trace,
        parent_span,
        base,
        epoch,
    })
}

/// Fold a job's event buffer into the innermost active scope (the
/// owner's), preserving event order. Dropped silently when no scope is
/// active.
pub fn fold(events: Vec<TraceEvent>) {
    with_scope(|state| state.buf.extend(events));
}

// --- Chrome trace-event export ------------------------------------------

/// Render a trace as Chrome trace-event JSON (the "JSON Array Format"
/// with a `traceEvents` envelope), loadable in ui.perfetto.dev or
/// chrome://tracing. Lanes map to `tid`s so parallel pool jobs render
/// as parallel tracks; span/parent IDs ride along in `args`.
pub fn to_chrome_json(trace: u64, name: &str, events: &[TraceEvent]) -> String {
    use serde::Value;
    let hex = |id: u64| Value::Str(format!("{id:016x}"));
    let mut rows = Vec::with_capacity(events.len());
    for e in events {
        let ts = Value::F64(e.t_ns as f64 / 1000.0);
        let mut row: Vec<(String, Value)> = vec![
            ("ph".into(), Value::Str(phase_code(&e.phase).into())),
            ("ts".into(), ts),
            ("pid".into(), Value::U64(1)),
            ("tid".into(), Value::U64(u64::from(e.lane))),
            ("cat".into(), Value::Str("ibox".into())),
        ];
        match e.phase {
            TracePhase::Begin => {
                row.push(("name".into(), Value::Str(e.name.clone())));
                row.push((
                    "args".into(),
                    Value::Object(vec![
                        ("span".into(), hex(e.span)),
                        ("parent".into(), hex(e.parent)),
                    ]),
                ));
            }
            TracePhase::End => {}
            TracePhase::Instant => {
                row.push(("name".into(), Value::Str(e.name.clone())));
                row.push(("s".into(), Value::Str("t".into())));
            }
            TracePhase::Counter => {
                row.push(("name".into(), Value::Str(e.name.clone())));
                row.push((
                    "args".into(),
                    Value::Object(vec![("value".into(), Value::F64(e.value))]),
                ));
            }
        }
        rows.push(Value::Object(row));
    }
    let doc = Value::Object(vec![
        ("traceEvents".into(), Value::Array(rows)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        (
            "otherData".into(),
            Value::Object(vec![
                ("trace_id".into(), Value::Str(format_trace_id(trace))),
                ("name".into(), Value::Str(name.to_string())),
            ]),
        ),
    ]);
    serde_json::to_string(&doc).expect("chrome trace serializes")
}

fn phase_code(phase: &TracePhase) -> &'static str {
    match phase {
        TracePhase::Begin => "B",
        TracePhase::End => "E",
        TracePhase::Instant => "i",
        TracePhase::Counter => "C",
    }
}

/// Render a trace as plain JSON: `{"trace": id, "name": ..., "events": [...]}`.
pub fn to_json(trace: u64, name: &str, events: &[TraceEvent]) -> String {
    use serde::Value;
    let rows = events
        .iter()
        .map(|e| serde_json::parse_value(&serde_json::to_string(e).expect("event serializes")))
        .collect::<Result<Vec<_>, _>>()
        .expect("event json reparses");
    let doc = Value::Object(vec![
        ("trace".into(), Value::Str(format_trace_id(trace))),
        ("name".into(), Value::Str(name.to_string())),
        ("events".into(), Value::Array(rows)),
    ]);
    serde_json::to_string(&doc).expect("trace json serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structure(events: &[TraceEvent]) -> Vec<(u32, u64, u64, TracePhase, String, f64)> {
        events
            .iter()
            .map(|e| (e.lane, e.span, e.parent, e.phase.clone(), e.name.clone(), e.value))
            .collect()
    }

    #[test]
    fn disabled_tracing_is_a_noop() {
        assert!(start_root(42, "off").is_none());
        assert!(!active());
        let _g = span("nobody-home"); // must not panic or record an event
        instant("nothing");
        counter("nothing", 1.0);
        assert!(link(4).is_none());
    }

    #[test]
    fn span_tree_records_parentage_and_derived_ids() {
        let collector = TraceCollector::new(1024);
        let trace = 0xabcd;
        {
            let _root = start_root_in(collector.clone(), trace, "request.test").unwrap();
            {
                let _outer = span("fit-cache");
                let _inner = span("model-fit");
                instant("checkpoint");
                counter("loss", 0.5);
            }
        }
        let (name, events) = collector.get(trace).unwrap();
        assert_eq!(name, "request.test");
        let root = derive_id(trace, 1);
        let outer = derive_id(root, 1);
        let inner = derive_id(outer, 1);
        let got = structure(&events);
        let expect = vec![
            (0, root, 0, TracePhase::Begin, "request.test".to_string(), 0.0),
            (0, outer, root, TracePhase::Begin, "fit-cache".to_string(), 0.0),
            (0, inner, outer, TracePhase::Begin, "model-fit".to_string(), 0.0),
            (0, inner, outer, TracePhase::Instant, "checkpoint".to_string(), 0.0),
            (0, inner, outer, TracePhase::Counter, "loss".to_string(), 0.5),
            (0, inner, outer, TracePhase::End, String::new(), 0.0),
            (0, outer, root, TracePhase::End, String::new(), 0.0),
            (0, root, 0, TracePhase::End, String::new(), 0.0),
        ];
        assert_eq!(got, expect);
        // Trace wall time is monotone within the lane.
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn a_traced_span_is_aggregated_too() {
        let collector = TraceCollector::new(1024);
        let scope = crate::scoped();
        {
            let _root = start_root_in(collector.clone(), 7, "agg").unwrap();
            let _g = span("traced-phase");
        }
        let snapshot = scope.finish().snapshot();
        assert_eq!(snapshot.spans["traced-phase"].count, 1);
    }

    #[test]
    fn link_and_fold_reconstruct_parallel_jobs_in_index_order() {
        let collector = TraceCollector::new(1024);
        let trace = 99;
        {
            let _root = start_root_in(collector.clone(), trace, "batch").unwrap();
            let link = link(3).unwrap();
            let mut buffers: Vec<_> = Vec::new();
            // Simulate out-of-order completion: record jobs 2, 0, 1 on
            // worker threads, fold in index order anyway.
            for index in [2usize, 0, 1] {
                let link = link.clone();
                let buf = std::thread::spawn(move || {
                    let scope = link.job_scope(index);
                    let _inner = span(&format!("work-{index}"));
                    drop(_inner);
                    scope.finish()
                })
                .join()
                .unwrap();
                buffers.push((index, buf));
            }
            buffers.sort_by_key(|(index, _)| *index);
            for (_, buf) in buffers {
                fold(buf);
            }
        }
        let (_, events) = collector.get(trace).unwrap();
        let root = derive_id(trace, 1);
        let job_spans: Vec<u64> = events
            .iter()
            .filter(|e| e.phase == TracePhase::Begin && e.parent == root)
            .map(|e| e.span)
            .collect();
        assert_eq!(job_spans, vec![derive_id(root, 1), derive_id(root, 2), derive_id(root, 3)]);
        let job_names: Vec<&str> = events
            .iter()
            .filter(|e| e.phase == TracePhase::Begin && e.parent == root)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(job_names, vec!["job-0", "job-1", "job-2"]);
        // Lanes separate the jobs for the Chrome export.
        let lanes: Vec<u32> = events
            .iter()
            .filter(|e| e.phase == TracePhase::Begin && e.parent == root)
            .map(|e| e.lane)
            .collect();
        assert_eq!(lanes, vec![1, 2, 3]);
    }

    #[test]
    fn ring_evicts_oldest_traces_but_keeps_the_newest() {
        let collector = TraceCollector::new(4);
        let event = |trace: u64| TraceEvent {
            t_ns: 0,
            lane: 0,
            span: derive_id(trace, 1),
            parent: 0,
            phase: TracePhase::Begin,
            name: format!("t{trace}"),
            value: 0.0,
        };
        collector.ingest(1, vec![event(1), event(1)]);
        collector.ingest(2, vec![event(2), event(2)]);
        collector.ingest(3, vec![event(3); 10]); // alone exceeds capacity
        assert!(collector.get(1).is_none());
        assert!(collector.get(2).is_none());
        assert!(collector.get(3).is_some(), "newest trace must survive");
        let listing = collector.list(10);
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].name, "t3");
    }

    #[test]
    fn chrome_export_is_balanced_and_parseable() {
        let collector = TraceCollector::new(1024);
        let trace = 5;
        {
            let _root = start_root_in(collector.clone(), trace, "export").unwrap();
            let _a = span("phase-a");
            instant("tick");
            counter("queue", 3.0);
        }
        let (name, events) = collector.get(trace).unwrap();
        let chrome = to_chrome_json(trace, &name, &events);
        let value = serde_json::from_str::<serde::Value>(&chrome).unwrap();
        let serde::Value::Object(fields) = &value else { panic!("not an object") };
        let rows = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| match v {
                serde::Value::Array(rows) => rows.len(),
                _ => 0,
            })
            .unwrap();
        assert_eq!(rows, events.len());
        let begins = chrome.matches("\"ph\":\"B\"").count();
        let ends = chrome.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends, "unbalanced begin/end in {chrome}");
        assert!(chrome.contains("\"displayTimeUnit\":\"ms\""));
    }

    #[test]
    fn trace_ids_parse_and_roundtrip() {
        assert_eq!(parse_trace_id("00000000deadbeef"), Some(0xdead_beef));
        assert_eq!(parse_trace_id("0xdeadbeef"), Some(0xdead_beef));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("   "), None);
        // Arbitrary tokens hash to a stable nonzero ID.
        let a = parse_trace_id("my-correlation-token").unwrap();
        let b = parse_trace_id("my-correlation-token").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, 0);
        let id = next_trace_id();
        assert_eq!(parse_trace_id(&format_trace_id(id)), Some(id));
    }

    #[test]
    fn leaked_guards_still_balance_on_root_drop() {
        let collector = TraceCollector::new(1024);
        {
            let _root = start_root_in(collector.clone(), 11, "leaky").unwrap();
            let inner = span("never-explicitly-ended");
            std::mem::forget(inner); // worst case: guard never drops
        }
        let (_, events) = collector.get(11).unwrap();
        let begins = events.iter().filter(|e| e.phase == TracePhase::Begin).count();
        let ends = events.iter().filter(|e| e.phase == TracePhase::End).count();
        assert_eq!(begins, ends);
    }
}
