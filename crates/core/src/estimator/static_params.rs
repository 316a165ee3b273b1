//! Static path-parameter estimation (§3 of the paper).
//!
//! From an input-output trace, iBoxNet estimates:
//!
//! * **bottleneck bandwidth** `b` — "the peak receiving rate, over 1 s
//!   sliding windows, seen in the training data (even if the sender does
//!   not fill the bottleneck link on a sustained basis, short bursts would
//!   still enable accurate estimation)";
//! * **propagation delay** `d` — "the minimum delay seen in the traces
//!   (the assumption being that in a long-enough trace, at least some
//!   packets will likely encounter an empty bottleneck queue)";
//! * **buffer size** `B` — "the estimated bandwidth times the difference
//!   between the maximum and minimum delays (the assumption being that at
//!   least some packets would encounter an almost full buffer)", byte-based.
//!
//! [`OnlineStaticParams`] is the one estimator: a fold, O(record), that a
//! fit runs over a whole trace as one chunk ([`StaticParams::estimate`])
//! and a stream runs chunk by chunk; its [`check`](OnlineStaticParams::check)
//! decides whether a trace can be fitted at all ([`FitError`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};

use ibox_sim::SimTime;
use ibox_trace::{ns_to_secs, FlowTrace, PacketRecord};

use super::crosstraffic::{bin_count, DEFAULT_BIN_SECS};

/// The sliding window used for the peak-rate bandwidth estimator.
pub const BANDWIDTH_WINDOW_SECS: f64 = 1.0;
const WINDOW_NS: u64 = (BANDWIDTH_WINDOW_SECS * 1e9) as u64;

/// Estimated static parameters of a path: the `(b, d, B)` of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaticParams {
    /// Bottleneck bandwidth, bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub prop_delay: SimTime,
    /// Bottleneck buffer, bytes.
    pub buffer_bytes: u64,
}

impl StaticParams {
    /// Estimate `(b, d, B)` from a trace: the fold over it as one chunk.
    ///
    /// Panics if the trace has no delivered packets — there is nothing to
    /// learn from silence; doors that take outside traces `check` first.
    pub fn estimate(trace: &FlowTrace) -> Self {
        let _span = ibox_obs::span!("estimate.static_params");
        let mut fold = OnlineStaticParams::new();
        fold.fold_chunk(trace.records());
        fold.params().expect("cannot estimate parameters from a trace with no delivered packets")
    }

    /// Maximum queueing delay this parameterization allows (buffer drain
    /// time at the bottleneck rate).
    pub fn max_queue_delay_secs(&self) -> f64 {
        self.buffer_bytes as f64 * 8.0 / self.bandwidth_bps
    }
}

/// Why a trace cannot be fitted — what every door (`ibox fit`, `POST
/// /fit`, ingest `finalize`, a batch run) answers instead of fitting it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FitError {
    /// No packet was delivered: there is nothing to learn from silence.
    NoDeliveredPackets,
    /// The trace spans more than an estimate's 2^20 bins of 0.1 s (≈ 29 h).
    SpanTooLong {
        /// The trace's span, seconds.
        span_secs: f64,
    },
    /// A record was received before it was sent.
    ReceivedBeforeSent {
        /// The first such record's sequence number.
        seq: u64,
    },
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::NoDeliveredPackets => write!(f, "the trace has no delivered packets"),
            FitError::SpanTooLong { span_secs } => write!(
                f,
                "the trace spans {span_secs:.0} s, more than the ≈ 29 h an estimate covers"
            ),
            FitError::ReceivedBeforeSent { seq } => {
                write!(f, "record {seq} was received before it was sent")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// The peak-rate sweep: arrivals `(recv_ns, size)` in nondecreasing order
/// through a 1 s two-pointer window. All integer arithmetic — exact.
#[derive(Debug, Clone, Default)]
struct RateSweep {
    window: VecDeque<(u64, u64)>,
    sum: u64,
    best_bytes: u64,
}

impl RateSweep {
    fn arrival(&mut self, (recv_ns, size): (u64, u64)) {
        self.sum += size;
        self.window.push_back((recv_ns, size));
        // Saturating: a record received before it was sent can break the
        // order; the window then stays as it is instead of underflowing.
        while let Some(&(oldest_ns, oldest_size)) = self.window.front() {
            if recv_ns.saturating_sub(oldest_ns) < WINDOW_NS {
                break;
            }
            self.window.pop_front();
            self.sum -= oldest_size;
        }
        self.best_bytes = self.best_bytes.max(self.sum);
    }
}

/// Arrivals `(recv_ns, size)` waiting for the send watermark to pass them.
/// Most come in order and queue in `sorted`; the rest wait in `late`, a
/// min-heap. Popping the smaller of the two fronts yields them in order.
#[derive(Debug, Clone, Default)]
struct Pending {
    sorted: VecDeque<(u64, u64)>,
    late: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Pending {
    fn push(&mut self, arrival: (u64, u64)) {
        if self.sorted.back().is_some_and(|&back| arrival < back) {
            self.late.push(Reverse(arrival));
        } else {
            self.sorted.push_back(arrival);
        }
    }

    /// The smallest arrival, taken if `ripe` says its recv time is.
    fn pop_if(&mut self, ripe: impl Fn(u64) -> bool) -> Option<(u64, u64)> {
        let late = self.late.peek().map(|r| r.0);
        match self.sorted.front() {
            Some(&next) if late.is_none_or(|late| next <= late) => {
                ripe(next.0).then(|| self.sorted.pop_front()).flatten()
            }
            _ => ripe(late?.0).then(|| self.late.pop()).flatten().map(|r| r.0),
        }
    }
}

/// The order-free facts that decide whether records can be fitted.
#[derive(Debug, Clone, Default)]
pub(crate) struct Extent {
    delivered: u64,
    first_send_ns: Option<u64>,
    /// The send watermark: the latest send time folded.
    last_send_ns: u64,
    max_recv_ns: u64,
    received_before_sent: Option<u64>,
}

impl Extent {
    pub(crate) fn fold(&mut self, rec: &PacketRecord) {
        self.first_send_ns.get_or_insert(rec.send_ns);
        self.last_send_ns = self.last_send_ns.max(rec.send_ns);
        if let Some(recv_ns) = rec.recv_ns {
            if recv_ns < rec.send_ns {
                self.received_before_sent.get_or_insert(rec.seq);
            }
            self.delivered += 1;
            self.max_recv_ns = self.max_recv_ns.max(recv_ns);
        }
    }

    /// Why the records folded so far cannot be fitted, if they cannot —
    /// decided here only, so every door refuses the same traces.
    pub(crate) fn check(&self) -> Result<(), FitError> {
        if let Some(seq) = self.received_before_sent {
            return Err(FitError::ReceivedBeforeSent { seq });
        }
        let Some(first) = self.first_send_ns.filter(|_| self.delivered > 0) else {
            return Err(FitError::NoDeliveredPackets);
        };
        // `FlowTrace::span_secs` of the records folded so far.
        let span_secs = ns_to_secs(self.last_send_ns.max(self.max_recv_ns) - first);
        match bin_count(span_secs, DEFAULT_BIN_SECS) {
            Some(_) => Ok(()),
            None => Err(FitError::SpanTooLong { span_secs }),
        }
    }
}

/// The `(b, d, B)` estimator, folding records in nondecreasing
/// `(send_ns, seq)` order — `FlowTrace`'s order, and the order an ingest
/// session accepts chunks in. State is bounded by the packets in flight
/// plus one bandwidth window of arrivals.
///
/// Delays, counts and the span are order-free folds. The rate sweep needs
/// arrivals sorted by `(recv_ns, size)`: each waits in [`Pending`] until
/// the send watermark passes it (every later record has `recv ≥ send ≥`
/// the watermark), so it is released in sorted order whatever the
/// chunking. Ties are safe: a tie group's window sum peaks at its end in
/// any internal order.
#[derive(Debug, Clone)]
pub struct OnlineStaticParams {
    records: u64,
    min_delay_ns: u64,
    max_delay_ns: u64,
    extent: Extent,
    pending: Pending,
    sweep: RateSweep,
}

impl Default for OnlineStaticParams {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStaticParams {
    /// A fresh fold.
    pub fn new() -> Self {
        Self {
            records: 0,
            min_delay_ns: u64::MAX,
            max_delay_ns: 0,
            extent: Extent::default(),
            pending: Pending::default(),
            sweep: RateSweep::default(),
        }
    }

    fn fold(&mut self, rec: &PacketRecord) {
        debug_assert!(rec.send_ns >= self.extent.last_send_ns, "records must fold in send order");
        self.records += 1;
        self.extent.fold(rec);
        let watermark = self.extent.last_send_ns;
        while let Some(arrival) = self.pending.pop_if(|recv| recv < watermark) {
            self.sweep.arrival(arrival);
        }
        if let (Some(recv_ns), Some(delay)) = (rec.recv_ns, rec.delay_ns()) {
            self.min_delay_ns = self.min_delay_ns.min(delay);
            self.max_delay_ns = self.max_delay_ns.max(delay);
            self.pending.push((recv_ns, u64::from(rec.size)));
        }
    }

    /// Fold a chunk of records, in nondecreasing send order.
    pub fn fold_chunk(&mut self, records: &[PacketRecord]) {
        for rec in records {
            self.fold(rec);
        }
    }

    /// Records folded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Delivered records folded so far.
    pub fn delivered(&self) -> u64 {
        self.extent.delivered
    }

    /// Why the records folded so far cannot be fitted, if they cannot.
    pub fn check(&self) -> Result<(), FitError> {
        self.extent.check()
    }

    /// The `(b, d, B)` estimate over everything folded so far — `None`
    /// until a delivered packet arrives. Non-destructive (the pending
    /// arrivals drain on a clone), so a stream can read it between chunks.
    pub fn params(&self) -> Option<StaticParams> {
        if self.extent.delivered == 0 {
            return None;
        }
        let mut sweep = self.sweep.clone();
        let mut pending = self.pending.clone();
        while let Some(arrival) = pending.pop_if(|_| true) {
            sweep.arrival(arrival);
        }
        let bandwidth_bps = (sweep.best_bytes as f64 * 8.0 / BANDWIDTH_WINDOW_SECS).max(1_000.0);
        let delay_range_secs = (self.max_delay_ns - self.min_delay_ns) as f64 / 1e9;
        // Byte-based buffer: b/8 bytes per second of standing delay. Floor
        // at two MTUs so a clean trace still yields a runnable emulator.
        let buffer_bytes = ((bandwidth_bps / 8.0) * delay_range_secs).max(3_000.0) as u64;
        Some(StaticParams {
            bandwidth_bps,
            prop_delay: SimTime::from_nanos(self.min_delay_ns),
            buffer_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox_sim::{FixedWindow, PathConfig, PathEmulator};
    use ibox_trace::PacketRecord;

    fn measured(rate_bps: f64, delay_ms: u64, buffer: u64, window: f64) -> StaticParams {
        let emu = PathEmulator::from_spec(
            ibox_sim::PathSpec::single(PathConfig::simple(
                rate_bps,
                SimTime::from_millis(delay_ms),
                buffer,
            )),
            SimTime::from_secs(20),
        );
        let out = emu.run_sender(Box::new(FixedWindow::new(window)), "probe", 1);
        StaticParams::estimate(out.trace("probe").unwrap())
    }

    #[test]
    fn recovers_bandwidth_of_a_saturated_link() {
        let p = measured(8e6, 30, 120_000, 200.0);
        assert!((p.bandwidth_bps - 8e6).abs() / 8e6 < 0.05, "b = {} Mbps", p.bandwidth_bps / 1e6);
    }

    #[test]
    fn recovers_propagation_delay() {
        let p = measured(8e6, 30, 120_000, 200.0);
        // Min delay includes one serialization time (1400 B at 8 Mbps =
        // 1.4 ms) on top of 30 ms.
        let d = p.prop_delay.as_millis_f64();
        assert!((d - 31.4).abs() < 1.0, "d = {d} ms");
    }

    #[test]
    fn recovers_buffer_size_when_sender_fills_it() {
        // A huge fixed window pins the 60 KB buffer.
        let p = measured(6e6, 20, 60_000, 400.0);
        assert!((40_000..=75_000).contains(&p.buffer_bytes), "B = {} bytes", p.buffer_bytes);
    }

    #[test]
    fn bursty_sender_still_reveals_bandwidth() {
        // "Even if the sender does not fill the bottleneck link on a
        // sustained basis, short bursts would still enable accurate
        // estimation": a trace whose average rate is ~0.5 Mbps but which
        // contains one 1-second burst delivered at the 8 Mbps line rate.
        let mut recs = Vec::new();
        let mut seq = 0u64;
        // Sparse background: one packet per 100 ms for 20 s.
        for i in 0..200u64 {
            recs.push(PacketRecord::delivered(
                seq,
                i * 100 * 1_000_000,
                1000,
                i * 100 * 1_000_000 + 30_000_000,
            ));
            seq += 1;
        }
        // Burst: 8 Mbps for 1 s starting at t = 5 s: 1000 B every 1 ms.
        for k in 0..1000u64 {
            let send = 5_000_000_000 + k * 1_000_000;
            recs.push(PacketRecord::delivered(seq, send, 1000, send + 30_000_000));
            seq += 1;
        }
        let t = FlowTrace::from_records(Default::default(), recs);
        let p = StaticParams::estimate(&t);
        assert!(
            p.bandwidth_bps > 7.5e6,
            "burst should reveal the 8 Mbps line rate, got {}",
            p.bandwidth_bps
        );
        // Average rate is far below the estimate.
        assert!(ibox_trace::metrics::avg_rate_mbps(&t) < 1.0);
    }

    #[test]
    #[should_panic(expected = "no delivered packets")]
    fn empty_trace_rejected() {
        let t = FlowTrace::from_records(
            Default::default(),
            vec![ibox_trace::PacketRecord::lost(0, 0, 100)],
        );
        StaticParams::estimate(&t);
    }

    #[test]
    fn spans_past_29_hours_cannot_be_fitted() {
        let check = |hours: u64| {
            let end = hours * 3_600 * 1_000_000_000;
            let mut fold = OnlineStaticParams::new();
            fold.fold_chunk(&[
                PacketRecord::delivered(0, 0, 100, 1_000),
                PacketRecord::lost(1, end, 100),
            ]);
            fold.check()
        };
        assert_eq!(check(29), Ok(()));
        assert!(matches!(check(30), Err(FitError::SpanTooLong { .. })));
    }

    #[test]
    fn max_queue_delay_is_consistent() {
        let p = StaticParams {
            bandwidth_bps: 8e6,
            prop_delay: SimTime::from_millis(10),
            buffer_bytes: 100_000,
        };
        assert!((p.max_queue_delay_secs() - 0.1).abs() < 1e-12);
    }
}
