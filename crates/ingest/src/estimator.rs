//! Incremental mirrors of the batch estimators (§3 of the paper).
//!
//! [`OnlineStaticParams`] folds packet records one chunk at a time and,
//! once drained, computes exactly the expressions of
//! `StaticParams::estimate`; [`OnlineCrossTraffic`] does the same for
//! `CrossTrafficEstimate::estimate`. "Exactly" is meant literally: the
//! proptests in `tests/props.rs` assert the folded results are
//! **bit-identical** to the batch estimators on the concatenated trace,
//! for random chunk boundaries. That holds because each fold replays the
//! same integer/float operations in the same order the batch code uses:
//!
//! * min/max delay and the delivered count are order-free integer folds;
//! * the peak-rate sweep processes arrival events in nondecreasing
//!   `(recv_ns, size)` order — the streaming fold holds not-yet-ripe
//!   arrivals in a min-heap and releases one only when every future
//!   record is provably later (`recv ≥ send ≥` the send watermark), so
//!   the release order equals the batch sort order (ties are safe: the
//!   window-sum maximum within a tie group is reached at the group's end
//!   regardless of internal order);
//! * the cross-traffic pair walk visits consecutive delivered probes in
//!   send order, which is exactly the order records are folded in.
//!
//! Records must be folded in nondecreasing `(send_ns, seq)` order — the
//! order `FlowTrace` stores them in. The session layer enforces this at
//! the chunk protocol level (strictly monotone chunk boundaries).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use serde::Serialize;

use ibox::estimator::{moving_average, CrossTrafficEstimate, StaticParams, BANDWIDTH_WINDOW_SECS};
use ibox_sim::SimTime;
use ibox_trace::{ns_to_secs, secs_to_ns, PacketRecord};

/// The sliding-window sweep state of `peak_recv_rate_bps`, advanced one
/// arrival at a time. All integer arithmetic — exact by construction.
#[derive(Debug, Clone, Default)]
struct RateSweep {
    window: VecDeque<(u64, u64)>,
    sum: u64,
    best_bytes: u64,
}

impl RateSweep {
    /// Fold one arrival event `(recv_ns, size)`; events arrive in
    /// nondecreasing `recv_ns` order. Mirrors the two-pointer loop body
    /// of `ibox_trace::series::peak_recv_rate_bps`. (A record received
    /// before it was sent can break that order; the saturating difference
    /// then keeps the window as it is instead of underflowing.)
    fn arrival(&mut self, recv_ns: u64, size: u64, window_ns: u64) {
        self.sum += size;
        self.window.push_back((recv_ns, size));
        while let Some(&(oldest_ns, oldest_size)) = self.window.front() {
            if recv_ns.saturating_sub(oldest_ns) < window_ns {
                break;
            }
            self.window.pop_front();
            self.sum -= oldest_size;
        }
        self.best_bytes = self.best_bytes.max(self.sum);
    }
}

/// Streaming `(b, d, B)` estimator: the online mirror of
/// `StaticParams::estimate`, O(record) per fold with state bounded by
/// the packets in flight plus one bandwidth window of arrivals.
#[derive(Debug, Clone)]
pub struct OnlineStaticParams {
    records: u64,
    delivered: u64,
    min_delay_ns: u64,
    max_delay_ns: u64,
    // Span tracking (first send → max(last send, last delivery)), used
    // to size the cross-traffic bin vector exactly like the batch path.
    first_send_ns: Option<u64>,
    last_send_ns: u64,
    max_recv_ns: u64,
    // Peak-rate sweep: arrivals not yet provably in sorted position wait
    // in a min-heap keyed by (recv_ns, size); `sweep` has consumed every
    // arrival with recv earlier than the send watermark.
    window_ns: u64,
    pending: BinaryHeap<Reverse<(u64, u64)>>,
    sweep: RateSweep,
    watermark_send_ns: u64,
}

impl Default for OnlineStaticParams {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStaticParams {
    /// Fresh estimator with the standard 1 s bandwidth window.
    pub fn new() -> Self {
        Self {
            records: 0,
            delivered: 0,
            min_delay_ns: u64::MAX,
            max_delay_ns: 0,
            first_send_ns: None,
            last_send_ns: 0,
            max_recv_ns: 0,
            window_ns: secs_to_ns(BANDWIDTH_WINDOW_SECS).max(1),
            pending: BinaryHeap::new(),
            sweep: RateSweep::default(),
            watermark_send_ns: 0,
        }
    }

    /// Fold one record. Records must arrive in nondecreasing send order
    /// (the session layer guarantees this).
    pub fn fold(&mut self, rec: &PacketRecord) {
        debug_assert!(
            self.first_send_ns.is_none() || rec.send_ns >= self.watermark_send_ns,
            "records must fold in nondecreasing send order"
        );
        self.records += 1;
        if self.first_send_ns.is_none() {
            self.first_send_ns = Some(rec.send_ns);
        }
        self.last_send_ns = self.last_send_ns.max(rec.send_ns);
        // Advance the send watermark, then release every pending arrival
        // strictly earlier than it: any future record r has
        // r.recv ≥ r.send ≥ watermark, so those arrivals are final.
        self.watermark_send_ns = self.watermark_send_ns.max(rec.send_ns);
        while let Some(&Reverse((recv, size))) = self.pending.peek() {
            if recv >= self.watermark_send_ns {
                break;
            }
            self.pending.pop();
            self.sweep.arrival(recv, size, self.window_ns);
        }
        if let (Some(recv_ns), Some(delay)) = (rec.recv_ns, rec.delay_ns()) {
            self.delivered += 1;
            self.min_delay_ns = self.min_delay_ns.min(delay);
            self.max_delay_ns = self.max_delay_ns.max(delay);
            self.max_recv_ns = self.max_recv_ns.max(recv_ns);
            self.pending.push(Reverse((recv_ns, u64::from(rec.size))));
        }
    }

    /// Fold a whole chunk of records.
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
        self.delivered
    }

    /// The trace span in seconds, exactly as `FlowTrace::span_secs`
    /// computes it on the records folded so far.
    pub fn span_secs(&self) -> f64 {
        let Some(first) = self.first_send_ns else { return 0.0 };
        let end = self.last_send_ns.max(self.max_recv_ns).max(first);
        ns_to_secs(end - first)
    }

    /// The current `(b, d, B)` estimate over everything folded so far —
    /// `None` until a delivered packet arrives (the batch estimator
    /// panics there; mid-stream it is simply "no estimate yet").
    ///
    /// Non-destructive: the pending heap is drained on a clone, so this
    /// can serve a watermark query mid-stream and then keep folding.
    pub fn params(&self) -> Option<StaticParams> {
        if self.delivered == 0 {
            return None;
        }
        // Drain the heap in (recv, size) order — equal to the batch
        // sort order of the remaining arrivals.
        let mut sweep = self.sweep.clone();
        let mut pending = self.pending.clone();
        while let Some(Reverse((recv, size))) = pending.pop() {
            sweep.arrival(recv, size, self.window_ns);
        }
        // From here on: the exact expressions of StaticParams::estimate.
        let bandwidth_bps = (sweep.best_bytes as f64 * 8.0 / BANDWIDTH_WINDOW_SECS).max(1_000.0);
        let delay_range_secs = (self.max_delay_ns - self.min_delay_ns) as f64 / 1e9;
        let buffer_bytes = ((bandwidth_bps / 8.0) * delay_range_secs).max(3_000.0) as u64;
        Some(StaticParams {
            bandwidth_bps,
            prop_delay: SimTime::from_nanos(self.min_delay_ns),
            buffer_bytes,
        })
    }
}

/// Cap on the bin vector of a growing (provisional) estimator: send times
/// come from the client, and one far-future record must not size an
/// allocation. Over a day of 0.1 s bins; later traffic lands in the last.
const MAX_GROWING_BINS: usize = 1 << 20;

/// Streaming cross-traffic estimator: the online mirror of
/// `CrossTrafficEstimate::estimate`, O(record) per fold with state
/// bounded by the bin vector plus one probe.
///
/// The batch estimator needs the *final* static params (`d` is the
/// global minimum delay, the rate the global peak) and the final trace
/// span (for the bin count). Two modes cover the two uses:
///
/// * [`OnlineCrossTraffic::with_span`] — params and span known (refit or
///   finalize: re-stream the persisted chunks through a fresh instance).
///   Bit-identical to the batch estimator.
/// * [`OnlineCrossTraffic::new`] — growing bin vector, provisional
///   params (watermark queries mid-stream). An approximation by design:
///   the estimate uses the params as of the last refit, not the final
///   ones.
#[derive(Debug, Clone)]
pub struct OnlineCrossTraffic {
    bin_secs: f64,
    /// `Some(n)` fixes the bin count up front (exact mode); `None` grows.
    n_bins: Option<usize>,
    bins: Vec<f64>,
    rate_bytes: f64,
    d_secs: f64,
    t0: Option<f64>,
    prev: Option<(f64, f64, f64)>,
    delivered: u64,
}

impl OnlineCrossTraffic {
    /// Growing-bins provisional estimator (mid-stream watermarks).
    pub fn new(params: &StaticParams, bin_secs: f64) -> Self {
        assert!(bin_secs > 0.0, "bin width must be positive");
        Self {
            bin_secs,
            n_bins: None,
            bins: Vec::new(),
            rate_bytes: params.bandwidth_bps / 8.0,
            d_secs: params.prop_delay.as_secs_f64(),
            t0: None,
            prev: None,
            delivered: 0,
        }
    }

    /// Exact estimator for a known final span: bit-identical to
    /// `CrossTrafficEstimate::estimate(trace, params, bin_secs)` when fed
    /// the trace's records in order with `span_secs = trace.span_secs()`.
    pub fn with_span(params: &StaticParams, bin_secs: f64, span_secs: f64) -> Self {
        assert!(bin_secs > 0.0, "bin width must be positive");
        let span = span_secs.max(bin_secs);
        let n_bins = (span / bin_secs).ceil() as usize + 1;
        Self {
            bin_secs,
            n_bins: Some(n_bins),
            bins: vec![0.0f64; n_bins],
            rate_bytes: params.bandwidth_bps / 8.0,
            d_secs: params.prop_delay.as_secs_f64(),
            t0: None,
            prev: None,
            delivered: 0,
        }
    }

    /// Fold one record, in the same (send) order the batch walk uses.
    pub fn fold(&mut self, rec: &PacketRecord) {
        // The batch path anchors bins at the first record overall
        // (delivered or not).
        let t0 = *self.t0.get_or_insert(rec.send_ns as f64 / 1e9);
        let Some(delay) = rec.delay_secs() else { return };
        self.delivered += 1;
        let t = rec.send_ns as f64 / 1e9;
        let q = ((delay - self.d_secs) * self.rate_bytes - f64::from(rec.size)).max(0.0);
        let probe = (t, q, f64::from(rec.size));
        if let Some((t1, q1, s1)) = self.prev.replace(probe) {
            let (t2, q2, _s2) = probe;
            let dt = t2 - t1;
            if dt > 0.0 {
                let min_q = f64::from(ibox_sim::DEFAULT_PACKET_SIZE);
                if q1 >= min_q && q2 >= min_q {
                    let own = s1;
                    let ct = q2 - q1 - own + self.rate_bytes * dt;
                    if ct > 0.0 {
                        let raw = ((t1 - t0) / self.bin_secs) as usize;
                        let idx = match self.n_bins {
                            Some(n) => raw.min(n - 1),
                            None => {
                                let raw = raw.min(MAX_GROWING_BINS - 1);
                                if raw >= self.bins.len() {
                                    self.bins.resize(raw + 1, 0.0);
                                }
                                raw
                            }
                        };
                        self.bins[idx] += ct;
                    }
                }
            }
        }
    }

    /// Fold a whole chunk of records.
    pub fn fold_chunk(&mut self, records: &[PacketRecord]) {
        for rec in records {
            self.fold(rec);
        }
    }

    /// Total bytes accumulated so far (pre-smoothing; smoothing is
    /// byte-preserving, so this equals the finished total).
    pub fn total_bytes(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Finish the fold: apply the batch path's smoothing and produce the
    /// estimate. With fewer than two delivered probes the batch code
    /// returns its raw (all-zero) bins unsmoothed — mirrored here.
    pub fn finish(self) -> CrossTrafficEstimate {
        if self.delivered < 2 {
            return CrossTrafficEstimate { bin_secs: self.bin_secs, bins: self.bins };
        }
        let smoothed = moving_average(&self.bins, 5);
        CrossTrafficEstimate { bin_secs: self.bin_secs, bins: smoothed }
    }
}

/// The current mid-stream estimate of a session: the `(b, d, B, C)` of
/// Fig. 1 over everything folded so far.
#[derive(Debug, Clone, Serialize)]
pub struct Watermark {
    /// Records folded (accepted chunks only — buffered chunks excluded).
    pub records: u64,
    /// Delivered records folded.
    pub delivered: u64,
    /// Bottleneck bandwidth `b`, bits per second.
    pub bandwidth_bps: f64,
    /// Propagation delay `d`, milliseconds.
    pub prop_delay_ms: f64,
    /// Bottleneck buffer `B`, bytes.
    pub buffer_bytes: u64,
    /// Total cross-traffic bytes `C` accumulated so far. Provisional:
    /// computed with the static params as of the last refit, unlike
    /// `(b, d, B)` above which are exact over the folded records.
    pub cross_total_bytes: f64,
}

impl Watermark {
    /// Assemble a watermark from the two estimators, or `None` before
    /// the first delivered packet.
    pub fn of(statics: &OnlineStaticParams, cross: Option<&OnlineCrossTraffic>) -> Option<Self> {
        let params = statics.params()?;
        Some(Self {
            records: statics.records(),
            delivered: statics.delivered(),
            bandwidth_bps: params.bandwidth_bps,
            prop_delay_ms: params.prop_delay.as_secs_f64() * 1e3,
            buffer_bytes: params.buffer_bytes,
            cross_total_bytes: cross.map_or(0.0, OnlineCrossTraffic::total_bytes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox_trace::FlowTrace;

    fn sample_trace(seed: u64) -> FlowTrace {
        ibox_testbed::run_protocol(
            &ibox_testbed::Profile::Ethernet
                .builder()
                .seed(seed)
                .duration(SimTime::from_secs(3))
                .sample(),
            "cubic",
            SimTime::from_secs(3),
            seed,
        )
    }

    #[test]
    fn online_static_params_match_batch_exactly() {
        let trace = sample_trace(11);
        let mut online = OnlineStaticParams::new();
        for rec in trace.records() {
            online.fold(rec);
        }
        let got = online.params().expect("delivered packets");
        let want = StaticParams::estimate(&trace);
        assert_eq!(got.bandwidth_bps.to_bits(), want.bandwidth_bps.to_bits());
        assert_eq!(got.prop_delay, want.prop_delay);
        assert_eq!(got.buffer_bytes, want.buffer_bytes);
        assert_eq!(online.span_secs().to_bits(), trace.span_secs().to_bits());
    }

    #[test]
    fn online_cross_traffic_matches_batch_exactly() {
        let trace = sample_trace(12);
        let params = StaticParams::estimate(&trace);
        let bin = ibox::estimator::DEFAULT_BIN_SECS;
        let mut online = OnlineCrossTraffic::with_span(&params, bin, trace.span_secs());
        for rec in trace.records() {
            online.fold(rec);
        }
        let got = online.finish();
        let want = CrossTrafficEstimate::estimate(&trace, &params, bin);
        assert_eq!(got.bins.len(), want.bins.len());
        for (g, w) in got.bins.iter().zip(&want.bins) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn watermark_is_none_before_first_delivery_then_tracks() {
        let mut online = OnlineStaticParams::new();
        assert!(Watermark::of(&online, None).is_none());
        online.fold(&PacketRecord::lost(0, 0, 1200));
        assert!(Watermark::of(&online, None).is_none());
        online.fold(&PacketRecord::delivered(1, 1_000_000, 1200, 31_000_000));
        let w = Watermark::of(&online, None).expect("delivered");
        assert_eq!(w.records, 2);
        assert_eq!(w.delivered, 1);
        assert!(w.prop_delay_ms > 29.0 && w.prop_delay_ms < 31.0);
    }

    /// Send times are the client's: a record from the far future must land
    /// in the last bin, not size the bin vector (and hostile arrival order
    /// must not underflow the rate sweep).
    #[test]
    fn a_far_future_record_cannot_size_the_bin_vector() {
        let params = StaticParams {
            bandwidth_bps: 8e6,
            prop_delay: SimTime::from_nanos(0),
            buffer_bytes: 3_000,
        };
        let mut cross = OnlineCrossTraffic::new(&params, 0.1);
        let mut statics = OnlineStaticParams::new();
        let far = 10_000_000_000_000_000_000u64;
        for (seq, send) in [(0, 0), (1, far), (2, far + far / 2)] {
            let rec = PacketRecord::delivered(seq, send, 1200, send.saturating_add(1_000_000_000));
            cross.fold(&rec);
            statics.fold(&rec);
        }
        // Received before it was sent, after a later arrival was released.
        statics.fold(&PacketRecord { seq: 3, send_ns: u64::MAX, size: 1200, recv_ns: Some(5) });
        statics.fold(&PacketRecord::lost(4, u64::MAX, 1200));
        assert!(cross.bins.len() <= MAX_GROWING_BINS);
        assert!(cross.total_bytes() > 0.0 && statics.params().is_some());
    }

    /// Mid-stream watermark queries must not perturb the final result.
    #[test]
    fn watermark_queries_are_non_destructive() {
        let trace = sample_trace(13);
        let mut online = OnlineStaticParams::new();
        for (i, rec) in trace.records().iter().enumerate() {
            online.fold(rec);
            if i % 37 == 0 {
                let _ = online.params();
            }
        }
        let got = online.params().expect("delivered packets");
        let want = StaticParams::estimate(&trace);
        assert_eq!(got.bandwidth_bps.to_bits(), want.bandwidth_bps.to_bits());
        assert_eq!(got.buffer_bytes, want.buffer_bytes);
    }
}
