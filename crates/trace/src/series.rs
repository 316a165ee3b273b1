//! Time-series views over flow traces.
//!
//! The iBox models consume traces as continuous-valued time series: the
//! sending-rate series (model input), the delay series (model output), the
//! estimated cross-traffic series, and the inter-arrival-difference series
//! (behaviour discovery, §5.1). This module provides a small, allocation-
//! friendly [`TimeSeries`] type and the standard constructions over a
//! [`FlowTrace`].

use serde::{Deserialize, Serialize};

use crate::flow::FlowTrace;
use crate::time::ns_to_secs;

/// A sampled time series: strictly increasing timestamps (seconds) with one
/// value per timestamp.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Sample timestamps, seconds, strictly increasing.
    pub t: Vec<f64>,
    /// Sample values.
    pub v: Vec<f64>,
}

impl TimeSeries {
    /// Construct from parallel vectors. Panics if lengths differ or
    /// timestamps are not strictly increasing (programming error).
    pub fn new(t: Vec<f64>, v: Vec<f64>) -> Self {
        assert_eq!(t.len(), v.len(), "timestamp/value length mismatch");
        debug_assert!(t.windows(2).all(|w| w[0] < w[1]), "timestamps must be strictly increasing");
        Self { t, v }
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the series is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Value at time `at` by zero-order hold (last sample at or before
    /// `at`); `None` before the first sample or if empty.
    pub fn sample_hold(&self, at: f64) -> Option<f64> {
        if self.t.is_empty() || at < self.t[0] {
            return None;
        }
        let idx = match self.t.binary_search_by(|x| x.partial_cmp(&at).expect("NaN timestamp")) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        Some(self.v[idx])
    }

    /// Resample onto a uniform grid `[start, end)` with step `dt`, using
    /// zero-order hold and `fill` before the first sample.
    pub fn resample(&self, start: f64, end: f64, dt: f64, fill: f64) -> TimeSeries {
        assert!(dt > 0.0, "resample step must be positive");
        let n = ((end - start) / dt).ceil().max(0.0) as usize;
        let mut t = Vec::with_capacity(n);
        let mut v = Vec::with_capacity(n);
        for i in 0..n {
            let at = start + i as f64 * dt;
            t.push(at);
            v.push(self.sample_hold(at).unwrap_or(fill));
        }
        TimeSeries { t, v }
    }

    /// Mean of the values (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.v.is_empty() {
            0.0
        } else {
            self.v.iter().sum::<f64>() / self.v.len() as f64
        }
    }
}

/// The per-packet delay series of a trace: one sample per **delivered**
/// packet, timestamped at its send time, value = one-way delay in seconds.
pub fn delay_series(trace: &FlowTrace) -> TimeSeries {
    let mut t = Vec::new();
    let mut v = Vec::new();
    let mut last_t = f64::NEG_INFINITY;
    for r in trace.delivered() {
        let mut ts = ns_to_secs(r.send_ns);
        // Strictly increasing timestamps: nudge exact ties by 1 ns.
        if ts <= last_t {
            ts = last_t + 1e-9;
        }
        last_t = ts;
        t.push(ts);
        v.push(r.delay_secs().expect("delivered"));
    }
    TimeSeries { t, v }
}

/// The sending-rate series: bytes sent per fixed window of `window_secs`,
/// expressed in bits per second, timestamped at the window start.
///
/// Windows are aligned to the first send. Empty windows report zero.
pub fn send_rate_series(trace: &FlowTrace, window_secs: f64) -> TimeSeries {
    rate_series(trace.records().iter().map(|r| (r.send_ns, u64::from(r.size))), window_secs)
}

fn rate_series(events: impl Iterator<Item = (u64, u64)>, window_secs: f64) -> TimeSeries {
    assert!(window_secs > 0.0, "rate window must be positive");
    let events: Vec<(u64, u64)> = events.collect();
    let Some(&(t0, _)) = events.first() else { return TimeSeries::default() };
    let t_end = events.last().expect("nonempty").0;
    let window_ns = crate::time::secs_to_ns(window_secs).max(1);
    let n_windows = ((t_end - t0) / window_ns + 1) as usize;
    let mut bytes = vec![0u64; n_windows];
    for (ts, sz) in events {
        let idx = ((ts - t0) / window_ns) as usize;
        bytes[idx] += sz;
    }
    let mut t = Vec::with_capacity(n_windows);
    let mut v = Vec::with_capacity(n_windows);
    for (i, b) in bytes.into_iter().enumerate() {
        t.push(ns_to_secs(t0 + i as u64 * window_ns));
        v.push(b as f64 * 8.0 / window_secs);
    }
    TimeSeries { t, v }
}

/// Peak receiving rate over a **sliding** window of `window_secs`, in bits
/// per second. This is iBoxNet's bottleneck-bandwidth estimator (§3): "the
/// peak receiving rate, over 1 s sliding windows, seen in the training
/// data".
///
/// Uses an exact two-pointer sweep over arrival events, evaluating the
/// window ending at each arrival.
pub fn peak_recv_rate_bps(trace: &FlowTrace, window_secs: f64) -> f64 {
    assert!(window_secs > 0.0, "window must be positive");
    let mut arrivals: Vec<(u64, u64)> =
        trace.delivered().map(|r| (r.recv_ns.expect("delivered"), u64::from(r.size))).collect();
    if arrivals.is_empty() {
        return 0.0;
    }
    arrivals.sort_unstable();
    let window_ns = crate::time::secs_to_ns(window_secs).max(1);
    let mut best_bytes = 0u64;
    let mut sum = 0u64;
    let mut lo = 0usize;
    for hi in 0..arrivals.len() {
        sum += arrivals[hi].1;
        while arrivals[hi].0 - arrivals[lo].0 >= window_ns {
            sum -= arrivals[lo].1;
            lo += 1;
        }
        best_bytes = best_bytes.max(sum);
    }
    best_bytes as f64 * 8.0 / window_secs
}

/// Inter-arrival differences in **send order**: for consecutive delivered
/// packets (by send order) `i-1, i`, the value `recv_i − recv_{i-1}` in
/// seconds, timestamped at `send_i`.
///
/// Negative values indicate reordering — the symbol `'a'` in the paper's
/// SAX behaviour-discovery experiment (Fig. 8).
pub fn inter_arrival_diffs(trace: &FlowTrace) -> TimeSeries {
    let delivered: Vec<_> = trace.delivered().collect();
    let mut t = Vec::new();
    let mut v = Vec::new();
    let mut last_t = f64::NEG_INFINITY;
    for w in delivered.windows(2) {
        let (a, b) = (w[0], w[1]);
        let diff = b.recv_ns.expect("delivered") as f64 - a.recv_ns.expect("delivered") as f64;
        let mut ts = ns_to_secs(b.send_ns);
        if ts <= last_t {
            ts = last_t + 1e-9;
        }
        last_t = ts;
        t.push(ts);
        v.push(diff / 1e9);
    }
    TimeSeries { t, v }
}

/// Instantaneous sending rate feature per packet: bytes sent during the
/// second (`window_secs`) preceding each packet's send time, in bits per
/// second. This is the iBoxML input feature of §4.1.
pub fn trailing_send_rate(trace: &FlowTrace, window_secs: f64) -> Vec<f64> {
    assert!(window_secs > 0.0, "window must be positive");
    let window_ns = crate::time::secs_to_ns(window_secs).max(1);
    let recs = trace.records();
    let mut out = Vec::with_capacity(recs.len());
    let mut lo = 0usize;
    let mut sum = 0u64;
    for hi in 0..recs.len() {
        // Window is (send_hi - window, send_hi]: include current packet.
        sum += u64::from(recs[hi].size);
        while recs[hi].send_ns - recs[lo].send_ns >= window_ns {
            sum -= u64::from(recs[lo].size);
            lo += 1;
        }
        out.push(sum as f64 * 8.0 / window_secs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowMeta;
    use crate::record::PacketRecord;
    use crate::time::{MILLIS, SECONDS};

    fn mk(records: Vec<PacketRecord>) -> FlowTrace {
        FlowTrace::from_records(FlowMeta::default(), records)
    }

    #[test]
    fn delay_series_skips_losses() {
        let t = mk(vec![
            PacketRecord::delivered(0, 0, 100, 10 * MILLIS),
            PacketRecord::lost(1, MILLIS, 100),
            PacketRecord::delivered(2, 2 * MILLIS, 100, 20 * MILLIS),
        ]);
        let s = delay_series(&t);
        assert_eq!(s.len(), 2);
        assert!((s.v[0] - 0.010).abs() < 1e-12);
        assert!((s.v[1] - 0.018).abs() < 1e-12);
    }

    #[test]
    fn send_rate_series_counts_windows() {
        // 4 packets of 1250 bytes in the first second, 1 in the third.
        let t = mk(vec![
            PacketRecord::delivered(0, 0, 1250, MILLIS),
            PacketRecord::delivered(1, 100 * MILLIS, 1250, 101 * MILLIS),
            PacketRecord::delivered(2, 200 * MILLIS, 1250, 201 * MILLIS),
            PacketRecord::delivered(3, 300 * MILLIS, 1250, 301 * MILLIS),
            PacketRecord::delivered(4, 2 * SECONDS, 1250, 2 * SECONDS + MILLIS),
        ]);
        let s = send_rate_series(&t, 1.0);
        assert_eq!(s.len(), 3);
        assert!((s.v[0] - 40_000.0).abs() < 1e-9); // 5000 B * 8 / 1 s
        assert_eq!(s.v[1], 0.0);
        assert!((s.v[2] - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn peak_recv_rate_finds_burst() {
        // Burst: 10 packets of 12500 bytes within 0.1 s -> 1 Mbps over 1 s
        // sliding window.
        let mut recs = Vec::new();
        for i in 0..10u64 {
            recs.push(PacketRecord::delivered(i, 0, 12_500, i * 10 * MILLIS));
        }
        // A straggler much later so the average rate is low.
        recs.push(PacketRecord::delivered(10, 0, 12_500, 10 * SECONDS));
        let t = mk(recs);
        let peak = peak_recv_rate_bps(&t, 1.0);
        assert!((peak - 1_000_000.0).abs() < 1e-6, "peak = {peak}");
    }

    #[test]
    fn inter_arrival_diffs_show_reordering() {
        let t = mk(vec![
            PacketRecord::delivered(0, 0, 100, 10 * MILLIS),
            PacketRecord::delivered(1, MILLIS, 100, 30 * MILLIS),
            // Arrives *before* seq 1 did: negative diff.
            PacketRecord::delivered(2, 2 * MILLIS, 100, 25 * MILLIS),
        ]);
        let s = inter_arrival_diffs(&t);
        assert_eq!(s.len(), 2);
        assert!(s.v[0] > 0.0);
        assert!((s.v[1] + 0.005).abs() < 1e-12);
    }

    #[test]
    fn trailing_send_rate_window() {
        let t = mk(vec![
            PacketRecord::delivered(0, 0, 1250, MILLIS),
            PacketRecord::delivered(1, 500 * MILLIS, 1250, 501 * MILLIS),
            PacketRecord::delivered(2, 1400 * MILLIS, 1250, 1401 * MILLIS),
        ]);
        let r = trailing_send_rate(&t, 1.0);
        assert_eq!(r.len(), 3);
        assert!((r[0] - 10_000.0).abs() < 1e-9); // just itself
        assert!((r[1] - 20_000.0).abs() < 1e-9); // packets 0 and 1
        assert!((r[2] - 20_000.0).abs() < 1e-9); // packets 1 and 2 (0 aged out)
    }

    #[test]
    fn sample_hold_and_resample() {
        let s = TimeSeries::new(vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]);
        assert_eq!(s.sample_hold(0.5), None);
        assert_eq!(s.sample_hold(1.0), Some(10.0));
        assert_eq!(s.sample_hold(2.7), Some(20.0));
        assert_eq!(s.sample_hold(9.0), Some(30.0));
        let r = s.resample(0.0, 4.0, 1.0, -1.0);
        assert_eq!(r.v, vec![-1.0, 10.0, 20.0, 30.0]);
    }

    #[test]
    fn empty_trace_series_are_empty() {
        let t = mk(vec![]);
        assert!(delay_series(&t).is_empty());
        assert!(send_rate_series(&t, 1.0).is_empty());
        assert_eq!(peak_recv_rate_bps(&t, 1.0), 0.0);
        assert!(inter_arrival_diffs(&t).is_empty());
        assert!(trailing_send_rate(&t, 1.0).is_empty());
    }
}
