//! Cross-traffic estimation from queue dynamics — the "three forces" of §3.
//!
//! "We model the three 'forces' acting on the bottleneck queue:
//! (1) packets enqueued from sender S (at a known rate), (2) packets
//! enqueued from cross-traffic flows (at unknown rate, which we seek to
//! estimate), and (3) packets dequeued at the bottleneck link (estimated).
//! Care is needed since the dequeuing in (3) only happens while the queue
//! is non-empty. We make a conservative estimate (i.e., lower bound) of
//! cross-traffic, focusing just on periods when we are sure that the queue
//! was non-empty."
//!
//! Mechanics: a delivered packet's one-way delay decomposes as
//! `delay = d + (q_ahead + size) / rate_Bps`, so each delivered packet is a
//! *probe* of the queue occupancy at its enqueue time:
//! `q_ahead = (delay − d)·rate_Bps − size`. Between two consecutive probes
//! the balance `q₂ = q₁ + size₁ + own + ct − rate·Δt` (valid while the
//! queue never empties) is solved for `ct` and clamped at zero.
//!
//! [`OnlineCrossTraffic`] walks the probes as records are folded. No
//! estimate holds more than 2^20 + 1 bins (≈ 29 h of 0.1 s bins), whatever
//! a client's timestamps say.

use serde::{Deserialize, Serialize};

use ibox_sim::{CrossTrafficCfg, SimTime};
use ibox_trace::{FlowTrace, PacketRecord};

use super::static_params::StaticParams;

/// Default estimation bin width (seconds).
pub const DEFAULT_BIN_SECS: f64 = 0.1;

/// Most bins an estimate sizes from a span: 2^20, ≈ 29 h of 0.1 s bins.
/// A longer span is a [`super::FitError::SpanTooLong`] at every door.
pub(crate) const MAX_BINS: usize = 1 << 20;

/// Bins of width `bin_secs` covering `[0, span_secs)`, at least one, or
/// `None` past [`MAX_BINS`]. Sizes every estimate, so a far-future
/// timestamp cannot size an allocation.
pub(crate) fn bin_count(span_secs: f64, bin_secs: f64) -> Option<usize> {
    let n = (span_secs / bin_secs).ceil().max(1.0);
    (n <= MAX_BINS as f64).then_some(n as usize)
}

/// A binned, conservative (lower-bound) estimate of cross-traffic bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossTrafficEstimate {
    /// Bin width in seconds.
    pub bin_secs: f64,
    /// Estimated cross-traffic bytes per bin; bin `k` covers
    /// `[k·bin, (k+1)·bin)` seconds from trace start.
    pub bins: Vec<f64>,
}

impl CrossTrafficEstimate {
    /// An all-zero estimate covering `duration` (the no-cross-traffic
    /// ablation of Fig. 3a).
    pub fn zero(duration_secs: f64, bin_secs: f64) -> Self {
        assert!(bin_secs > 0.0, "bin width must be positive");
        let n = bin_count(duration_secs, bin_secs).unwrap_or(MAX_BINS);
        Self { bin_secs, bins: vec![0.0; n] }
    }

    /// Estimate cross traffic from a trace given the static parameters:
    /// [`OnlineCrossTraffic`] folded over the whole trace as one chunk.
    pub fn estimate(trace: &FlowTrace, params: &StaticParams, bin_secs: f64) -> Self {
        let _span = ibox_obs::span!("estimate.crosstraffic");
        let mut fold = OnlineCrossTraffic::new(params, bin_secs);
        fold.fold_chunk(trace.records());
        fold.finish(trace.span_secs())
    }

    /// Total estimated cross-traffic bytes.
    pub fn total_bytes(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Estimated bytes in `[from_secs, to_secs)`.
    pub fn bytes_between(&self, from_secs: f64, to_secs: f64) -> f64 {
        self.bins
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                let t = *k as f64 * self.bin_secs;
                t >= from_secs && t < to_secs
            })
            .map(|(_, b)| *b)
            .sum()
    }

    /// Estimated average rate in bits per second at time `t_secs`
    /// (the iBoxML cross-traffic input feature of §5.2).
    pub fn rate_bps_at(&self, t_secs: f64) -> f64 {
        if t_secs < 0.0 {
            return 0.0;
        }
        let idx = (t_secs / self.bin_secs) as usize;
        self.bins.get(idx).map_or(0.0, |b| b * 8.0 / self.bin_secs)
    }

    /// Convert to a replayable cross-traffic source for the emulator.
    pub fn to_replay(&self, pkt_size: u32) -> CrossTrafficCfg {
        let bins = self
            .bins
            .iter()
            .enumerate()
            .map(|(k, b)| (SimTime::from_secs_f64(k as f64 * self.bin_secs), *b))
            .collect();
        CrossTrafficCfg::Replay { bins, pkt_size }
    }
}

/// The cross-traffic estimator as a fold over records in send order,
/// O(record) with state bounded by the bin vector plus one probe.
///
/// It needs the static parameters up front (`d` is the minimum delay, the
/// rate the peak): a fit folds the trace under its final
/// [`StaticParams`]; a live ingest session folds under the parameters of
/// its last refit, a provisional estimate by design.
#[derive(Debug, Clone)]
pub struct OnlineCrossTraffic {
    bin_secs: f64,
    bins: Vec<f64>,
    rate_bytes: f64,
    d_secs: f64,
    /// Send time of the first record, delivered or not: bin 0 starts here.
    t0: Option<f64>,
    /// The last delivered probe `(t, q_ahead, size)`.
    prev: Option<(f64, f64, f64)>,
}

impl OnlineCrossTraffic {
    /// A fresh fold under `params`, in bins of `bin_secs`.
    pub fn new(params: &StaticParams, bin_secs: f64) -> Self {
        assert!(bin_secs > 0.0, "bin width must be positive");
        Self {
            bin_secs,
            bins: Vec::new(),
            rate_bytes: params.bandwidth_bps / 8.0,
            d_secs: params.prop_delay.as_secs_f64(),
            t0: None,
            prev: None,
        }
    }

    /// Fold one record, in send order.
    ///
    /// Conservative gating: an interval between consecutive delivered
    /// packets contributes only if both endpoint queue probes are clearly
    /// positive (≥ one packet) — "periods when we are sure that the queue
    /// was non-empty".
    fn fold(&mut self, rec: &PacketRecord) {
        let t0 = *self.t0.get_or_insert(rec.send_ns as f64 / 1e9);
        let Some(delay) = rec.delay_secs() else { return };
        let t = rec.send_ns as f64 / 1e9;
        // q_ahead at this packet's enqueue.
        let q = ((delay - self.d_secs) * self.rate_bytes - f64::from(rec.size)).max(0.0);
        let Some((t1, q1, s1)) = self.prev.replace((t, q, f64::from(rec.size))) else { return };
        let (dt, q2) = (t - t1, q);
        // Gate: both probes must show a clearly non-empty queue.
        let min_q = f64::from(ibox_sim::DEFAULT_PACKET_SIZE);
        if dt <= 0.0 || q1 < min_q || q2 < min_q {
            return;
        }
        // Own arrivals in (t1, t2]: in this probe pair the only known own
        // enqueue is packet 1 itself (the sender packets between two
        // consecutive *delivered* packets were lost, i.e. dropped at the
        // full buffer — they never occupied it).
        let ct = q2 - q1 - s1 + self.rate_bytes * dt;
        if ct <= 0.0 {
            return;
        }
        // Attribute to the bin of the interval start (intervals are much
        // shorter than bins in any queue-building regime). Past the cap,
        // traffic lands in the last bin.
        let idx = (((t1 - t0) / self.bin_secs) as usize).min(MAX_BINS);
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += ct;
    }

    /// Fold a chunk of records, in send order.
    pub fn fold_chunk(&mut self, records: &[PacketRecord]) {
        for rec in records {
            self.fold(rec);
        }
    }

    /// Total bytes accumulated so far (smoothing is byte-preserving, so
    /// this is the finished total too).
    pub fn total_bytes(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Finish the fold over records spanning `span_secs`: pad the bins to
    /// the span's count (plus the bin its end falls in), then smooth.
    ///
    /// Smoothing with a short moving average: the raw estimate is
    /// temporally concentrated in the windows where the gate held (queue
    /// provably non-empty); replaying it verbatim would inject the same
    /// bytes as unrealistic bursts. Smoothing preserves the byte total and
    /// the timing at the experiment's time scales (instance-test patterns
    /// are 10 s wide; bins are 100 ms).
    pub fn finish(mut self, span_secs: f64) -> CrossTrafficEstimate {
        let n = bin_count(span_secs, self.bin_secs).unwrap_or(MAX_BINS) + 1;
        // Every probe lies inside the span, so this only ever pads.
        self.bins.resize(n, 0.0);
        CrossTrafficEstimate { bin_secs: self.bin_secs, bins: moving_average(&self.bins, 5) }
    }
}

/// Byte-preserving centered moving average over `window` bins (edges use
/// the available neighborhood, so mass near the boundaries stays put).
/// Public for the estimator proptests' reference.
pub fn moving_average(bins: &[f64], window: usize) -> Vec<f64> {
    assert!(window >= 1, "window must be positive");
    if bins.is_empty() || window == 1 {
        return bins.to_vec();
    }
    let half = window / 2;
    let n = bins.len();
    let mut out = vec![0.0f64; n];
    // Distribute each bin's mass evenly over its neighborhood — this keeps
    // the total exactly.
    for (i, &b) in bins.iter().enumerate() {
        if b == 0.0 {
            continue;
        }
        let lo = i.saturating_sub(half);
        let hi = (i + half).min(n - 1);
        let share = b / (hi - lo + 1) as f64;
        for o in out.iter_mut().take(hi + 1).skip(lo) {
            *o += share;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox_cc::Cubic;
    use ibox_sim::{CrossTrafficCfg, PathConfig, PathEmulator, SimOutput};

    /// Run Cubic over a known path with the given cross traffic; return
    /// (trace-derived estimate, ground-truth output).
    fn run_and_estimate(cross: Option<CrossTrafficCfg>) -> (CrossTrafficEstimate, SimOutput) {
        let mut emu = PathEmulator::from_spec(
            ibox_sim::PathSpec::single(PathConfig::simple(8e6, SimTime::from_millis(30), 120_000)),
            SimTime::from_secs(20),
        );
        if let Some(c) = cross {
            emu = emu.with_cross_traffic(c);
        }
        let out = emu.run_sender(Box::new(Cubic::new()), "main", 3);
        let trace = out.trace("main").unwrap();
        let params = StaticParams::estimate(trace);
        let est = CrossTrafficEstimate::estimate(trace, &params, DEFAULT_BIN_SECS);
        (est, out)
    }

    #[test]
    fn no_cross_traffic_estimates_near_zero() {
        let (est, out) = run_and_estimate(None);
        let sent = out.flow_stats[0].sent as f64 * 1400.0;
        assert!(
            est.total_bytes() < 0.05 * sent,
            "estimate {} should be tiny vs own {}",
            est.total_bytes(),
            sent
        );
    }

    #[test]
    fn cbr_cross_traffic_is_detected_as_a_lower_bound() {
        // 2 Mbps CBR for 10 s in the middle of the run = 2.5 MB true.
        let cfg = CrossTrafficCfg::cbr(2e6, SimTime::from_secs(5), SimTime::from_secs(15));
        let (est, out) = run_and_estimate(Some(cfg));
        let truth = out.cross_bytes_between(SimTime::ZERO, SimTime::from_secs(20));
        let total = est.total_bytes();
        assert!(total > 0.3 * truth, "estimate {total} should capture a sizable share of {truth}");
        assert!(total < 1.4 * truth, "estimate {total} should not wildly exceed the truth {truth}");
    }

    #[test]
    fn estimate_localizes_cross_traffic_in_time() {
        let cfg = CrossTrafficCfg::cbr(2.5e6, SimTime::from_secs(8), SimTime::from_secs(14));
        let (est, _) = run_and_estimate(Some(cfg));
        let inside = est.bytes_between(8.0, 14.0);
        let outside = est.bytes_between(0.0, 7.0) + est.bytes_between(15.0, 20.0);
        assert!(
            inside > 2.0 * outside,
            "CT should concentrate in its window: inside {inside} vs outside {outside}"
        );
    }

    #[test]
    fn a_far_future_record_cannot_size_the_bin_vector() {
        // d = 0 and 1 s delays keep every probe's queue above the gate, so
        // the far-future probe pairs reach the bin-index clamp.
        let params =
            StaticParams { bandwidth_bps: 8e6, prop_delay: SimTime::ZERO, buffer_bytes: 3_000 };
        let mut cross = OnlineCrossTraffic::new(&params, DEFAULT_BIN_SECS);
        let far = 10_000_000_000_000_000_000u64;
        for (seq, send) in [(0, 0), (1, far), (2, far + far / 2)] {
            let rec = PacketRecord::delivered(seq, send, 1200, send + 1_000_000_000);
            cross.fold_chunk(&[rec]);
        }
        assert!(cross.bins.len() <= MAX_BINS + 1);
        assert!(cross.total_bytes() > 0.0);
        assert_eq!(cross.finish(1e12).bins.len(), MAX_BINS + 1);
    }

    #[test]
    fn zero_estimate_shape() {
        let z = CrossTrafficEstimate::zero(10.0, 0.5);
        assert_eq!(z.bins.len(), 20);
        assert_eq!(z.total_bytes(), 0.0);
        assert_eq!(z.rate_bps_at(3.0), 0.0);
    }

    #[test]
    fn rate_lookup_converts_units() {
        let est = CrossTrafficEstimate { bin_secs: 0.5, bins: vec![0.0, 62_500.0] };
        // 62.5 KB in a 0.5 s bin = 1 Mbps.
        assert_eq!(est.rate_bps_at(0.75), 1e6);
        assert_eq!(est.rate_bps_at(0.2), 0.0);
        assert_eq!(est.rate_bps_at(99.0), 0.0);
    }

    #[test]
    fn replay_config_is_valid() {
        let est = CrossTrafficEstimate { bin_secs: 0.1, bins: vec![5_000.0, 0.0, 2_000.0] };
        let cfg = est.to_replay(1200);
        cfg.validate();
        if let CrossTrafficCfg::Replay { bins, .. } = cfg {
            assert_eq!(bins.len(), 3);
            assert_eq!(bins[2].0, SimTime::from_millis(200));
        } else {
            panic!("expected replay config");
        }
    }
}

#[cfg(test)]
mod smoothing_tests {
    use super::moving_average;

    #[test]
    fn preserves_total_mass() {
        let bins = vec![0.0, 100.0, 0.0, 0.0, 50.0, 0.0];
        let out = moving_average(&bins, 5);
        assert!((out.iter().sum::<f64>() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn spreads_spikes() {
        let bins = vec![0.0, 0.0, 100.0, 0.0, 0.0];
        let out = moving_average(&bins, 3);
        assert!(out[2] < 100.0);
        assert!(out[1] > 0.0 && out[3] > 0.0);
    }

    #[test]
    fn window_one_is_identity() {
        let bins = vec![1.0, 2.0, 3.0];
        assert_eq!(moving_average(&bins, 1), bins);
    }

    #[test]
    fn empty_input() {
        assert!(moving_average(&[], 5).is_empty());
    }
}
