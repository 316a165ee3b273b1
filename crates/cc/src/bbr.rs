//! BBR-lite: a simplified model-based (bandwidth × RTT) pacing sender.
//!
//! Pantheon gathers BBR traces alongside Cubic and Vegas, so the testbed
//! supports a rate-based, model-driven sender too. This is a deliberately
//! compact BBR: windowed max bandwidth estimate, windowed min RTT, a
//! ProbeBW gain cycle, pacing at `gain × bw` and a 2×BDP inflight cap.
//! It captures BBR's qualitative behaviour (fills the pipe without filling
//! the buffer; periodic probing) without the full state machine.
//!
//! Both windowed filters are monotone deques, so an ack costs amortised
//! O(1) however many samples its 10 s windows hold (≈ 70 k at 80 Mbps).

use std::collections::VecDeque;

use ibox_sim::{AckEvent, CongestionControl, CongestionSignal, SimTime};

/// ProbeBW pacing-gain cycle (RFC-draft BBRv1 values).
const GAIN_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Bandwidth filter window.
const BW_WINDOW: SimTime = SimTime(10_000_000_000);
/// Min-RTT filter window.
const RTT_WINDOW: SimTime = SimTime(10_000_000_000);
/// Startup pacing gain (2/ln2).
const STARTUP_GAIN: f64 = 2.885;
/// Conservative floor on the pacing rate, bits per second.
const MIN_RATE: f64 = 64_000.0;

/// A simplified BBR sender.
#[derive(Debug, Clone)]
pub struct BbrLite {
    /// Windowed max bandwidth: `(time, bw_sample_bps)`, samples strictly
    /// decreasing from the front (the max) — a sample is dropped once a
    /// newer one at least as large arrives, since it can never be the max
    /// again before it expires.
    bw_max: VecDeque<(SimTime, f64)>,
    /// The times of every bandwidth sample still in the window: its length
    /// is the sample count the startup exit reads.
    bw_times: VecDeque<SimTime>,
    /// Windowed min RTT: `(time, rtt)`, strictly increasing from the front
    /// (the min).
    rtt_min: VecDeque<(SimTime, SimTime)>,
    /// Delivered-bytes accounting for bandwidth samples.
    last_ack_time: Option<SimTime>,
    bytes_since_last: u64,
    /// Startup vs ProbeBW.
    in_startup: bool,
    /// Index into the gain cycle and the time it last advanced.
    cycle_idx: usize,
    cycle_advanced: SimTime,
    /// Cached estimates.
    bw_est: f64,
    min_rtt: SimTime,
    packet_size: f64,
}

impl BbrLite {
    /// A fresh BBR-lite sender.
    pub fn new() -> Self {
        Self {
            bw_max: VecDeque::new(),
            bw_times: VecDeque::new(),
            rtt_min: VecDeque::new(),
            last_ack_time: None,
            bytes_since_last: 0,
            in_startup: true,
            cycle_idx: 0,
            cycle_advanced: SimTime::ZERO,
            bw_est: 1e6, // 1 Mbps prior until samples arrive
            min_rtt: SimTime::from_millis(100),
            packet_size: 1400.0,
        }
    }

    /// Current bottleneck-bandwidth estimate, bits per second.
    pub fn bandwidth_estimate_bps(&self) -> f64 {
        self.bw_est
    }

    /// Current min-RTT estimate.
    pub fn min_rtt_estimate(&self) -> SimTime {
        self.min_rtt
    }

    fn pacing_gain(&self) -> f64 {
        if self.in_startup {
            STARTUP_GAIN
        } else {
            GAIN_CYCLE[self.cycle_idx]
        }
    }
}

/// Drop the entries of a time-ordered window that are older than `window`
/// at `now`. Ack times never decrease, so the expired entries are a prefix.
fn expire<T>(q: &mut VecDeque<T>, now: SimTime, window: SimTime, time: impl Fn(&T) -> SimTime) {
    while q.front().is_some_and(|e| now.saturating_sub(time(e)) > window) {
        q.pop_front();
    }
}

impl Default for BbrLite {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for BbrLite {
    fn name(&self) -> &'static str {
        "bbr"
    }

    fn on_ack(&mut self, ack: &AckEvent) {
        self.packet_size = f64::from(ack.acked_bytes).max(1.0);
        // Bandwidth sample: delivered bytes over the inter-ack interval.
        self.bytes_since_last += u64::from(ack.acked_bytes);
        if let Some(last) = self.last_ack_time {
            let dt = ack.now.saturating_sub(last).as_secs_f64();
            if dt > 1e-6 {
                let sample = self.bytes_since_last as f64 * 8.0 / dt;
                while self.bw_max.back().is_some_and(|&(_, b)| b <= sample) {
                    self.bw_max.pop_back();
                }
                self.bw_max.push_back((ack.now, sample));
                self.bw_times.push_back(ack.now);
                self.bytes_since_last = 0;
                self.last_ack_time = Some(ack.now);
            }
        } else {
            // First ack: start the interval; its bytes belong to no
            // measured interval yet.
            self.last_ack_time = Some(ack.now);
            self.bytes_since_last = 0;
        }
        // Expire, then read the windowed max bandwidth off the front.
        expire(&mut self.bw_max, ack.now, BW_WINDOW, |&(t, _)| t);
        expire(&mut self.bw_times, ack.now, BW_WINDOW, |&t| t);
        let prev_bw = self.bw_est;
        if let Some(&(_, max)) = self.bw_max.front() {
            self.bw_est = max.max(MIN_RATE);
        }

        // Windowed min RTT.
        while self.rtt_min.back().is_some_and(|&(_, r)| r >= ack.rtt) {
            self.rtt_min.pop_back();
        }
        self.rtt_min.push_back((ack.now, ack.rtt));
        expire(&mut self.rtt_min, ack.now, RTT_WINDOW, |&(t, _)| t);
        self.min_rtt = self.rtt_min.front().map_or(SimTime::from_millis(100), |&(_, r)| r);

        // Exit startup once bandwidth stops growing (25% over a cycle).
        if self.in_startup && self.bw_times.len() > 10 && self.bw_est < prev_bw * 1.03 {
            self.in_startup = false;
            self.cycle_advanced = ack.now;
        }

        // Advance the ProbeBW gain cycle once per min RTT.
        if !self.in_startup && ack.now.saturating_sub(self.cycle_advanced) >= self.min_rtt {
            self.cycle_idx = (self.cycle_idx + 1) % GAIN_CYCLE.len();
            self.cycle_advanced = ack.now;
        }
    }

    fn on_congestion(&mut self, _now: SimTime, signal: CongestionSignal) {
        // BBR does not react to isolated losses; a timeout restarts the
        // model from a conservative state.
        if signal == CongestionSignal::Timeout {
            self.in_startup = true;
            self.bw_max.clear();
            self.bw_times.clear();
            self.bw_est = (self.bw_est * 0.5).max(MIN_RATE);
        }
    }

    fn cwnd(&self) -> f64 {
        // 2×BDP inflight cap, in packets.
        let bdp_bytes = self.bw_est / 8.0 * self.min_rtt.as_secs_f64();
        (2.0 * bdp_bytes / self.packet_size).max(4.0)
    }

    fn pacing_rate_bps(&self) -> Option<f64> {
        Some((self.pacing_gain() * self.bw_est).max(MIN_RATE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ack(now_ms: u64, rtt_ms: u64, bytes: u32) -> AckEvent {
        AckEvent {
            now: SimTime::from_millis(now_ms),
            seq: 0,
            rtt: SimTime::from_millis(rtt_ms),
            acked_bytes: bytes,
            inflight: 0,
        }
    }

    #[test]
    fn bandwidth_estimate_converges_to_ack_rate() {
        let mut cc = BbrLite::new();
        // 1400 B acks every 1 ms = 11.2 Mbps.
        for t in 1..2_000u64 {
            cc.on_ack(&ack(t, 40, 1400));
        }
        let bw = cc.bandwidth_estimate_bps();
        assert!((bw - 11.2e6).abs() < 1.5e6, "bw = {bw}");
    }

    #[test]
    fn min_rtt_tracks_window_minimum() {
        let mut cc = BbrLite::new();
        for t in 1..100u64 {
            cc.on_ack(&ack(t, if t == 50 { 20 } else { 60 }, 1400));
        }
        assert_eq!(cc.min_rtt_estimate(), SimTime::from_millis(20));
    }

    #[test]
    fn startup_eventually_exits() {
        let mut cc = BbrLite::new();
        for t in 1..3_000u64 {
            cc.on_ack(&ack(t, 40, 1400));
        }
        assert!(!cc.in_startup, "startup should exit at steady ack rate");
        // Steady-state pacing gain cycles around 1.0.
        let gain = cc.pacing_gain();
        assert!((0.7..=1.3).contains(&gain));
    }

    #[test]
    fn cwnd_is_two_bdp() {
        let mut cc = BbrLite::new();
        for t in 1..2_000u64 {
            cc.on_ack(&ack(t, 40, 1400));
        }
        // BDP = 11.2 Mbps * 40 ms = 56 KB = 40 packets; cap ≈ 80.
        let w = cc.cwnd();
        assert!((60.0..=100.0).contains(&w), "cwnd = {w}");
    }

    #[test]
    fn isolated_loss_is_ignored_timeout_is_not() {
        let mut cc = BbrLite::new();
        for t in 1..1_000u64 {
            cc.on_ack(&ack(t, 40, 1400));
        }
        let bw = cc.bandwidth_estimate_bps();
        cc.on_congestion(SimTime::from_secs(1), CongestionSignal::Loss);
        assert_eq!(cc.bandwidth_estimate_bps(), bw);
        cc.on_congestion(SimTime::from_secs(1), CongestionSignal::Timeout);
        assert!(cc.bandwidth_estimate_bps() < bw);
        assert!(cc.in_startup);
    }

    #[test]
    fn pacing_rate_has_floor() {
        let cc = BbrLite::new();
        assert!(cc.pacing_rate_bps().unwrap() >= MIN_RATE);
    }

    /// The filters as they were before the monotone deques: every sample
    /// kept, and both windows rescanned on every ack. The differential
    /// test's reference, and nothing else.
    struct ScanBbr {
        bw_samples: VecDeque<(SimTime, f64)>,
        rtt_samples: VecDeque<(SimTime, SimTime)>,
        last_ack_time: Option<SimTime>,
        bytes_since_last: u64,
        in_startup: bool,
        cycle_idx: usize,
        cycle_advanced: SimTime,
        bw_est: f64,
        min_rtt: SimTime,
        packet_size: f64,
    }

    impl ScanBbr {
        fn new() -> Self {
            Self {
                bw_samples: VecDeque::new(),
                rtt_samples: VecDeque::new(),
                last_ack_time: None,
                bytes_since_last: 0,
                in_startup: true,
                cycle_idx: 0,
                cycle_advanced: SimTime::ZERO,
                bw_est: 1e6,
                min_rtt: SimTime::from_millis(100),
                packet_size: 1400.0,
            }
        }

        fn on_ack(&mut self, ack: &AckEvent) {
            self.packet_size = f64::from(ack.acked_bytes).max(1.0);
            self.bytes_since_last += u64::from(ack.acked_bytes);
            if let Some(last) = self.last_ack_time {
                let dt = ack.now.saturating_sub(last).as_secs_f64();
                if dt > 1e-6 {
                    let sample = self.bytes_since_last as f64 * 8.0 / dt;
                    self.bw_samples.push_back((ack.now, sample));
                    self.bytes_since_last = 0;
                    self.last_ack_time = Some(ack.now);
                }
            } else {
                self.last_ack_time = Some(ack.now);
                self.bytes_since_last = 0;
            }
            while let Some(&(t, _)) = self.bw_samples.front() {
                if ack.now.saturating_sub(t) > BW_WINDOW {
                    self.bw_samples.pop_front();
                } else {
                    break;
                }
            }
            let prev_bw = self.bw_est;
            if let Some(max) = self
                .bw_samples
                .iter()
                .map(|(_, b)| *b)
                .fold(None::<f64>, |m, b| Some(m.map_or(b, |x| x.max(b))))
            {
                self.bw_est = max.max(MIN_RATE);
            }
            self.rtt_samples.push_back((ack.now, ack.rtt));
            while let Some(&(t, _)) = self.rtt_samples.front() {
                if ack.now.saturating_sub(t) > RTT_WINDOW {
                    self.rtt_samples.pop_front();
                } else {
                    break;
                }
            }
            self.min_rtt =
                self.rtt_samples.iter().map(|(_, r)| *r).min().unwrap_or(SimTime::from_millis(100));
            if self.in_startup && self.bw_samples.len() > 10 && self.bw_est < prev_bw * 1.03 {
                self.in_startup = false;
                self.cycle_advanced = ack.now;
            }
            if !self.in_startup && ack.now.saturating_sub(self.cycle_advanced) >= self.min_rtt {
                self.cycle_idx = (self.cycle_idx + 1) % GAIN_CYCLE.len();
                self.cycle_advanced = ack.now;
            }
        }

        fn on_timeout(&mut self) {
            self.in_startup = true;
            self.bw_samples.clear();
            self.bw_est = (self.bw_est * 0.5).max(MIN_RATE);
        }

        fn cwnd(&self) -> f64 {
            let bdp_bytes = self.bw_est / 8.0 * self.min_rtt.as_secs_f64();
            (2.0 * bdp_bytes / self.packet_size).max(4.0)
        }

        fn pacing_rate_bps(&self) -> f64 {
            let gain = if self.in_startup { STARTUP_GAIN } else { GAIN_CYCLE[self.cycle_idx] };
            (gain * self.bw_est).max(MIN_RATE)
        }
    }

    /// Gaps between events, ns: ties (0), intervals at and around the 1 µs
    /// sample floor, ack-clock spacings, and idle gaps at and past the 10 s
    /// windows, which empty both filters.
    const GAPS_NS: [u64; 12] = [
        0,
        500,
        1_000,
        1_001,
        12_000,
        1_000_000,
        7_000_000,
        50_000_000,
        400_000_000,
        10_000_000_000,
        10_000_000_001,
        11_000_000_000,
    ];
    /// A few RTTs and ack sizes, so that samples tie often.
    const RTTS_MS: [u64; 5] = [1, 20, 35, 40, 80];
    const BYTES: [u32; 4] = [0, 64, 1200, 1400];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The monotone filters and the rescanning reference agree bit for
        /// bit after every event of an ack stream that mixes tied samples,
        /// sub-microsecond acks, window-emptying idle gaps, losses and
        /// timeouts.
        #[test]
        fn monotone_filters_match_the_rescanning_reference(
            events in prop::collection::vec((0u32..100, 0usize..40, 0usize..5, 0usize..4), 1..1500),
        ) {
            let (mut fast, mut scan) = (BbrLite::new(), ScanBbr::new());
            let mut now = SimTime::ZERO;
            for (i, &(kind, gap, rtt, bytes)) in events.iter().enumerate() {
                // Most gaps are ack-clock spacings; the rest are drawn evenly.
                let gap = if gap < GAPS_NS.len() { GAPS_NS[gap] } else { GAPS_NS[4 + gap % 3] };
                now = SimTime(now.0 + gap);
                match kind {
                    0..=2 => {
                        fast.on_congestion(now, CongestionSignal::Timeout);
                        scan.on_timeout();
                    }
                    3..=5 => fast.on_congestion(now, CongestionSignal::Loss),
                    _ => {
                        let ack = AckEvent {
                            now,
                            seq: i as u64,
                            rtt: SimTime::from_millis(RTTS_MS[rtt]),
                            acked_bytes: BYTES[bytes],
                            inflight: 0,
                        };
                        fast.on_ack(&ack);
                        scan.on_ack(&ack);
                    }
                }
                prop_assert_eq!(fast.bw_est.to_bits(), scan.bw_est.to_bits(), "bw_est at {}", i);
                prop_assert_eq!(fast.min_rtt, scan.min_rtt, "min_rtt at {}", i);
                prop_assert_eq!(fast.in_startup, scan.in_startup, "in_startup at {}", i);
                prop_assert_eq!(fast.cycle_idx, scan.cycle_idx, "cycle_idx at {}", i);
                prop_assert_eq!(fast.bw_times.len(), scan.bw_samples.len(), "samples at {}", i);
                prop_assert_eq!(fast.cwnd().to_bits(), scan.cwnd().to_bits(), "cwnd at {}", i);
                let pacing = fast.pacing_rate_bps().map(f64::to_bits);
                prop_assert_eq!(pacing, Some(scan.pacing_rate_bps().to_bits()), "pacing at {}", i);
            }
        }
    }
}
