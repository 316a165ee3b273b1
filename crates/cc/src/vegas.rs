//! TCP Vegas — the paper's "treatment" protocol B.
//!
//! Vegas is delay-based: it keeps the number of packets buffered in the
//! network between `alpha` and `beta` by comparing the actual RTT to the
//! propagation-only `baseRTT`. The paper picks it as the counterfactual
//! protocol precisely because "its delay sensitivity makes it quite
//! different from Cubic and hence challenging for iBoxNet" — a model fitted
//! on loss-driven Cubic traces must still predict a delay-driven sender.

use ibox_sim::{AckEvent, CongestionControl, CongestionSignal, SimTime};

/// Lower target on buffered packets (Brakmo & Peterson use 1–3; the common
/// Linux parameters are alpha=2, beta=4).
const ALPHA: f64 = 2.0;
/// Upper target on buffered packets.
const BETA: f64 = 4.0;
/// Initial window.
const INITIAL_CWND: f64 = 4.0;
/// Smallest window after any backoff.
const MIN_CWND: f64 = 2.0;
/// Largest window (a numerical guard for pathological feedback loops;
/// 10k packets ≈ 14 MB in flight, far beyond any path in the experiments).
const MAX_CWND: f64 = 10_000.0;

/// TCP Vegas congestion control (window in packets).
#[derive(Debug, Clone)]
pub struct Vegas {
    cwnd: f64,
    /// Slow start ends permanently once the Vegas brake or any congestion
    /// signal fires (unlike Reno, Vegas never re-enters slow start from
    /// congestion avoidance).
    slow_start: bool,
    /// Minimum RTT observed — the propagation estimate.
    base_rtt: Option<SimTime>,
    /// Minimum RTT observed during the current update epoch.
    epoch_min_rtt: Option<SimTime>,
    /// When the current once-per-RTT update epoch began.
    epoch_start: Option<SimTime>,
}

impl Vegas {
    /// A fresh Vegas sender.
    pub fn new() -> Self {
        Self {
            cwnd: INITIAL_CWND,
            slow_start: true,
            base_rtt: None,
            epoch_min_rtt: None,
            epoch_start: None,
        }
    }

    /// The sender's current propagation-delay estimate.
    pub fn base_rtt(&self) -> Option<SimTime> {
        self.base_rtt
    }

    /// Whether the sender is still in (Vegas's damped) slow start.
    pub fn in_slow_start(&self) -> bool {
        self.slow_start
    }
}

impl Default for Vegas {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Vegas {
    fn name(&self) -> &'static str {
        "vegas"
    }

    fn on_ack(&mut self, ack: &AckEvent) {
        // Track the global and per-epoch RTT minima.
        let rtt = ack.rtt;
        let base_rtt = *self.base_rtt.insert(self.base_rtt.map_or(rtt, |b| b.min(rtt)));
        let epoch_min_rtt =
            *self.epoch_min_rtt.insert(self.epoch_min_rtt.map_or(rtt, |m| m.min(rtt)));
        let epoch_start = *self.epoch_start.get_or_insert(ack.now);

        // Vegas acts once per RTT.
        let epoch_len = ack.now.saturating_sub(epoch_start);
        if epoch_len < rtt {
            return;
        }
        let base = base_rtt.as_secs_f64().max(1e-6);
        let observed = epoch_min_rtt.as_secs_f64().max(base);
        self.epoch_start = Some(ack.now);
        self.epoch_min_rtt = None;

        // diff = cwnd * (RTT − baseRTT) / RTT — packets sitting in queues.
        let diff = self.cwnd * (observed - base) / observed;

        if self.slow_start {
            // Slow start with the Vegas brake: exit once the queue builds,
            // shedding the overshoot.
            if diff > ALPHA {
                self.cwnd = (self.cwnd * 0.875).max(MIN_CWND);
                self.slow_start = false;
            } else {
                self.cwnd = (self.cwnd * 2.0).min(MAX_CWND);
            }
            return;
        }

        if diff < ALPHA {
            self.cwnd = (self.cwnd + 1.0).min(MAX_CWND);
        } else if diff > BETA {
            self.cwnd = (self.cwnd - 1.0).max(MIN_CWND);
        }
        // else: within [alpha, beta] — hold.
    }

    fn on_congestion(&mut self, _now: SimTime, signal: CongestionSignal) {
        self.slow_start = false;
        match signal {
            CongestionSignal::Loss => {
                self.cwnd = (self.cwnd * 0.75).max(MIN_CWND);
            }
            CongestionSignal::Timeout => {
                self.cwnd = MIN_CWND;
            }
        }
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, rtt_ms: u64) -> AckEvent {
        AckEvent {
            now: SimTime::from_millis(now_ms),
            seq: 0,
            rtt: SimTime::from_millis(rtt_ms),
            acked_bytes: 1400,
            inflight: 0,
        }
    }

    /// Drive one ack per ms with the given RTT for `ms` simulated ms.
    fn drive(cc: &mut Vegas, from_ms: u64, to_ms: u64, rtt_ms: u64) {
        for t in from_ms..to_ms {
            cc.on_ack(&ack(t, rtt_ms));
        }
    }

    #[test]
    fn base_rtt_tracks_minimum() {
        let mut cc = Vegas::new();
        cc.on_ack(&ack(1, 50));
        cc.on_ack(&ack(2, 30));
        cc.on_ack(&ack(3, 60));
        assert_eq!(cc.base_rtt(), Some(SimTime::from_millis(30)));
    }

    #[test]
    fn grows_when_queue_is_empty() {
        let mut cc = Vegas::new();
        // Constant RTT = baseRTT: diff = 0 < alpha -> growth.
        drive(&mut cc, 0, 2_000, 40);
        assert!(cc.cwnd() > 10.0, "cwnd = {}", cc.cwnd());
    }

    #[test]
    fn backs_off_when_delay_rises() {
        let mut cc = Vegas::new();
        drive(&mut cc, 0, 2_000, 40);
        let w = cc.cwnd();
        // RTT doubles: diff = cwnd/2 >> beta -> decrease once per RTT.
        drive(&mut cc, 2_000, 4_000, 80);
        assert!(cc.cwnd() < w, "cwnd {} -> {}", w, cc.cwnd());
    }

    #[test]
    fn holds_within_band() {
        // Construct diff within [alpha, beta]: cwnd * (rtt-base)/rtt ∈ band.
        let mut cc = Vegas::new();
        cc.on_ack(&ack(0, 40)); // establish baseRTT = 40 ms
        cc.on_congestion(SimTime::from_millis(1), CongestionSignal::Loss); // leave slow start
        drive(&mut cc, 2, 1_000, 40); // additive growth at zero queueing
        let w0 = cc.cwnd();
        assert!(w0 > 10.0);
        // Choose an RTT so diff ≈ 3 (inside the band): rtt such that
        // w0 * (rtt - 40)/rtt = 3 -> rtt = 40 w0 / (w0 - 3).
        let rtt = (40.0 * w0 / (w0 - 3.0)).round() as u64;
        drive(&mut cc, 1_000, 1_500, rtt);
        let w1 = cc.cwnd();
        drive(&mut cc, 1_500, 2_000, rtt);
        assert!((cc.cwnd() - w1).abs() <= 1.0, "window should hold: {w1} vs {}", cc.cwnd());
    }

    #[test]
    fn loss_backoff_is_gentler_than_reno() {
        let mut cc = Vegas::new();
        drive(&mut cc, 0, 1_000, 40);
        let w = cc.cwnd();
        cc.on_congestion(SimTime::from_secs(1), CongestionSignal::Loss);
        assert!((cc.cwnd() - w * 0.75).abs() < 1e-9);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut cc = Vegas::new();
        drive(&mut cc, 0, 1_000, 40);
        cc.on_congestion(SimTime::from_secs(1), CongestionSignal::Timeout);
        assert_eq!(cc.cwnd(), MIN_CWND);
    }

    #[test]
    fn slow_start_exits_on_queueing() {
        let mut cc = Vegas::new();
        assert!(cc.in_slow_start());
        // Strongly inflated RTTs right away: slow start must end quickly.
        drive(&mut cc, 0, 1_000, 200);
        // base becomes 200; then raise it further.
        drive(&mut cc, 1_000, 3_000, 400);
        assert!(!cc.in_slow_start());
    }
}
