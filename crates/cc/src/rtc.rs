//! A real-time-conferencing (RTC) rate controller.
//!
//! §4.2 and §5.2 of the paper use traces from "a real-time conferencing
//! service" — an application whose sending rate is governed by a
//! delay-sensitive control loop (in real systems: GCC, transport-CC).
//! That loop is the *source* of the control-loop bias iBoxML must cope
//! with: the controller keeps delay low by keeping rate at the edge of
//! capacity, so naive sequence models learn "high rate ⇒ low delay".
//!
//! This controller is a compact delay-gradient AIMD in the GCC mold:
//! multiplicative decrease when estimated queueing delay crosses a
//! threshold, additive (slightly multiplicative) increase while the path
//! looks idle, hard backoff on loss. Rate-based, pacing only.

use ibox_sim::{AckEvent, CongestionControl, CongestionSignal, SimTime};

/// Configuration of the RTC controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtcConfig {
    /// Starting rate, bits per second.
    pub initial_rate_bps: f64,
    /// Floor rate (a call never sends less, e.g. audio).
    pub min_rate_bps: f64,
    /// Ceiling rate (max video quality).
    pub max_rate_bps: f64,
    /// Queueing delay above which the controller backs off.
    pub overuse_threshold: SimTime,
    /// Queueing delay below which the controller probes upward.
    pub underuse_threshold: SimTime,
    /// Multiplicative decrease factor on overuse.
    pub decrease_factor: f64,
    /// Multiplicative increase factor per RTT while underusing.
    pub increase_factor: f64,
}

impl Default for RtcConfig {
    fn default() -> Self {
        Self {
            initial_rate_bps: 1e6,
            min_rate_bps: 150e3,
            max_rate_bps: 20e6,
            overuse_threshold: SimTime::from_millis(25),
            underuse_threshold: SimTime::from_millis(10),
            decrease_factor: 0.85,
            increase_factor: 1.05,
        }
    }
}

/// The delay-gradient RTC rate controller.
#[derive(Debug, Clone)]
pub struct RtcController {
    cfg: RtcConfig,
    rate_bps: f64,
    min_rtt: Option<SimTime>,
    /// Rate decisions happen at most once per RTT.
    last_update: SimTime,
    /// Smoothed queueing-delay estimate.
    smoothed_qdelay: f64,
}

impl RtcController {
    /// A controller with explicit configuration.
    pub fn new(cfg: RtcConfig) -> Self {
        assert!(cfg.min_rate_bps > 0.0, "floor rate must be positive");
        assert!(cfg.max_rate_bps > cfg.min_rate_bps, "rate band inverted");
        assert!(cfg.overuse_threshold > cfg.underuse_threshold, "thresholds inverted");
        assert!((0.0..1.0).contains(&cfg.decrease_factor), "decrease factor out of range");
        assert!(cfg.increase_factor > 1.0, "increase factor must exceed 1");
        Self {
            rate_bps: cfg.initial_rate_bps.clamp(cfg.min_rate_bps, cfg.max_rate_bps),
            cfg,
            min_rtt: None,
            last_update: SimTime::ZERO,
            smoothed_qdelay: 0.0,
        }
    }

    /// A controller with the default (videoconference-like) parameters.
    pub fn default_config() -> Self {
        Self::new(RtcConfig::default())
    }

    /// The controller's current target rate, bits per second.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }
}

impl CongestionControl for RtcController {
    fn name(&self) -> &'static str {
        "rtc"
    }

    fn on_ack(&mut self, ack: &AckEvent) {
        let rtt = ack.rtt;
        let base = *self.min_rtt.insert(self.min_rtt.map_or(rtt, |m| m.min(rtt)));
        let qdelay = rtt.saturating_sub(base).as_secs_f64();
        self.smoothed_qdelay = 0.8 * self.smoothed_qdelay + 0.2 * qdelay;

        // Act at most once per RTT.
        if ack.now.saturating_sub(self.last_update) < rtt {
            return;
        }
        self.last_update = ack.now;

        let over = self.cfg.overuse_threshold.as_secs_f64();
        let under = self.cfg.underuse_threshold.as_secs_f64();
        if self.smoothed_qdelay > over {
            self.rate_bps *= self.cfg.decrease_factor;
        } else if self.smoothed_qdelay < under {
            self.rate_bps *= self.cfg.increase_factor;
        }
        // Between the thresholds: hold.
        self.rate_bps = self.rate_bps.clamp(self.cfg.min_rate_bps, self.cfg.max_rate_bps);
    }

    fn on_congestion(&mut self, _now: SimTime, _signal: CongestionSignal) {
        // Loss is a strong overuse signal for a conferencing flow.
        self.rate_bps = (self.rate_bps * 0.7).clamp(self.cfg.min_rate_bps, self.cfg.max_rate_bps);
    }

    fn cwnd(&self) -> f64 {
        // Safety cap: about 400 ms of data at the current rate — pacing is
        // the real regulator, the window only bounds how much can pile up
        // in a dead path.
        (self.rate_bps / 8.0 * 0.4 / 1200.0).max(4.0)
    }

    fn pacing_rate_bps(&self) -> Option<f64> {
        Some(self.rate_bps)
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
            acked_bytes: 1200,
            inflight: 0,
        }
    }

    #[test]
    fn probes_up_when_delay_is_low() {
        let mut cc = RtcController::default_config();
        let r0 = cc.rate_bps();
        for t in 1..5_000u64 {
            cc.on_ack(&ack(t, 40)); // constant RTT: zero queueing delay
        }
        assert!(cc.rate_bps() > 2.0 * r0, "rate = {}", cc.rate_bps());
    }

    #[test]
    fn backs_off_when_delay_builds() {
        let mut cc = RtcController::default_config();
        for t in 1..2_000u64 {
            cc.on_ack(&ack(t, 40));
        }
        let r = cc.rate_bps();
        // Queueing delay of 100 ms on top of the 40 ms base.
        for t in 2_000..4_000u64 {
            cc.on_ack(&ack(t, 140));
        }
        assert!(cc.rate_bps() < 0.5 * r, "rate {} -> {}", r, cc.rate_bps());
    }

    #[test]
    fn rate_respects_band() {
        let mut cc = RtcController::default_config();
        for t in 1..60_000u64 {
            cc.on_ack(&ack(t, 40));
        }
        assert!(cc.rate_bps() <= RtcConfig::default().max_rate_bps);
        for t in 60_000..120_000u64 {
            cc.on_ack(&ack(t, 500));
        }
        assert!(cc.rate_bps() >= RtcConfig::default().min_rate_bps);
    }

    #[test]
    fn loss_forces_backoff() {
        let mut cc = RtcController::default_config();
        for t in 1..3_000u64 {
            cc.on_ack(&ack(t, 40));
        }
        let r = cc.rate_bps();
        cc.on_congestion(SimTime::from_secs(3), CongestionSignal::Loss);
        assert!((cc.rate_bps() - r * 0.7).abs() < 1.0);
    }

    #[test]
    fn holds_between_thresholds() {
        let mut cc = RtcController::default_config();
        for t in 1..1_000u64 {
            cc.on_ack(&ack(t, 40));
        }
        // Drive the smoothed qdelay into the dead band (~25 ms over base).
        for t in 1_000..3_000u64 {
            cc.on_ack(&ack(t, 65));
        }
        let r = cc.rate_bps();
        for t in 3_000..4_000u64 {
            cc.on_ack(&ack(t, 65));
        }
        assert!((cc.rate_bps() - r).abs() / r < 0.02, "{} vs {}", r, cc.rate_bps());
    }

    #[test]
    #[should_panic(expected = "thresholds inverted")]
    fn invalid_config_rejected() {
        RtcController::new(RtcConfig {
            overuse_threshold: SimTime::from_millis(5),
            underuse_threshold: SimTime::from_millis(10),
            ..RtcConfig::default()
        });
    }
}
