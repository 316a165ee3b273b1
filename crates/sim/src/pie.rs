//! PIE active queue management (Pan et al., RFC 8033).
//!
//! Where CoDel judges each packet's *sojourn time* at dequeue, PIE keeps a
//! drop *probability* updated on a fixed interval from an estimated
//! queueing delay, and applies it to arrivals — enqueue-time random early
//! drop, dequeue untouched. The testbed offers it alongside CoDel so
//! composed paths can mix AQM families per stage and fitted models can be
//! probed against both control laws.
//!
//! The implementation follows the RFC's reference control law with the
//! departure-rate estimator: queueing delay ≈ backlog / measured drain
//! rate; `p += α·(qdelay − target) + β·(qdelay − qdelay_old)` every
//! `update_interval`, clamped to `[0, 1]`.

use crate::config::must;
use crate::queue::SchedulerKind;
use crate::time::SimTime;

/// Proportional gain on the delay error (RFC 8033 default, 1/s).
const ALPHA: f64 = 0.125;
/// Derivative gain on the delay trend (RFC 8033 default, 1/s).
const BETA: f64 = 1.25;
/// EWMA weight for the drain-rate estimator.
const RATE_EWMA: f64 = 0.1;

/// PIE controller state (the queue itself lives in
/// [`crate::queue::BottleneckQueue`]).
#[derive(Debug, Clone)]
pub struct Pie {
    /// Queueing-delay target.
    pub target: SimTime,
    /// Probability-update period.
    pub update_interval: SimTime,
    /// Current drop probability.
    p: f64,
    /// Queueing-delay estimate at the last update (seconds).
    qdelay_old_s: f64,
    /// Next scheduled probability update; armed on first use.
    next_update: Option<SimTime>,
    /// Bytes drained since the last update (feeds the rate estimator).
    drained_bytes: u64,
    /// EWMA of the drain rate in bytes/sec; 0 until the first sample.
    drain_rate: f64,
}

impl Pie {
    /// A controller with the given delay target and update period
    /// (classic values: 15 ms target, 16 ms update interval).
    pub fn new(target: SimTime, update_interval: SimTime) -> Self {
        must(SchedulerKind::Pie { target, update_interval }.check());
        Self {
            target,
            update_interval,
            p: 0.0,
            qdelay_old_s: 0.0,
            next_update: None,
            drained_bytes: 0,
            drain_rate: 0.0,
        }
    }

    /// Account a serviced packet toward the drain-rate estimate.
    pub fn on_dequeue(&mut self, bytes: u32) {
        self.drained_bytes += u64::from(bytes);
    }

    /// Run any due probability updates, then return the drop probability
    /// to apply to an arrival seeing `backlog_bytes` queued. The caller
    /// flips the coin (so all randomness stays on the queue's RNG stream).
    pub fn drop_probability(&mut self, now: SimTime, backlog_bytes: u64) -> f64 {
        let next = *self.next_update.get_or_insert(now + self.update_interval);
        if now >= next {
            let mut next = next;
            let interval_s = self.update_interval.as_secs_f64();
            loop {
                let rate_sample = self.drained_bytes as f64 / interval_s;
                self.drain_rate = if self.drain_rate == 0.0 {
                    rate_sample
                } else {
                    (1.0 - RATE_EWMA) * self.drain_rate + RATE_EWMA * rate_sample
                };
                self.drained_bytes = 0;
                // No drain observed yet: leave the delay estimate (and
                // p) alone — a natural allowance for startup bursts.
                let qdelay = if self.drain_rate > 0.0 {
                    backlog_bytes as f64 / self.drain_rate
                } else {
                    0.0
                };
                let target_s = self.target.as_secs_f64();
                // RFC 8033 applies the gains once per update tick.
                self.p += ALPHA * (qdelay - target_s) + BETA * (qdelay - self.qdelay_old_s);
                self.p = self.p.clamp(0.0, 1.0);
                // RFC 8033 §4.2: exponentially decay p while the queue
                // stays drained, so a past congestion episode doesn't
                // keep thinning a now-idle link.
                if qdelay == 0.0 && self.qdelay_old_s == 0.0 {
                    self.p *= 0.98;
                }
                self.qdelay_old_s = qdelay;
                next += self.update_interval;
                if next > now {
                    break;
                }
            }
            self.next_update = Some(next);
        }
        // Safeguards from the RFC: never drop out of an effectively idle
        // queue, and suppress early drops while delay is still well under
        // target and p is small (burst protection).
        if self.p <= 0.0
            || backlog_bytes <= 2 * u64::from(crate::config::DEFAULT_PACKET_SIZE)
            || (self.qdelay_old_s < self.target.as_secs_f64() / 2.0 && self.p < 0.2)
        {
            return 0.0;
        }
        self.p
    }

    /// The current drop probability (diagnostics/tests).
    pub fn probability(&self) -> f64 {
        self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pie() -> Pie {
        Pie::new(SimTime::from_millis(15), SimTime::from_millis(16))
    }

    #[test]
    fn idle_queue_never_drops() {
        let mut c = pie();
        for ms in (0..2_000).step_by(10) {
            assert_eq!(c.drop_probability(SimTime::from_millis(ms), 1400), 0.0);
        }
        assert_eq!(c.probability(), 0.0);
    }

    #[test]
    fn standing_queue_raises_probability() {
        let mut c = pie();
        // 5 Mbps drain (625 kB/s), 100 kB standing backlog = 160 ms of
        // delay, way over a 15 ms target.
        for ms in (0..3_000).step_by(2) {
            c.on_dequeue(1250); // 625 B/ms drained
            let _ = c.drop_probability(SimTime::from_millis(ms), 100_000);
        }
        assert!(c.probability() > 0.05, "p = {}", c.probability());
    }

    #[test]
    fn probability_decays_when_queue_drains() {
        let mut c = pie();
        for ms in (0..3_000).step_by(2) {
            c.on_dequeue(1250);
            let _ = c.drop_probability(SimTime::from_millis(ms), 100_000);
        }
        let congested = c.probability();
        for ms in (3_000..8_000).step_by(2) {
            c.on_dequeue(1250);
            let _ = c.drop_probability(SimTime::from_millis(ms), 0);
        }
        assert!(c.probability() < congested / 2.0, "p = {}", c.probability());
    }

    #[test]
    fn small_backlog_is_protected() {
        let mut c = pie();
        for ms in (0..3_000).step_by(2) {
            c.on_dequeue(1250);
            let _ = c.drop_probability(SimTime::from_millis(ms), 100_000);
        }
        assert!(c.probability() > 0.0);
        // Even with p > 0, arrivals into a near-empty queue pass.
        assert_eq!(c.drop_probability(SimTime::from_millis(3_000), 2 * 1400), 0.0);
    }

    #[test]
    #[should_panic(expected = "target must be positive")]
    fn invalid_parameters_rejected() {
        Pie::new(SimTime::ZERO, SimTime::from_millis(16));
    }
}
