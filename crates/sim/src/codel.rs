//! CoDel active queue management (Nichols & Jacobson, ACM Queue 2012).
//!
//! iBoxNet's model assumes a plain DropTail buffer; modern cellular and
//! home-router bottlenecks increasingly run AQM, which produces delay and
//! loss signatures a DropTail model cannot express. The testbed offers
//! CoDel as a ground-truth discipline so the reproduction can probe how
//! gracefully the fitted models degrade on AQM paths (the same role
//! token-bucket links play for variable bandwidth, §3.2).
//!
//! This is the reference control law: track each packet's *sojourn time*;
//! once it has exceeded `target` continuously for `interval`, enter the
//! dropping state and drop head packets at intervals shrinking with
//! `interval / sqrt(count)` until the sojourn falls below target.

use crate::config::must;
use crate::queue::SchedulerKind;
use crate::time::SimTime;

/// CoDel controller state (the queue itself lives in
/// [`crate::queue::BottleneckQueue`]).
#[derive(Debug, Clone)]
pub struct Codel {
    /// Sojourn-time target.
    pub target: SimTime,
    /// Sliding window over which the target must be exceeded.
    pub interval: SimTime,
    first_above_time: Option<SimTime>,
    drop_next: SimTime,
    count: u32,
    dropping: bool,
}

/// Verdict for the packet at the head of the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodelVerdict {
    /// Deliver the packet.
    Deliver,
    /// Drop it and ask again (the caller pops the next head).
    Drop,
}

impl Codel {
    /// A controller with the classic parameters (5 ms target, 100 ms
    /// interval) unless overridden.
    pub fn new(target: SimTime, interval: SimTime) -> Self {
        must(SchedulerKind::Codel { target, interval }.check());
        Self {
            target,
            interval,
            first_above_time: None,
            drop_next: SimTime::ZERO,
            count: 0,
            dropping: false,
        }
    }

    /// Judge the head packet given its sojourn time, the current time, and
    /// whether the queue is nearly empty (≤ one MTU backlogged — CoDel
    /// never drops the last packet).
    pub fn on_dequeue(
        &mut self,
        now: SimTime,
        sojourn: SimTime,
        nearly_empty: bool,
    ) -> CodelVerdict {
        let below = sojourn < self.target || nearly_empty;
        if below {
            self.first_above_time = None;
            if self.dropping {
                self.dropping = false;
            }
            return CodelVerdict::Deliver;
        }

        if self.dropping {
            if now >= self.drop_next {
                self.count += 1;
                self.drop_next += self.interval.mul_f64(1.0 / (self.count as f64).sqrt());
                return CodelVerdict::Drop;
            }
            return CodelVerdict::Deliver;
        }

        match self.first_above_time {
            None => {
                // Start the above-target clock.
                self.first_above_time = Some(now + self.interval);
                CodelVerdict::Deliver
            }
            Some(t) if now >= t => {
                // Sojourn has been above target for a full interval:
                // enter the dropping state.
                self.dropping = true;
                // Restart close to the previous drop rate if we were
                // dropping recently (standard CoDel heuristic).
                self.count = if self.count > 2 { self.count - 2 } else { 1 };
                self.drop_next = now + self.interval.mul_f64(1.0 / (self.count as f64).sqrt());
                CodelVerdict::Drop
            }
            Some(_) => CodelVerdict::Deliver,
        }
    }

    /// Whether the controller is currently in the dropping state.
    pub fn is_dropping(&self) -> bool {
        self.dropping
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codel() -> Codel {
        Codel::new(SimTime::from_millis(5), SimTime::from_millis(100))
    }

    #[test]
    fn short_sojourns_always_deliver() {
        let mut c = codel();
        for ms in 0..500 {
            let v = c.on_dequeue(SimTime::from_millis(ms), SimTime::from_millis(2), false);
            assert_eq!(v, CodelVerdict::Deliver);
        }
        assert!(!c.is_dropping());
    }

    #[test]
    fn nearly_empty_queue_is_never_dropped() {
        let mut c = codel();
        for ms in 0..500 {
            let v = c.on_dequeue(
                SimTime::from_millis(ms),
                SimTime::from_millis(50), // way above target
                true,                     // but queue nearly empty
            );
            assert_eq!(v, CodelVerdict::Deliver);
        }
    }

    #[test]
    fn sustained_high_sojourn_triggers_dropping_after_interval() {
        let mut c = codel();
        // t = 0: first above-target observation arms the clock.
        assert_eq!(
            c.on_dequeue(SimTime::ZERO, SimTime::from_millis(20), false),
            CodelVerdict::Deliver
        );
        // Still within the interval: deliver.
        assert_eq!(
            c.on_dequeue(SimTime::from_millis(50), SimTime::from_millis(20), false),
            CodelVerdict::Deliver
        );
        // Past the interval: first drop.
        assert_eq!(
            c.on_dequeue(SimTime::from_millis(101), SimTime::from_millis(20), false),
            CodelVerdict::Drop
        );
        assert!(c.is_dropping());
    }

    #[test]
    fn drop_rate_accelerates_with_count() {
        let mut c = codel();
        let _ = c.on_dequeue(SimTime::ZERO, SimTime::from_millis(20), false);
        let _ = c.on_dequeue(SimTime::from_millis(101), SimTime::from_millis(20), false);
        // Collect drop times over a congested second.
        let mut drops = Vec::new();
        for ms in 102..1_200u64 {
            if c.on_dequeue(SimTime::from_millis(ms), SimTime::from_millis(20), false)
                == CodelVerdict::Drop
            {
                drops.push(ms);
            }
        }
        assert!(drops.len() >= 3, "drops: {drops:?}");
        // Inter-drop gaps shrink (interval / sqrt(count)).
        let gaps: Vec<u64> = drops.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.windows(2).all(|w| w[1] <= w[0] + 1), "gaps must shrink: {gaps:?}");
    }

    #[test]
    fn recovery_exits_dropping_state() {
        let mut c = codel();
        let _ = c.on_dequeue(SimTime::ZERO, SimTime::from_millis(20), false);
        let _ = c.on_dequeue(SimTime::from_millis(101), SimTime::from_millis(20), false);
        assert!(c.is_dropping());
        // Sojourn falls below target: dropping ends immediately.
        assert_eq!(
            c.on_dequeue(SimTime::from_millis(150), SimTime::from_millis(1), false),
            CodelVerdict::Deliver
        );
        assert!(!c.is_dropping());
    }

    #[test]
    #[should_panic(expected = "interval must exceed target")]
    fn invalid_parameters_rejected() {
        Codel::new(SimTime::from_millis(100), SimTime::from_millis(5));
    }
}
