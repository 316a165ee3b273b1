//! Simulation clock: integer nanoseconds.
//!
//! A discrete-event simulator lives or dies by clock determinism, so
//! [`SimTime`] is an integer-nanosecond newtype: no floating-point drift,
//! total ordering, and exact event-queue keys. Floating-point seconds exist
//! only at the boundaries (trace export, rate arithmetic).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point in simulated time, nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// t = 0.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future (used as an "infinite" timeout sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From floating-point seconds (clamped at zero, rounded to ns).
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            SimTime(0)
        } else {
            SimTime((secs * 1e9).round() as u64)
        }
    }

    /// A run duration from user-supplied seconds: finite and at least one
    /// nanosecond, which is what the engines assert. The one wording every
    /// surface reports for a bad `--duration` / `duration_s`.
    pub fn positive_secs(secs: f64) -> Result<Self, String> {
        let t = Self::from_secs_f64(secs);
        if secs.is_finite() && t > SimTime::ZERO {
            Ok(t)
        } else {
            Err(format!("duration must be a positive number of seconds, got {secs}"))
        }
    }

    /// From whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// As floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As floating-point milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction (durations can't be negative).
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition (avoids overflow near [`SimTime::MAX`]).
    #[inline]
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Scale a duration by a non-negative factor.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimTime {
        debug_assert!(k >= 0.0, "negative time scaling");
        SimTime((self.0 as f64 * k).round() as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Time needed to serialize `bytes` at `rate_bps`, as a [`SimTime`]
/// duration. Panics on a non-positive rate (a configuration bug).
#[inline]
pub fn tx_time(bytes: u32, rate_bps: f64) -> SimTime {
    assert!(rate_bps > 0.0, "transmission rate must be positive");
    SimTime::from_secs_f64(bytes as f64 * 8.0 / rate_bps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1500));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(4);
        assert_eq!(a + b, SimTime::from_millis(14));
        assert_eq!(a - b, SimTime::from_millis(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.mul_f64(2.5), SimTime::from_millis(25));
    }

    #[test]
    fn conversions() {
        let t = SimTime::from_millis(1500);
        assert_eq!(t.as_secs_f64(), 1.5);
        assert_eq!(t.as_millis_f64(), 1500.0);
        assert_eq!(t.as_nanos(), 1_500_000_000);
    }

    #[test]
    fn tx_time_computes_serialization_delay() {
        // 1250 bytes at 10 Mbps = 1 ms.
        assert_eq!(tx_time(1250, 10e6), SimTime::from_millis(1));
        // 1500 bytes at 12 Mbps = 1 ms.
        assert_eq!(tx_time(1500, 12e6), SimTime::from_millis(1));
    }

    #[test]
    fn negative_seconds_clamp() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
    }
}
