//! Bottleneck link-rate models.
//!
//! The ground-truth testbed needs links whose capacity varies over time
//! (cellular paths, token-bucket regulators); iBoxNet's fitted model only
//! ever uses a constant rate — exactly the simplification the paper calls
//! out (§3.2: "variable bandwidth … is not captured").
//!
//! Rate models are *lazily advanced*: the link asks for the current rate at
//! each serialization start via [`RateModel::rate_at`], and the model steps
//! its internal process forward to that time. A packet in mid-serialization
//! does not see rate changes — at iBox's packet sizes (≤1500 B) and
//! cellular dwell times (≥100 ms) the approximation is far below the noise
//! floor of the experiments.

use rand::rngs::StdRng;

use crate::config::{ensure, must};
use crate::rng;
use crate::time::SimTime;

/// Configuration of a link-rate model (serializable part of a path config).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum RateModelCfg {
    /// Constant capacity in bits per second.
    Constant {
        /// Link capacity, bits per second.
        rate_bps: f64,
    },
    /// Piecewise-constant capacity from a schedule of `(start_time, rate)`
    /// steps; the rate before the first step is the first step's rate.
    Trace {
        /// `(time, rate_bps)` steps, strictly increasing in time.
        steps: Vec<(SimTime, f64)>,
    },
    /// A Markov-modulated rate: the link dwells in a state for an
    /// exponentially-distributed time, then jumps to a uniformly-chosen
    /// different state. This is the cellular-link stand-in: rapid,
    /// large-amplitude capacity swings as seen on LTE paths.
    Markov {
        /// Capacity of each state, bits per second.
        states: Vec<f64>,
        /// Mean dwell time per state.
        mean_dwell: SimTime,
    },
    /// A token-bucket regulator over an (effectively) infinite line rate:
    /// tokens fill at `fill_bps`, burst capacity `bucket_bytes`. A packet
    /// departs once enough tokens accumulate.
    TokenBucket {
        /// Token fill rate, bits per second.
        fill_bps: f64,
        /// Bucket depth in bytes.
        bucket_bytes: u64,
    },
}

impl RateModelCfg {
    /// A plain constant-rate link.
    pub fn constant(rate_bps: f64) -> Self {
        RateModelCfg::Constant { rate_bps }
    }

    /// The model's invariants, as a sentence instead of a panic: every rate
    /// finite and positive, trace steps strictly increasing, a positive
    /// dwell time and bucket.
    pub fn check(&self) -> Result<(), String> {
        let rate_ok = |r: &f64| r.is_finite() && *r > 0.0;
        match self {
            RateModelCfg::Constant { rate_bps } => {
                ensure(rate_ok(rate_bps), "constant rate must be positive")
            }
            RateModelCfg::Trace { steps } => {
                ensure(!steps.is_empty(), "trace rate model needs steps")?;
                ensure(
                    steps.windows(2).all(|w| w[0].0 < w[1].0),
                    "trace steps must be strictly increasing in time",
                )?;
                ensure(steps.iter().all(|(_, r)| rate_ok(r)), "rates must be positive")
            }
            RateModelCfg::Markov { states, mean_dwell } => {
                ensure(!states.is_empty(), "markov rate model needs states")?;
                ensure(states.iter().all(rate_ok), "rates must be positive")?;
                ensure(mean_dwell.as_nanos() > 0, "dwell time must be positive")
            }
            RateModelCfg::TokenBucket { fill_bps, bucket_bytes } => {
                ensure(rate_ok(fill_bps), "fill rate must be positive")?;
                ensure(*bucket_bytes > 0, "bucket must be nonempty")
            }
        }
    }

    /// Long-run average rate of the model (used for sanity checks and for
    /// the statistical baseline's calibration).
    pub fn mean_rate_bps(&self) -> f64 {
        match self {
            RateModelCfg::Constant { rate_bps } => *rate_bps,
            RateModelCfg::Trace { steps } => {
                if steps.is_empty() {
                    0.0
                } else {
                    steps.iter().map(|(_, r)| r).sum::<f64>() / steps.len() as f64
                }
            }
            RateModelCfg::Markov { states, .. } => {
                if states.is_empty() {
                    0.0
                } else {
                    states.iter().sum::<f64>() / states.len() as f64
                }
            }
            RateModelCfg::TokenBucket { fill_bps, .. } => *fill_bps,
        }
    }
}

/// Live state of a rate model inside a running simulation.
///
/// Fields mirror [`RateModelCfg`] plus mutable process state; they are an
/// implementation detail of the engine and not part of the stable API.
#[derive(Debug)]
#[allow(missing_docs)]
pub enum RateModel {
    /// See [`RateModelCfg::Constant`].
    Constant { rate_bps: f64 },
    /// See [`RateModelCfg::Trace`].
    Trace { steps: Vec<(SimTime, f64)>, idx: usize },
    /// See [`RateModelCfg::Markov`].
    Markov {
        states: Vec<f64>,
        mean_dwell: SimTime,
        current: usize,
        next_jump: SimTime,
        rng: StdRng,
    },
    /// See [`RateModelCfg::TokenBucket`]. `tokens` is in bytes.
    TokenBucket { fill_bps: f64, bucket_bytes: u64, tokens: f64, last: SimTime },
}

impl RateModel {
    /// Instantiate a model from its config with a component seed. Panics
    /// on a config that fails [`RateModelCfg::check`].
    pub fn new(cfg: &RateModelCfg, seed: u64) -> Self {
        must(cfg.check());
        match cfg {
            RateModelCfg::Constant { rate_bps } => RateModel::Constant { rate_bps: *rate_bps },
            RateModelCfg::Trace { steps } => RateModel::Trace { steps: steps.clone(), idx: 0 },
            RateModelCfg::Markov { states, mean_dwell } => {
                let mut rng = rng::seeded(seed);
                let current = 0;
                let next_jump =
                    SimTime::from_secs_f64(rng::exponential(&mut rng, mean_dwell.as_secs_f64()));
                RateModel::Markov {
                    states: states.clone(),
                    mean_dwell: *mean_dwell,
                    current,
                    next_jump,
                    rng,
                }
            }
            RateModelCfg::TokenBucket { fill_bps, bucket_bytes } => RateModel::TokenBucket {
                fill_bps: *fill_bps,
                bucket_bytes: *bucket_bytes,
                tokens: *bucket_bytes as f64,
                last: SimTime::ZERO,
            },
        }
    }

    /// Current instantaneous rate at `now`, advancing internal state.
    ///
    /// For the token bucket this is the fill rate (the serialization logic
    /// uses [`RateModel::tx_finish`] instead, which accounts for burst
    /// credit).
    pub fn rate_at(&mut self, now: SimTime) -> f64 {
        match self {
            RateModel::Constant { rate_bps } => *rate_bps,
            RateModel::Trace { steps, idx } => {
                while *idx + 1 < steps.len() && steps[*idx + 1].0 <= now {
                    *idx += 1;
                }
                steps[*idx].1
            }
            RateModel::Markov { states, mean_dwell, current, next_jump, rng } => {
                while *next_jump <= now {
                    // Jump to a uniformly-chosen different state.
                    if states.len() > 1 {
                        let mut next = rng::uniform(rng, 0.0, (states.len() - 1) as f64) as usize;
                        if next >= *current {
                            next += 1;
                        }
                        *current = next.min(states.len() - 1);
                    }
                    let dwell =
                        SimTime::from_secs_f64(rng::exponential(rng, mean_dwell.as_secs_f64()))
                            .saturating_add(SimTime::from_nanos(1));
                    *next_jump = next_jump.saturating_add(dwell);
                }
                states[*current]
            }
            RateModel::TokenBucket { fill_bps, .. } => *fill_bps,
        }
    }

    /// When a packet of `bytes` starting service at `now` finishes
    /// transmission, consuming any model-internal resources (tokens).
    pub fn tx_finish(&mut self, now: SimTime, bytes: u32) -> SimTime {
        match self {
            RateModel::TokenBucket { fill_bps, bucket_bytes, tokens, last } => {
                // Refill.
                let dt = now.saturating_sub(*last).as_secs_f64();
                *tokens = (*tokens + dt * *fill_bps / 8.0).min(*bucket_bytes as f64);
                *last = now;
                let need = bytes as f64;
                if *tokens >= need {
                    // Burst: departs "immediately" (1 ns to keep event
                    // ordering strict).
                    *tokens -= need;
                    now + SimTime::from_nanos(1)
                } else {
                    let wait = (need - *tokens) * 8.0 / *fill_bps;
                    *tokens = 0.0;
                    let finish = now + SimTime::from_secs_f64(wait);
                    *last = finish;
                    finish
                }
            }
            _ => {
                let rate = self.rate_at(now);
                now + crate::time::tx_time(bytes, rate)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_serialization() {
        let mut m = RateModel::new(&RateModelCfg::constant(10e6), 0);
        assert_eq!(m.rate_at(SimTime::from_secs(5)), 10e6);
        let finish = m.tx_finish(SimTime::ZERO, 1250); // 1 ms at 10 Mbps
        assert_eq!(finish, SimTime::from_millis(1));
    }

    #[test]
    fn trace_rate_steps() {
        let cfg = RateModelCfg::Trace {
            steps: vec![
                (SimTime::ZERO, 1e6),
                (SimTime::from_secs(1), 2e6),
                (SimTime::from_secs(2), 4e6),
            ],
        };
        let mut m = RateModel::new(&cfg, 0);
        assert_eq!(m.rate_at(SimTime::from_millis(500)), 1e6);
        assert_eq!(m.rate_at(SimTime::from_millis(1500)), 2e6);
        assert_eq!(m.rate_at(SimTime::from_secs(10)), 4e6);
    }

    #[test]
    fn trace_rate_is_monotone_in_queries() {
        // Lazy advancement never rewinds: queries must be nondecreasing in
        // practice (the link only moves forward); a later query after an
        // earlier one still returns the correct later rate.
        let cfg =
            RateModelCfg::Trace { steps: vec![(SimTime::ZERO, 1e6), (SimTime::from_secs(1), 2e6)] };
        let mut m = RateModel::new(&cfg, 0);
        assert_eq!(m.rate_at(SimTime::ZERO), 1e6);
        assert_eq!(m.rate_at(SimTime::from_secs(3)), 2e6);
    }

    #[test]
    fn markov_visits_multiple_states() {
        let cfg = RateModelCfg::Markov {
            states: vec![1e6, 5e6, 20e6],
            mean_dwell: SimTime::from_millis(100),
        };
        let mut m = RateModel::new(&cfg, 42);
        let mut seen = std::collections::BTreeSet::new();
        for ms in (0..60_000).step_by(10) {
            let r = m.rate_at(SimTime::from_millis(ms));
            seen.insert(r as u64);
        }
        assert_eq!(seen.len(), 3, "all states should be visited over 60 s");
    }

    #[test]
    fn markov_is_deterministic_per_seed() {
        let cfg =
            RateModelCfg::Markov { states: vec![1e6, 2e6], mean_dwell: SimTime::from_millis(50) };
        let mut a = RateModel::new(&cfg, 9);
        let mut b = RateModel::new(&cfg, 9);
        for ms in (0..5_000).step_by(7) {
            let t = SimTime::from_millis(ms);
            assert_eq!(a.rate_at(t), b.rate_at(t));
        }
    }

    #[test]
    fn token_bucket_bursts_then_paces() {
        let cfg = RateModelCfg::TokenBucket { fill_bps: 8e6, bucket_bytes: 3000 };
        let mut m = RateModel::new(&cfg, 0);
        // First two 1500 B packets ride the burst.
        let f1 = m.tx_finish(SimTime::ZERO, 1500);
        assert!(f1 <= SimTime::from_nanos(1));
        let f2 = m.tx_finish(f1, 1500);
        assert!(f2 <= SimTime::from_nanos(2));
        // Third must wait for tokens: 1500 B at 1 MB/s = 1.5 ms.
        let f3 = m.tx_finish(f2, 1500);
        assert!((f3.as_millis_f64() - 1.5).abs() < 0.01, "third packet finish = {f3}");
    }

    #[test]
    fn token_bucket_refills_up_to_cap() {
        let cfg = RateModelCfg::TokenBucket { fill_bps: 8e6, bucket_bytes: 2000 };
        let mut m = RateModel::new(&cfg, 0);
        let _ = m.tx_finish(SimTime::ZERO, 2000); // drain
                                                  // After 10 ms, refill = 10 KB but capped at 2000 B.
        let f = m.tx_finish(SimTime::from_millis(10), 1500);
        assert!(f <= SimTime::from_millis(10) + SimTime::from_nanos(1));
    }

    #[test]
    fn mean_rates() {
        assert_eq!(RateModelCfg::constant(5e6).mean_rate_bps(), 5e6);
        let markov =
            RateModelCfg::Markov { states: vec![1e6, 3e6], mean_dwell: SimTime::from_millis(10) };
        assert_eq!(markov.mean_rate_bps(), 2e6);
    }
}
