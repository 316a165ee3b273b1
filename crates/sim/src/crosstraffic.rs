//! Non-adaptive cross-traffic sources.
//!
//! Cross traffic is the `C` in iBoxNet's `(b, d, B, C)` model (Fig. 1):
//! background load sharing the bottleneck with the flow under test. Ground
//! truth uses CBR / on-off / Poisson sources (plus fully adaptive TCP cross
//! flows, which are ordinary [`crate::flow::FlowState`] flows); fitted
//! iBoxNet models *replay* an estimated cross-traffic byte series with
//! [`CrossTrafficCfg::Replay`] — non-adaptive by construction, as the paper
//! notes in §3 and discusses in §6 ("Learning adaptive cross traffic").

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::config::{ensure, must};
use crate::rng;
use crate::time::{tx_time, SimTime};

/// Default cross-traffic packet size (bytes).
pub const CT_PACKET_SIZE: u32 = 1200;

/// Configuration of one cross-traffic source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CrossTrafficCfg {
    /// Constant bit rate between `start` and `stop`.
    Cbr {
        /// Sending rate, bits per second.
        rate_bps: f64,
        /// Packet size in bytes.
        pkt_size: u32,
        /// First emission time.
        start: SimTime,
        /// No emissions at or after this time.
        stop: SimTime,
    },
    /// Bursty on/off source: CBR at `rate_bps` for `on`, silent for `off`,
    /// repeating, between `start` and `stop`.
    OnOff {
        /// Sending rate while on, bits per second.
        rate_bps: f64,
        /// Packet size in bytes.
        pkt_size: u32,
        /// On-phase duration.
        on: SimTime,
        /// Off-phase duration.
        off: SimTime,
        /// First emission time.
        start: SimTime,
        /// No emissions at or after this time.
        stop: SimTime,
    },
    /// Poisson packet arrivals at a mean byte rate between `start`/`stop`.
    Poisson {
        /// Mean rate, bits per second.
        mean_rate_bps: f64,
        /// Packet size in bytes.
        pkt_size: u32,
        /// First emission window start.
        start: SimTime,
        /// No emissions at or after this time.
        stop: SimTime,
    },
    /// Replay of an estimated cross-traffic series: `bins` of
    /// `(bin_start, bytes)` are emitted as uniformly-spaced packets inside
    /// each bin. This is how iBoxNet injects its learned `C`.
    Replay {
        /// `(bin start, bytes in bin)`, strictly increasing in time. The
        /// final bin's duration is taken as the gap to the previous bin (or
        /// 100 ms for a single bin).
        bins: Vec<(SimTime, f64)>,
        /// Packet size used to packetize the byte budget.
        pkt_size: u32,
    },
}

impl CrossTrafficCfg {
    /// A CBR source with the default packet size.
    pub fn cbr(rate_bps: f64, start: SimTime, stop: SimTime) -> Self {
        CrossTrafficCfg::Cbr { rate_bps, pkt_size: CT_PACKET_SIZE, start, stop }
    }

    /// Expected number of emissions up to `end` — a capacity hint so the
    /// engine can size per-source logs before the run (never a bound on
    /// how many packets are actually emitted).
    pub fn expected_packets(&self, end: SimTime) -> usize {
        /// Don't reserve more than this up front, however long the run.
        const CAP: f64 = (1u32 << 20) as f64;
        let window =
            |start: &SimTime, stop: &SimTime| (*stop).min(end).saturating_sub(*start).as_secs_f64();
        let n = match self {
            CrossTrafficCfg::Cbr { rate_bps, pkt_size, start, stop } => {
                rate_bps * window(start, stop) / (8.0 * f64::from(*pkt_size))
            }
            CrossTrafficCfg::OnOff { rate_bps, pkt_size, on, off, start, stop } => {
                let duty = on.as_secs_f64() / (on.as_secs_f64() + off.as_secs_f64());
                rate_bps * window(start, stop) * duty / (8.0 * f64::from(*pkt_size))
            }
            CrossTrafficCfg::Poisson { mean_rate_bps, pkt_size, start, stop } => {
                mean_rate_bps * window(start, stop) / (8.0 * f64::from(*pkt_size))
            }
            CrossTrafficCfg::Replay { bins, pkt_size } => bins
                .iter()
                .map(|(_, bytes)| (bytes / f64::from(*pkt_size)).ceil().max(1.0))
                .sum::<f64>(),
        };
        n.clamp(0.0, CAP) as usize
    }

    /// The source's invariants, as a sentence instead of a panic.
    pub fn check(&self) -> Result<(), String> {
        let rate_ok = |r: &f64| r.is_finite() && *r > 0.0;
        match self {
            CrossTrafficCfg::Cbr { rate_bps, pkt_size, start, stop } => {
                ensure(rate_ok(rate_bps), "CBR rate must be positive")?;
                ensure(*pkt_size > 0, "packet size must be positive")?;
                ensure(stop > start, "CBR must stop after start")
            }
            CrossTrafficCfg::OnOff { rate_bps, pkt_size, on, off, start, stop } => {
                ensure(rate_ok(rate_bps), "on-off rate must be positive")?;
                ensure(*pkt_size > 0, "packet size must be positive")?;
                ensure(on.as_nanos() > 0, "on phase must be positive")?;
                ensure(off.as_nanos() > 0, "off phase must be positive")?;
                ensure(stop > start, "on-off must stop after start")
            }
            CrossTrafficCfg::Poisson { mean_rate_bps, pkt_size, start, stop } => {
                ensure(rate_ok(mean_rate_bps), "Poisson rate must be positive")?;
                ensure(*pkt_size > 0, "packet size must be positive")?;
                ensure(stop > start, "Poisson must stop after start")
            }
            CrossTrafficCfg::Replay { bins, pkt_size } => {
                ensure(*pkt_size > 0, "packet size must be positive")?;
                ensure(
                    bins.windows(2).all(|w| w[0].0 < w[1].0),
                    "replay bins must be strictly increasing in time",
                )?;
                ensure(bins.iter().all(|(_, b)| b.is_finite() && *b >= 0.0), "negative byte budget")
            }
        }
    }

    /// [`CrossTrafficCfg::check`], panicking on configuration bugs.
    pub fn validate(&self) {
        must(self.check());
    }
}

/// Live state of a cross-traffic source inside the engine: a generator of
/// `(emission time, packet size)` pairs.
#[derive(Debug)]
pub struct CrossSource {
    cfg: CrossTrafficCfg,
    rng: StdRng,
    /// Precomputed (Replay) or rolling (others) next emission time.
    next_emit: Option<SimTime>,
    /// Replay: remaining packets as (time, size); reversed so `pop` yields
    /// the earliest.
    replay_schedule: Vec<(SimTime, u32)>,
    emitted: u64,
}

impl CrossSource {
    /// Instantiate a source from config with a component seed.
    pub fn new(cfg: CrossTrafficCfg, seed: u64) -> Self {
        cfg.validate();
        let mut rng = rng::seeded(seed);
        let mut replay_schedule = Vec::new();
        let next_emit = match &cfg {
            CrossTrafficCfg::Cbr { start, .. } | CrossTrafficCfg::OnOff { start, .. } => {
                Some(*start)
            }
            CrossTrafficCfg::Poisson { mean_rate_bps, pkt_size, start, .. } => {
                let mean_gap = f64::from(*pkt_size) * 8.0 / mean_rate_bps;
                Some(*start + SimTime::from_secs_f64(rng::exponential(&mut rng, mean_gap)))
            }
            CrossTrafficCfg::Replay { bins, pkt_size } => {
                replay_schedule = build_replay_schedule(bins, *pkt_size);
                replay_schedule.reverse(); // pop() yields earliest
                replay_schedule.last().map(|(t, _)| *t)
            }
        };
        Self { cfg, rng, next_emit, replay_schedule, emitted: 0 }
    }

    /// The time of this source's next emission, if any.
    pub fn next_emission(&self) -> Option<SimTime> {
        self.next_emit
    }

    /// Emit the packet due at `now` (callers pass the time returned by
    /// [`CrossSource::next_emission`]); returns its size, and internally
    /// advances to the next emission.
    pub fn emit(&mut self, now: SimTime) -> u32 {
        debug_assert_eq!(Some(now), self.next_emit, "emit at wrong time");
        self.emitted += 1;
        match &self.cfg {
            CrossTrafficCfg::Cbr { rate_bps, pkt_size, stop, .. } => {
                let gap = tx_time(*pkt_size, *rate_bps);
                let next = now + gap;
                self.next_emit = if next < *stop { Some(next) } else { None };
                *pkt_size
            }
            CrossTrafficCfg::OnOff { rate_bps, pkt_size, on, off, start, stop } => {
                let size = *pkt_size;
                let gap = tx_time(size, *rate_bps);
                let period = on.as_nanos() + off.as_nanos();
                let mut next = now + gap;
                // If the next emission falls in an off phase, jump to the
                // start of the following on phase.
                let phase = (next.saturating_sub(*start)).as_nanos() % period;
                if phase >= on.as_nanos() {
                    let into_period = (next.saturating_sub(*start)).as_nanos() / period;
                    next = *start + SimTime((into_period + 1) * period);
                }
                self.next_emit = if next < *stop { Some(next) } else { None };
                size
            }
            CrossTrafficCfg::Poisson { mean_rate_bps, pkt_size, stop, .. } => {
                let mean_gap = f64::from(*pkt_size) * 8.0 / mean_rate_bps;
                let next = now + SimTime::from_secs_f64(rng::exponential(&mut self.rng, mean_gap));
                self.next_emit = if next < *stop { Some(next) } else { None };
                *pkt_size
            }
            CrossTrafficCfg::Replay { .. } => {
                let (_, size) = self.replay_schedule.pop().expect("emit past end of replay");
                self.next_emit = self.replay_schedule.last().map(|(t, _)| *t);
                size
            }
        }
    }

    /// Packets emitted so far.
    pub fn emitted_count(&self) -> u64 {
        self.emitted
    }

    /// The source's configuration.
    pub fn cfg(&self) -> &CrossTrafficCfg {
        &self.cfg
    }
}

/// Packetize replay bins into uniformly spaced emissions.
fn build_replay_schedule(bins: &[(SimTime, f64)], pkt_size: u32) -> Vec<(SimTime, u32)> {
    let mut out = Vec::new();
    for (i, (start, bytes)) in bins.iter().enumerate() {
        if *bytes < 1.0 {
            continue;
        }
        let duration = if i + 1 < bins.len() {
            bins[i + 1].0 - *start
        } else if i > 0 {
            *start - bins[i - 1].0
        } else {
            SimTime::from_millis(100)
        };
        let n = (bytes / f64::from(pkt_size)).ceil().max(1.0) as u64;
        // Spread bytes evenly: n packets of bytes/n each (rounded; the last
        // packet absorbs the remainder so totals match).
        let per = (bytes / n as f64).round() as u32;
        let mut emitted = 0.0;
        for k in 0..n {
            let t = *start + SimTime((duration.as_nanos() * k) / n);
            let size =
                if k + 1 == n { (bytes - emitted).round().max(1.0) as u32 } else { per.max(1) };
            emitted += f64::from(size);
            out.push((t, size));
        }
    }
    out.sort_by_key(|(t, _)| *t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_emits_at_constant_rate() {
        // 1200 B at 9.6 Mbps = 1 ms gaps.
        let cfg = CrossTrafficCfg::cbr(9.6e6, SimTime::ZERO, SimTime::from_millis(10));
        let mut src = CrossSource::new(cfg, 0);
        let mut times = Vec::new();
        while let Some(t) = src.next_emission() {
            src.emit(t);
            times.push(t.as_millis_f64());
        }
        assert_eq!(times.len(), 10);
        for (i, t) in times.iter().enumerate() {
            assert!((t - i as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn onoff_is_silent_during_off_phase() {
        let cfg = CrossTrafficCfg::OnOff {
            rate_bps: 9.6e6,
            pkt_size: 1200,
            on: SimTime::from_millis(5),
            off: SimTime::from_millis(5),
            start: SimTime::ZERO,
            stop: SimTime::from_millis(30),
        };
        let mut src = CrossSource::new(cfg, 0);
        let mut times = Vec::new();
        while let Some(t) = src.next_emission() {
            src.emit(t);
            times.push(t.as_millis_f64());
        }
        for t in &times {
            let phase = t % 10.0;
            assert!(phase < 5.0 + 1e-9, "emission at {t} ms falls in off phase");
        }
        // Roughly half the always-on count.
        assert!((10..=18).contains(&times.len()), "count = {}", times.len());
    }

    #[test]
    fn poisson_mean_rate_is_calibrated() {
        let cfg = CrossTrafficCfg::Poisson {
            mean_rate_bps: 1e6,
            pkt_size: 1250,
            start: SimTime::ZERO,
            stop: SimTime::from_secs(100),
        };
        let mut src = CrossSource::new(cfg, 42);
        let mut bytes = 0u64;
        while let Some(t) = src.next_emission() {
            bytes += u64::from(src.emit(t));
        }
        let rate = bytes as f64 * 8.0 / 100.0;
        assert!((rate - 1e6).abs() < 0.1e6, "rate = {rate}");
    }

    #[test]
    fn replay_preserves_byte_budget() {
        let bins = vec![
            (SimTime::ZERO, 6000.0),
            (SimTime::from_millis(100), 0.0),
            (SimTime::from_millis(200), 2500.0),
        ];
        let cfg = CrossTrafficCfg::Replay { bins, pkt_size: 1200 };
        let mut src = CrossSource::new(cfg, 0);
        let mut bytes = 0u64;
        let mut times = Vec::new();
        while let Some(t) = src.next_emission() {
            bytes += u64::from(src.emit(t));
            times.push(t);
        }
        assert_eq!(bytes, 8500);
        // All emissions inside their bins.
        assert!(times
            .iter()
            .all(|t| *t < SimTime::from_millis(100) || *t >= SimTime::from_millis(200)));
        // Times nondecreasing.
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn replay_empty_bins_produce_nothing() {
        let cfg = CrossTrafficCfg::Replay {
            bins: vec![(SimTime::ZERO, 0.0), (SimTime::from_millis(100), 0.4)],
            pkt_size: 1200,
        };
        let src = CrossSource::new(cfg, 0);
        assert!(src.next_emission().is_none());
    }

    #[test]
    fn cbr_stops_at_stop_time() {
        let cfg = CrossTrafficCfg::cbr(9.6e6, SimTime::from_millis(5), SimTime::from_millis(8));
        let mut src = CrossSource::new(cfg, 0);
        let mut count = 0;
        while let Some(t) = src.next_emission() {
            assert!(t >= SimTime::from_millis(5) && t < SimTime::from_millis(8));
            src.emit(t);
            count += 1;
        }
        assert_eq!(count, 3);
        assert_eq!(src.emitted_count(), 3);
    }
}
