//! Flow-level (fluid) fast path: replay a path at 10–100x packet-engine
//! throughput by advancing *rates* instead of *packets*.
//!
//! The packet engine ([`crate::engine::Simulation`]) pays one heap event
//! per packet — ~6M packets/s, which bounds a 30 s replay at tens of
//! milliseconds. Most of that work is redundant: over a chain of
//! constant-rate FIFO bottlenecks (iBoxNet's `(b, d, B, C)` model and
//! any [`PathSpec`] composed of such stages), per-flow send rates and
//! every queue's occupancy evolve *piecewise linearly* between control
//! events. [`FluidSim`] exploits that:
//!
//! * Per-flow congestion state lives in a [`FluidLaw`] — a
//!   continuous-time mirror of the `ibox-cc` laws (`cwnd' = f(cwnd, rtt)`
//!   instead of per-ack updates).
//! * Each stage's queue is a scalar `q_k(t)`. A segment cascades the
//!   senders' aggregate rate down the chain — stage `k`'s inflow is
//!   stage `k-1`'s departure rate plus stage-`k` cross traffic, and a
//!   stage departs at capacity while backlogged — then advances every
//!   queue in closed form to the next breakpoint: a control tick, a
//!   cross-rate bin edge, a flow start/stop, a sample, or the analytic
//!   time at which any `q_k` hits `0` or its buffer limit `B_k`. A
//!   single bottleneck is this loop over one stage.
//! * Packet *records* (the `FlowTrace` every iBox model consumes) are
//!   reconstructed by phase accumulation: a flow sending at `r` B/s
//!   emits a record every `size/r` seconds, stamped with the per-stage
//!   sum of analytic delays `(q_k(t) + size)·8/C_k + d_k` plus the same
//!   seeded jitter/reorder/random-loss draws the packet engine would
//!   make.
//! * Saturation loss is deterministic: while a `q_k` is pinned at `B_k`
//!   with inflow `A > C_k`, each flow accumulates drop debt `(A − C_k)/A`
//!   per packet and loses a packet when the debt crosses 1.
//!
//! ## Hybrid mode
//!
//! Fluid dynamics are a good model of *uncongested* and *steadily
//! congested* paths but blur the fast transients around loss episodes
//! (burst drops, dup-ack recovery, RTO). With [`FluidSim::set_hybrid`],
//! the engine watches for congestion onsets (queue crossing ~85% of
//! `B`, or fluid loss-debt firing) and falls back to the real packet
//! engine for just that window: it spawns a nested
//! [`crate::engine::Simulation`] seeded with the current queue backlog
//! ([`Simulation::preload_queue`]), wraps each flow's [`FluidLaw`] in an
//! adapter that doubles as a live [`CongestionControl`], replays the
//! scheduled cross-traffic emissions for the window, then splices the
//! resulting packet records, congestion state, and closing queue depth
//! back into the fluid clock. Episodes are wired up for single-stage
//! paths only ([`PathSpec::fluid_unsupported_reason`] rejects hybrid
//! chains, which fall back to the packet engine upstream). One known
//! approximation: episode flows warm-start with an empty in-flight
//! window, so the first RTT of each episode re-fills the pipe slightly
//! faster than an uninterrupted packet run would.
//!
//! Determinism matches the packet engine: integer-ns breakpoints, all
//! randomness from [`rng::derive_seed`] streams of the run seed (the
//! same stream layout as [`crate::engine::Simulation`]), episode seeds
//! derived as `derive_seed(seed, 1000 + episode_index)`.

use std::sync::{Arc, Mutex};

use ibox_obs::Registry;
use ibox_trace::{FlowMeta, FlowTrace, PacketRecord};
use rand::rngs::StdRng;

use crate::cc::{AckEvent, CongestionControl, CongestionSignal};
use crate::config::{FlowConfig, PathSpec};
use crate::crosstraffic::{CrossSource, CrossTrafficCfg};
use crate::engine::Simulation;
use crate::output::{FlowStats, LinkSample, SimOutput};
use crate::rate::RateModelCfg;
use crate::rng;
use crate::time::SimTime;

/// Continuous-time congestion-control laws: each variant mirrors the
/// per-ack update rules of the identically-named `ibox-cc` controller,
/// re-expressed as rate equations so the window can be advanced across
/// an arbitrary interval `dt` in O(1).
///
/// The mapping is the standard fluid limit: a per-ack increment `δ`
/// happens `cwnd/rtt · dt` times in `dt`, so `cwnd' = δ · cwnd / rtt`
/// (e.g. Reno CA's `+1/cwnd` per ack becomes `cwnd' = 1/rtt`).
#[derive(Debug, Clone)]
pub enum FluidLaw {
    /// Mirror of `ibox-cc`'s Cubic: slow start, cubic window growth
    /// around `w_max` with the Reno-friendly `w_est` floor.
    Cubic {
        /// Congestion window, packets.
        cwnd: f64,
        /// Slow-start threshold, packets.
        ssthresh: f64,
        /// Window just before the last congestion event.
        w_max: f64,
        /// Seconds into the current cubic epoch (`None` = epoch not
        /// started; anchored lazily like the packet law).
        epoch_t: Option<f64>,
        /// Time-to-origin of the cubic curve for this epoch.
        k: f64,
        /// Reno-friendliness estimate.
        w_est: f64,
    },
    /// Mirror of `ibox-cc`'s Reno / NewReno: slow start then AIMD.
    Reno {
        /// Congestion window, packets.
        cwnd: f64,
        /// Slow-start threshold, packets.
        ssthresh: f64,
    },
    /// Mirror of `ibox-cc`'s Vegas: delay-based ±1/RTT around the
    /// `alpha..beta` backlog band.
    Vegas {
        /// Congestion window, packets.
        cwnd: f64,
        /// Still in the doubling phase (left permanently on congestion
        /// or on a too-large backlog estimate).
        slow_start: bool,
        /// Smallest RTT observed (the propagation-delay estimate).
        base_rtt: f64,
    },
    /// Mirror of `ibox-cc`'s BbrLite: windowed bandwidth/RTT probing
    /// with a pacing-gain cycle.
    Bbr {
        /// Bottleneck-bandwidth estimate, bits per second.
        bw_bps: f64,
        /// Minimum RTT observed, seconds.
        min_rtt: f64,
        /// Still in STARTUP (exponential probing)?
        startup: bool,
        /// Seconds the bandwidth estimate has been flat (startup-exit
        /// detector, standing in for the packet law's sample counter).
        flat_s: f64,
        /// Seconds since the last ProbeBW gain-cycle advance.
        cycle_s: f64,
        /// Current index into the ProbeBW gain cycle.
        cycle_idx: usize,
    },
    /// Mirror of `ibox-cc`'s RtcController: queuing-delay-tracking
    /// multiplicative rate adaptation.
    Rtc {
        /// Target send rate, bits per second.
        rate_bps: f64,
        /// Minimum RTT observed, seconds.
        min_rtt: f64,
        /// Smoothed queuing-delay estimate, seconds.
        qdelay: f64,
        /// Seconds since the rate was last adjusted.
        act_s: f64,
    },
    /// Mirror of [`crate::cc::FixedWindow`]: constant window, no
    /// reaction to anything.
    FixedWindow {
        /// Window, packets.
        window: f64,
    },
    /// Mirror of [`crate::cc::FixedRate`]: pure pacing, infinite window.
    FixedRate {
        /// Send rate, bits per second.
        rate_bps: f64,
    },
}

/// Cubic aggressiveness constant (matches `ibox-cc`).
const CUBIC_C: f64 = 0.4;
/// Cubic multiplicative-decrease factor (matches `ibox-cc`).
const CUBIC_BETA: f64 = 0.7;
/// BBR ProbeBW pacing-gain cycle (matches `ibox-cc`).
const BBR_GAIN_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

impl FluidLaw {
    /// Fluid law for a named `ibox-cc` protocol, with the same initial
    /// conditions as the packet-level controller. Returns `None` for
    /// names the fluid path cannot model.
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "cubic" => FluidLaw::Cubic {
                cwnd: 10.0,
                ssthresh: f64::INFINITY,
                w_max: 0.0,
                epoch_t: None,
                k: 0.0,
                w_est: 0.0,
            },
            "reno" => FluidLaw::Reno { cwnd: 10.0, ssthresh: f64::INFINITY },
            "vegas" => FluidLaw::Vegas { cwnd: 4.0, slow_start: true, base_rtt: f64::INFINITY },
            "bbr" => FluidLaw::Bbr {
                bw_bps: 1e6,
                min_rtt: 0.1,
                startup: true,
                flat_s: 0.0,
                cycle_s: 0.0,
                cycle_idx: 0,
            },
            "rtc" => {
                FluidLaw::Rtc { rate_bps: 1e6, min_rtt: f64::INFINITY, qdelay: 0.0, act_s: 0.0 }
            }
            _ => return None,
        })
    }

    /// Fluid law for a fixed window of `window` packets.
    pub fn fixed_window(window: f64) -> Self {
        FluidLaw::FixedWindow { window }
    }

    /// Fluid law for a paced constant bit rate.
    pub fn fixed_rate(rate_bps: f64) -> Self {
        FluidLaw::FixedRate { rate_bps }
    }

    /// The `ibox-cc` controller name this law mirrors (same strings as
    /// `CongestionControl::name`, so spliced traces are labelled
    /// identically to packet-mode traces).
    pub fn name(&self) -> &'static str {
        match self {
            FluidLaw::Cubic { .. } => "cubic",
            FluidLaw::Reno { .. } => "reno",
            FluidLaw::Vegas { .. } => "vegas",
            FluidLaw::Bbr { .. } => "bbr",
            FluidLaw::Rtc { .. } => "rtc",
            FluidLaw::FixedWindow { .. } => "fixed-window",
            FluidLaw::FixedRate { .. } => "cbr",
        }
    }

    /// Advance the law by `dt` seconds under round-trip time `rtt`
    /// (seconds) and an achieved delivery rate of `delivered_bps`.
    pub fn advance(&mut self, dt: f64, rtt: f64, delivered_bps: f64) {
        let rtt = rtt.max(1e-6);
        match self {
            FluidLaw::Cubic { cwnd, ssthresh, w_max, epoch_t, k, w_est } => {
                if *cwnd < *ssthresh {
                    // Slow start: +1 per ack = doubling per RTT.
                    *cwnd = (*cwnd * (dt / rtt).exp2()).min(*ssthresh);
                } else {
                    let t = match epoch_t {
                        Some(t) => {
                            *t += dt;
                            *t
                        }
                        None => {
                            *k = ((*w_max * (1.0 - CUBIC_BETA) / CUBIC_C).max(0.0)).cbrt();
                            *w_est = *cwnd;
                            *epoch_t = Some(dt);
                            dt
                        }
                    };
                    // Per ack: w_est += 3(1-β)/(1+β)/cwnd, over cwnd·dt/rtt acks.
                    *w_est += 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA) * dt / rtt;
                    let target = CUBIC_C * (t + rtt - *k).powi(3) + *w_max;
                    if *w_est > *cwnd && *w_est > target {
                        *cwnd = *w_est;
                    } else if target > *cwnd {
                        *cwnd += (target - *cwnd) * (dt / rtt).min(1.0);
                    } else {
                        *cwnd += 0.01 * dt / rtt;
                    }
                }
                *cwnd = cwnd.max(2.0);
            }
            FluidLaw::Reno { cwnd, ssthresh } => {
                if *cwnd < *ssthresh {
                    *cwnd = (*cwnd * (dt / rtt).exp2()).min(*ssthresh);
                } else {
                    *cwnd += dt / rtt;
                }
            }
            FluidLaw::Vegas { cwnd, slow_start, base_rtt } => {
                *base_rtt = base_rtt.min(rtt);
                // Estimated backlog in packets (the packet law's `diff`).
                let diff = *cwnd * (rtt - *base_rtt) / rtt;
                if *slow_start {
                    if diff > 2.0 {
                        *cwnd = (*cwnd * 0.875).max(2.0);
                        *slow_start = false;
                    } else {
                        *cwnd = (*cwnd * (dt / rtt).exp2()).min(10_000.0);
                    }
                } else if diff < 2.0 {
                    *cwnd += dt / rtt;
                } else if diff > 4.0 {
                    *cwnd = (*cwnd - dt / rtt).max(2.0);
                }
            }
            FluidLaw::Bbr { bw_bps, min_rtt, startup, flat_s, cycle_s, cycle_idx } => {
                *min_rtt = min_rtt.min(rtt);
                if delivered_bps > *bw_bps * 1.03 {
                    *bw_bps = delivered_bps;
                    *flat_s = 0.0;
                } else {
                    *bw_bps = bw_bps.max(delivered_bps);
                    *flat_s += dt;
                    // Startup exits once the bandwidth estimate stops
                    // growing for a few RTTs (the packet law's
                    // "three flat sample windows" check).
                    if *startup && *flat_s > 3.0 * *min_rtt {
                        *startup = false;
                    }
                }
                if !*startup {
                    *cycle_s += dt;
                    while *cycle_s >= *min_rtt {
                        *cycle_s -= *min_rtt;
                        *cycle_idx = (*cycle_idx + 1) % BBR_GAIN_CYCLE.len();
                    }
                }
            }
            FluidLaw::Rtc { rate_bps, min_rtt, qdelay, act_s } => {
                *min_rtt = min_rtt.min(rtt);
                // Per-ack EMA collapsed to one update per advance; ticks
                // run at sub-RTT cadence so the smoothing horizon is
                // comparable to the packet law's.
                *qdelay = 0.8 * *qdelay + 0.2 * (rtt - *min_rtt).max(0.0);
                *act_s += dt;
                if *act_s >= rtt {
                    *act_s = 0.0;
                    if *qdelay > 0.025 {
                        *rate_bps *= 0.85;
                    } else if *qdelay < 0.010 {
                        *rate_bps *= 1.05;
                    }
                    *rate_bps = rate_bps.clamp(150e3, 20e6);
                }
            }
            FluidLaw::FixedWindow { .. } | FluidLaw::FixedRate { .. } => {}
        }
    }

    /// React to a (fast-recoverable) loss signal.
    pub fn on_loss(&mut self) {
        match self {
            FluidLaw::Cubic { cwnd, ssthresh, w_max, epoch_t, .. } => {
                *w_max = *cwnd;
                *epoch_t = None;
                *cwnd = (*cwnd * CUBIC_BETA).max(2.0);
                *ssthresh = *cwnd;
            }
            FluidLaw::Reno { cwnd, ssthresh } => {
                *ssthresh = (*cwnd / 2.0).max(2.0);
                *cwnd = *ssthresh;
            }
            FluidLaw::Vegas { cwnd, slow_start, .. } => {
                *slow_start = false;
                *cwnd = (*cwnd * 0.75).max(2.0);
            }
            FluidLaw::Bbr { .. } => {} // BBR ignores individual losses.
            FluidLaw::Rtc { rate_bps, .. } => {
                *rate_bps = (*rate_bps * 0.7).clamp(150e3, 20e6);
            }
            FluidLaw::FixedWindow { .. } | FluidLaw::FixedRate { .. } => {}
        }
    }

    /// React to a retransmission timeout.
    pub fn on_timeout(&mut self) {
        match self {
            FluidLaw::Cubic { cwnd, ssthresh, w_max, epoch_t, .. } => {
                *w_max = *cwnd;
                *epoch_t = None;
                *ssthresh = (*cwnd * CUBIC_BETA).max(2.0);
                *cwnd = 2.0;
            }
            FluidLaw::Reno { cwnd, ssthresh } => {
                *ssthresh = (*cwnd / 2.0).max(2.0);
                *cwnd = 2.0;
            }
            FluidLaw::Vegas { cwnd, slow_start, .. } => {
                *slow_start = false;
                *cwnd = 2.0;
            }
            FluidLaw::Bbr { bw_bps, startup, flat_s, .. } => {
                *startup = true;
                *flat_s = 0.0;
                *bw_bps = (*bw_bps * 0.5).max(64e3);
            }
            FluidLaw::Rtc { rate_bps, .. } => {
                *rate_bps = (*rate_bps * 0.7).clamp(150e3, 20e6);
            }
            FluidLaw::FixedWindow { .. } | FluidLaw::FixedRate { .. } => {}
        }
    }

    /// Current congestion window in packets (`INFINITY` for purely
    /// rate-based laws), for a given packet size in bytes.
    pub fn window_packets(&self, pkt_bytes: u32) -> f64 {
        let pkt_bits = f64::from(pkt_bytes) * 8.0;
        match self {
            FluidLaw::Cubic { cwnd, .. }
            | FluidLaw::Reno { cwnd, .. }
            | FluidLaw::Vegas { cwnd, .. } => *cwnd,
            FluidLaw::Bbr { bw_bps, min_rtt, .. } => {
                (2.0 * bw_bps / 8.0 * *min_rtt / (pkt_bits / 8.0)).max(4.0)
            }
            FluidLaw::Rtc { rate_bps, .. } => (rate_bps / 8.0 * 0.4 / 1200.0).max(4.0),
            FluidLaw::FixedWindow { window } => *window,
            FluidLaw::FixedRate { .. } => f64::INFINITY,
        }
    }

    /// Current pacing-rate ceiling in bits per second, if the law paces.
    pub fn pacing_bps(&self) -> Option<f64> {
        match self {
            FluidLaw::Bbr { bw_bps, startup, cycle_idx, .. } => {
                let gain = if *startup { 2.885 } else { BBR_GAIN_CYCLE[*cycle_idx] };
                Some((gain * bw_bps).max(64e3))
            }
            FluidLaw::Rtc { rate_bps, .. } => Some(*rate_bps),
            FluidLaw::FixedRate { rate_bps } => Some(*rate_bps),
            _ => None,
        }
    }
}

/// Shared congestion state of one flow across a fluid↔packet splice:
/// the fluid law plus the smoothed-RTT/ack clock the adapter needs to
/// turn discrete acks back into `advance` intervals.
#[derive(Debug)]
struct EpisodeCc {
    law: FluidLaw,
    srtt: f64,
    /// Time of the last ack seen inside the episode (seconds).
    last_ack_s: Option<f64>,
    pkt_bytes: u32,
}

/// Adapter that lets a [`FluidLaw`] drive the packet engine during a
/// hybrid episode: per-ack events are folded back into the continuous
/// law so congestion state flows *through* the episode and out the
/// other side.
struct SplicedCc {
    shared: Arc<Mutex<EpisodeCc>>,
}

impl CongestionControl for SplicedCc {
    fn name(&self) -> &'static str {
        self.shared.lock().unwrap().law.name()
    }

    fn on_ack(&mut self, ack: &AckEvent) {
        let mut st = self.shared.lock().unwrap();
        let now = ack.now.as_secs_f64();
        let rtt = ack.rtt.as_secs_f64().max(1e-6);
        st.srtt = if st.last_ack_s.is_none() { rtt } else { 0.875 * st.srtt + 0.125 * rtt };
        let dt = match st.last_ack_s.replace(now) {
            Some(prev) if now > prev => now - prev,
            // First ack (or same-instant ack batch): advance by one
            // nominal ack interval so slow start still ramps.
            _ => rtt / st.law.window_packets(st.pkt_bytes).clamp(1.0, 1e4),
        };
        let delivered_bps = f64::from(ack.acked_bytes) * 8.0 / dt;
        let srtt = st.srtt;
        st.law.advance(dt, srtt, delivered_bps);
    }

    fn on_congestion(&mut self, _now: SimTime, signal: CongestionSignal) {
        let mut st = self.shared.lock().unwrap();
        match signal {
            CongestionSignal::Loss => st.law.on_loss(),
            CongestionSignal::Timeout => st.law.on_timeout(),
        }
    }

    fn cwnd(&self) -> f64 {
        let st = self.shared.lock().unwrap();
        st.law.window_packets(st.pkt_bytes)
    }

    fn pacing_rate_bps(&self) -> Option<f64> {
        let st = self.shared.lock().unwrap();
        // Ack-clock surrogate: a steady-state sender's arrival rate is
        // bounded by one cwnd per smoothed RTT. The episode warm-starts
        // with an empty in-flight window, so without this bound the
        // first RTT would dump the whole window into the preloaded
        // queue as one line-rate burst and fake a loss storm. One
        // packet of headroom per RTT mirrors a self-clocked sender's
        // probing rate — any larger constant factor sustains a
        // proportional overload for the whole episode and multiplies
        // the loss count far beyond the packet engine's.
        let w = st.law.window_packets(st.pkt_bytes);
        let clock = (w + 1.0) * f64::from(st.pkt_bytes) * 8.0 / st.srtt.max(1e-6);
        Some(match st.law.pacing_bps() {
            Some(p) => p.min(clock),
            None => clock,
        })
    }
}

/// Queue-occupancy fraction of the buffer at which hybrid mode hands a
/// window to the packet engine.
const EPISODE_ENTER_FRAC: f64 = 0.85;
/// Hybrid re-arm hysteresis: after an episode, the queue must drain
/// below this fraction before occupancy alone can trigger another one
/// (fresh loss onsets always can).
const EPISODE_REARM_FRAC: f64 = 0.75;
/// Episode length bounds, seconds.
const EPISODE_MIN_S: f64 = 0.05;
const EPISODE_MAX_S: f64 = 0.25;

/// Width (seconds) of the bins the cross-traffic schedule is averaged
/// into before it drives the queue ODE.
const CROSS_BIN_S: f64 = 0.05;

/// One sender inside the fluid engine.
struct FluidFlow {
    cfg: FlowConfig,
    law: FluidLaw,
    /// Smoothed RTT estimate (seconds), updated at control ticks.
    srtt: f64,
    /// Absolute time (seconds) of the next packet-record emission.
    next_send: f64,
    /// Next sequence number (continues across episode splices).
    next_seq: u64,
    records: Vec<PacketRecord>,
    /// Delivered-record count, tracked at emission so the finish pass
    /// doesn't rescan megabytes of records.
    delivered: u64,
    /// Fractional saturation-loss debt; a packet drops when it crosses 1.
    loss_debt: f64,
    /// Time of the last multiplicative backoff (at most one per RTT).
    last_backoff: f64,
    /// Saturation loss fired since the last control tick.
    pending_loss: bool,
}

impl FluidFlow {
    fn active(&self, t: f64) -> bool {
        t >= self.cfg.start.as_secs_f64() && t < self.cfg.stop.as_secs_f64()
    }

    /// Current send rate in bytes/second at round-trip time `rtt`.
    fn rate_bytes(&self, rtt: f64) -> f64 {
        let pkt_bits = f64::from(self.cfg.packet_size) * 8.0;
        let window_bps = self.law.window_packets(self.cfg.packet_size) * pkt_bits / rtt.max(1e-6);
        let bps = match self.law.pacing_bps() {
            Some(p) => p.min(window_bps),
            None => window_bps,
        };
        bps / 8.0
    }
}

/// One bottleneck of the chain: per-record constants hoisted out of the
/// spec, the scalar queue, and the plan of the segment in progress.
struct Stage {
    cap_bps: f64,
    cap_bytes: f64,
    buffer: f64,
    ns_per_byte: f64,
    prop_ns: f64,
    random_loss: f64,
    jitter_s: Option<f64>,
    /// `(probability, extra_min, extra_max)`, seconds.
    reorder: Option<(f64, f64, f64)>,
    /// Cross arrival rate (bytes/s) at this stage per [`CROSS_BIN_S`]
    /// bin; empty when no source feeds this stage.
    cross_bins: Vec<f64>,
    /// Queue depth (bytes) at the segment start.
    q: f64,
    /// Aggregate arrival rate (bytes/s) over the segment: upstream
    /// departures plus this stage's cross traffic.
    inflow: f64,
    /// Queue slope (bytes/s) over the segment.
    slope: f64,
    /// Pinned at the buffer limit with inflow above capacity.
    saturated: bool,
    was_saturated: bool,
    /// Share of the inflow lost to overflow while saturated.
    drop_frac: f64,
}

impl Stage {
    fn cross_rate_at(&self, t: f64) -> f64 {
        match self.cross_bins.len() {
            0 => 0.0,
            n => self.cross_bins[((t / CROSS_BIN_S) as usize).min(n - 1)],
        }
    }

    /// Deepest queue a delivered `size`-byte packet can find ahead of it:
    /// a packet only enters the queue if it fits.
    fn q_cap(&self, size: f64) -> f64 {
        (self.buffer - size).max(0.0)
    }
}

/// The flow-level simulator. Construct with [`FluidSim::new`], add
/// flows, then [`FluidSim::run`] — the same call shape as
/// [`crate::engine::Simulation`], producing the same [`SimOutput`]
/// schema.
///
/// Supports chains of constant-rate FIFO stages only (the iBoxNet path
/// family and its compositions); check
/// [`PathSpec::fluid_unsupported_reason`] before constructing to fall
/// back to the packet engine for richer ground-truth paths.
pub struct FluidSim {
    spec: PathSpec,
    end: SimTime,
    seed: u64,
    path_name: String,
    sample_every: Option<SimTime>,
    hybrid: bool,
    report_global: bool,
    flows: Vec<FluidFlow>,
    metrics: Registry,

    stages: Vec<Stage>,
    /// Every cross emission inside the run as `(secs, time, size,
    /// source)`, in `(time, source)` order.
    schedule: Vec<(f64, SimTime, u32, usize)>,
    cross_log: Vec<Vec<(f64, u32)>>,
    /// Propagation plus ack-path delay of the whole chain, seconds.
    prop_ack_s: f64,
    base_rtt: f64,
    tick_dt: f64,
    /// No stage has random loss, jitter or reordering: records are a
    /// pure function of the queue trajectory.
    plain: bool,
    rng_loss: StdRng,
    rng_reorder: StdRng,

    // Run state.
    t: f64,
    last_tick: f64,
    next_tick: f64,
    next_sample: f64,
    /// Hybrid: queue occupancy alone may trigger the next episode.
    armed: bool,
    /// Fraction of the senders' packets lost to overflow, chain-wide,
    /// over the segment in progress.
    drop_frac: f64,
    cross_drop_bytes: f64,
    samples: Vec<LinkSample>,
    tallies: Tallies,
}

impl FluidSim {
    /// Create a fluid simulation of `spec` for `duration`, seeded with
    /// `seed` (same stream layout as the packet engine, so jitter /
    /// reorder / random-loss draws are comparable, and cross sources are
    /// seeded `derive_seed(seed, 100 + i)` in stage order so both engines
    /// see identical emission schedules).
    ///
    /// Panics if [`PathSpec::fluid_unsupported_reason`] is `Some`.
    pub fn new(spec: impl Into<PathSpec>, duration: SimTime, seed: u64) -> Self {
        let spec = spec.into();
        spec.validate();
        assert!(duration.as_nanos() > 0, "simulation needs a positive duration");
        if let Some(reason) = spec.fluid_unsupported_reason(false) {
            panic!("fluid engine cannot model this spec: {reason}");
        }

        let stages: Vec<Stage> = spec
            .stages
            .iter()
            .map(|st| {
                let c = &st.config;
                let RateModelCfg::Constant { rate_bps } = c.rate else {
                    unreachable!("checked by fluid_unsupported_reason");
                };
                Stage {
                    cap_bps: rate_bps,
                    cap_bytes: rate_bps / 8.0,
                    buffer: c.buffer_bytes as f64,
                    ns_per_byte: 8e9 / rate_bps,
                    prop_ns: c.prop_delay.as_secs_f64() * 1e9,
                    random_loss: c.random_loss,
                    jitter_s: c.jitter.map(|j| j.as_secs_f64()),
                    reorder: c.reorder.as_ref().map(|r| {
                        (r.probability, r.extra_min.as_secs_f64(), r.extra_max.as_secs_f64())
                    }),
                    cross_bins: Vec::new(),
                    q: 0.0,
                    inflow: 0.0,
                    slope: 0.0,
                    saturated: false,
                    was_saturated: false,
                    drop_frac: 0.0,
                }
            })
            .collect();

        let prop_s: f64 = spec.stages.iter().map(|s| s.config.prop_delay.as_secs_f64()).sum();
        let ack_s: f64 = spec.stages.iter().map(|s| s.config.ack_delay.as_secs_f64()).sum();
        // Control-tick cadence: a fraction of the uncongested RTT of a
        // 1500-byte packet, bounded so both ultra-short and ultra-long
        // paths tick sanely.
        let base_rtt = prop_s + ack_s + stages.iter().map(|s| 12e3 / s.cap_bps).sum::<f64>();
        let tick_dt = (base_rtt / 2.0).clamp(5e-4, 1e-2);
        Self {
            end: duration,
            seed,
            path_name: "sim".to_string(),
            sample_every: None,
            hybrid: false,
            report_global: true,
            flows: Vec::new(),
            metrics: Registry::new(),
            plain: stages
                .iter()
                .all(|s| s.random_loss <= 0.0 && s.jitter_s.is_none() && s.reorder.is_none()),
            spec,
            stages,
            tallies: Tallies::default(),
            schedule: Vec::new(),
            cross_log: Vec::new(),
            prop_ack_s: prop_s + ack_s,
            base_rtt,
            tick_dt,
            // Same per-component rng stream layout as the packet engine.
            rng_loss: rng::seeded(rng::derive_seed(seed, 3)),
            rng_reorder: rng::seeded(rng::derive_seed(seed, 4)),
            t: 0.0,
            last_tick: 0.0,
            next_tick: tick_dt,
            next_sample: 0.0,
            armed: true,
            drop_frac: 0.0,
            cross_drop_bytes: 0.0,
            samples: Vec::new(),
        }
    }

    /// Set the path name recorded in trace metadata.
    pub fn set_path_name(&mut self, name: impl Into<String>) {
        self.path_name = name.into();
    }

    /// Enable periodic ground-truth link sampling (total queued bytes
    /// across the chain, at the slowest stage's rate).
    pub fn set_sample_every(&mut self, every: Option<SimTime>) {
        self.sample_every = every;
    }

    /// Enable hybrid mode: congestion episodes are handed to the packet
    /// engine and spliced back (see module docs).
    ///
    /// Panics if [`PathSpec::fluid_unsupported_reason`] rejects hybrid
    /// episodes on this spec (multi-stage chains).
    pub fn set_hybrid(&mut self, on: bool) {
        if let Some(reason) = self.spec.fluid_unsupported_reason(on) {
            panic!("fluid engine cannot model this spec: {reason}");
        }
        self.hybrid = on;
    }

    /// Whether `run` folds this run's metrics into the process-wide
    /// registry (mirrors [`Simulation::set_report_global`]).
    pub fn set_report_global(&mut self, on: bool) {
        self.report_global = on;
    }

    /// Add a flow governed by `law`; returns its index.
    pub fn add_flow(&mut self, cfg: FlowConfig, law: FluidLaw) -> usize {
        assert!(cfg.packet_size > 0, "packet size must be positive");
        let start = cfg.start.as_secs_f64();
        self.flows.push(FluidFlow {
            cfg,
            law,
            srtt: 0.0,
            next_send: start,
            next_seq: 0,
            records: Vec::new(),
            delivered: 0,
            loss_debt: 0.0,
            last_backoff: f64::NEG_INFINITY,
            pending_loss: false,
        });
        self.flows.len() - 1
    }

    /// Round-trip time (seconds) of flow `i` at the current queue depths:
    /// propagation + ack path + own serialization and queue drain at
    /// every stage.
    fn flow_rtt(&self, i: usize) -> f64 {
        let pkt_bits = f64::from(self.flows[i].cfg.packet_size) * 8.0;
        let queued: f64 = self.stages.iter().map(|s| (s.q * 8.0 + pkt_bits) / s.cap_bps).sum();
        self.prop_ack_s + queued
    }

    /// Total queued bytes across the chain.
    fn queued_bytes(&self) -> f64 {
        self.stages.iter().map(|s| s.q).sum()
    }

    /// Enumerate every cross emission inside the run up front: the
    /// sources are non-adaptive, so the schedule is a pure function of
    /// (cfg, seed) and both engines compute the identical one.
    fn enumerate_cross(&mut self) {
        let mut src_stage: Vec<usize> = Vec::new();
        for (k, st) in self.spec.stages.iter().enumerate() {
            for cfg in &st.cross {
                let i = src_stage.len();
                src_stage.push(k);
                let mut src =
                    CrossSource::new(cfg.clone(), rng::derive_seed(self.seed, 100 + i as u64));
                while let Some(ts) = src.next_emission() {
                    if ts >= self.end {
                        break;
                    }
                    let size = src.emit(ts);
                    self.schedule.push((ts.as_secs_f64(), ts, size, i));
                }
            }
        }
        self.schedule.sort_by_key(|a| (a.1, a.3));
        self.tallies.cross = self.schedule.len() as u64;
        // The fluid model consumes cross traffic as a *rate*, not as
        // per-packet impulses: a piecewise-constant series (bytes/s per
        // bin) drives the queue ODE and the shared-loss accounting.
        // Impulses would force a segment breakpoint per cross packet and
        // — worse — hide the main flow's fair share of overflow drops,
        // letting window laws plateau against a full buffer. The exact
        // schedule is still the ground-truth emission log, and hybrid
        // episodes replay the packets inside their window verbatim.
        let n_bins = (self.end.as_secs_f64() / CROSS_BIN_S).ceil() as usize + 1;
        self.cross_log = vec![Vec::new(); src_stage.len()];
        for &k in &src_stage {
            self.stages[k].cross_bins.resize(n_bins, 0.0);
        }
        for &(secs, _, size, src) in &self.schedule {
            self.cross_log[src].push((secs, size));
            self.stages[src_stage[src]].cross_bins
                [((secs / CROSS_BIN_S) as usize).min(n_bins - 1)] += f64::from(size) / CROSS_BIN_S;
        }
    }

    /// Run the fluid simulation to completion.
    pub fn run(mut self) -> SimOutput {
        let _run_span = ibox_obs::span!("fluid-run");
        let wall = std::time::Instant::now();
        let end_s = self.end.as_secs_f64();
        self.enumerate_cross();

        // Pre-size the record buffers: a flow can emit at most the
        // bottleneck rate over its active span. Split evenly across flows
        // (a few doublings if one flow dominates is fine).
        let bneck_bytes = self.spec.bottleneck_rate_bps() / 8.0;
        let nflows = self.flows.len().max(1) as f64;
        for f in &mut self.flows {
            let span = (f.cfg.stop.as_secs_f64().min(end_s) - f.cfg.start.as_secs_f64()).max(0.0);
            let est = bneck_bytes * span / f64::from(f.cfg.packet_size) / nflows * 1.1;
            f.records.reserve((est as usize).min(1 << 21));
        }

        while self.t < end_s {
            if let Some(every) = self.sample_every {
                while self.next_sample <= self.t + 1e-12 && self.next_sample < end_s {
                    self.record_sample(self.next_sample, self.queued_bytes());
                    self.next_sample += every.as_secs_f64();
                }
            }
            if self.next_tick <= self.t + 1e-12 && self.tick() {
                continue; // an episode consumed the window
            }
            let seg_end = self.plan_segment();
            self.emit_segment(seg_end);
            for s in &mut self.stages {
                s.q = (s.q + s.slope * (seg_end - self.t)).clamp(0.0, s.buffer);
            }
            self.tallies.hwm = self.tallies.hwm.max(self.queued_bytes());
            self.t = seg_end;
        }

        if !self.schedule.is_empty() {
            let cross_pkt_bytes = self.schedule.iter().map(|e| f64::from(e.2)).sum::<f64>()
                / self.schedule.len() as f64;
            self.tallies.queue_drops += (self.cross_drop_bytes / cross_pkt_bytes).round() as u64;
        }
        self.finish(wall.elapsed().as_secs_f64())
    }

    /// Control tick: advance every active flow's law across the interval
    /// since the last tick, apply pending saturation backoffs, and — in
    /// hybrid mode — hand a congestion onset to the packet engine.
    /// Returns `true` when an episode ran and moved the clock.
    fn tick(&mut self) -> bool {
        let t = self.t;
        let dt = t - self.last_tick;
        self.last_tick = t;
        self.next_tick = t + self.tick_dt;
        self.tallies.ticks += 1;
        // A flow's achieved delivery rate is its send rate scaled by the
        // tightest backlogged stage's service share.
        self.cascade();
        let mut share = 1.0f64;
        for s in &self.stages {
            if s.q > 1.0 && s.inflow > s.cap_bytes {
                share = share.min(s.cap_bytes / s.inflow);
            }
        }
        let mut want_episode = false;
        for i in 0..self.flows.len() {
            if !self.flows[i].active(t) {
                continue;
            }
            let rtt = self.flow_rtt(i);
            let f = &mut self.flows[i];
            f.srtt = if f.srtt == 0.0 { rtt } else { 0.875 * f.srtt + 0.125 * rtt };
            let delivered = f.rate_bytes(rtt) * 8.0 * share;
            let srtt = f.srtt;
            f.law.advance(dt, srtt, delivered);
            if f.pending_loss {
                f.pending_loss = false;
                if self.hybrid {
                    // Let the packet engine decide the backoff: the
                    // episode delivers real Loss signals through the
                    // spliced controller.
                    want_episode = true;
                } else if t - f.last_backoff >= srtt {
                    f.law.on_loss();
                    f.last_backoff = t;
                }
            }
        }
        if self.hybrid
            && self.armed
            && self.stages.iter().any(|s| s.q >= EPISODE_ENTER_FRAC * s.buffer)
        {
            want_episode = true;
        }
        if !self.armed && self.stages.iter().all(|s| s.q < EPISODE_REARM_FRAC * s.buffer) {
            self.armed = true;
        }
        let left = self.end.as_secs_f64() - t;
        if !want_episode || left <= 2e-3 {
            return false;
        }
        let srtt_max =
            self.flows.iter().filter(|f| f.active(t)).map(|f| f.srtt).fold(self.base_rtt, f64::max);
        let chunk = (4.0 * srtt_max).clamp(EPISODE_MIN_S, EPISODE_MAX_S).min(left);
        self.run_episode(chunk);
        self.t += chunk;
        self.last_tick = self.t;
        self.next_tick = self.t + self.tick_dt;
        self.armed = false;
        for s in &mut self.stages {
            s.was_saturated = false;
        }
        true
    }

    /// Aggregate send rate (bytes/second) of all active flows at the
    /// current time and queue depths.
    fn total_rate_bytes(&self) -> f64 {
        (0..self.flows.len())
            .filter(|&i| self.flows[i].active(self.t))
            .map(|i| self.flows[i].rate_bytes(self.flow_rtt(i)))
            .sum()
    }

    /// Push the senders' aggregate rate down the chain at the current
    /// queue depths: each stage's inflow is the upstream departure rate
    /// plus its own cross traffic, it departs at capacity while
    /// backlogged or overloaded, and a stage pinned at its buffer limit
    /// sheds the excess.
    fn cascade(&mut self) {
        let mut inflow = self.total_rate_bytes();
        let mut pass = 1.0f64;
        self.drop_frac = 0.0;
        for s in &mut self.stages {
            inflow += s.cross_rate_at(self.t);
            let idle = s.q <= 1e-9 && inflow <= s.cap_bytes;
            s.inflow = inflow;
            s.saturated = s.q >= s.buffer - 1e-9 && inflow > s.cap_bytes;
            s.slope = if s.saturated || idle { 0.0 } else { inflow - s.cap_bytes };
            s.drop_frac = if s.saturated { (inflow - s.cap_bytes) / inflow } else { 0.0 };
            self.drop_frac += s.drop_frac * pass;
            pass *= 1.0 - s.drop_frac;
            if !idle {
                inflow = s.cap_bytes;
            }
        }
    }

    /// Plan the segment starting now: cascade the rates, then pick the
    /// next breakpoint — the earliest of the control tick, the next
    /// sample, a cross-rate bin edge, a flow start/stop, and any stage's
    /// queue emptying or filling.
    fn plan_segment(&mut self) -> f64 {
        let t = self.t;
        self.cascade();
        if self.stages.iter().any(|s| s.saturated && !s.was_saturated) {
            // The packet engine drops the first arrival that doesn't fit
            // the instant the buffer fills. Seed a whole packet of debt
            // at overflow onset so the fluid backoff fires then, not
            // after the fractional debt crawls up to 1.0 — without this
            // the window overshoots and the whole sawtooth rides a few
            // packets higher than the packet engine's.
            for f in &mut self.flows {
                if f.active(t) {
                    f.loss_debt = f.loss_debt.max(1.0);
                }
            }
        }
        let end_s = self.end.as_secs_f64();
        let mut seg_end = end_s.min(self.next_tick);
        if self.sample_every.is_some() && self.next_sample < end_s {
            seg_end = seg_end.min(self.next_sample);
        }
        if !self.schedule.is_empty() {
            // The cross rate is piecewise-constant per bin.
            seg_end = seg_end.min(((t / CROSS_BIN_S).floor() + 1.0) * CROSS_BIN_S);
        }
        for f in &self.flows {
            let (start, stop) = (f.cfg.start.as_secs_f64(), f.cfg.stop.as_secs_f64());
            if start > t {
                seg_end = seg_end.min(start);
            }
            if stop > t {
                seg_end = seg_end.min(stop);
            }
        }
        for s in &mut self.stages {
            s.was_saturated = s.saturated;
            if s.slope < 0.0 {
                seg_end = seg_end.min(t + s.q / -s.slope);
            } else if s.slope > 0.0 && s.q < s.buffer {
                seg_end = seg_end.min(t + (s.buffer - s.q) / s.slope);
            }
        }
        // Guard against zero-length segments from fp round-off.
        seg_end.max(t + 1e-9)
    }

    /// Emit every flow's packet records across `[t, seg_end)`: each
    /// record's delay is the per-stage sum of queue drain, serialization
    /// and propagation at its send time.
    fn emit_segment(&mut self, seg_end: f64) {
        let (t, plain, drop_frac) = (self.t, self.plain, self.drop_frac);
        self.tallies.segments += 1;
        let saturated = self.stages.iter().any(|s| s.saturated);
        for i in 0..self.flows.len() {
            if !self.flows[i].active(t) {
                continue;
            }
            let rtt = self.flow_rtt(i);
            let Self { flows, stages, rng_loss, rng_reorder, tallies, .. } = self;
            let f = &mut flows[i];
            let size = f.cfg.packet_size;
            let sizef = f64::from(size);
            let spacing = sizef / f.rate_bytes(rtt);
            let seg_stop = seg_end.min(f.cfg.stop.as_secs_f64());
            // Fast path for the overwhelmingly common segment: no
            // overflow, no random loss, no jitter, no reordering, and no
            // linear queue ever needs clamping — every record is a pure
            // affine function of its send time.
            let (dt_a, dt_b) = (f.next_send - t, seg_stop - t);
            if plain
                && !saturated
                && stages.iter().all(|s| {
                    let (q_a, q_b) = (s.q + s.slope * dt_a, s.q + s.slope * dt_b);
                    q_a.min(q_b) >= 0.0 && q_a.max(q_b) <= s.q_cap(sizef)
                })
            {
                let mut ts = f.next_send;
                let first_seq = f.next_seq;
                while ts < seg_stop {
                    let send_ns = (ts * 1e9).round() as u64;
                    let mut delay_ns = 0.0;
                    for s in stages.iter() {
                        delay_ns += (s.q + s.slope * (ts - t) + sizef) * s.ns_per_byte + s.prop_ns;
                    }
                    f.records.push(PacketRecord::delivered(
                        f.next_seq,
                        send_ns,
                        size,
                        send_ns + delay_ns.round() as u64,
                    ));
                    f.next_seq += 1;
                    ts += spacing;
                }
                f.delivered += f.next_seq - first_seq;
                f.next_send = ts;
                continue;
            }
            'packets: while f.next_send < seg_stop {
                let ts = f.next_send;
                f.next_send += spacing;
                let seq = f.next_seq;
                f.next_seq += 1;
                let send_ns = (ts * 1e9).round() as u64;
                if saturated {
                    f.loss_debt += drop_frac;
                    if f.loss_debt >= 1.0 {
                        f.loss_debt -= 1.0;
                        f.pending_loss = true;
                        tallies.queue_drops += 1;
                        f.records.push(PacketRecord::lost(seq, send_ns, size));
                        continue;
                    }
                }
                for s in stages.iter() {
                    if s.random_loss > 0.0 && rng::coin(rng_loss, s.random_loss) {
                        tallies.dropped_random += 1;
                        f.records.push(PacketRecord::lost(seq, send_ns, size));
                        continue 'packets;
                    }
                }
                let mut delay_ns = 0.0;
                for s in stages.iter() {
                    let q_cap = s.q_cap(sizef);
                    let q_at = if s.saturated {
                        q_cap
                    } else {
                        (s.q + s.slope * (ts - t)).clamp(0.0, q_cap)
                    };
                    delay_ns += (q_at + sizef) * s.ns_per_byte + s.prop_ns;
                    if let Some(j) = s.jitter_s {
                        delay_ns += rng::uniform(rng_reorder, 0.0, j) * 1e9;
                    }
                    if let Some((p, lo, hi)) = s.reorder {
                        if rng::coin(rng_reorder, p) {
                            delay_ns += rng::uniform(rng_reorder, lo, hi) * 1e9;
                            tallies.reordered += 1;
                        }
                    }
                }
                let recv_ns = send_ns + delay_ns.round() as u64;
                f.records.push(PacketRecord::delivered(seq, send_ns, size, recv_ns));
                f.delivered += 1;
            }
        }
        // Cross traffic loses its fair share of each overflow too;
        // tallied in (average-sized) packets at the end of the run.
        for s in self.stages.iter().filter(|s| s.saturated) {
            self.cross_drop_bytes += s.cross_rate_at(t) * (seg_end - t) * s.drop_frac;
        }
    }

    fn record_sample(&mut self, ts: f64, q: f64) {
        let queue_bytes = q.round().max(0.0) as u64;
        self.samples.push(LinkSample {
            t: SimTime::from_secs_f64(ts),
            queue_bytes,
            rate_bps: self.spec.bottleneck_rate_bps(),
        });
        self.metrics.histogram("sim.queue_depth_bytes").record(queue_bytes as f64);
    }

    /// Hand the window `[t, t + chunk_s)` of the (single-stage, see
    /// [`FluidSim::set_hybrid`]) path to the packet engine and splice the
    /// results back, leaving the closing queue depth in the stage.
    fn run_episode(&mut self, chunk_s: f64) {
        let (t0, q0) = (self.t, self.stages[0].q);
        let t_end = t0 + chunk_s;
        let dur = SimTime::from_secs_f64(chunk_s);
        let seed = rng::derive_seed(self.seed, 1000 + self.tallies.episodes);
        self.tallies.episodes += 1;
        // The stage config alone: cross traffic enters as a replay below.
        let mut sim = Simulation::new(self.spec.first().clone(), dur, seed);
        sim.set_path_name(self.path_name.clone());
        sim.set_report_global(false);
        sim.set_sample_every(Some(SimTime::from_millis(1)));
        sim.preload_queue(q0.round().max(0.0) as u64);

        // Flows that overlap the window, driven by their fluid laws.
        let mut handles: Vec<(usize, Arc<Mutex<EpisodeCc>>)> = Vec::new();
        for i in 0..self.flows.len() {
            let f = &self.flows[i];
            let start_rel = (f.cfg.start.as_secs_f64() - t0).max(0.0);
            let stop_rel = (f.cfg.stop.as_secs_f64() - t0).min(chunk_s);
            if stop_rel <= start_rel {
                continue;
            }
            let shared = Arc::new(Mutex::new(EpisodeCc {
                law: f.law.clone(),
                srtt: if f.srtt > 0.0 { f.srtt } else { self.flow_rtt(i) },
                last_ack_s: None,
                pkt_bytes: f.cfg.packet_size,
            }));
            let cfg = FlowConfig {
                label: f.cfg.label.clone(),
                start: SimTime::from_secs_f64(start_rel),
                stop: SimTime::from_secs_f64(stop_rel),
                packet_size: f.cfg.packet_size,
                record: true,
            };
            sim.add_flow(cfg, Box::new(SplicedCc { shared: shared.clone() }));
            handles.push((i, shared));
        }

        // Cross emissions inside the window become a one-packet-per-bin
        // replay source (build_replay_schedule emits exactly one packet
        // of `bytes` at each bin start when `bytes <= pkt_size`). They
        // are already in the run-wide emission log and tallies.
        let lo = self.schedule.partition_point(|e| e.0 < t0);
        let hi = self.schedule.partition_point(|e| e.0 < t_end);
        let t0_st = SimTime::from_secs_f64(t0);
        for s in 0..self.cross_log.len() {
            let mut bins: Vec<(SimTime, f64)> = Vec::new();
            let mut max_size = 0u32;
            for &(_, ts, size, src) in &self.schedule[lo..hi] {
                if src != s {
                    continue;
                }
                let rel = ts.saturating_sub(t0_st);
                max_size = max_size.max(size);
                match bins.last_mut() {
                    Some((last, bytes)) if *last == rel => *bytes += f64::from(size),
                    _ => bins.push((rel, f64::from(size))),
                }
            }
            if !bins.is_empty() {
                sim.add_cross_traffic(CrossTrafficCfg::Replay { bins, pkt_size: max_size });
            }
        }

        let out = sim.run();

        // Splice traces, congestion state, and counters back in.
        let t0_ns = t0_st.as_nanos();
        for (k, (i, shared)) in handles.iter().enumerate() {
            let f = &mut self.flows[*i];
            let recs = out.traces[k].records();
            let base = f.next_seq;
            for r in recs {
                f.records.push(match r.recv_ns {
                    Some(recv) => {
                        f.delivered += 1;
                        PacketRecord::delivered(
                            base + r.seq,
                            t0_ns + r.send_ns,
                            r.size,
                            t0_ns + recv,
                        )
                    }
                    None => PacketRecord::lost(base + r.seq, t0_ns + r.send_ns, r.size),
                });
            }
            f.next_seq += recs.len() as u64;
            let st = shared.lock().unwrap();
            f.law = st.law.clone();
            if st.last_ack_s.is_some() {
                f.srtt = st.srtt;
            }
            f.next_send = t_end;
            f.loss_debt = 0.0;
            f.pending_loss = false;
            f.last_backoff = t_end;
        }
        self.tallies.queue_drops += out.queue_drops;
        let c = |name: &str| out.metrics.counters.get(name).copied().unwrap_or(0);
        self.tallies.dropped_random += c("sim.packets_dropped_random");
        self.tallies.reordered += c("sim.packets_reordered");
        if let Some(hwm) = out.metrics.gauges.get("sim.queue_depth_hwm_bytes") {
            self.tallies.hwm = self.tallies.hwm.max(*hwm);
        }

        // Ground-truth samples the fluid clock owes for this window come
        // from the episode's own 1 ms sampling.
        if let Some(every) = self.sample_every {
            while self.next_sample < t_end && self.next_sample < self.end.as_secs_f64() {
                let rel = self.next_sample - t0;
                let qb = out
                    .link_samples
                    .iter()
                    .take_while(|s| s.t.as_secs_f64() <= rel + 1e-12)
                    .last()
                    .map_or(q0, |s| s.queue_bytes as f64);
                self.record_sample(self.next_sample, qb);
                self.next_sample += every.as_secs_f64();
            }
        }

        self.stages[0].q = out.link_samples.last().map_or(q0, |s| s.queue_bytes as f64);
        self.tallies.hwm = self.tallies.hwm.max(self.stages[0].q);
    }

    fn finish(self, elapsed_s: f64) -> SimOutput {
        // One pass per flow: count, then hand the record buffer to the
        // trace without copying (the buffers are megabytes at line rate).
        let mut traces = Vec::new();
        let mut flow_stats = Vec::new();
        let mut sent = 0u64;
        let mut delivered = 0u64;
        for f in self.flows {
            let fsent = f.records.len() as u64;
            let fdel = f.delivered;
            debug_assert_eq!(fdel, f.records.iter().filter(|r| r.recv_ns.is_some()).count() as u64);
            sent += fsent;
            delivered += fdel;
            flow_stats.push(FlowStats {
                label: f.cfg.label.clone(),
                cc_name: f.law.name().to_string(),
                sent: fsent,
                delivered: fdel,
                lost: fsent - fdel,
            });
            if f.cfg.record {
                let meta = FlowMeta::new(self.path_name.clone(), f.law.name(), f.cfg.label);
                traces.push(FlowTrace::from_records(meta, f.records));
            }
        }
        let tallies = self.tallies;
        self.metrics.counter("sim.packets_sent").add(sent);
        self.metrics.counter("sim.packets_delivered").add(delivered);
        self.metrics.counter("sim.packets_dropped_random").add(tallies.dropped_random);
        self.metrics.counter("sim.packets_dropped_aqm").add(0);
        self.metrics.counter("sim.packets_reordered").add(tallies.reordered);
        self.metrics.counter("sim.cross_packets_emitted").add(tallies.cross);
        self.metrics.counter("sim.packets_dropped_buffer").add(tallies.queue_drops);
        self.metrics.gauge("sim.queue_depth_hwm_bytes").record_max(tallies.hwm);
        self.metrics.counter("fluid.stages").add(self.stages.len() as u64);
        self.metrics.counter("fluid.segments").add(tallies.segments);
        self.metrics.counter("fluid.ticks").add(tallies.ticks);
        self.metrics.counter("fluid.episodes").add(tallies.episodes);
        self.metrics.gauge("fluid.wall_time_ms").set(elapsed_s * 1e3);
        self.metrics.gauge("fluid.packets_per_sec").set(sent as f64 / elapsed_s.max(1e-9));
        let metrics = self.metrics.snapshot();
        if self.report_global {
            ibox_obs::global().absorb(&metrics);
        }
        SimOutput {
            traces,
            flow_stats,
            cross_emissions: self.cross_log,
            link_samples: self.samples,
            queue_drops: tallies.queue_drops,
            metrics,
        }
    }
}

/// Single-run tallies, flushed into the metrics registry at the end.
#[derive(Default)]
struct Tallies {
    dropped_random: u64,
    reordered: u64,
    cross: u64,
    queue_drops: u64,
    hwm: f64,
    segments: u64,
    ticks: u64,
    episodes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PathConfig, PathStage};
    use ibox_trace::metrics::avg_rate_mbps;

    fn simple_path(rate_bps: f64, delay_ms: u64, buffer: u64) -> PathConfig {
        PathConfig::simple(rate_bps, SimTime::from_millis(delay_ms), buffer)
    }

    /// A 1-stage spec over `path` with one cross source at its queue.
    fn with_cross(path: PathConfig, cross: CrossTrafficCfg) -> PathSpec {
        let mut stage = PathStage::new(path);
        stage.cross.push(cross);
        PathSpec::from_stages(vec![stage])
    }

    #[test]
    fn fixed_window_flow_saturates_bottleneck() {
        // Mirror of the packet-engine test: a big fixed window over an
        // 8 Mbps link delivers ≈ 8 Mbps.
        let mut sim = FluidSim::new(simple_path(8e6, 20, 100_000), SimTime::from_secs(10), 1);
        sim.add_flow(
            FlowConfig::bulk("main", SimTime::from_secs(10)),
            FluidLaw::fixed_window(200.0),
        );
        let out = sim.run();
        let rate = avg_rate_mbps(out.trace("main").unwrap());
        assert!((rate - 8.0).abs() < 0.5, "rate = {rate} Mbps");
        assert!(out.queue_drops > 0, "200-packet window must overflow a 100 kB buffer");
    }

    #[test]
    fn paced_flow_below_capacity_sees_base_delay() {
        // 2 Mbps CBR over a 10 Mbps link: queue stays empty, one-way
        // delay ≈ prop + serialization.
        let mut sim = FluidSim::new(simple_path(10e6, 30, 100_000), SimTime::from_secs(5), 7);
        sim.add_flow(FlowConfig::bulk("cbr", SimTime::from_secs(5)), FluidLaw::fixed_rate(2e6));
        let out = sim.run();
        let t = out.trace("cbr").unwrap();
        assert_eq!(t.loss_rate(), 0.0);
        let min_ms = t.min_delay_ns().unwrap() as f64 / 1e6;
        // 1400 B at 10 Mbps = 1.12 ms serialization + 30 ms prop.
        assert!((min_ms - 31.12).abs() < 0.2, "min delay = {min_ms} ms");
        let rate = avg_rate_mbps(t);
        assert!((rate - 2.0).abs() < 0.1, "rate = {rate} Mbps");
    }

    #[test]
    fn run_is_deterministic() {
        let run = || {
            let spec = with_cross(
                simple_path(12e6, 15, 80_000),
                CrossTrafficCfg::cbr(2e6, SimTime::ZERO, SimTime::from_secs(6)),
            );
            let mut sim = FluidSim::new(spec, SimTime::from_secs(6), 42);
            sim.add_flow(
                FlowConfig::bulk("main", SimTime::from_secs(6)),
                FluidLaw::by_name("cubic").unwrap(),
            );
            sim.set_sample_every(Some(SimTime::from_millis(50)));
            sim.run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.traces, b.traces);
        assert_eq!(a.cross_emissions, b.cross_emissions);
        assert_eq!(a.link_samples, b.link_samples);
        assert_eq!(a.queue_drops, b.queue_drops);
    }

    #[test]
    fn stats_and_metrics_are_consistent() {
        let mut sim = FluidSim::new(simple_path(6e6, 25, 60_000), SimTime::from_secs(8), 3);
        sim.add_flow(
            FlowConfig::bulk("main", SimTime::from_secs(8)),
            FluidLaw::by_name("reno").unwrap(),
        );
        let out = sim.run();
        let fs = &out.flow_stats[0];
        assert_eq!(fs.sent, fs.delivered + fs.lost);
        assert_eq!(fs.cc_name, "reno");
        let c = |n: &str| out.metrics.counters.get(n).copied().unwrap_or(0);
        assert_eq!(c("sim.packets_sent"), fs.sent);
        assert_eq!(c("sim.packets_delivered"), fs.delivered);
        assert!(c("fluid.segments") > 0);
        assert!(c("fluid.ticks") > 0);
        // The fluid path must not report event-loop counters: its cost
        // model is segments, not events.
        assert_eq!(c("sim.events_processed"), 0);
    }

    #[test]
    fn cross_schedule_matches_packet_engine() {
        // Identical seeds and configs must yield the identical Poisson
        // cross-traffic emission log in both engines.
        let spec = with_cross(
            simple_path(10e6, 10, 200_000),
            CrossTrafficCfg::Poisson {
                mean_rate_bps: 1.5e6,
                pkt_size: 1200,
                start: SimTime::ZERO,
                stop: SimTime::from_secs(4),
            },
        );
        let mut fluid = FluidSim::new(spec.clone(), SimTime::from_secs(4), 11);
        fluid.add_flow(FlowConfig::bulk("f", SimTime::from_secs(4)), FluidLaw::fixed_rate(1e6));
        let mut pkt = Simulation::new(spec, SimTime::from_secs(4), 11);
        pkt.add_flow(
            FlowConfig::bulk("f", SimTime::from_secs(4)),
            Box::new(crate::cc::FixedRate::new(1e6)),
        );
        assert_eq!(fluid.run().cross_emissions, pkt.run().cross_emissions);
    }

    #[test]
    fn cubic_throughput_tracks_packet_engine() {
        // The fluid cubic law should land within ~15% of the packet
        // engine's delivered rate on an uncontended bottleneck.
        let mk_path = || simple_path(16e6, 20, 120_000);
        let mut fluid = FluidSim::new(mk_path(), SimTime::from_secs(12), 5);
        fluid.add_flow(
            FlowConfig::bulk("m", SimTime::from_secs(12)),
            FluidLaw::by_name("cubic").unwrap(),
        );
        let f_rate = avg_rate_mbps(fluid.run().trace("m").unwrap());
        let mut pkt = Simulation::new(mk_path(), SimTime::from_secs(12), 5);
        pkt.add_flow(FlowConfig::bulk("m", SimTime::from_secs(12)), ibox_cc_stub("cubic"));
        let p_rate = avg_rate_mbps(pkt.run().trace("m").unwrap());
        let err = (f_rate - p_rate).abs() / p_rate;
        assert!(err < 0.15, "fluid {f_rate} vs packet {p_rate} Mbps ({:.0}% off)", err * 100.0);
    }

    /// The sim crate cannot depend on ibox-cc (layering); approximate a
    /// cubic-ish packet sender with a large fixed window for the
    /// rate-agreement test — both engines then measure the same
    /// bottleneck-limited throughput.
    fn ibox_cc_stub(_name: &str) -> Box<dyn crate::cc::CongestionControl> {
        Box::new(crate::cc::FixedWindow::new(400.0))
    }

    #[test]
    fn hybrid_runs_episodes_under_saturation() {
        let mut sim = FluidSim::new(simple_path(8e6, 20, 50_000), SimTime::from_secs(6), 9);
        sim.set_hybrid(true);
        sim.add_flow(
            FlowConfig::bulk("main", SimTime::from_secs(6)),
            FluidLaw::fixed_window(300.0),
        );
        let out = sim.run();
        let c = |n: &str| out.metrics.counters.get(n).copied().unwrap_or(0);
        assert!(c("fluid.episodes") > 0, "saturating window must trigger episodes");
        let fs = &out.flow_stats[0];
        assert_eq!(fs.sent, fs.delivered + fs.lost);
        assert!(fs.delivered > 0);
        // Records stay sequential and time-ordered across splices.
        let t = out.trace("main").unwrap();
        let recs = t.records();
        assert!(recs.windows(2).all(|w| w[0].send_ns <= w[1].send_ns));
        assert!(recs.iter().enumerate().all(|(i, r)| r.seq == i as u64));
    }

    /// Samples of a hybrid run (some drawn from packet episodes, whose own
    /// registries stay local) reach the global registry once each.
    #[test]
    fn each_queue_sample_is_counted_once_globally() {
        let scope = ibox_obs::scoped();
        let mut sim = FluidSim::new(simple_path(8e6, 20, 50_000), SimTime::from_secs(4), 9);
        sim.set_hybrid(true);
        sim.set_sample_every(Some(SimTime::from_millis(10)));
        sim.add_flow(
            FlowConfig::bulk("main", SimTime::from_secs(4)),
            FluidLaw::fixed_window(300.0),
        );
        let out = sim.run();
        let global = scope.finish().snapshot();
        assert!(global.counters["fluid.episodes"] > 0);
        let samples = out.link_samples.len() as u64;
        assert!(samples > 0);
        assert_eq!(global.histograms["sim.queue_depth_bytes"].count, samples);
    }

    #[test]
    fn hybrid_is_deterministic() {
        let run = || {
            let spec = with_cross(
                simple_path(8e6, 20, 50_000),
                CrossTrafficCfg::cbr(1e6, SimTime::ZERO, SimTime::from_secs(5)),
            );
            let mut sim = FluidSim::new(spec, SimTime::from_secs(5), 17);
            sim.set_hybrid(true);
            sim.add_flow(
                FlowConfig::bulk("main", SimTime::from_secs(5)),
                FluidLaw::by_name("cubic").unwrap(),
            );
            sim.run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.traces, b.traces);
        assert_eq!(a.queue_drops, b.queue_drops);
        assert_eq!(a.metrics.counters, b.metrics.counters);
    }

    #[test]
    #[should_panic(expected = "cannot model")]
    fn non_constant_rate_rejected() {
        let mut p = simple_path(5e6, 10, 50_000);
        p.rate =
            RateModelCfg::Markov { states: vec![1e6, 5e6], mean_dwell: SimTime::from_millis(200) };
        FluidSim::new(p, SimTime::from_secs(1), 1);
    }

    #[test]
    #[should_panic(expected = "hybrid")]
    fn hybrid_chain_rejected() {
        FluidSim::new(two_stage(8e6), SimTime::from_secs(1), 1).set_hybrid(true);
    }

    fn two_stage(bneck_bps: f64) -> PathSpec {
        PathSpec::from_stages(vec![
            PathStage::new(PathConfig::simple(20e6, SimTime::from_millis(5), 150_000)),
            PathStage::new(PathConfig::simple(bneck_bps, SimTime::from_millis(15), 80_000)),
        ])
    }

    fn run_chain(spec: PathSpec, law: FluidLaw, secs: u64, seed: u64) -> SimOutput {
        let dur = SimTime::from_secs(secs);
        let mut sim = FluidSim::new(spec, dur, seed);
        sim.set_report_global(false);
        sim.add_flow(FlowConfig::bulk("m", dur), law);
        sim.run()
    }

    #[test]
    fn chain_saturates_the_slowest_stage() {
        let out = run_chain(two_stage(8e6), FluidLaw::by_name("cubic").unwrap(), 10, 1);
        let rate = avg_rate_mbps(out.trace("m").unwrap());
        assert!((rate - 8.0).abs() < 1.0, "rate = {rate} Mbps");
    }

    #[test]
    fn chain_min_delay_crosses_every_stage() {
        let out = run_chain(two_stage(8e6), FluidLaw::by_name("vegas").unwrap(), 5, 1);
        let min_ms = out.trace("m").unwrap().min_delay_ns().unwrap() as f64 / 1e6;
        // At least the 20 ms of summed propagation plus some serialization.
        assert!(min_ms > 20.0, "min delay = {min_ms} ms");
    }

    #[test]
    fn chain_is_deterministic_given_seed() {
        let mk = || {
            let mut spec = two_stage(6e6);
            spec.stages[0].config.jitter = Some(SimTime::from_micros(400));
            spec.stages[1].config.random_loss = 0.01;
            spec.stages[1].cross.push(CrossTrafficCfg::cbr(
                1e6,
                SimTime::from_secs(1),
                SimTime::from_secs(5),
            ));
            run_chain(spec, FluidLaw::by_name("cubic").unwrap(), 6, 42)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.traces, b.traces);
        assert_eq!(a.metrics.counters, b.metrics.counters);
    }

    #[test]
    fn chain_reports_segments_not_packet_engine_events() {
        let out = run_chain(two_stage(8e6), FluidLaw::by_name("cubic").unwrap(), 3, 1);
        let c = |n: &str| out.metrics.counters.get(n).copied().unwrap_or(0);
        assert_eq!(c("sim.events_processed"), 0);
        assert!(c("sim.packets_sent") > 0);
        assert!(c("fluid.segments") > 0);
        assert_eq!(c("fluid.stages"), 2);
    }

    #[test]
    fn chain_cross_traffic_inflates_delay_at_its_stage() {
        let base = run_chain(two_stage(6e6), FluidLaw::fixed_rate(3e6), 10, 5);
        let mut spec = two_stage(6e6);
        // 3 + 3.5 Mbps demand on the 6 Mbps second stage: standing queue.
        spec.stages[1].cross.push(CrossTrafficCfg::cbr(
            3.5e6,
            SimTime::ZERO,
            SimTime::from_secs(10),
        ));
        let loaded = run_chain(spec, FluidLaw::fixed_rate(3e6), 10, 5);
        let p95 = |o: &SimOutput| {
            ibox_trace::metrics::delay_percentile_ms(o.trace("m").unwrap(), 0.95).unwrap()
        };
        assert!(
            p95(&loaded) > p95(&base) + 5.0,
            "cross traffic should add queueing delay: {} -> {}",
            p95(&base),
            p95(&loaded)
        );
    }

    #[test]
    fn chain_overflow_drops_and_backs_off() {
        // CBR at 2x the bottleneck into a small buffer: sustained loss.
        let mut spec = two_stage(4e6);
        spec.stages[1].config.buffer_bytes = 20_000;
        let out = run_chain(spec, FluidLaw::fixed_rate(8e6), 10, 3);
        let loss = out.trace("m").unwrap().loss_rate();
        assert!(loss > 0.3, "loss = {loss}");
        assert!(out.queue_drops > 0);
    }

    #[test]
    #[should_panic(expected = "cannot model")]
    fn chain_non_fifo_stage_rejected() {
        let mut spec = two_stage(8e6);
        spec.stages[0].config.scheduler = crate::queue::SchedulerKind::Codel {
            target: SimTime::from_millis(5),
            interval: SimTime::from_millis(100),
        };
        FluidSim::new(spec, SimTime::from_secs(1), 1);
    }

    #[test]
    fn laws_back_off_and_recover() {
        for name in ["cubic", "reno", "vegas", "bbr", "rtc"] {
            let mut law = FluidLaw::by_name(name).unwrap();
            assert_eq!(law.name(), name);
            // Ramp for a while at a healthy RTT.
            for _ in 0..200 {
                law.advance(0.01, 0.05, 8e6);
            }
            let before = law.window_packets(1400).min(1e6);
            law.on_loss();
            let after = law.window_packets(1400).min(1e6);
            assert!(after <= before, "{name}: loss must not grow the window");
            law.on_timeout();
            assert!(law.window_packets(1400) >= 2.0 || law.pacing_bps().is_some());
        }
        assert!(FluidLaw::by_name("nope").is_none());
    }
}
