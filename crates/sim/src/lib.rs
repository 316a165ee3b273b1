//! # ibox-sim
//!
//! A deterministic discrete-event network simulator — the substrate under
//! the iBox reproduction.
//!
//! The paper (iBox, HotNets '20) needs two networks:
//!
//! 1. A **ground-truth network** to synthesize "real" traces (standing in
//!    for the Pantheon testbed): time-varying cellular bottlenecks,
//!    proportional-fair scheduling, cross traffic, reordering, random loss.
//! 2. The **iBoxNet execution model** (Fig. 1): a single constant-rate
//!    bottleneck `(b, d, B)` plus replayed cross traffic `C` — a NetEm-like
//!    path emulator.
//!
//! Both are the same engine with different [`PathConfig`]s, which is the
//! point: fitted models and reality are directly comparable, packet by
//! packet.
//!
//! ## Architecture
//!
//! ```text
//!  flows (CongestionControl) ──┐
//!                              ├─> BottleneckQueue ─> RateModel link ─> [reorder] ─> receiver
//!  cross-traffic sources ──────┘         (DropTail, FIFO/PF)                            │
//!          ▲                                                                            │
//!          └───────────────────────── ack path (fixed delay) ◀──────────────────────────┘
//! ```
//!
//! * [`engine::Simulation`] — the event loop. Deterministic: integer-ns
//!   clock, `(time, insertion-seq)` heap ordering, all randomness from
//!   seeded [`rand::rngs::StdRng`]s.
//! * [`flow::FlowState`] — shared sender runtime (sequencing, ack clocking,
//!   dup-ack/RTO loss detection, pacing) under any [`cc::CongestionControl`].
//! * [`rate::RateModel`] — constant / trace-driven / Markov-cellular /
//!   token-bucket link capacity.
//! * [`queue::BottleneckQueue`] — byte-accounted DropTail, FIFO or
//!   proportional-fair with fading, optionally AQM-managed (CoDel, PIE).
//! * [`config::PathSpec`] — an ordered chain of bottleneck stages;
//!   departure from stage `k` is arrival at stage `k + 1`. One-stage
//!   chains are byte-identical to the classic single-bottleneck path.
//! * [`crosstraffic::CrossSource`] — CBR, on-off, Poisson, and replayed
//!   byte-series cross traffic (the latter carries iBoxNet's estimated `C`).
//! * [`emulator::PathEmulator`] — "run sender X over path P" convenience.
//!
//! Traces come out as [`ibox_trace::FlowTrace`] — the exact input-output
//! format every iBox model consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod codel;
pub mod config;
pub mod crosstraffic;
pub mod emulator;
pub mod engine;
pub mod flow;
pub mod fluid;
pub mod output;
pub mod packet;
pub mod pie;
pub mod queue;
pub mod rate;
pub mod rng;
pub mod time;

pub use cc::{AckEvent, CongestionControl, CongestionSignal, FixedRate, FixedWindow};
pub use config::{FlowConfig, PathConfig, PathSpec, PathStage, ReorderCfg, DEFAULT_PACKET_SIZE};
pub use crosstraffic::{CrossTrafficCfg, CT_PACKET_SIZE};
pub use emulator::PathEmulator;
pub use engine::Simulation;
pub use fluid::{FluidLaw, FluidSim};
pub use output::{FlowStats, LinkSample, SimOutput};
pub use packet::{Packet, PacketFate, StreamId};
pub use queue::SchedulerKind;
pub use rate::RateModelCfg;
pub use time::{tx_time, SimTime};
