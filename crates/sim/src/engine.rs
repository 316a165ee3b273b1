//! The discrete-event simulation engine.
//!
//! One [`Simulation`] owns a chain of one or more bottleneck stages (per
//! iBox's problem formulation a path is *one* stochastic bottleneck; a
//! [`PathSpec`] generalizes that to a pipeline where departure from stage
//! `k` is arrival at stage `k + 1`), any number of congestion-controlled
//! flows, and any number of cross-traffic sources, each attached to one
//! stage's queue. Events are processed from a binary heap keyed by
//! `(time, insertion sequence)` — ties resolve in insertion order, so runs
//! are bit-for-bit deterministic for a given seed. Single-stage chains are
//! byte-identical to the pre-chain engine: stage 0 consumes exactly the
//! same derived RNG streams, and chain-only event types never fire.
//!
//! Flows stop *sending* at their configured stop time (clamped to the run's
//! end), but the event loop drains in-flight packets and acks to
//! completion, so every sent packet's fate is resolved in the trace.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;

use ibox_obs::Registry;
use ibox_trace::{FlowMeta, FlowTrace, PacketRecord};

use crate::cc::CongestionControl;
use crate::config::{FlowConfig, PathConfig, PathSpec};
use crate::crosstraffic::{CrossSource, CrossTrafficCfg, CT_PACKET_SIZE};
use crate::flow::{FlowState, SendDecision};
use crate::output::{FlowStats, LinkSample, SimOutput};
use crate::packet::{Packet, PacketFate, StreamId};
use crate::queue::{BottleneckQueue, EnqueueResult};
use crate::rate::{RateModel, RateModelCfg};
use crate::rng;
use crate::time::{tx_time, SimTime};

/// Events processed by the engine.
#[derive(Debug)]
enum Ev {
    /// A flow begins sending.
    FlowStart(usize),
    /// A flow stops sending (in-flight data still drains).
    FlowStop(usize),
    /// Pacing wake-up: the flow re-evaluates its send opportunity.
    FlowWake(usize),
    /// Retransmission-timer check for a flow.
    RtoCheck(usize),
    /// An ack reaches the sender.
    AckArrive { flow: usize, seq: u64 },
    /// Stage `stage` finishes serializing a packet.
    TxComplete { stage: usize, pkt: Packet },
    /// A packet reaches the receiver (past the last stage).
    Deliver { pkt: Packet },
    /// A cross-traffic source emits its next packet.
    CrossEmit(usize),
    /// Periodic ground-truth link sample.
    Sample,
    /// A packet propagating off stage `stage - 1` reaches stage `stage`'s
    /// queue. Never fires on single-stage chains.
    StageArrive { stage: usize, pkt: Packet },
}

/// Metric names for the per-event-type counters, indexed by
/// [`ev_type_index`].
const EV_TYPE_NAMES: [&str; 10] = [
    "sim.events.flow_start",
    "sim.events.flow_stop",
    "sim.events.flow_wake",
    "sim.events.rto_check",
    "sim.events.ack_arrive",
    "sim.events.tx_complete",
    "sim.events.deliver",
    "sim.events.cross_emit",
    "sim.events.sample",
    "sim.events.stage_arrive",
];

fn ev_type_index(ev: &Ev) -> usize {
    match ev {
        Ev::FlowStart(_) => 0,
        Ev::FlowStop(_) => 1,
        Ev::FlowWake(_) => 2,
        Ev::RtoCheck(_) => 3,
        Ev::AckArrive { .. } => 4,
        Ev::TxComplete { .. } => 5,
        Ev::Deliver { .. } => 6,
        Ev::CrossEmit(_) => 7,
        Ev::Sample => 8,
        Ev::StageArrive { .. } => 9,
    }
}

/// Heap entry ordered by `(time, tie)`.
struct QueuedEvent {
    time: SimTime,
    tie: u64,
    ev: Ev,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.tie == other.tie
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.tie).cmp(&(other.time, other.tie))
    }
}

thread_local! {
    /// Recycled backing storage for the event heap: a finished simulation
    /// stashes its (drained) heap's `Vec` here and the next [`Simulation`]
    /// on the same thread adopts it, so batch sweeps that run thousands of
    /// short simulations stop re-growing the heap from scratch each run.
    /// Determinism is unaffected — the vector is always empty when stashed,
    /// only its capacity survives.
    static HEAP_POOL: RefCell<Vec<Reverse<QueuedEvent>>> = const { RefCell::new(Vec::new()) };
}

/// Per-flow fate recorder: index = sequence number.
#[derive(Debug, Default)]
struct FlowRecorder {
    sends: Vec<(SimTime, u32, Option<PacketFate>)>,
}

impl FlowRecorder {
    fn record_send(&mut self, seq: u64, at: SimTime, size: u32) {
        debug_assert_eq!(seq as usize, self.sends.len(), "sends must be sequential");
        self.sends.push((at, size, None));
    }

    fn record_fate(&mut self, seq: u64, fate: PacketFate) {
        let slot = &mut self.sends[seq as usize];
        debug_assert!(slot.2.is_none(), "fate recorded twice");
        slot.2 = Some(fate);
    }

    fn to_trace(&self, meta: FlowMeta) -> FlowTrace {
        let records = self
            .sends
            .iter()
            .enumerate()
            .map(|(seq, (send, size, fate))| match fate {
                Some(PacketFate::Delivered(at)) => {
                    PacketRecord::delivered(seq as u64, send.as_nanos(), *size, at.as_nanos())
                }
                // Unresolved fates cannot survive the drain loop; treat a
                // missing fate (impossible by construction) as a loss.
                Some(PacketFate::Dropped(_)) | None => {
                    PacketRecord::lost(seq as u64, send.as_nanos(), *size)
                }
            })
            .collect();
        FlowTrace::from_records(meta, records)
    }

    fn delivered(&self) -> u64 {
        self.sends.iter().filter(|(_, _, f)| matches!(f, Some(PacketFate::Delivered(_)))).count()
            as u64
    }
}

/// Runtime state of one bottleneck stage: its config plus the queue, rate
/// process and RNG streams that the single-bottleneck engine used to hold
/// directly. Stage 0's streams are seeded exactly as before the chain
/// refactor, so 1-stage runs stay byte-identical.
struct StageState {
    cfg: PathConfig,
    queue: BottleneckQueue,
    rate: RateModel,
    link_busy: bool,
    rng_loss: StdRng,
    rng_reorder: StdRng,
}

/// Salt namespace for stage `k >= 1` RNG streams; stage 0 keeps the
/// historical salts 1..=4 and cross sources keep `100 + index`, so the
/// chain namespace starts far above both.
const STAGE_SEED_BASE: u64 = 0x5747_0000;

/// A network simulation over a chain of bottleneck stages (Fig. 1 of the
/// paper when the chain has one stage).
pub struct Simulation {
    stages: Vec<StageState>,
    /// Sum of per-stage ack-path delays: the return path's one-way delay.
    ack_delay: SimTime,
    path_name: String,
    seed: u64,
    end: SimTime,
    flows: Vec<FlowState>,
    recorders: Vec<FlowRecorder>,
    cross: Vec<CrossSource>,
    /// Stage whose queue each cross source feeds, parallel to `cross`.
    cross_stage: Vec<usize>,
    cross_log: Vec<Vec<(f64, u32)>>,
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    tie: u64,
    now: SimTime,
    rto_armed: Vec<bool>,
    /// Time of the pending pacing wake per flow (dedupes redundant wakes
    /// scheduled from every ack).
    wake_at: Vec<Option<SimTime>>,
    sample_every: Option<SimTime>,
    samples: Vec<LinkSample>,
    /// Bytes of anonymous backlog seeded into the queue at t = 0
    /// (hybrid-fidelity episode splicing; see [`Simulation::preload_queue`]).
    preload_bytes: u64,
    /// Whether `finish` folds this run's metrics into the process-wide
    /// registry (off for nested episode runs, which would double-count).
    report_global: bool,
    /// Opt-in trace timeline mode (defaults to the process-wide
    /// [`ibox_obs::trace::timeline`] knob): emit queue-depth counter
    /// tracks and drop/RTO instants into the active trace scope.
    timeline: bool,
    /// Effective timeline flag for this run: `timeline` AND a trace
    /// scope actually active — computed once in [`run`](Self::run) so
    /// the per-event hot path pays one plain-bool test.
    tl: bool,
    /// Per-run metrics registry; snapshotted into [`SimOutput::metrics`].
    /// Hot-path tallies are plain fields below (the simulation is
    /// single-threaded) and flushed into the registry in `finish`.
    metrics: Registry,
    m_sent: u64,
    m_delivered: u64,
    m_dropped_random: u64,
    m_dropped_aqm: u64,
    m_reordered: u64,
    m_cross_packets: u64,
    m_queue_hwm: f64,
}

impl Simulation {
    /// Create a simulation over a chain of bottleneck stages (a bare
    /// [`PathConfig`] converts to the classic 1-stage chain) running for
    /// `duration`, seeded for full determinism. Cross traffic declared on
    /// the spec's stages is registered here, stage order first (so a
    /// 1-stage spec with stage-0 cross draws the same per-source seeds as
    /// `new` + `add_cross_traffic`).
    pub fn new(spec: impl Into<PathSpec>, duration: SimTime, seed: u64) -> Self {
        let spec = spec.into();
        spec.validate();
        assert!(duration.as_nanos() > 0, "simulation needs a positive duration");
        let stages: Vec<StageState> = spec
            .stages
            .iter()
            .enumerate()
            .map(|(k, st)| {
                // Stage 0 keeps the pre-chain salts so single-stage runs
                // replay byte-identically; later stages get their own
                // namespaced streams.
                let base = if k == 0 { 0 } else { STAGE_SEED_BASE + 16 * k as u64 };
                StageState {
                    queue: BottleneckQueue::new(
                        st.config.scheduler,
                        st.config.buffer_bytes,
                        rng::derive_seed(seed, base + 1),
                    ),
                    rate: RateModel::new(&st.config.rate, rng::derive_seed(seed, base + 2)),
                    link_busy: false,
                    rng_loss: rng::seeded(rng::derive_seed(seed, base + 3)),
                    rng_reorder: rng::seeded(rng::derive_seed(seed, base + 4)),
                    cfg: st.config.clone(),
                }
            })
            .collect();
        let metrics = Registry::new();
        let mut sim = Self {
            stages,
            ack_delay: spec.total_ack_delay(),
            path_name: "path".to_string(),
            seed,
            end: duration,
            flows: Vec::new(),
            recorders: Vec::new(),
            cross: Vec::new(),
            cross_stage: Vec::new(),
            cross_log: Vec::new(),
            heap: BinaryHeap::from(HEAP_POOL.with(|p| std::mem::take(&mut *p.borrow_mut()))),
            tie: 0,
            now: SimTime::ZERO,
            rto_armed: Vec::new(),
            wake_at: Vec::new(),
            sample_every: Some(SimTime::from_millis(100)),
            samples: Vec::new(),
            preload_bytes: 0,
            report_global: true,
            timeline: ibox_obs::trace::timeline(),
            tl: false,
            metrics,
            m_sent: 0,
            m_delivered: 0,
            m_dropped_random: 0,
            m_dropped_aqm: 0,
            m_reordered: 0,
            m_cross_packets: 0,
            m_queue_hwm: 0.0,
        };
        for (k, st) in spec.stages.iter().enumerate() {
            for cfg in &st.cross {
                sim.add_cross_traffic_at(k, cfg.clone());
            }
        }
        sim
    }

    /// The run's metrics registry (e.g. for attaching extra counters before
    /// `run`); a snapshot of it ends up in [`SimOutput::metrics`].
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Name recorded in output trace metadata.
    pub fn set_path_name(&mut self, name: impl Into<String>) {
        self.path_name = name.into();
    }

    /// Ground-truth sampling period (`None` disables sampling).
    pub fn set_sample_every(&mut self, every: Option<SimTime>) {
        self.sample_every = every;
    }

    /// Opt into (or out of) trace timeline mode for this run,
    /// overriding the process-wide [`ibox_obs::trace::timeline`]
    /// default. Timeline events only record when a trace scope is
    /// active on the running thread.
    pub fn set_timeline(&mut self, on: bool) {
        self.timeline = on;
    }

    /// Seed the bottleneck queue with `bytes` of anonymous backlog at
    /// t = 0 (clamped to the buffer size), modelled as cross-traffic-sized
    /// packets that drain ahead of everything else. This is how the hybrid
    /// fluid engine splices its queue occupancy into a packet-level
    /// congestion episode: the warm-started run sees the fluid queue's
    /// delay immediately instead of starting from an empty bottleneck.
    /// The synthetic packets are not counted as cross-traffic emissions.
    pub fn preload_queue(&mut self, bytes: u64) {
        self.preload_bytes = bytes;
    }

    /// Whether `run` folds this simulation's metrics into the process-wide
    /// `ibox_obs::global()` registry (default `true`). Episode simulations
    /// nested inside a hybrid fluid run disable this so the ambient
    /// registry isn't double-counted.
    pub fn set_report_global(&mut self, on: bool) {
        self.report_global = on;
    }

    /// Add a congestion-controlled flow; returns its index.
    pub fn add_flow(&mut self, cfg: FlowConfig, cc: Box<dyn CongestionControl>) -> usize {
        self.flows.push(FlowState::new(cfg, cc));
        self.recorders.push(FlowRecorder::default());
        self.rto_armed.push(false);
        self.wake_at.push(None);
        self.flows.len() - 1
    }

    /// Add a non-adaptive cross-traffic source competing at stage 0's
    /// queue; returns its index.
    pub fn add_cross_traffic(&mut self, cfg: CrossTrafficCfg) -> usize {
        self.add_cross_traffic_at(0, cfg)
    }

    /// Add a non-adaptive cross-traffic source competing at `stage`'s
    /// queue; returns its index. Seeds derive from the global add order
    /// (not the stage), so stage-0 sources added first keep their legacy
    /// streams.
    pub fn add_cross_traffic_at(&mut self, stage: usize, cfg: CrossTrafficCfg) -> usize {
        assert!(stage < self.stages.len(), "cross-traffic stage out of range");
        let seed = rng::derive_seed(self.seed, 100 + self.cross.len() as u64);
        self.cross.push(CrossSource::new(cfg, seed));
        self.cross_stage.push(stage);
        self.cross_log.push(Vec::new());
        self.cross.len() - 1
    }

    fn schedule(&mut self, time: SimTime, ev: Ev) {
        debug_assert!(time >= self.now, "scheduling into the past");
        self.tie += 1;
        self.heap.push(Reverse(QueuedEvent { time, tie: self.tie, ev }));
    }

    /// Size the growable per-run logs from the configuration so the hot
    /// loop appends without reallocating: samples from the sampling period,
    /// per-flow recorders from what the link can carry over each flow's
    /// active window, cross logs from each source's expected emissions.
    fn reserve_buffers(&mut self) {
        if let Some(every) = self.sample_every {
            let n = self.end.as_nanos() / every.as_nanos().max(1) + 2;
            self.samples.reserve(n.min(1 << 20) as usize);
        }
        let mean_rate =
            self.stages.iter().map(|s| s.cfg.rate.mean_rate_bps()).fold(f64::INFINITY, f64::min);
        for (flow, rec) in self.flows.iter().zip(self.recorders.iter_mut()) {
            let active = flow.cfg.stop.min(self.end).saturating_sub(flow.cfg.start).as_secs_f64();
            let n = mean_rate * active / (8.0 * f64::from(flow.cfg.packet_size.max(1)));
            rec.sends.reserve(n.clamp(0.0, (1u32 << 20) as f64) as usize);
        }
        for (src, log) in self.cross.iter().zip(self.cross_log.iter_mut()) {
            log.reserve(src.cfg().expected_packets(self.end));
        }
    }

    /// Run to completion and return traces and statistics.
    pub fn run(mut self) -> SimOutput {
        // One aggregated span per run, which is also a begin/end pair in
        // the active causal trace (a single thread-local branch when
        // tracing is off). Timeline events additionally require the
        // opt-in flag.
        let _run_span = ibox_obs::span!("sim-run");
        self.tl = self.timeline && ibox_obs::trace::active();
        self.reserve_buffers();
        // Seed initial events.
        for i in 0..self.flows.len() {
            let start = self.flows[i].cfg.start;
            let stop = self.flows[i].cfg.stop.min(self.end);
            if start >= self.end {
                continue;
            }
            self.schedule(start, Ev::FlowStart(i));
            self.schedule(stop, Ev::FlowStop(i));
        }
        for i in 0..self.cross.len() {
            if let Some(t) = self.cross[i].next_emission() {
                if t < self.end {
                    self.schedule(t, Ev::CrossEmit(i));
                }
            }
        }
        if self.sample_every.is_some() {
            self.schedule(SimTime::ZERO, Ev::Sample);
        }
        if self.preload_bytes > 0 {
            // Anonymous backlog from a spliced fluid state: fill stage 0's
            // queue with synthetic packets (a reserved Cross stream id, so
            // no flow recorder or cross log ever sees them) and start the
            // link on the head of the backlog.
            let mut remaining = self.preload_bytes.min(self.stages[0].cfg.buffer_bytes);
            let mut seq = 0u64;
            while remaining > 0 {
                let size = remaining.min(u64::from(CT_PACKET_SIZE)) as u32;
                let pkt = Packet {
                    stream: StreamId::Cross(usize::MAX),
                    seq,
                    size,
                    sent_at: SimTime::ZERO,
                };
                if self.stages[0].queue.enqueue(pkt, SimTime::ZERO) != EnqueueResult::Queued {
                    break;
                }
                remaining -= u64::from(size);
                seq += 1;
            }
            self.m_queue_hwm = self.m_queue_hwm.max(self.stages[0].queue.occupied_bytes() as f64);
            self.kick_link(0);
        }

        // Main loop: process every event; post-`end` events only drain
        // in-flight work (no new sends are generated past `end`).
        // Per-event-type tallies are plain locals flushed into the registry
        // after the loop, keeping the loop body free of even atomic traffic.
        let wall_start = std::time::Instant::now();
        let mut events_total: u64 = 0;
        let mut events_by_type = [0u64; 10];
        while let Some(Reverse(item)) = self.heap.pop() {
            self.now = item.time;
            events_total += 1;
            events_by_type[ev_type_index(&item.ev)] += 1;
            match item.ev {
                Ev::FlowStart(i) => {
                    self.flows[i].start(self.now);
                    self.try_send(i);
                }
                Ev::FlowStop(i) => self.flows[i].stop(),
                Ev::FlowWake(i) => {
                    if self.wake_at[i] == Some(self.now) {
                        self.wake_at[i] = None;
                    }
                    self.try_send(i);
                }
                Ev::RtoCheck(i) => self.handle_rto(i),
                Ev::AckArrive { flow, seq } => {
                    let _outcome = self.flows[flow].on_ack(self.now, seq);
                    self.try_send(flow);
                }
                Ev::TxComplete { stage, pkt } => self.handle_tx_complete(stage, pkt),
                Ev::Deliver { pkt } => self.handle_deliver(pkt),
                Ev::CrossEmit(i) => self.handle_cross_emit(i),
                Ev::Sample => self.handle_sample(),
                Ev::StageArrive { stage, pkt } => self.admit(stage, pkt),
            }
        }

        let elapsed = wall_start.elapsed().as_secs_f64();
        self.metrics.counter("sim.events_processed").add(events_total);
        for (i, n) in events_by_type.iter().enumerate() {
            if *n > 0 {
                self.metrics.counter(EV_TYPE_NAMES[i]).add(*n);
            }
        }
        self.metrics.gauge("sim.events_per_sec").set(events_total as f64 / elapsed.max(1e-9));
        self.metrics.gauge("sim.wall_time_ms").set(elapsed * 1e3);
        ibox_obs::debug!(
            "sim run done: {events_total} events in {:.1} ms ({:.0} events/sec), seed {}",
            elapsed * 1e3,
            events_total as f64 / elapsed.max(1e-9),
            self.seed,
        );

        self.finish()
    }

    fn try_send(&mut self, i: usize) {
        loop {
            match self.flows[i].send_decision(self.now) {
                SendDecision::SendNow => {
                    if self.now >= self.end {
                        // The run is over; don't originate new packets.
                        return;
                    }
                    let seq = self.flows[i].register_send(self.now);
                    let size = self.flows[i].cfg.packet_size;
                    self.recorders[i].record_send(seq, self.now, size);
                    self.m_sent += 1;
                    let pkt = Packet { stream: StreamId::Flow(i), seq, size, sent_at: self.now };
                    self.arm_rto(i);
                    self.admit(0, pkt);
                }
                SendDecision::WaitUntil(t) => {
                    // Skip if an equal-or-earlier wake is already pending.
                    let pending = self.wake_at[i];
                    if t < self.end && pending.is_none_or(|p| p > t) {
                        self.wake_at[i] = Some(t);
                        self.schedule(t, Ev::FlowWake(i));
                    }
                    return;
                }
                SendDecision::Blocked => return,
            }
        }
    }

    fn arm_rto(&mut self, i: usize) {
        if self.rto_armed[i] {
            return;
        }
        if let Some(deadline) = self.flows[i].rto_deadline() {
            self.rto_armed[i] = true;
            self.schedule(deadline.max(self.now), Ev::RtoCheck(i));
        }
    }

    fn handle_rto(&mut self, i: usize) {
        self.rto_armed[i] = false;
        match self.flows[i].rto_deadline() {
            None => {} // everything acked; timer dies
            Some(deadline) if deadline > self.now => {
                // Deadline moved (acks arrived): re-arm lazily.
                self.rto_armed[i] = true;
                self.schedule(deadline, Ev::RtoCheck(i));
            }
            Some(_) => {
                if self.tl {
                    ibox_obs::trace::instant("sim.rto");
                }
                let _flushed = self.flows[i].on_rto_fire(self.now);
                // Flushed packets' network fates resolve independently;
                // the window is open again.
                self.try_send(i);
            }
        }
    }

    /// Offer `pkt` to `stage`'s queue, handling every enqueue outcome:
    /// buffer overflow, AQM enqueue-time drop (PIE), or admission + link
    /// kick. This is the single admission path for flow sends (stage 0),
    /// cross emissions, and chain hand-offs.
    fn admit(&mut self, stage: usize, pkt: Packet) {
        match self.stages[stage].queue.enqueue(pkt, self.now) {
            EnqueueResult::Queued => {
                self.m_queue_hwm =
                    self.m_queue_hwm.max(self.stages[stage].queue.occupied_bytes() as f64);
                self.kick_link(stage);
            }
            EnqueueResult::Dropped => {
                if self.tl {
                    ibox_obs::trace::instant("sim.drop.buffer");
                }
                self.record_fate(&pkt, PacketFate::Dropped(self.now));
            }
            EnqueueResult::DroppedAqm => {
                self.m_dropped_aqm += 1;
                if self.tl {
                    ibox_obs::trace::instant("sim.drop.aqm");
                }
                self.record_fate(&pkt, PacketFate::Dropped(self.now));
            }
        }
    }

    fn kick_link(&mut self, stage: usize) {
        if self.stages[stage].link_busy {
            return;
        }
        let grant = self.stages[stage].queue.dequeue(self.now);
        self.collect_dequeue_drops(stage);
        let Some(grant) = grant else {
            return;
        };
        let now = self.now;
        let s = &mut self.stages[stage];
        s.link_busy = true;
        let finish = match &s.cfg.rate {
            RateModelCfg::TokenBucket { .. } => s.rate.tx_finish(now, grant.packet.size),
            _ => {
                let rate_bps = s.rate.rate_at(now) * grant.rate_multiplier;
                now + tx_time(grant.packet.size, rate_bps)
            }
        };
        self.schedule(finish, Ev::TxComplete { stage, pkt: grant.packet });
    }

    fn handle_tx_complete(&mut self, stage: usize, pkt: Packet) {
        // Egress random loss at this stage.
        let loss_p = self.stages[stage].cfg.random_loss;
        if loss_p > 0.0 && rng::coin(&mut self.stages[stage].rng_loss, loss_p) {
            self.m_dropped_random += 1;
            if self.tl {
                ibox_obs::trace::instant("sim.drop.random");
            }
            self.record_fate(&pkt, PacketFate::Dropped(self.now));
        } else {
            let now = self.now;
            let (arrival, reordered) = {
                let s = &mut self.stages[stage];
                let mut arrival = now + s.cfg.prop_delay;
                if let Some(j) = s.cfg.jitter {
                    let extra = rng::uniform(&mut s.rng_reorder, 0.0, j.as_secs_f64());
                    arrival += SimTime::from_secs_f64(extra);
                }
                let mut reordered = false;
                if let Some(r) = &s.cfg.reorder {
                    if rng::coin(&mut s.rng_reorder, r.probability) {
                        reordered = true;
                        let extra = rng::uniform(
                            &mut s.rng_reorder,
                            r.extra_min.as_secs_f64(),
                            r.extra_max.as_secs_f64(),
                        );
                        arrival += SimTime::from_secs_f64(extra);
                    }
                }
                (arrival, reordered)
            };
            if reordered {
                self.m_reordered += 1;
            }
            if stage + 1 == self.stages.len() {
                self.schedule(arrival, Ev::Deliver { pkt });
            } else {
                self.schedule(arrival, Ev::StageArrive { stage: stage + 1, pkt });
            }
        }
        self.stages[stage].link_busy = false;
        self.kick_link(stage);
    }

    fn handle_deliver(&mut self, pkt: Packet) {
        self.m_delivered += 1;
        self.record_fate(&pkt, PacketFate::Delivered(self.now));
        if let StreamId::Flow(i) = pkt.stream {
            let ack_at = self.now + self.ack_delay;
            self.schedule(ack_at, Ev::AckArrive { flow: i, seq: pkt.seq });
        }
    }

    fn record_fate(&mut self, pkt: &Packet, fate: PacketFate) {
        if let StreamId::Flow(i) = pkt.stream {
            self.recorders[i].record_fate(pkt.seq, fate);
        }
        // Cross-traffic fates are not traced (their emissions are logged
        // at enqueue time in `cross_log`).
    }

    fn handle_cross_emit(&mut self, i: usize) {
        if self.now >= self.end {
            return;
        }
        let size = self.cross[i].emit(self.now);
        let seq = self.cross[i].emitted_count();
        self.cross_log[i].push((self.now.as_secs_f64(), size));
        let pkt = Packet { stream: StreamId::Cross(i), seq, size, sent_at: self.now };
        self.m_cross_packets += 1;
        self.admit(self.cross_stage[i], pkt);
        if let Some(t) = self.cross[i].next_emission() {
            if t < self.end {
                self.schedule(t, Ev::CrossEmit(i));
            }
        }
    }

    /// Record fates of packets an AQM discipline dropped at dequeue.
    fn collect_dequeue_drops(&mut self, stage: usize) {
        while let Some(pkt) = self.stages[stage].queue.pop_dequeue_drop() {
            self.m_dropped_aqm += 1;
            if self.tl {
                ibox_obs::trace::instant("sim.drop.aqm");
            }
            self.record_fate(&pkt, PacketFate::Dropped(self.now));
        }
    }

    fn handle_sample(&mut self) {
        let Some(every) = self.sample_every else { return };
        let queue_bytes: u64 = self.stages.iter().map(|s| s.queue.occupied_bytes()).sum();
        if self.tl {
            ibox_obs::trace::counter("sim.queue_depth_bytes", queue_bytes as f64);
        }
        self.metrics.histogram("sim.queue_depth_bytes").record(queue_bytes as f64);
        let now = self.now;
        self.samples.push(LinkSample {
            t: now,
            queue_bytes,
            rate_bps: self.stages[0].rate.rate_at(now),
        });
        let next = self.now + every;
        if next < self.end {
            self.schedule(next, Ev::Sample);
        }
    }

    fn finish(self) -> SimOutput {
        // Hand the (drained) heap's storage to the next run on this thread.
        let mut stash = self.heap.into_vec();
        stash.clear();
        HEAP_POOL.with(|p| *p.borrow_mut() = stash);
        // Flush the single-threaded hot-path tallies into the registry.
        self.metrics.counter("sim.packets_sent").add(self.m_sent);
        self.metrics.counter("sim.packets_delivered").add(self.m_delivered);
        self.metrics.counter("sim.packets_dropped_random").add(self.m_dropped_random);
        self.metrics.counter("sim.packets_dropped_aqm").add(self.m_dropped_aqm);
        self.metrics.counter("sim.packets_reordered").add(self.m_reordered);
        self.metrics.counter("sim.cross_packets_emitted").add(self.m_cross_packets);
        self.metrics.gauge("sim.queue_depth_hwm_bytes").record_max(self.m_queue_hwm);
        // The queues are authoritative for enqueue-time buffer drops (they
        // also see cross-traffic packets, which `try_send` never touches).
        let queue_drops: u64 = self.stages.iter().map(|s| s.queue.drop_count()).sum();
        self.metrics.counter("sim.packets_dropped_buffer").add(queue_drops);
        // Fold this run's totals into the process-wide registry, so
        // manifests written by the CLI and bench binaries see simulator
        // activity without holding on to every SimOutput.
        let metrics = self.metrics.snapshot();
        if self.report_global {
            ibox_obs::global().absorb(&metrics);
        }
        let mut traces = Vec::new();
        let mut flow_stats = Vec::new();
        for (i, flow) in self.flows.iter().enumerate() {
            let rec = &self.recorders[i];
            let sent = rec.sends.len() as u64;
            let delivered = rec.delivered();
            flow_stats.push(FlowStats {
                label: flow.cfg.label.clone(),
                cc_name: flow.cc_name().to_string(),
                sent,
                delivered,
                lost: sent - delivered,
            });
            if flow.cfg.record {
                let meta =
                    FlowMeta::new(self.path_name.clone(), flow.cc_name(), flow.cfg.label.clone());
                traces.push(rec.to_trace(meta));
            }
        }
        SimOutput {
            traces,
            flow_stats,
            cross_emissions: self.cross_log,
            link_samples: self.samples,
            queue_drops,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{FixedRate, FixedWindow};
    use ibox_trace::metrics::avg_rate_mbps;

    fn simple_path(rate_bps: f64, delay_ms: u64, buffer: u64) -> PathConfig {
        PathConfig::simple(rate_bps, SimTime::from_millis(delay_ms), buffer)
    }

    #[test]
    fn single_flow_saturates_bottleneck() {
        // Large fixed window over a 8 Mbps link: delivered rate ≈ 8 Mbps.
        let mut sim = Simulation::new(simple_path(8e6, 20, 100_000), SimTime::from_secs(10), 1);
        sim.add_flow(
            FlowConfig::bulk("main", SimTime::from_secs(10)),
            Box::new(FixedWindow::new(200.0)),
        );
        let out = sim.run();
        let trace = out.trace("main").unwrap();
        let rate = avg_rate_mbps(trace);
        assert!((rate - 8.0).abs() < 0.5, "rate = {rate} Mbps");
    }

    #[test]
    fn min_delay_equals_propagation_plus_serialization() {
        let mut sim = Simulation::new(simple_path(10e6, 30, 100_000), SimTime::from_secs(5), 1);
        sim.add_flow(
            FlowConfig::bulk("main", SimTime::from_secs(5)),
            Box::new(FixedWindow::new(1.0)), // one packet at a time: no queueing
        );
        let out = sim.run();
        let trace = out.trace("main").unwrap();
        // Min delay = serialization (1400 B at 10 Mbps = 1.12 ms) + 30 ms.
        let min_ms = trace.min_delay_ns().unwrap() as f64 / 1e6;
        assert!((min_ms - 31.12).abs() < 0.05, "min delay = {min_ms} ms");
        // With window 1 there is no queue: max == min.
        let max_ms = trace.max_delay_ns().unwrap() as f64 / 1e6;
        assert!((max_ms - min_ms).abs() < 0.05);
    }

    #[test]
    fn queue_overflow_drops_packets() {
        // CBR at 2x link rate into a tiny buffer: ~half the packets drop.
        let mut sim = Simulation::new(simple_path(4e6, 10, 6000), SimTime::from_secs(10), 1);
        sim.add_flow(
            FlowConfig::bulk("cbr", SimTime::from_secs(10)),
            Box::new(FixedRate::new(8e6)),
        );
        let out = sim.run();
        let trace = out.trace("cbr").unwrap();
        let loss = trace.loss_rate();
        assert!((loss - 0.5).abs() < 0.05, "loss = {loss}");
        assert!(out.queue_drops > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut sim = Simulation::new(simple_path(6e6, 25, 50_000), SimTime::from_secs(8), 99);
            sim.add_flow(
                FlowConfig::bulk("main", SimTime::from_secs(8)),
                Box::new(FixedWindow::new(64.0)),
            );
            sim.add_cross_traffic(CrossTrafficCfg::cbr(
                1e6,
                SimTime::from_secs(2),
                SimTime::from_secs(6),
            ));
            sim.run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn cross_traffic_inflates_delay() {
        let run = |ct: bool| {
            let mut sim = Simulation::new(simple_path(6e6, 25, 80_000), SimTime::from_secs(10), 5);
            sim.add_flow(
                FlowConfig::bulk("main", SimTime::from_secs(10)),
                Box::new(FixedRate::new(3e6)),
            );
            if ct {
                // 3 + 3.5 Mbps demand on a 6 Mbps link: standing queue.
                sim.add_cross_traffic(CrossTrafficCfg::cbr(
                    3.5e6,
                    SimTime::ZERO,
                    SimTime::from_secs(10),
                ));
            }
            let out = sim.run();
            let t = out.traces[0].clone();
            ibox_trace::metrics::delay_percentile_ms(&t, 0.95).unwrap()
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with > without + 5.0,
            "cross traffic should add queueing delay: {without} -> {with}"
        );
    }

    #[test]
    fn random_loss_is_applied() {
        let mut path = simple_path(10e6, 10, 100_000);
        path.random_loss = 0.1;
        let mut sim = Simulation::new(path, SimTime::from_secs(20), 3);
        sim.add_flow(
            FlowConfig::bulk("main", SimTime::from_secs(20)),
            Box::new(FixedRate::new(2e6)),
        );
        let out = sim.run();
        let loss = out.traces[0].loss_rate();
        assert!((loss - 0.1).abs() < 0.02, "loss = {loss}");
    }

    #[test]
    fn reordering_stage_reorders() {
        let mut path = simple_path(10e6, 20, 100_000);
        path.reorder = Some(crate::config::ReorderCfg {
            probability: 0.05,
            extra_min: SimTime::from_millis(5),
            extra_max: SimTime::from_millis(20),
        });
        let mut sim = Simulation::new(path, SimTime::from_secs(10), 7);
        sim.add_flow(
            FlowConfig::bulk("main", SimTime::from_secs(10)),
            Box::new(FixedRate::new(4e6)),
        );
        let out = sim.run();
        let rate = ibox_trace::metrics::overall_reordering_rate(&out.traces[0]);
        assert!(rate > 0.01, "reordering rate = {rate}");
        // Without the stage there is none.
        let mut sim2 = Simulation::new(simple_path(10e6, 20, 100_000), SimTime::from_secs(10), 7);
        sim2.add_flow(
            FlowConfig::bulk("main", SimTime::from_secs(10)),
            Box::new(FixedRate::new(4e6)),
        );
        let out2 = sim2.run();
        assert_eq!(ibox_trace::metrics::overall_reordering_rate(&out2.traces[0]), 0.0);
    }

    #[test]
    fn all_sent_packets_have_resolved_fates() {
        let mut sim = Simulation::new(simple_path(2e6, 40, 20_000), SimTime::from_secs(6), 11);
        sim.add_flow(
            FlowConfig::bulk("main", SimTime::from_secs(6)),
            Box::new(FixedWindow::new(64.0)),
        );
        let out = sim.run();
        let stats = &out.flow_stats[0];
        assert_eq!(stats.sent, stats.delivered + stats.lost);
        assert_eq!(out.traces[0].len() as u64, stats.sent);
        // The drain guarantees sent packets resolve as delivered or lost —
        // a lost record only arises from an actual drop.
        assert_eq!(out.traces[0].lost_count() as u64, stats.lost);
    }

    #[test]
    fn unrecorded_flows_keep_stats_but_no_trace() {
        let mut sim = Simulation::new(simple_path(5e6, 10, 50_000), SimTime::from_secs(4), 1);
        sim.add_flow(
            FlowConfig::bulk("main", SimTime::from_secs(4)),
            Box::new(FixedWindow::new(16.0)),
        );
        sim.add_flow(
            FlowConfig::bulk("ct", SimTime::from_secs(4)).unrecorded(),
            Box::new(FixedWindow::new(16.0)),
        );
        let out = sim.run();
        assert_eq!(out.traces.len(), 1);
        assert_eq!(out.flow_stats.len(), 2);
        assert!(out.flow_stats[1].sent > 0);
    }

    #[test]
    fn flow_schedule_is_respected() {
        let mut sim = Simulation::new(simple_path(5e6, 10, 50_000), SimTime::from_secs(10), 1);
        sim.add_flow(
            FlowConfig::scheduled("late", SimTime::from_secs(3), SimTime::from_secs(7)),
            Box::new(FixedRate::new(1e6)),
        );
        let out = sim.run();
        let t = out.trace("late").unwrap();
        let first = t.records().first().unwrap().send_ns;
        let last = t.records().last().unwrap().send_ns;
        assert!(first >= 3_000_000_000);
        assert!(last < 7_000_000_000);
    }

    #[test]
    fn link_samples_cover_run() {
        let mut sim = Simulation::new(simple_path(5e6, 10, 50_000), SimTime::from_secs(2), 1);
        sim.add_flow(
            FlowConfig::bulk("main", SimTime::from_secs(2)),
            Box::new(FixedWindow::new(8.0)),
        );
        let out = sim.run();
        assert!(out.link_samples.len() >= 19, "n = {}", out.link_samples.len());
        assert!(out.link_samples.iter().all(|s| s.rate_bps == 5e6));
    }

    #[test]
    fn cross_emissions_are_logged() {
        let mut sim = Simulation::new(simple_path(5e6, 10, 50_000), SimTime::from_secs(4), 1);
        sim.add_cross_traffic(CrossTrafficCfg::cbr(
            1.2e6,
            SimTime::from_secs(1),
            SimTime::from_secs(3),
        ));
        let out = sim.run();
        // 1.2 Mbps for 2 s = 300 KB... in 1200 B packets = 250 packets.
        let total = out.cross_bytes_between(SimTime::ZERO, SimTime::from_secs(4));
        assert!((total - 300_000.0).abs() < 5_000.0, "total = {total}");
        assert_eq!(out.cross_bytes_between(SimTime::ZERO, SimTime::from_secs(1)), 0.0);
    }
}

#[cfg(test)]
mod codel_tests {
    use super::*;
    use crate::cc::FixedRate;
    use crate::queue::SchedulerKind;

    /// CoDel keeps a persistently-overloaded queue's delay near its target
    /// where DropTail pins the full buffer.
    #[test]
    fn codel_controls_standing_queue_delay() {
        let run = |scheduler: SchedulerKind| {
            let mut path = PathConfig::simple(5e6, SimTime::from_millis(10), 200_000);
            path.scheduler = scheduler;
            let mut sim = Simulation::new(path, SimTime::from_secs(10), 3);
            sim.add_flow(
                FlowConfig::bulk("cbr", SimTime::from_secs(10)),
                Box::new(FixedRate::new(6e6)), // 20% overload
            );
            let out = sim.run();
            ibox_trace::metrics::delay_percentile_ms(&out.traces[0], 0.5).unwrap()
        };
        let droptail = run(SchedulerKind::Fifo);
        let codel = run(SchedulerKind::Codel {
            target: SimTime::from_millis(5),
            interval: SimTime::from_millis(100),
        });
        // DropTail: standing queue = 200 KB at 5 Mbps = 320 ms. CoDel
        // should hold the median delay an order of magnitude lower.
        assert!(droptail > 200.0, "droptail median = {droptail} ms");
        assert!(codel < droptail / 3.0, "codel median = {codel} ms");
    }

    /// Every CoDel head-drop still resolves to a recorded packet fate.
    #[test]
    fn codel_drops_have_recorded_fates() {
        let mut path = PathConfig::simple(5e6, SimTime::from_millis(10), 200_000);
        path.scheduler = SchedulerKind::Codel {
            target: SimTime::from_millis(5),
            interval: SimTime::from_millis(100),
        };
        let mut sim = Simulation::new(path, SimTime::from_secs(8), 3);
        sim.add_flow(
            FlowConfig::bulk("cbr", SimTime::from_secs(8)),
            Box::new(FixedRate::new(6.5e6)),
        );
        let out = sim.run();
        let stats = &out.flow_stats[0];
        assert_eq!(stats.sent, stats.delivered + stats.lost);
        assert!(stats.lost > 0, "overload must drop under CoDel");
        assert_eq!(out.traces[0].lost_count() as u64, stats.lost);
    }

    /// Satellite: the `sim.packets_dropped_aqm` counter actually
    /// increments when an AQM discipline head-drops — it must not rot
    /// as a plumbed-but-always-zero metric.
    #[test]
    fn aqm_drops_increment_the_dropped_aqm_counter() {
        let mut path = PathConfig::simple(5e6, SimTime::from_millis(10), 200_000);
        path.scheduler = SchedulerKind::Codel {
            target: SimTime::from_millis(5),
            interval: SimTime::from_millis(100),
        };
        let mut sim = Simulation::new(path, SimTime::from_secs(8), 3);
        sim.add_flow(
            FlowConfig::bulk("cbr", SimTime::from_secs(8)),
            Box::new(FixedRate::new(6.5e6)),
        );
        let out = sim.run();
        let aqm = out.metrics.counters["sim.packets_dropped_aqm"];
        assert!(aqm > 0, "CoDel under persistent overload must head-drop");
        // AQM drops are a subset of the flow's total losses.
        assert!(aqm <= out.flow_stats[0].lost, "aqm={aqm} > lost={}", out.flow_stats[0].lost);
        // And without an AQM discipline the counter stays zero.
        let mut fifo = PathConfig::simple(5e6, SimTime::from_millis(10), 200_000);
        fifo.scheduler = SchedulerKind::Fifo;
        let mut sim = Simulation::new(fifo, SimTime::from_secs(8), 3);
        sim.add_flow(
            FlowConfig::bulk("cbr", SimTime::from_secs(8)),
            Box::new(FixedRate::new(6.5e6)),
        );
        assert_eq!(sim.run().metrics.counters["sim.packets_dropped_aqm"], 0);
    }

    /// Timeline mode: with a trace scope active and the opt-in flag
    /// set, the engine emits queue-depth counter samples and drop
    /// instants; without the flag it emits only the sim-run span.
    #[test]
    fn timeline_mode_emits_counters_and_drop_instants() {
        let build = || {
            let mut path = PathConfig::simple(5e6, SimTime::from_millis(10), 200_000);
            path.scheduler = SchedulerKind::Codel {
                target: SimTime::from_millis(5),
                interval: SimTime::from_millis(100),
            };
            let mut sim = Simulation::new(path, SimTime::from_secs(8), 3);
            sim.add_flow(
                FlowConfig::bulk("cbr", SimTime::from_secs(8)),
                Box::new(FixedRate::new(6.5e6)),
            );
            sim
        };
        let capture = |timeline: bool| {
            let collector = ibox_obs::TraceCollector::new(1 << 16);
            let trace = if timeline { 0x51 } else { 0x52 };
            {
                let _root =
                    ibox_obs::trace::start_root_in(collector.clone(), trace, "sim").unwrap();
                let mut sim = build();
                sim.set_timeline(timeline);
                sim.run();
            }
            collector.get(trace).unwrap().1
        };
        let on = capture(true);
        assert!(on.iter().any(|e| e.name == "sim-run"));
        assert!(
            on.iter()
                .any(|e| e.phase == ibox_obs::TracePhase::Counter
                    && e.name == "sim.queue_depth_bytes"),
            "timeline mode must emit queue-depth counter samples"
        );
        assert!(
            on.iter().any(|e| e.phase == ibox_obs::TracePhase::Instant && e.name == "sim.drop.aqm"),
            "timeline mode must emit AQM drop instants"
        );
        let off = capture(false);
        assert!(off.iter().any(|e| e.name == "sim-run"));
        assert!(
            !off.iter().any(|e| e.phase == ibox_obs::TracePhase::Counter),
            "without the opt-in flag no timeline events may record"
        );
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;
    use crate::cc::FixedRate;

    fn run_with_jitter(jitter_us: Option<u64>, seed: u64) -> ibox_trace::FlowTrace {
        let mut path = PathConfig::simple(8e6, SimTime::from_millis(20), 100_000);
        path.jitter = jitter_us.map(SimTime::from_micros);
        let mut sim = Simulation::new(path, SimTime::from_secs(5), seed);
        sim.add_flow(FlowConfig::bulk("m", SimTime::from_secs(5)), Box::new(FixedRate::new(2e6)));
        sim.run().traces.remove(0)
    }

    #[test]
    fn jitter_perturbs_runs_across_seeds() {
        // Without jitter the scenario is fully deterministic regardless of
        // seed; with jitter, seeds differ.
        assert_eq!(run_with_jitter(None, 1), run_with_jitter(None, 2));
        assert_ne!(run_with_jitter(Some(500), 1), run_with_jitter(Some(500), 2));
    }

    #[test]
    fn sub_serialization_jitter_does_not_reorder() {
        // 1400 B at 8 Mbps = 1.4 ms serialization; 500 µs jitter cannot
        // push a packet past its successor.
        let t = run_with_jitter(Some(500), 3);
        assert_eq!(ibox_trace::metrics::overall_reordering_rate(&t), 0.0);
        // But delays do vary beyond the deterministic baseline.
        let base = run_with_jitter(None, 3);
        let spread =
            |tr: &ibox_trace::FlowTrace| tr.max_delay_ns().unwrap() - tr.min_delay_ns().unwrap();
        assert!(spread(&t) > spread(&base));
    }

    #[test]
    fn jitter_bounds_hold() {
        let base = run_with_jitter(None, 4);
        let jittered = run_with_jitter(Some(800), 4);
        // Jitter only ever adds delay, at most its configured bound.
        let base_min = base.min_delay_ns().unwrap();
        let jit_min = jittered.min_delay_ns().unwrap();
        assert!(jit_min >= base_min);
        assert!(jit_min <= base_min + 800_000);
    }
}

#[cfg(test)]
mod metrics_tests {
    use super::*;
    use crate::cc::FixedWindow;
    use crate::config::ReorderCfg;

    fn lossy_reordering_run(seed: u64) -> SimOutput {
        let mut path = simple_path_for_metrics(6e6, 25, 40_000);
        path.random_loss = 0.01;
        path.reorder = Some(ReorderCfg {
            probability: 0.02,
            extra_min: SimTime::from_millis(2),
            extra_max: SimTime::from_millis(6),
        });
        let mut sim = Simulation::new(path, SimTime::from_secs(8), seed);
        sim.add_flow(
            FlowConfig::bulk("m", SimTime::from_secs(8)),
            Box::new(FixedWindow::new(120.0)),
        );
        sim.add_cross_traffic(CrossTrafficCfg::cbr(
            1e6,
            SimTime::from_secs(1),
            SimTime::from_secs(7),
        ));
        sim.run()
    }

    fn simple_path_for_metrics(rate_bps: f64, delay_ms: u64, buffer: u64) -> PathConfig {
        PathConfig::simple(rate_bps, SimTime::from_millis(delay_ms), buffer)
    }

    #[test]
    fn run_metrics_cover_events_and_packet_fates() {
        let out = lossy_reordering_run(3);
        let c = &out.metrics.counters;
        assert!(c["sim.events_processed"] > 0);
        // The per-type tallies sum to the total.
        let by_type: u64 =
            c.iter().filter(|(k, _)| k.starts_with("sim.events.")).map(|(_, v)| v).sum();
        assert_eq!(by_type, c["sim.events_processed"]);
        assert!(c["sim.packets_sent"] > 0);
        assert!(c["sim.packets_delivered"] > 0);
        assert!(c["sim.packets_dropped_random"] > 0, "1% loss over ~5k packets");
        assert!(c["sim.packets_reordered"] > 0);
        assert!(c["sim.cross_packets_emitted"] > 0);
        assert_eq!(c["sim.packets_dropped_buffer"], out.queue_drops);
        assert!(out.metrics.gauges["sim.queue_depth_hwm_bytes"] > 0.0);
        assert!(out.metrics.gauges["sim.events_per_sec"] > 0.0);
        assert!(out.metrics.histograms["sim.queue_depth_bytes"].count > 0);
    }

    /// The run's snapshot reaches the global registry by `absorb` alone:
    /// each queue-depth sample is counted once there, not twice.
    #[test]
    fn each_queue_sample_is_counted_once_globally() {
        let scope = ibox_obs::scoped();
        let out = lossy_reordering_run(4);
        let global = scope.finish().snapshot();
        let samples = out.link_samples.len() as u64;
        assert!(samples > 0);
        assert_eq!(out.metrics.histograms["sim.queue_depth_bytes"].count, samples);
        assert_eq!(
            global.histograms["sim.queue_depth_bytes"],
            out.metrics.histograms["sim.queue_depth_bytes"]
        );
    }

    /// The determinism guard: identical config + seed must yield an
    /// identical metrics story (counters and histograms; wall-clock gauges
    /// legitimately differ between runs).
    #[test]
    fn same_seed_same_counters() {
        let a = lossy_reordering_run(9);
        let b = lossy_reordering_run(9);
        assert_eq!(a.metrics.counters, b.metrics.counters);
        assert_eq!(a.metrics.histograms, b.metrics.histograms);
        assert_eq!(
            a.metrics.gauges["sim.queue_depth_hwm_bytes"],
            b.metrics.gauges["sim.queue_depth_hwm_bytes"]
        );
        // And a different seed genuinely changes the story.
        let c = lossy_reordering_run(10);
        assert_ne!(a.metrics.counters, c.metrics.counters);
    }
}

#[cfg(test)]
mod pie_tests {
    use super::*;
    use crate::cc::FixedRate;
    use crate::queue::SchedulerKind;

    /// Satellite: PIE's enqueue-time early drops hold a persistently
    /// overloaded queue's delay well under DropTail — the PIE mirror of
    /// `codel_controls_standing_queue_delay`.
    #[test]
    fn pie_controls_standing_queue_delay() {
        let run = |scheduler: SchedulerKind| {
            let mut path = PathConfig::simple(5e6, SimTime::from_millis(10), 200_000);
            path.scheduler = scheduler;
            let mut sim = Simulation::new(path, SimTime::from_secs(10), 3);
            sim.add_flow(
                FlowConfig::bulk("cbr", SimTime::from_secs(10)),
                Box::new(FixedRate::new(6e6)), // 20% overload
            );
            let out = sim.run();
            ibox_trace::metrics::delay_percentile_ms(&out.traces[0], 0.5).unwrap()
        };
        let droptail = run(SchedulerKind::Fifo);
        let pie = run(SchedulerKind::Pie {
            target: SimTime::from_millis(15),
            update_interval: SimTime::from_millis(16),
        });
        // DropTail: standing queue = 200 KB at 5 Mbps = 320 ms.
        assert!(droptail > 200.0, "droptail median = {droptail} ms");
        assert!(pie < droptail / 3.0, "pie median = {pie} ms");
    }

    /// PIE early drops land in both the AQM counter and packet fates.
    #[test]
    fn pie_drops_are_counted_and_fated() {
        let mut path = PathConfig::simple(5e6, SimTime::from_millis(10), 200_000);
        path.scheduler = SchedulerKind::Pie {
            target: SimTime::from_millis(15),
            update_interval: SimTime::from_millis(16),
        };
        let mut sim = Simulation::new(path, SimTime::from_secs(10), 3);
        sim.add_flow(
            FlowConfig::bulk("cbr", SimTime::from_secs(10)),
            Box::new(FixedRate::new(6.5e6)),
        );
        let out = sim.run();
        let aqm = out.metrics.counters["sim.packets_dropped_aqm"];
        assert!(aqm > 0, "PIE under persistent overload must early-drop");
        let stats = &out.flow_stats[0];
        assert_eq!(stats.sent, stats.delivered + stats.lost);
        assert!(aqm <= stats.lost);
        assert_eq!(out.traces[0].lost_count() as u64, stats.lost);
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;
    use crate::cc::{FixedRate, FixedWindow};
    use crate::config::{PathSpec, PathStage};
    use ibox_trace::metrics::avg_rate_mbps;

    fn stage(rate_bps: f64, delay_ms: u64, buffer: u64) -> PathStage {
        PathStage::new(PathConfig::simple(rate_bps, SimTime::from_millis(delay_ms), buffer))
    }

    /// The byte-identity contract: a 1-stage chain IS the classic
    /// single-bottleneck path — identical traces, counters, histograms,
    /// link samples, and cross emissions for the same seed, even with
    /// cross traffic, loss, jitter, and reordering in play.
    #[test]
    fn single_stage_chain_is_byte_identical_to_classic_path() {
        let mut path = PathConfig::simple(6e6, SimTime::from_millis(25), 50_000);
        path.random_loss = 0.01;
        path.jitter = Some(SimTime::from_micros(400));
        path.reorder = Some(crate::config::ReorderCfg {
            probability: 0.02,
            extra_min: SimTime::from_millis(2),
            extra_max: SimTime::from_millis(6),
        });
        let ct = CrossTrafficCfg::cbr(1e6, SimTime::from_secs(1), SimTime::from_secs(7));

        let mut classic = Simulation::new(path.clone(), SimTime::from_secs(8), 42);
        classic.add_cross_traffic(ct.clone());
        classic.add_flow(
            FlowConfig::bulk("m", SimTime::from_secs(8)),
            Box::new(FixedWindow::new(96.0)),
        );
        let a = classic.run();

        let mut st = PathStage::new(path);
        st.cross.push(ct);
        let mut chained =
            Simulation::new(PathSpec::from_stages(vec![st]), SimTime::from_secs(8), 42);
        chained.add_flow(
            FlowConfig::bulk("m", SimTime::from_secs(8)),
            Box::new(FixedWindow::new(96.0)),
        );
        let b = chained.run();

        assert_eq!(a.traces, b.traces);
        assert_eq!(a.flow_stats, b.flow_stats);
        assert_eq!(a.link_samples, b.link_samples);
        assert_eq!(a.cross_emissions, b.cross_emissions);
        assert_eq!(a.queue_drops, b.queue_drops);
        assert_eq!(a.metrics.counters, b.metrics.counters);
        assert_eq!(a.metrics.histograms, b.metrics.histograms);
    }

    /// The slowest stage is the end-to-end bottleneck.
    #[test]
    fn chain_throughput_is_the_slowest_stage() {
        let spec = PathSpec::from_stages(vec![
            stage(20e6, 5, 150_000),
            stage(8e6, 15, 100_000),
            stage(30e6, 2, 150_000),
        ]);
        let mut sim = Simulation::new(spec, SimTime::from_secs(10), 1);
        // Offer 12 Mbps: the middle stage should drain a full queue at
        // its 8 Mbps line rate regardless of the faster neighbours.
        sim.add_flow(FlowConfig::bulk("m", SimTime::from_secs(10)), Box::new(FixedRate::new(12e6)));
        let out = sim.run();
        let rate = avg_rate_mbps(out.trace("m").unwrap());
        assert!((rate - 8.0).abs() < 0.5, "rate = {rate} Mbps");
    }

    /// Uncongested chain delay = sum of per-stage propagation plus one
    /// serialization per stage.
    #[test]
    fn chain_min_delay_sums_stages() {
        let spec = PathSpec::from_stages(vec![stage(10e6, 30, 100_000), stage(10e6, 12, 100_000)]);
        let mut sim = Simulation::new(spec, SimTime::from_secs(5), 1);
        sim.add_flow(
            FlowConfig::bulk("m", SimTime::from_secs(5)),
            Box::new(FixedWindow::new(1.0)), // one in flight: no queueing
        );
        let out = sim.run();
        // 2 × (1400 B at 10 Mbps = 1.12 ms) + 30 + 12 ms = 44.24 ms.
        let min_ms = out.trace("m").unwrap().min_delay_ns().unwrap() as f64 / 1e6;
        assert!((min_ms - 44.24).abs() < 0.05, "min delay = {min_ms} ms");
    }

    /// Cross traffic attached mid-chain congests only its own stage.
    #[test]
    fn mid_chain_cross_traffic_inflates_delay() {
        let mk = |loaded: bool| {
            let mut s1 = stage(6e6, 10, 80_000);
            if loaded {
                s1.cross.push(CrossTrafficCfg::cbr(3.5e6, SimTime::ZERO, SimTime::from_secs(10)));
            }
            let spec = PathSpec::from_stages(vec![stage(50e6, 5, 200_000), s1]);
            let mut sim = Simulation::new(spec, SimTime::from_secs(10), 5);
            sim.add_flow(
                FlowConfig::bulk("m", SimTime::from_secs(10)),
                Box::new(FixedRate::new(3e6)),
            );
            let out = sim.run();
            ibox_trace::metrics::delay_percentile_ms(&out.traces[0], 0.95).unwrap()
        };
        let without = mk(false);
        let with = mk(true);
        assert!(with > without + 5.0, "expected stage-1 queueing: {without} -> {with}");
    }

    /// Multi-stage runs are deterministic per seed, including per-stage
    /// loss, jitter, and AQM state.
    #[test]
    fn chain_deterministic_given_seed() {
        let mk = || {
            let mut s0 = stage(20e6, 5, 120_000);
            s0.config.jitter = Some(SimTime::from_micros(300));
            let mut s1 = stage(8e6, 15, 80_000);
            s1.config.random_loss = 0.01;
            s1.config.scheduler = crate::queue::SchedulerKind::Pie {
                target: SimTime::from_millis(15),
                update_interval: SimTime::from_millis(16),
            };
            s1.cross.push(CrossTrafficCfg::cbr(1e6, SimTime::ZERO, SimTime::from_secs(6)));
            let spec = PathSpec::from_stages(vec![s0, s1]);
            let mut sim = Simulation::new(spec, SimTime::from_secs(6), 77);
            sim.add_flow(
                FlowConfig::bulk("m", SimTime::from_secs(6)),
                Box::new(FixedWindow::new(64.0)),
            );
            sim.run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.traces, b.traces);
        assert_eq!(a.metrics.counters, b.metrics.counters);
        assert_eq!(a.metrics.histograms, b.metrics.histograms);
    }

    /// Per-stage random loss compounds across the chain.
    #[test]
    fn per_stage_loss_compounds() {
        let mut s0 = stage(10e6, 5, 100_000);
        s0.config.random_loss = 0.05;
        let mut s1 = stage(10e6, 5, 100_000);
        s1.config.random_loss = 0.05;
        let spec = PathSpec::from_stages(vec![s0, s1]);
        let mut sim = Simulation::new(spec, SimTime::from_secs(20), 3);
        sim.add_flow(FlowConfig::bulk("m", SimTime::from_secs(20)), Box::new(FixedRate::new(2e6)));
        let out = sim.run();
        let loss = out.traces[0].loss_rate();
        // 1 − 0.95² = 0.0975 end to end.
        assert!((loss - 0.0975).abs() < 0.02, "loss = {loss}");
    }
}
