//! Bottleneck queueing disciplines.
//!
//! iBoxNet assumes a single FIFO queue with a byte-based buffer (§3).
//! The ground-truth testbed additionally offers a proportional-fair (PF)
//! scheduler with per-stream fading — the kind of cellular base-station
//! behaviour ("e.g., proportional fair scheduling \[27\]") that Fig. 2 says
//! iBoxNet must survive despite not modelling it.
//!
//! Both disciplines share byte-based buffer accounting: an arrival that
//! would exceed `buffer_bytes` is dropped (DropTail).

use std::collections::VecDeque;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::codel::{Codel, CodelVerdict};
use crate::config::{ensure, must};
use crate::packet::{Packet, StreamId};
use crate::pie::Pie;
use crate::rng;
use crate::time::SimTime;

/// Which queueing discipline the bottleneck runs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// One shared FIFO queue (iBoxNet's model, and the default).
    #[default]
    Fifo,
    /// Per-stream queues served by a proportional-fair scheduler with
    /// per-stream Rayleigh-like fading. `fading` scales how strongly each
    /// stream's instantaneous channel quality varies (0 = no fading).
    ProportionalFair {
        /// Fading amplitude in `[0, 1)`; channel quality per stream walks
        /// inside `[1 − fading, 1 + fading]`.
        fading: f64,
    },
    /// FIFO order with CoDel active queue management: packets whose
    /// sojourn time stays above `target` for a full `interval` are dropped
    /// at the head, at an accelerating rate, until the standing queue
    /// drains (see [`crate::codel`]).
    Codel {
        /// Sojourn-time target (classic value: 5 ms).
        target: SimTime,
        /// Control interval (classic value: 100 ms).
        interval: SimTime,
    },
    /// FIFO order with PIE active queue management: arrivals are dropped
    /// probabilistically, with the probability driven toward keeping the
    /// estimated queueing delay at `target` (see [`crate::pie`]).
    Pie {
        /// Queueing-delay target (classic value: 15 ms).
        target: SimTime,
        /// Drop-probability update period (classic value: 16 ms).
        update_interval: SimTime,
    },
}

impl SchedulerKind {
    /// The discipline's invariants, as a sentence instead of a panic.
    pub fn check(&self) -> Result<(), String> {
        match self {
            SchedulerKind::Fifo => Ok(()),
            SchedulerKind::ProportionalFair { fading } => {
                ensure((0.0..1.0).contains(fading), "fading must be in [0, 1)")
            }
            SchedulerKind::Codel { target, interval } => {
                ensure(target.as_nanos() > 0, "target must be positive")?;
                ensure(interval > target, "interval must exceed target")
            }
            SchedulerKind::Pie { target, update_interval } => {
                ensure(target.as_nanos() > 0, "target must be positive")?;
                ensure(update_interval.as_nanos() > 0, "update interval must be positive")
            }
        }
    }
}

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueResult {
    /// Packet admitted to the buffer.
    Queued,
    /// Packet dropped: admitting it would exceed the byte buffer.
    Dropped,
    /// Packet dropped by an enqueue-time AQM decision (PIE early drop)
    /// while buffer space remained.
    DroppedAqm,
}

/// A packet selected for service, with the rate multiplier the scheduler
/// grants it (PF fading; always 1.0 under FIFO).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceGrant {
    /// The packet to serialize next.
    pub packet: Packet,
    /// Multiplier on the link's base rate for this packet.
    pub rate_multiplier: f64,
}

/// The bottleneck buffer: byte-accounted, DropTail, FIFO or PF.
#[derive(Debug)]
pub struct BottleneckQueue {
    kind: SchedulerKind,
    buffer_bytes: u64,
    occupied_bytes: u64,
    /// FIFO/CoDel queue entries with their enqueue times.
    fifo: VecDeque<(Packet, SimTime)>,
    /// CoDel controller (present only under `SchedulerKind::Codel`).
    codel: Option<Codel>,
    /// PIE controller (present only under `SchedulerKind::Pie`).
    pie: Option<Pie>,
    /// Packets CoDel dropped at dequeue since the last collection — the
    /// engine pops and records their fates, so the buffer's capacity is
    /// reused for the whole run.
    dequeue_drops: VecDeque<Packet>,
    /// PF state: per-stream queues, keyed by insertion order of first use.
    pf_queues: Vec<(StreamId, VecDeque<Packet>)>,
    /// PF: EWMA of served throughput per stream (parallel to `pf_queues`).
    pf_avg_tput: Vec<f64>,
    /// PF: instantaneous channel quality per stream (random walk).
    pf_quality: Vec<f64>,
    rng: StdRng,
    // Statistics.
    drops: u64,
    enqueued: u64,
}

impl BottleneckQueue {
    /// A queue with the given discipline and byte buffer.
    pub fn new(kind: SchedulerKind, buffer_bytes: u64, seed: u64) -> Self {
        assert!(buffer_bytes > 0, "buffer must hold at least one packet");
        must(kind.check());
        let codel = match kind {
            SchedulerKind::Codel { target, interval } => Some(Codel::new(target, interval)),
            _ => None,
        };
        let pie = match kind {
            SchedulerKind::Pie { target, update_interval } => {
                Some(Pie::new(target, update_interval))
            }
            _ => None,
        };
        // Size the FIFO for a buffer full of default-sized packets so
        // steady-state enqueues never reallocate (smaller packets can still
        // grow it past this hint).
        let fifo_hint = (buffer_bytes / u64::from(crate::config::DEFAULT_PACKET_SIZE) + 1)
            .min(1 << 16) as usize;
        Self {
            kind,
            buffer_bytes,
            occupied_bytes: 0,
            fifo: VecDeque::with_capacity(fifo_hint),
            codel,
            pie,
            dequeue_drops: VecDeque::new(),
            pf_queues: Vec::new(),
            pf_avg_tput: Vec::new(),
            pf_quality: Vec::new(),
            rng: rng::seeded(seed),
            drops: 0,
            enqueued: 0,
        }
    }

    /// Attempt to enqueue a packet at time `now` (DropTail on byte
    /// overflow, all disciplines; PIE may additionally early-drop while
    /// space remains).
    pub fn enqueue(&mut self, packet: Packet, now: SimTime) -> EnqueueResult {
        if self.occupied_bytes + u64::from(packet.size) > self.buffer_bytes {
            self.drops += 1;
            return EnqueueResult::Dropped;
        }
        if let Some(pie) = self.pie.as_mut() {
            let p = pie.drop_probability(now, self.occupied_bytes);
            if p > 0.0 && rng::coin(&mut self.rng, p) {
                self.drops += 1;
                return EnqueueResult::DroppedAqm;
            }
        }
        self.occupied_bytes += u64::from(packet.size);
        self.enqueued += 1;
        match self.kind {
            SchedulerKind::Fifo | SchedulerKind::Codel { .. } | SchedulerKind::Pie { .. } => {
                self.fifo.push_back((packet, now));
            }
            SchedulerKind::ProportionalFair { .. } => {
                let idx = self.pf_stream_index(packet.stream);
                self.pf_queues[idx].1.push_back(packet);
            }
        }
        EnqueueResult::Queued
    }

    /// Pick the next packet to serve at time `now`, removing it from its
    /// queue. Returns `None` when the buffer is empty. Under CoDel,
    /// head-dropped packets are collected for
    /// [`BottleneckQueue::pop_dequeue_drop`].
    pub fn dequeue(&mut self, now: SimTime) -> Option<ServiceGrant> {
        match self.kind {
            SchedulerKind::Fifo => self.fifo.pop_front().map(|(packet, _)| {
                self.occupied_bytes -= u64::from(packet.size);
                ServiceGrant { packet, rate_multiplier: 1.0 }
            }),
            SchedulerKind::Codel { .. } => self.codel_dequeue(now),
            SchedulerKind::Pie { .. } => self.fifo.pop_front().map(|(packet, _)| {
                self.occupied_bytes -= u64::from(packet.size);
                self.pie.as_mut().expect("pie state exists").on_dequeue(packet.size);
                ServiceGrant { packet, rate_multiplier: 1.0 }
            }),
            SchedulerKind::ProportionalFair { fading } => self.pf_dequeue(fading),
        }
    }

    fn codel_dequeue(&mut self, now: SimTime) -> Option<ServiceGrant> {
        let controller = self.codel.as_mut().expect("codel state exists");
        while let Some((packet, enq)) = self.fifo.pop_front() {
            self.occupied_bytes -= u64::from(packet.size);
            let sojourn = now.saturating_sub(enq);
            let nearly_empty = self.occupied_bytes <= u64::from(crate::config::DEFAULT_PACKET_SIZE);
            match controller.on_dequeue(now, sojourn, nearly_empty) {
                CodelVerdict::Deliver => {
                    return Some(ServiceGrant { packet, rate_multiplier: 1.0 })
                }
                CodelVerdict::Drop => {
                    self.drops += 1;
                    self.dequeue_drops.push_back(packet);
                }
            }
        }
        None
    }

    /// Pop one packet CoDel dropped at dequeue since the last collection
    /// (always `None` for the other disciplines). The caller records their
    /// fates; popping instead of swapping out the whole buffer keeps its
    /// allocation alive across the run.
    pub fn pop_dequeue_drop(&mut self) -> Option<Packet> {
        self.dequeue_drops.pop_front()
    }

    fn pf_stream_index(&mut self, stream: StreamId) -> usize {
        if let Some(i) = self.pf_queues.iter().position(|(s, _)| *s == stream) {
            return i;
        }
        self.pf_queues.push((stream, VecDeque::new()));
        self.pf_avg_tput.push(1.0); // neutral prior, avoids div-by-zero
        self.pf_quality.push(1.0);
        self.pf_queues.len() - 1
    }

    fn pf_dequeue(&mut self, fading: f64) -> Option<ServiceGrant> {
        // Evolve channel qualities (bounded random walk), then pick the
        // backlogged stream maximizing quality / average throughput — the
        // classic PF metric.
        const EWMA: f64 = 0.05;
        for q in self.pf_quality.iter_mut() {
            let step = rng::gaussian(&mut self.rng) * fading * 0.2;
            *q = (*q + step).clamp(1.0 - fading, 1.0 + fading);
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, (_, queue)) in self.pf_queues.iter().enumerate() {
            if queue.is_empty() {
                continue;
            }
            let metric = self.pf_quality[i] / self.pf_avg_tput[i].max(1e-9);
            if best.is_none_or(|(_, m)| metric > m) {
                best = Some((i, metric));
            }
        }
        let (idx, _) = best?;
        let packet = self.pf_queues[idx].1.pop_front().expect("nonempty queue");
        self.occupied_bytes -= u64::from(packet.size);
        // Throughput EWMA: served stream credits its bytes; all others
        // decay toward zero (standard PF accounting per scheduling slot).
        for (i, avg) in self.pf_avg_tput.iter_mut().enumerate() {
            let served = if i == idx { f64::from(packet.size) } else { 0.0 };
            *avg = (1.0 - EWMA) * *avg + EWMA * served;
        }
        Some(ServiceGrant { packet, rate_multiplier: self.pf_quality[idx] })
    }

    /// Bytes currently buffered.
    pub fn occupied_bytes(&self) -> u64 {
        self.occupied_bytes
    }

    /// Whether no packets are buffered.
    pub fn is_empty(&self) -> bool {
        self.occupied_bytes == 0
    }

    /// Packets dropped so far (DropTail).
    pub fn drop_count(&self) -> u64 {
        self.drops
    }

    /// Packets admitted so far.
    pub fn enqueue_count(&self) -> u64 {
        self.enqueued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn pkt(stream: StreamId, seq: u64, size: u32) -> Packet {
        Packet { stream, seq, size, sent_at: SimTime::ZERO }
    }

    #[test]
    fn fifo_preserves_order() {
        let mut q = BottleneckQueue::new(SchedulerKind::Fifo, 10_000, 0);
        for i in 0..5 {
            assert_eq!(
                q.enqueue(pkt(StreamId::Flow(0), i, 1000), SimTime::ZERO),
                EnqueueResult::Queued
            );
        }
        for i in 0..5 {
            assert_eq!(q.dequeue(SimTime::ZERO).unwrap().packet.seq, i);
        }
        assert!(q.dequeue(SimTime::ZERO).is_none());
    }

    #[test]
    fn droptail_on_byte_overflow() {
        let mut q = BottleneckQueue::new(SchedulerKind::Fifo, 2500, 0);
        assert_eq!(
            q.enqueue(pkt(StreamId::Flow(0), 0, 1000), SimTime::ZERO),
            EnqueueResult::Queued
        );
        assert_eq!(
            q.enqueue(pkt(StreamId::Flow(0), 1, 1000), SimTime::ZERO),
            EnqueueResult::Queued
        );
        // 2000 + 1000 > 2500: dropped.
        assert_eq!(
            q.enqueue(pkt(StreamId::Flow(0), 2, 1000), SimTime::ZERO),
            EnqueueResult::Dropped
        );
        // But a smaller packet still fits.
        assert_eq!(q.enqueue(pkt(StreamId::Flow(0), 3, 500), SimTime::ZERO), EnqueueResult::Queued);
        assert_eq!(q.occupied_bytes(), 2500);
        assert_eq!(q.drop_count(), 1);
        assert_eq!(q.enqueue_count(), 3);
    }

    #[test]
    fn dequeue_releases_bytes() {
        let mut q = BottleneckQueue::new(SchedulerKind::Fifo, 2000, 0);
        q.enqueue(pkt(StreamId::Flow(0), 0, 2000), SimTime::ZERO);
        assert_eq!(q.enqueue(pkt(StreamId::Flow(0), 1, 1), SimTime::ZERO), EnqueueResult::Dropped);
        q.dequeue(SimTime::ZERO).unwrap();
        assert!(q.is_empty());
        assert_eq!(
            q.enqueue(pkt(StreamId::Flow(0), 2, 2000), SimTime::ZERO),
            EnqueueResult::Queued
        );
    }

    #[test]
    fn pf_serves_all_backlogged_streams() {
        let mut q =
            BottleneckQueue::new(SchedulerKind::ProportionalFair { fading: 0.3 }, 1_000_000, 7);
        for seq in 0..100 {
            q.enqueue(pkt(StreamId::Flow(0), seq, 1000), SimTime::ZERO);
            q.enqueue(pkt(StreamId::Cross(0), seq, 1000), SimTime::ZERO);
        }
        let mut served = [0usize; 2];
        for _ in 0..200 {
            let grant = q.dequeue(SimTime::ZERO).unwrap();
            match grant.packet.stream {
                StreamId::Flow(0) => served[0] += 1,
                StreamId::Cross(0) => served[1] += 1,
                other => panic!("unexpected stream {other:?}"),
            }
            assert!(grant.rate_multiplier > 0.0);
        }
        // PF with symmetric demand is approximately fair.
        assert_eq!(served[0] + served[1], 200);
        assert!(served[0] > 60 && served[1] > 60, "served = {served:?}");
    }

    #[test]
    fn pf_within_stream_order_is_fifo() {
        let mut q =
            BottleneckQueue::new(SchedulerKind::ProportionalFair { fading: 0.2 }, 100_000, 3);
        for seq in 0..20 {
            q.enqueue(pkt(StreamId::Flow(0), seq, 1000), SimTime::ZERO);
        }
        let mut last = None;
        while let Some(g) = q.dequeue(SimTime::ZERO) {
            if let Some(prev) = last {
                assert!(g.packet.seq > prev);
            }
            last = Some(g.packet.seq);
        }
    }

    #[test]
    fn pie_early_drops_under_standing_backlog() {
        let kind = SchedulerKind::Pie {
            target: SimTime::from_millis(15),
            update_interval: SimTime::from_millis(16),
        };
        // Deep enough that tail drop never engages: the thinning must all
        // come from PIE's early drops.
        let mut q = BottleneckQueue::new(kind, 10_000_000, 5);
        // Arrivals at 2x the service rate: a standing queue PIE must
        // start thinning with early drops (space never runs out).
        let mut aqm_drops = 0u64;
        let mut t = SimTime::ZERO;
        let mut seq = 0u64;
        for _ in 0..20_000 {
            for _ in 0..2 {
                match q.enqueue(pkt(StreamId::Flow(0), seq, 1000), t) {
                    EnqueueResult::Queued => {}
                    EnqueueResult::DroppedAqm => aqm_drops += 1,
                    EnqueueResult::Dropped => panic!("buffer must not overflow"),
                }
                seq += 1;
            }
            let _ = q.dequeue(t);
            t += SimTime::from_micros(500);
        }
        assert!(aqm_drops > 100, "aqm drops = {aqm_drops}");
        assert_eq!(q.drop_count(), aqm_drops);
    }

    #[test]
    fn pie_is_inert_without_congestion() {
        let kind = SchedulerKind::Pie {
            target: SimTime::from_millis(15),
            update_interval: SimTime::from_millis(16),
        };
        let mut q = BottleneckQueue::new(kind, 100_000, 5);
        let mut t = SimTime::ZERO;
        for seq in 0..5_000 {
            assert_eq!(q.enqueue(pkt(StreamId::Flow(0), seq, 1000), t), EnqueueResult::Queued);
            assert_eq!(q.dequeue(t).unwrap().packet.seq, seq);
            t += SimTime::from_millis(1);
        }
        assert_eq!(q.drop_count(), 0);
    }

    #[test]
    fn pf_rate_multiplier_bounded_by_fading() {
        let mut q =
            BottleneckQueue::new(SchedulerKind::ProportionalFair { fading: 0.4 }, 100_000, 11);
        for seq in 0..50 {
            q.enqueue(pkt(StreamId::Flow(0), seq, 1000), SimTime::ZERO);
        }
        while let Some(g) = q.dequeue(SimTime::ZERO) {
            assert!((0.6..=1.4).contains(&g.rate_multiplier));
        }
    }
}
