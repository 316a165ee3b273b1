//! Per-flow sender runtime: sequencing, ack bookkeeping, loss detection,
//! RTT estimation, pacing.
//!
//! This is the machinery every congestion-control algorithm shares so that
//! Cubic, Vegas, BBR-lite, CBR and the RTC controller all run over one
//! well-tested substrate. Loss detection follows the classic 3-duplicate
//! rule on a per-packet (SACK-like) scoreboard; the retransmission timer
//! follows RFC 6298 with a 200 ms floor. Lost payload is not re-sent —
//! the traces iBox consumes treat every packet as unique — but the
//! congestion controller is signalled exactly as TCP would be, so window
//! dynamics are faithful.

use std::collections::VecDeque;

use crate::cc::{AckEvent, CongestionControl, CongestionSignal};
use crate::config::FlowConfig;
use crate::time::{tx_time, SimTime};

/// Duplicate-ack threshold for declaring a packet lost.
const DUP_THRESH: u32 = 3;
/// RTO floor (RFC 6298 recommends 1 s; modern stacks use 200 ms).
const MIN_RTO: SimTime = SimTime(200_000_000);
/// RTO ceiling.
const MAX_RTO: SimTime = SimTime(10_000_000_000);

/// Book-keeping for one in-flight packet.
#[derive(Debug, Clone, Copy)]
struct SentInfo {
    sent_at: SimTime,
    size: u32,
    /// How many later-sent packets have been acked past this one.
    dup: u32,
}

/// Slot-addressed scoreboard for sequentially-sent packets.
///
/// Sends always carry the next sequence number, so entry `seq` lives at
/// ring slot `seq - head` of a `VecDeque` that is reused for the whole
/// flow lifetime — unlike the `BTreeMap` it replaces, which paid one node
/// allocation per packet on the per-packet hot path. Acked/lost entries
/// become `None`; fully-acked prefixes are popped so `head` tracks the
/// oldest outstanding packet.
#[derive(Debug, Default)]
struct Scoreboard {
    /// Sequence number of `slots[0]`.
    head: u64,
    slots: VecDeque<Option<SentInfo>>,
    /// Number of `Some` slots.
    live: usize,
}

impl Scoreboard {
    fn len(&self) -> usize {
        self.live
    }

    /// Insert the next sequential send.
    fn insert_next(&mut self, seq: u64, info: SentInfo) {
        if self.slots.is_empty() {
            self.head = seq;
        }
        debug_assert_eq!(seq, self.head + self.slots.len() as u64, "sends must be sequential");
        self.slots.push_back(Some(info));
        self.live += 1;
    }

    fn remove(&mut self, seq: u64) -> Option<SentInfo> {
        let idx = usize::try_from(seq.checked_sub(self.head)?).ok()?;
        let info = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        // Pop the fully-acked prefix so `head` stays at the oldest
        // outstanding packet (keeps the ring short and `oldest` O(1)).
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.head += 1;
        }
        Some(info)
    }

    /// Live entries with sequence `< before`, ascending.
    fn iter_below_mut(&mut self, before: u64) -> impl Iterator<Item = (u64, &mut SentInfo)> {
        let head = self.head;
        let n = usize::try_from(before.saturating_sub(head).min(self.slots.len() as u64))
            .unwrap_or(usize::MAX);
        self.slots
            .iter_mut()
            .take(n)
            .enumerate()
            .filter_map(move |(i, s)| s.as_mut().map(|e| (head + i as u64, e)))
    }

    /// The oldest outstanding entry (send times are monotone in sequence,
    /// so this is also the earliest `sent_at`). O(1): the front slot is
    /// always live when the board is non-empty.
    fn oldest(&self) -> Option<&SentInfo> {
        self.slots.front().and_then(Option::as_ref)
    }

    /// Live sequence numbers, ascending.
    fn live_seqs(&self) -> impl Iterator<Item = u64> + '_ {
        let head = self.head;
        self.slots.iter().enumerate().filter_map(move |(i, s)| s.as_ref().map(|_| head + i as u64))
    }

    /// Drop every entry (keeps the ring's capacity for reuse).
    fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }
}

/// What the flow wants to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendDecision {
    /// Window and pacing allow a send right now.
    SendNow,
    /// Pacing blocks until the given time (schedule a wake-up).
    WaitUntil(SimTime),
    /// Window-limited (or inactive): the next ack will re-open the window.
    Blocked,
}

/// Result of processing one ack.
#[derive(Debug, Clone)]
pub struct AckOutcome {
    /// Packets newly declared lost by the duplicate-ack rule.
    pub newly_lost: Vec<u64>,
    /// Whether the congestion controller was signalled this ack.
    pub signalled: bool,
}

/// The sender-side state of one flow.
pub struct FlowState {
    /// Static flow configuration (label, schedule, packet size).
    pub cfg: FlowConfig,
    cc: Box<dyn CongestionControl>,
    next_seq: u64,
    scoreboard: Scoreboard,
    // RTT estimation (RFC 6298).
    srtt: Option<SimTime>,
    rttvar: SimTime,
    rto: SimTime,
    // Congestion-episode coalescing: losses at or below this sequence
    // belong to an already-signalled episode.
    recovery_exit: Option<u64>,
    // Pacing.
    next_pacing_time: SimTime,
    started: bool,
    stopped: bool,
}

impl FlowState {
    /// Create the runtime for a flow.
    pub fn new(cfg: FlowConfig, cc: Box<dyn CongestionControl>) -> Self {
        assert!(cfg.stop > cfg.start, "flow must stop after it starts");
        assert!(cfg.packet_size > 0, "packets must be nonempty");
        Self {
            cfg,
            cc,
            next_seq: 0,
            scoreboard: Scoreboard::default(),
            srtt: None,
            rttvar: SimTime::ZERO,
            rto: SimTime::from_secs(1),
            recovery_exit: None,
            next_pacing_time: SimTime::ZERO,
            started: false,
            stopped: false,
        }
    }

    /// The congestion controller's name.
    pub fn cc_name(&self) -> &'static str {
        self.cc.name()
    }

    /// Mark the flow started (engine calls at `cfg.start`).
    pub fn start(&mut self, now: SimTime) {
        self.started = true;
        self.next_pacing_time = now;
    }

    /// Mark the flow stopped: no further sends.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Whether the flow may currently emit packets.
    pub fn is_active(&self) -> bool {
        self.started && !self.stopped
    }

    /// Packets in flight (sent, not acked, not declared lost).
    pub fn inflight(&self) -> usize {
        self.scoreboard.len()
    }

    /// Current smoothed RTT, if any sample has arrived.
    pub fn srtt(&self) -> Option<SimTime> {
        self.srtt
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimTime {
        self.rto
    }

    /// Ask whether the flow can send at `now`.
    pub fn send_decision(&self, now: SimTime) -> SendDecision {
        if !self.is_active() {
            return SendDecision::Blocked;
        }
        let cwnd = self.cc.cwnd();
        if (self.inflight() as f64) >= cwnd {
            return SendDecision::Blocked;
        }
        if self.cc.pacing_rate_bps().is_some() && self.next_pacing_time > now {
            return SendDecision::WaitUntil(self.next_pacing_time);
        }
        SendDecision::SendNow
    }

    /// Register a send at `now`; returns the packet's sequence number.
    /// Callers must have seen [`SendDecision::SendNow`].
    pub fn register_send(&mut self, now: SimTime) -> u64 {
        debug_assert!(self.is_active(), "send on inactive flow");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scoreboard
            .insert_next(seq, SentInfo { sent_at: now, size: self.cfg.packet_size, dup: 0 });
        if let Some(rate) = self.cc.pacing_rate_bps() {
            let gap = tx_time(self.cfg.packet_size, rate);
            let base = self.next_pacing_time.max(now);
            self.next_pacing_time = base + gap;
        }
        seq
    }

    /// Process an ack for `seq` arriving at `now`. Returns the packets
    /// newly declared lost and whether the CC was signalled.
    pub fn on_ack(&mut self, now: SimTime, seq: u64) -> AckOutcome {
        let Some(info) = self.scoreboard.remove(seq) else {
            // Ack for a packet already declared lost (spurious detection) —
            // ignore; real TCP would undo, we keep it simple and document.
            return AckOutcome { newly_lost: Vec::new(), signalled: false };
        };
        let rtt = now.saturating_sub(info.sent_at);
        self.update_rtt(rtt);

        // Duplicate accounting: every packet older than the acked one has
        // been "passed".
        let mut newly_lost = Vec::new();
        for (s, e) in self.scoreboard.iter_below_mut(seq) {
            e.dup += 1;
            if e.dup >= DUP_THRESH {
                newly_lost.push(s);
            }
        }
        for s in &newly_lost {
            self.scoreboard.remove(*s);
        }

        let mut signalled = false;
        if !newly_lost.is_empty() {
            // One congestion signal per episode: a new episode begins once
            // losses occur beyond the previous episode's highest
            // outstanding sequence.
            let episode_over =
                self.recovery_exit.is_none_or(|exit| newly_lost.iter().any(|s| *s > exit));
            if episode_over {
                self.cc.on_congestion(now, CongestionSignal::Loss);
                self.recovery_exit = Some(self.next_seq.saturating_sub(1));
                signalled = true;
            }
        }

        let ack =
            AckEvent { now, seq, rtt, acked_bytes: info.size, inflight: self.scoreboard.len() };
        self.cc.on_ack(&ack);
        AckOutcome { newly_lost, signalled }
    }

    fn update_rtt(&mut self, rtt: SimTime) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = SimTime(rtt.as_nanos() / 2);
            }
            Some(srtt) => {
                let err = srtt.as_nanos().abs_diff(rtt.as_nanos());
                self.rttvar = SimTime((3 * self.rttvar.as_nanos() + err) / 4);
                self.srtt = Some(SimTime((7 * srtt.as_nanos() + rtt.as_nanos()) / 8));
            }
        }
        let rto = SimTime(self.srtt.expect("just set").as_nanos() + 4 * self.rttvar.as_nanos());
        self.rto = rto.max(MIN_RTO).min(MAX_RTO);
    }

    /// Deadline at which an RTO would fire: oldest outstanding send + RTO.
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.scoreboard.oldest().map(|e| e.sent_at + self.rto)
    }

    /// Fire the retransmission timer at `now`. If the oldest outstanding
    /// packet has waited a full RTO, the scoreboard is flushed (all
    /// outstanding declared lost), the CC is signalled with
    /// [`CongestionSignal::Timeout`], the RTO backs off exponentially, and
    /// the flushed sequence numbers are returned. Otherwise `None` —
    /// the caller should re-arm at [`FlowState::rto_deadline`].
    pub fn on_rto_fire(&mut self, now: SimTime) -> Option<Vec<u64>> {
        let deadline = self.rto_deadline()?;
        if deadline > now {
            return None;
        }
        let flushed: Vec<u64> = self.scoreboard.live_seqs().collect();
        self.scoreboard.clear();
        self.cc.on_congestion(now, CongestionSignal::Timeout);
        self.recovery_exit = Some(self.next_seq.saturating_sub(1));
        self.rto = SimTime(self.rto.as_nanos().saturating_mul(2)).min(MAX_RTO);
        Some(flushed)
    }

    /// Immutable access to the congestion controller (metrics, tests).
    pub fn cc(&self) -> &dyn CongestionControl {
        self.cc.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{FixedRate, FixedWindow};

    fn cfg() -> FlowConfig {
        FlowConfig {
            label: "t".into(),
            start: SimTime::ZERO,
            stop: SimTime::from_secs(60),
            packet_size: 1000,
            record: true,
        }
    }

    fn window_flow(w: f64) -> FlowState {
        let mut f = FlowState::new(cfg(), Box::new(FixedWindow::new(w)));
        f.start(SimTime::ZERO);
        f
    }

    #[test]
    fn window_gates_sending() {
        let mut f = window_flow(2.0);
        assert_eq!(f.send_decision(SimTime::ZERO), SendDecision::SendNow);
        f.register_send(SimTime::ZERO);
        assert_eq!(f.send_decision(SimTime::ZERO), SendDecision::SendNow);
        f.register_send(SimTime::ZERO);
        assert_eq!(f.send_decision(SimTime::ZERO), SendDecision::Blocked);
        // Ack reopens the window.
        f.on_ack(SimTime::from_millis(50), 0);
        assert_eq!(f.send_decision(SimTime::from_millis(50)), SendDecision::SendNow);
    }

    #[test]
    fn pacing_gates_sending() {
        // 1000 B at 8 Mbps = 1 ms per packet.
        let mut f = FlowState::new(cfg(), Box::new(FixedRate::new(8e6)));
        f.start(SimTime::ZERO);
        assert_eq!(f.send_decision(SimTime::ZERO), SendDecision::SendNow);
        f.register_send(SimTime::ZERO);
        assert_eq!(
            f.send_decision(SimTime::ZERO),
            SendDecision::WaitUntil(SimTime::from_millis(1))
        );
        assert_eq!(f.send_decision(SimTime::from_millis(1)), SendDecision::SendNow);
    }

    #[test]
    fn rtt_estimation_converges() {
        let mut f = window_flow(100.0);
        for i in 0..50u64 {
            let t_send = SimTime::from_millis(i * 10);
            // register_send assigns seq i sequentially.
            let seq = f.register_send(t_send);
            f.on_ack(t_send + SimTime::from_millis(40), seq);
        }
        let srtt = f.srtt().unwrap();
        assert!((srtt.as_millis_f64() - 40.0).abs() < 1.0, "srtt = {srtt}");
        // RTO floor dominates a steady RTT.
        assert_eq!(f.rto(), MIN_RTO.max(f.rto()));
    }

    #[test]
    fn three_dupacks_declare_loss_once_per_episode() {
        let mut f = window_flow(50.0);
        for _ in 0..6 {
            f.register_send(SimTime::ZERO);
        }
        // Packet 0 is lost; acks for 1, 2 don't trip the threshold...
        let o1 = f.on_ack(SimTime::from_millis(10), 1);
        assert!(o1.newly_lost.is_empty());
        let o2 = f.on_ack(SimTime::from_millis(11), 2);
        assert!(o2.newly_lost.is_empty());
        // ...the third does.
        let o3 = f.on_ack(SimTime::from_millis(12), 3);
        assert_eq!(o3.newly_lost, vec![0]);
        assert!(o3.signalled);
        // A second loss in the same window does not re-signal.
        // Packet 4 is lost; acks of 5 and two later packets trip it.
        f.register_send(SimTime::from_millis(13));
        f.register_send(SimTime::from_millis(13));
        let _ = f.on_ack(SimTime::from_millis(20), 5);
        let _ = f.on_ack(SimTime::from_millis(21), 6);
        let o = f.on_ack(SimTime::from_millis(22), 7);
        assert_eq!(o.newly_lost, vec![4]);
        assert!(!o.signalled, "same-episode loss must not re-signal");
    }

    #[test]
    fn rto_flushes_scoreboard() {
        let mut f = window_flow(10.0);
        f.register_send(SimTime::ZERO);
        f.register_send(SimTime::ZERO);
        let deadline = f.rto_deadline().unwrap();
        assert_eq!(deadline, SimTime::from_secs(1)); // initial RTO
        assert!(f.on_rto_fire(SimTime::from_millis(500)).is_none());
        let flushed = f.on_rto_fire(deadline).unwrap();
        assert_eq!(flushed, vec![0, 1]);
        assert_eq!(f.inflight(), 0);
        // Exponential backoff.
        assert_eq!(f.rto(), SimTime::from_secs(2));
    }

    #[test]
    fn ack_for_flushed_packet_is_ignored() {
        let mut f = window_flow(10.0);
        f.register_send(SimTime::ZERO);
        let _ = f.on_rto_fire(SimTime::from_secs(1)).unwrap();
        let o = f.on_ack(SimTime::from_secs(2), 0);
        assert!(o.newly_lost.is_empty());
        assert!(!o.signalled);
    }

    #[test]
    fn scoreboard_ring_tracks_head_and_reuses_slots() {
        let info = |t: u64| SentInfo { sent_at: SimTime(t), size: 1, dup: 0 };
        let mut sb = Scoreboard::default();
        for seq in 0..4 {
            sb.insert_next(seq, info(seq));
        }
        assert_eq!(sb.len(), 4);
        // Mid-ring removal leaves a hole; head stays put.
        assert!(sb.remove(2).is_some());
        assert_eq!(sb.len(), 3);
        assert_eq!(sb.oldest().unwrap().sent_at, SimTime(0));
        assert_eq!(sb.live_seqs().collect::<Vec<_>>(), vec![0, 1, 3]);
        // Removing the front pops the acked prefix (including the hole).
        assert!(sb.remove(0).is_some());
        assert!(sb.remove(1).is_some());
        assert_eq!(sb.oldest().unwrap().sent_at, SimTime(3));
        assert_eq!(sb.live_seqs().collect::<Vec<_>>(), vec![3]);
        // Double-remove and unknown seqs are rejected.
        assert!(sb.remove(1).is_none());
        assert!(sb.remove(99).is_none());
        // Draining re-anchors head at the next insert.
        assert!(sb.remove(3).is_some());
        assert_eq!(sb.len(), 0);
        sb.insert_next(4, info(4));
        assert_eq!(sb.live_seqs().collect::<Vec<_>>(), vec![4]);
        assert_eq!(sb.iter_below_mut(4).count(), 0);
        assert_eq!(sb.iter_below_mut(5).count(), 1);
    }

    #[test]
    fn inactive_flow_is_blocked() {
        let mut f = FlowState::new(cfg(), Box::new(FixedWindow::new(4.0)));
        assert_eq!(f.send_decision(SimTime::ZERO), SendDecision::Blocked);
        f.start(SimTime::ZERO);
        f.stop();
        assert_eq!(f.send_decision(SimTime::ZERO), SendDecision::Blocked);
    }
}
