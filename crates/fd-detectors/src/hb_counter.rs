//! The Heartbeat failure detector of Aguilera, Chen & Toueg \[1\]
//! (*Heartbeat: a timeout-free failure detector for quiescent reliable
//! communication*, WDAG 1997) — cited in the paper's §1.1 survey of
//! detector classes beyond Chandra–Toueg's.
//!
//! Unlike every other detector in this crate, Heartbeat is **timeout
//! free**: its output is not a suspect set but a vector of unbounded
//! counters, `HB_p[q]` = how many heartbeats `p` has received from `q`.
//! The counter of a crashed process eventually stops increasing; a
//! correct process's counter increases forever. No timing assumption is
//! consulted, so the output is never "wrong" — it is just evidence.
//!
//! Its killer application (and the reason \[1\] exists) is **quiescent
//! reliable communication** over fair-lossy links: a sender retransmits a
//! message only when the receiver's heartbeat counter has increased since
//! the last attempt, until an ack arrives.
//!
//! * If the receiver is correct, fairness delivers some retransmission
//!   and some ack — reliability.
//! * If the receiver crashed, its counter stops, so retransmissions stop —
//!   **quiescence**, which no timeout-based retransmitter achieves (a
//!   timeout detector may be wrong forever, and "retransmit forever" is
//!   the only safe policy without counter evidence).
//!
//! [`QuiescentChannel`] implements exactly that protocol, as the upper
//! half of a [`Stack`](fd_core::Stack) over [`HeartbeatCounter`].

use fd_core::{Component, Over, SubCtx};
use fd_sim::{Payload, ProcessId, SimDuration, SimMessage, TimerTag};
use std::collections::{HashMap, HashSet, VecDeque};

/// Configuration of the [`HeartbeatCounter`] detector.
#[derive(Debug, Clone)]
pub struct HbCounterConfig {
    /// Heartbeat period.
    pub period: SimDuration,
}

impl Default for HbCounterConfig {
    fn default() -> Self {
        HbCounterConfig {
            period: SimDuration::from_millis(10),
        }
    }
}

/// The heartbeat message of the counter detector.
#[derive(Debug, Clone)]
pub struct HbBeat;

impl SimMessage for HbBeat {
    fn kind(&self) -> &'static str {
        fd_obs::keys::HBC_BEAT
    }
}

const TIMER_BEAT: u32 = 0;

/// The timeout-free Heartbeat detector: output is a counter vector.
#[derive(Debug)]
pub struct HeartbeatCounter {
    cfg: HbCounterConfig,
    counters: Vec<u64>,
}

impl HeartbeatCounter {
    /// Create the detector for one process of `n`.
    pub fn new(n: usize, cfg: HbCounterConfig) -> HeartbeatCounter {
        HeartbeatCounter {
            cfg,
            counters: vec![0; n],
        }
    }

    /// The current counter vector (`HB_p` in \[1\]).
    pub fn counters(&self) -> &[u64] {
        &self.counters
    }

    /// The counter for one process.
    pub fn counter(&self, q: ProcessId) -> u64 {
        self.counters[q.index()]
    }
}

impl Component for HeartbeatCounter {
    type Msg = HbBeat;

    fn ns(&self) -> u32 {
        crate::ns::HB_COUNTER
    }

    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, HbBeat>) {
        ctx.send_to_others(HbBeat);
        ctx.set_timer(self.cfg.period, TIMER_BEAT, 0);
    }

    fn on_message<N: SimMessage>(
        &mut self,
        _ctx: &mut SubCtx<'_, '_, N, HbBeat>,
        from: ProcessId,
        _msg: HbBeat,
    ) {
        self.counters[from.index()] += 1;
    }

    fn on_timer<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, HbBeat>, kind: u32, _d: u64) {
        debug_assert_eq!(kind, TIMER_BEAT);
        ctx.send_to_others(HbBeat);
        ctx.set_timer(self.cfg.period, TIMER_BEAT, 0);
    }
}

/// Observation tag: a payload was quiescently delivered
/// (`U64Pair(seq, payload)`).
pub use fd_obs::keys::QC_DELIVERED;

/// Messages of the quiescent channel.
#[derive(Debug, Clone)]
pub enum QcMsg {
    /// A (re)transmission of payload `payload` with sender-local `seq`.
    Data {
        /// Sender-local sequence number.
        seq: u64,
        /// The payload.
        payload: u64,
    },
    /// Acknowledgement of `seq`.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
}

impl SimMessage for QcMsg {
    fn kind(&self) -> &'static str {
        match self {
            QcMsg::Data { .. } => fd_obs::keys::QC_DATA,
            QcMsg::Ack { .. } => fd_obs::keys::QC_ACK,
        }
    }
}

const TIMER_RETRY: u32 = 0;

/// One pending outbound message.
#[derive(Debug)]
struct Pending {
    to: ProcessId,
    seq: u64,
    payload: u64,
    /// The receiver's heartbeat counter at our last transmission: we send
    /// again only after it increases (the \[1\] rule).
    sent_at_hb: u64,
}

/// Heartbeat-driven quiescent reliable point-to-point channel.
#[derive(Debug)]
pub struct QuiescentChannel {
    cfg: HbCounterConfig,
    next_seq: u64,
    pending: Vec<Pending>,
    received: HashSet<(ProcessId, u64)>,
    delivered: VecDeque<(ProcessId, u64, u64)>,
    /// Retransmission counts, for the quiescence assertions.
    transmissions: HashMap<(ProcessId, u64), u64>,
}

impl QuiescentChannel {
    /// Create the channel endpoint.
    pub fn new(cfg: HbCounterConfig) -> QuiescentChannel {
        QuiescentChannel {
            cfg,
            next_seq: 0,
            pending: Vec::new(),
            received: HashSet::new(),
            delivered: VecDeque::new(),
            transmissions: HashMap::new(),
        }
    }

    /// Number of not-yet-acknowledged messages.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// How many times `(to, seq)` has been transmitted.
    pub fn transmissions(&self, to: ProcessId, seq: u64) -> u64 {
        self.transmissions.get(&(to, seq)).copied().unwrap_or(0)
    }

    /// Drain messages delivered to this endpoint: `(from, seq, payload)`.
    pub fn take_delivered(&mut self) -> Vec<(ProcessId, u64, u64)> {
        self.delivered.drain(..).collect()
    }

    fn transmit<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, QcMsg>,
        idx: usize,
        hb: &[u64],
    ) {
        // fd-lint: allow(HP001, reason = "idx is a live index into pending, produced by the caller's scan")
        let p = &mut self.pending[idx];
        // fd-lint: allow(HP001, reason = "hb carries one counter per process; to.index() < n by construction")
        p.sent_at_hb = hb[p.to.index()];
        *self.transmissions.entry((p.to, p.seq)).or_default() += 1;
        let msg = QcMsg::Data {
            seq: p.seq,
            payload: p.payload,
        };
        let to = p.to;
        ctx.send(to, msg);
    }

    /// Reliably send `payload` to `to`; returns the sequence number.
    /// Callable through [`Stack::with_above`](fd_core::Stack::with_above).
    pub fn send<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, QcMsg>,
        to: ProcessId,
        payload: u64,
        hb: &HeartbeatCounter,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(Pending {
            to,
            seq,
            payload,
            sent_at_hb: 0,
        });
        let idx = self.pending.len() - 1;
        self.transmit(ctx, idx, hb.counters());
        seq
    }
}

impl Over<HeartbeatCounter> for QuiescentChannel {
    type Msg = QcMsg;

    fn ns(&self) -> u32 {
        crate::ns::QUIESCENT
    }

    /// Startup: arm the retry scan.
    fn on_start<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, QcMsg>,
        _hb: &HeartbeatCounter,
    ) {
        ctx.set_timer(self.cfg.period, TIMER_RETRY, 0);
    }

    /// Handle channel traffic.
    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, QcMsg>,
        from: ProcessId,
        msg: QcMsg,
        _hb: &HeartbeatCounter,
    ) {
        match msg {
            QcMsg::Data { seq, payload } => {
                // Always re-ack (the previous ack may have been lost);
                // deliver at most once.
                ctx.send(from, QcMsg::Ack { seq });
                if self.received.insert((from, seq)) {
                    self.delivered.push_back((from, seq, payload));
                    ctx.observe(QC_DELIVERED, Payload::U64Pair(seq, payload));
                }
            }
            QcMsg::Ack { seq } => {
                self.pending.retain(|p| !(p.to == from && p.seq == seq));
            }
        }
    }

    /// Periodic retry scan: retransmit exactly the pending messages whose
    /// receiver shows fresh heartbeat evidence.
    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, QcMsg>,
        tag: TimerTag,
        hb: &HeartbeatCounter,
    ) {
        debug_assert_eq!(tag.kind, TIMER_RETRY);
        let hb = hb.counters();
        for idx in 0..self.pending.len() {
            if hb[self.pending[idx].to.index()] > self.pending[idx].sent_at_hb {
                self.transmit(ctx, idx, hb);
            }
        }
        ctx.set_timer(self.cfg.period, TIMER_RETRY, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::Stack;
    use fd_sim::{LinkModel, NetworkConfig, Time, WorldBuilder};

    type Node = Stack<HeartbeatCounter, QuiescentChannel>;

    /// The full \[1\] stack for one process of `n`.
    fn node(_: ProcessId, n: usize) -> Node {
        let cfg = HbCounterConfig::default();
        Stack::new(
            HeartbeatCounter::new(n, cfg.clone()),
            QuiescentChannel::new(cfg),
        )
    }

    /// Reliably send `payload` from `from` to `to`.
    fn send(w: &mut fd_sim::World<Node>, from: ProcessId, to: ProcessId, payload: u64) {
        w.interact(from, |node, ctx| {
            node.with_above(ctx, |qc, ctx, hb| qc.send(ctx, to, payload, hb));
        });
    }

    fn lossy_net(n: usize, drop: f64) -> NetworkConfig {
        NetworkConfig::new(n).with_default(LinkModel::fair_lossy(
            SimDuration::from_millis(1),
            SimDuration::from_millis(4),
            drop,
        ))
    }

    #[test]
    fn counters_grow_for_correct_and_stop_for_crashed() {
        let n = 3;
        let mut w = WorldBuilder::new(lossy_net(n, 0.2))
            .seed(111)
            .crash_at(ProcessId(2), Time::from_millis(300))
            .build(node);
        w.run_until_time(Time::from_secs(1));
        let crashed_at_1s = w.actor(ProcessId(0)).below.counter(ProcessId(2));
        let correct_at_1s = w.actor(ProcessId(0)).below.counter(ProcessId(1));
        w.run_until_time(Time::from_secs(3));
        assert_eq!(
            w.actor(ProcessId(0)).below.counter(ProcessId(2)),
            crashed_at_1s,
            "a crashed process's counter must freeze"
        );
        assert!(
            w.actor(ProcessId(0)).below.counter(ProcessId(1)) > correct_at_1s + 100,
            "a correct process's counter keeps growing"
        );
    }

    #[test]
    fn delivery_over_heavy_fair_loss() {
        // 70% loss on every link: retransmissions driven by heartbeat
        // evidence must still get the message through, exactly once.
        let n = 2;
        let mut w = WorldBuilder::new(lossy_net(n, 0.7)).seed(112).build(node);
        send(&mut w, ProcessId(0), ProcessId(1), 4242);
        let got = w.run_until(Time::from_secs(30), |w| {
            // Peek receiver state through the trace-free accessor.
            w.actor(ProcessId(1))
                .above
                .received
                .contains(&(ProcessId(0), 0))
        });
        assert!(got, "payload must be delivered despite 70% loss");
        // Exactly-once delivery even though Data was retransmitted.
        let mut rx = w
            .actor(ProcessId(1))
            .above
            .delivered
            .iter()
            .copied()
            .collect::<Vec<_>>();
        rx.dedup();
        assert_eq!(rx, vec![(ProcessId(0), 0, 4242)]);
        // The delivery is also announced on the registered `qc.delivered`
        // observation tag — the channel's public telemetry — exactly once.
        let announced = w
            .trace()
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    fd_sim::TraceKind::Observation {
                        pid: ProcessId(1),
                        tag,
                        payload: fd_sim::Payload::U64Pair(0, 4242),
                    } if tag == QC_DELIVERED
                )
            })
            .count();
        assert_eq!(announced, 1, "one qc.delivered observation per delivery");
        assert!(
            w.actor(ProcessId(0)).above.transmissions(ProcessId(1), 0) >= 2,
            "loss must have forced retransmissions"
        );
    }

    #[test]
    fn sender_goes_quiescent_when_the_receiver_crashes() {
        // The [1] headline: sending to a crashed process STOPS, because
        // its heartbeat counter freezes — no timeout guessing involved.
        let n = 2;
        // The receiver is dead from the very first event: no ack can
        // ever arrive, so only quiescence can silence the sender.
        let mut w = WorldBuilder::new(lossy_net(n, 0.3))
            .seed(113)
            .crash_at(ProcessId(1), Time::ZERO)
            .build(node);
        send(&mut w, ProcessId(0), ProcessId(1), 7);
        w.run_until_time(Time::from_secs(2));
        let tx_at_2s = w.actor(ProcessId(0)).above.transmissions(ProcessId(1), 0);
        w.run_until_time(Time::from_secs(6));
        let tx_at_6s = w.actor(ProcessId(0)).above.transmissions(ProcessId(1), 0);
        assert_eq!(tx_at_2s, tx_at_6s, "retransmissions must stop (quiescence)");
        assert_eq!(
            w.actor(ProcessId(0)).above.pending_len(),
            1,
            "still unacked, but silent"
        );
    }

    #[test]
    fn acks_are_regenerated_for_duplicate_data() {
        // Lost acks cause duplicate Data; the receiver re-acks and the
        // sender's pending set eventually empties.
        let n = 2;
        let mut w = WorldBuilder::new(lossy_net(n, 0.6)).seed(114).build(node);
        for k in 0..5u64 {
            send(&mut w, ProcessId(0), ProcessId(1), 100 + k);
        }
        let emptied = w.run_until(Time::from_secs(30), |w| {
            w.actor(ProcessId(0)).above.pending_len() == 0
        });
        assert!(emptied, "all five messages must eventually be acked");
        let mut payloads: Vec<u64> = w
            .actor(ProcessId(1))
            .above
            .delivered
            .iter()
            .map(|(_, _, v)| *v)
            .collect();
        payloads.sort_unstable();
        assert_eq!(payloads, vec![100, 101, 102, 103, 104]);
    }
}
