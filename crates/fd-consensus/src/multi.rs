//! Repeated consensus: a replicated command log.
//!
//! The standard way consensus is *used* (and the application the paper's
//! introduction motivates): a sequence of independent Uniform Consensus
//! instances, one per log slot. [`MultiEc`] multiplexes any number of
//! [`EcConsensus`] instances over one node — messages and timers are
//! tagged with the slot — and drives itself: each replica queues client
//! commands with [`MultiNode::submit`], proposes its head-of-queue
//! command for the next slot, and advances when the slot's decision
//! arrives by Reliable Broadcast. All correct replicas end up with the
//! identical decided log.
//!
//! The multiplexer is deliberately built on the ◇C algorithm rather
//! than being generic over [`RoundProtocol`]: it relies on the property
//! that *every* replica's estimate reaches the slot coordinator (Phase
//! 1), so a command submitted at any replica can win its slot without
//! extra machinery. A leader-proposes-its-own-value protocol (e.g. the
//! Paxos synod in [`crate::paxos`]) would additionally need client
//! command *forwarding* to the leader — the Multi-Paxos design — which
//! is out of this reproduction's scope.

use crate::api::{ConsensusConfig, DecidePayload, ProtocolStep, RoundProtocol};
use crate::ec::{EcConsensus, EcMsg};
use fd_broadcast::{RbMsg, ReliableBroadcast};
use fd_core::Component;
use fd_core::{EventuallyConsistentOracle, LeaderOracle, SubCtx, SuspectOracle};
use fd_sim::{Actor, Context, Payload, ProcessId, SimMessage, TimerTag};
use std::collections::VecDeque;

/// Observation tag for log appends: payload `U64Pair(slot, value)`.
pub use fd_obs::keys::MULTI_APPEND as LOG_APPEND;

/// Timer-namespace base for slot instances: slot `s` uses `MULTI_NS_BASE + s`.
pub const MULTI_NS_BASE: u32 = 0x1000_0000;

/// Largest slot representable in the timer-namespace encoding.
pub const MAX_SLOT: u64 = (u32::MAX - MULTI_NS_BASE) as u64;

/// The timer namespace of log slot `slot` (`MULTI_NS_BASE + slot`).
/// Public so hosts other than [`MultiNode`] — e.g. the `fd-kv` replica,
/// which multiplexes the same per-slot instances next to its own sync
/// protocol — route slot timers identically.
pub fn slot_ns(slot: u64) -> u32 {
    assert!(
        slot <= MAX_SLOT,
        "log slot {slot} exceeds the namespace encoding (MAX_SLOT = {MAX_SLOT})"
    );
    MULTI_NS_BASE + slot as u32
}

/// The no-op command a replica proposes when it is pulled into a slot it
/// has no pending command for. Consensus needs a majority of real
/// (non-null) estimates to propose, so bystander replicas must
/// contribute *something*; applications skip `NOOP` entries when
/// applying the log. NOOP is the *smallest* value so the estimate
/// selection's value tie-break always prefers a real command — a slot
/// decides NOOP only when nobody had anything to propose.
pub const NOOP: u64 = 0;

/// A slot-tagged consensus message.
#[derive(Debug, Clone)]
pub struct MultiMsg {
    /// The log slot this message belongs to.
    pub slot: u64,
    /// The instance-level message.
    pub inner: EcMsg,
}

impl SimMessage for MultiMsg {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn round(&self) -> Option<u64> {
        self.inner.round()
    }
}

/// Decision broadcast payload: `(slot, value, round)`.
pub type SlotDecide = (u64, u64, u64);

/// Everything a node knows about one log slot.
#[derive(Debug, Default)]
struct Slot {
    /// The slot's consensus instance, created on first touch.
    instance: Option<EcConsensus>,
    /// The command this node proposed here, if it proposed.
    proposed: Option<u64>,
    /// The slot's decision, once known.
    decided: Option<DecidePayload>,
}

/// The multiplexer of per-slot [`EcConsensus`] instances.
#[derive(Debug)]
pub struct MultiEc {
    me: ProcessId,
    n: usize,
    cfg: ConsensusConfig,
    /// Per-slot state, indexed by slot number. Nothing is ever removed
    /// or unset — a slot's `proposed` and `decided` only go from `None`
    /// to `Some` — and slots are opened in order (the depth-1 pipeline),
    /// so above the base the table is dense (a node recovered at base
    /// `b` carries `b` empty entries below it) and every per-message
    /// probe is one index.
    slots: Vec<Slot>,
    /// Client commands waiting for a slot.
    pending: VecDeque<u64>,
    /// First slot this node tracks. Slots below `base` were decided
    /// before its horizon — learned wholesale via snapshot catch-up —
    /// so it neither stores nor proposes in them.
    base: u64,
    /// The log frontier: every slot in `base..first_undecided` is
    /// decided, `first_undecided` itself is not. A monotone cursor —
    /// `slots` is fill-only and `base` only rises, so neither frontier
    /// can move back, and both are advanced where those change instead
    /// of being rescanned from `base` on every query.
    first_undecided: u64,
    /// The proposal frontier: every slot in `base..next_unproposed` is
    /// decided or proposed in, `next_unproposed` itself is neither.
    next_unproposed: u64,
}

impl MultiEc {
    /// Create the multiplexer for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, cfg: ConsensusConfig) -> MultiEc {
        MultiEc {
            me,
            n,
            cfg,
            slots: Vec::new(),
            pending: VecDeque::new(),
            base: 0,
            first_undecided: 0,
            next_unproposed: 0,
        }
    }

    /// The decided log so far: contiguous from [`base`](MultiEc::base)
    /// up to the first undecided slot.
    pub fn log(&self) -> Vec<(u64, u64)> {
        (self.base..self.first_undecided)
            .map(|slot| {
                let (value, _) = self
                    .decided(slot)
                    .expect("slots below the frontier are decided");
                (slot, value)
            })
            .collect()
    }

    /// The decision of `slot`, if known (even out of order).
    pub fn decided(&self, slot: u64) -> Option<DecidePayload> {
        self.slots.get(slot as usize)?.decided
    }

    /// The table entry of `slot`, growing the table to reach it.
    fn slot_mut(&mut self, slot: u64) -> &mut Slot {
        let i = slot as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, Slot::default);
        }
        &mut self.slots[i]
    }

    /// First slot this node tracks (0 unless raised by catch-up).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Raise the tracking base to `base` (never lowers it): every slot
    /// below is treated as decided-elsewhere. A recovering replica calls
    /// this with `applied + 1` after snapshot catch-up so it re-enters
    /// the proposer rotation at the log frontier instead of re-opening
    /// slots whose decisions it learned wholesale.
    pub fn raise_base(&mut self, base: u64) {
        if base > self.base {
            self.base = base;
            self.first_undecided = self.first_undecided.max(base);
            self.next_unproposed = self.next_unproposed.max(base);
            self.advance_frontiers();
        }
    }

    /// Move both frontiers past every slot that is now filled. Each slot
    /// is stepped over once in the life of the log, so callers pay O(1)
    /// amortised — and call this only when an insert lands *on* a
    /// frontier (or the base jumps), the only ways one can move.
    fn advance_frontiers(&mut self) {
        while self.decided(self.first_undecided).is_some() {
            self.first_undecided += 1;
        }
        while self.decided(self.next_unproposed).is_some()
            || self.proposed_in(self.next_unproposed).is_some()
        {
            self.next_unproposed += 1;
        }
    }

    /// Queue a client command for the next free slot.
    pub fn push_pending(&mut self, command: u64) {
        assert_ne!(command, NOOP, "NOOP is reserved");
        self.pending.push_back(command);
    }

    /// Take the head-of-queue command, if any.
    pub fn pop_pending(&mut self) -> Option<u64> {
        self.pending.pop_front()
    }

    /// Put a command back at the *head* of the queue — the re-queue path
    /// for a command that lost its slot to another replica's.
    pub fn requeue_front(&mut self, command: u64) {
        self.pending.push_front(command);
    }

    /// Whether this node has proposed in `slot`, and with which command.
    pub fn proposed_in(&self, slot: u64) -> Option<u64> {
        self.slots.get(slot as usize)?.proposed
    }

    /// Record that this node proposed `command` in `slot`.
    pub fn mark_proposed(&mut self, slot: u64, command: u64) {
        self.slot_mut(slot).proposed = Some(command);
        if slot == self.next_unproposed {
            self.advance_frontiers();
        }
    }

    /// Record the decision of `slot`. Returns `true` if it is news
    /// (not below [`base`](MultiEc::base), not already recorded) — the
    /// caller appends to its application log exactly when this is true,
    /// which makes duplicate `SlotDecide` deliveries idempotent.
    pub fn record_decision(&mut self, slot: u64, value: u64, round: u64) -> bool {
        if slot < self.base || self.decided(slot).is_some() {
            return false;
        }
        self.slot_mut(slot).decided = Some((value, round));
        if slot == self.first_undecided || slot == self.next_unproposed {
            self.advance_frontiers();
        }
        true
    }

    /// The first slot at or above [`base`](MultiEc::base) with no
    /// recorded decision — the log frontier.
    pub fn first_undecided(&self) -> u64 {
        self.first_undecided
    }

    /// The depth-1 pipeline step both hosts drive: if a command is
    /// waiting and the slot before the proposal frontier is decided (or
    /// the frontier sits on the tracking base), take the head-of-queue
    /// command and name the slot to propose it in.
    pub fn next_proposal(&mut self) -> Option<(u64, u64)> {
        let slot = self.next_unproposed;
        if self.pending.is_empty() || (slot > self.base && self.decided(slot - 1).is_none()) {
            return None;
        }
        self.pending.pop_front().map(|command| (slot, command))
    }

    /// The consensus instance of `slot`, created on first touch.
    pub fn instance(&mut self, slot: u64) -> &mut EcConsensus {
        let me = self.me;
        let n = self.n;
        let cfg = self.cfg.clone();
        self.slot_mut(slot)
            .instance
            .get_or_insert_with(|| EcConsensus::new(me, n, cfg))
    }
}

/// Combined node message of a [`MultiNode`].
#[derive(Debug, Clone)]
pub enum MultiNodeMsg<F> {
    /// Failure-detector traffic.
    Fd(F),
    /// Slot-decision broadcasts.
    Rb(RbMsg<SlotDecide>),
    /// Slot-tagged consensus traffic.
    Cons(MultiMsg),
    /// "Slot `s` is open": the initiating replica tells everyone to
    /// propose in it (their pending command or a NOOP), so the slot's
    /// eventual coordinator — which may have had nothing to propose —
    /// starts its Phase 0.
    Open {
        /// The opened slot.
        slot: u64,
    },
}

impl<F: SimMessage> SimMessage for MultiNodeMsg<F> {
    fn kind(&self) -> &'static str {
        match self {
            MultiNodeMsg::Fd(m) => m.kind(),
            MultiNodeMsg::Rb(m) => m.kind(),
            MultiNodeMsg::Cons(m) => m.kind(),
            MultiNodeMsg::Open { .. } => fd_obs::keys::MULTI_OPEN,
        }
    }
    fn round(&self) -> Option<u64> {
        match self {
            MultiNodeMsg::Fd(m) => m.round(),
            MultiNodeMsg::Rb(_) => None,
            MultiNodeMsg::Cons(m) => m.round(),
            MultiNodeMsg::Open { .. } => None,
        }
    }
}

/// A replica: detector + Reliable Broadcast + the consensus multiplexer.
pub struct MultiNode<D: Component> {
    /// The ◇C failure-detection module.
    pub fd: D,
    /// Slot-decision dissemination.
    pub rb: ReliableBroadcast<SlotDecide>,
    /// The per-slot consensus instances.
    pub multi: MultiEc,
}

impl<D> MultiNode<D>
where
    D: Component + SuspectOracle + LeaderOracle,
{
    /// Assemble a replica.
    pub fn new(me: ProcessId, fd: D, multi: MultiEc) -> Self {
        let rb = ReliableBroadcast::new(me);
        assert_ne!(
            fd.ns(),
            rb.ns(),
            "components must own distinct timer namespaces"
        );
        assert!(
            fd.ns() < MULTI_NS_BASE && rb.ns() < MULTI_NS_BASE,
            "ns clash with slot range"
        );
        MultiNode { fd, rb, multi }
    }

    /// Queue a client command. It is proposed for the next free slot; if
    /// another replica's command wins that slot, it is automatically
    /// re-queued, so every submitted command is eventually decided
    /// (at-least-once; deduplication is the application's concern).
    pub fn submit(&mut self, ctx: &mut Context<'_, MultiNodeMsg<D::Msg>>, command: u64) {
        self.multi.push_pending(command);
        self.drive(ctx);
    }

    /// The replica's decided log (contiguous prefix).
    pub fn log(&self) -> Vec<(u64, u64)> {
        self.multi.log()
    }

    /// Propose pending commands for free slots (one outstanding slot at a
    /// time, the classic SMR pipeline of depth 1).
    fn drive(&mut self, ctx: &mut Context<'_, MultiNodeMsg<D::Msg>>) {
        if let Some((slot, command)) = self.multi.next_proposal() {
            self.propose_in_slot(ctx, slot, command, true);
        }
    }

    /// A message/timer arrived for a slot we never proposed in: another
    /// replica opened it. Join with our pending command (it may win the
    /// slot) or a NOOP, so the slot's coordinator can gather a majority
    /// of real estimates.
    fn ensure_proposed(&mut self, ctx: &mut Context<'_, MultiNodeMsg<D::Msg>>, slot: u64) {
        if self.multi.proposed_in(slot).is_some() || self.multi.decided(slot).is_some() {
            return;
        }
        let command = self.multi.pop_pending().unwrap_or(NOOP);
        self.propose_in_slot(ctx, slot, command, false);
    }

    fn propose_in_slot(
        &mut self,
        ctx: &mut Context<'_, MultiNodeMsg<D::Msg>>,
        slot: u64,
        command: u64,
        announce: bool,
    ) {
        if announce {
            // Tell every replica the slot exists; each joins with its own
            // pending command or a NOOP. Without this, a slot whose
            // eventual coordinator has nothing to propose never starts.
            for i in 0..ctx.n() {
                let q = ProcessId(i);
                if q != ctx.me() {
                    ctx.send(q, MultiNodeMsg::Open { slot });
                }
            }
        }
        self.multi.mark_proposed(slot, command);
        let fd = self.fd.output();
        let ns = slot_ns(slot);
        let wrap = move |m: EcMsg| MultiNodeMsg::Cons(MultiMsg { slot, inner: m });
        let step = {
            let inst = self.multi.instance(slot);
            inst.on_propose(&mut SubCtx::new(ctx, &wrap, ns), command, fd)
        };
        self.apply_step(ctx, slot, step);
        ctx.observe(api_obs::PROPOSE_SLOT, Payload::U64Pair(slot, command));
    }

    fn apply_step(
        &mut self,
        ctx: &mut Context<'_, MultiNodeMsg<D::Msg>>,
        slot: u64,
        step: ProtocolStep,
    ) {
        if let Some((value, round)) = step.broadcast_decision {
            let ns = self.rb.ns();
            self.rb.broadcast(
                &mut SubCtx::new(ctx, &MultiNodeMsg::Rb, ns),
                (slot, value, round),
            );
        }
        self.drain_deliveries(ctx);
    }

    fn drain_deliveries(&mut self, ctx: &mut Context<'_, MultiNodeMsg<D::Msg>>) {
        let deliveries = self.rb.take_delivered();
        for d in deliveries {
            let (slot, value, round) = d.payload;
            if !self.multi.record_decision(slot, value, round) {
                continue;
            }
            ctx.observe(LOG_APPEND, Payload::U64Pair(slot, value));
            // Our command lost this slot: re-queue it for the next one.
            if let Some(mine) = self.multi.proposed_in(slot) {
                if mine != value && mine != NOOP {
                    self.multi.requeue_front(mine);
                }
            }
            let ns = slot_ns(slot);
            let wrap = move |m: EcMsg| MultiNodeMsg::Cons(MultiMsg { slot, inner: m });
            let inst = self.multi.instance(slot);
            inst.on_decide_delivered(&mut SubCtx::new(ctx, &wrap, ns), value, round);
        }
        // A decision may have unblocked the next slot.
        self.drive(ctx);
    }
}

impl<D> Actor for MultiNode<D>
where
    D: Component + SuspectOracle + LeaderOracle,
{
    type Msg = MultiNodeMsg<D::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let ns = self.fd.ns();
        self.fd
            .on_start(&mut SubCtx::new(ctx, &MultiNodeMsg::Fd, ns));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg) {
        match msg {
            MultiNodeMsg::Fd(m) => {
                let ns = self.fd.ns();
                self.fd
                    .on_message(&mut SubCtx::new(ctx, &MultiNodeMsg::Fd, ns), from, m);
            }
            MultiNodeMsg::Rb(m) => {
                let ns = self.rb.ns();
                self.rb
                    .on_message(&mut SubCtx::new(ctx, &MultiNodeMsg::Rb, ns), from, m);
                self.drain_deliveries(ctx);
            }
            MultiNodeMsg::Open { slot } => {
                self.ensure_proposed(ctx, slot);
            }
            MultiNodeMsg::Cons(MultiMsg { slot, inner }) => {
                self.ensure_proposed(ctx, slot);
                let fd = self.fd.output();
                let ns = slot_ns(slot);
                let wrap = move |m: EcMsg| MultiNodeMsg::Cons(MultiMsg { slot, inner: m });
                let step = {
                    let inst = self.multi.instance(slot);
                    inst.on_message(&mut SubCtx::new(ctx, &wrap, ns), from, inner, fd)
                };
                self.apply_step(ctx, slot, step);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: TimerTag) {
        if tag.ns == self.fd.ns() {
            self.fd.on_timer(
                &mut SubCtx::new(ctx, &MultiNodeMsg::Fd, tag.ns),
                tag.kind,
                tag.data,
            );
        } else if tag.ns >= MULTI_NS_BASE {
            let slot = (tag.ns - MULTI_NS_BASE) as u64;
            let fd = self.fd.output();
            let wrap = move |m: EcMsg| MultiNodeMsg::Cons(MultiMsg { slot, inner: m });
            let step = {
                let inst = self.multi.instance(slot);
                inst.on_timer(&mut SubCtx::new(ctx, &wrap, tag.ns), tag.kind, tag.data, fd)
            };
            self.apply_step(ctx, slot, step);
        } else {
            debug_assert_eq!(tag.ns, self.rb.ns(), "timer for an unknown namespace");
        }
    }
}

/// Observation tags specific to the multiplexer.
pub mod api_obs {
    /// A replica proposed `U64Pair(slot, command)`.
    pub use fd_obs::keys::MULTI_PROPOSE as PROPOSE_SLOT;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConsensusConfig;
    use fd_detectors::{HeartbeatConfig, HeartbeatDetector, LeaderByFirstNonSuspected};
    use fd_sim::{Time, World, WorldBuilder};

    type Replica = MultiNode<LeaderByFirstNonSuspected<HeartbeatDetector>>;

    fn replica(pid: ProcessId, n: usize) -> Replica {
        MultiNode::new(
            pid,
            LeaderByFirstNonSuspected::new(
                HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                n,
            ),
            MultiEc::new(pid, n, ConsensusConfig::default()),
        )
    }

    fn world(n: usize, seed: u64) -> World<Replica> {
        WorldBuilder::new(crate::harness::default_net(n))
            .seed(seed)
            .build(replica)
    }

    /// All submitted commands, for containment checks.
    fn submitted(n: usize, per: u64) -> Vec<u64> {
        (0..n)
            .flat_map(|i| (0..per).map(move |k| (i as u64 + 1) * 100 + k))
            .collect()
    }

    #[test]
    fn replicas_build_identical_logs() {
        let n = 5;
        let mut w = world(n, 201);
        // Every replica submits three commands concurrently.
        for i in 0..n {
            for k in 0..3u64 {
                let cmd = (i as u64 + 1) * 100 + k;
                w.interact(ProcessId(i), move |node, ctx| node.submit(ctx, cmd));
            }
        }
        // Losing commands re-queue, so eventually every submitted command
        // is in every replica's log (possibly interleaved with NOOPs).
        let all = submitted(n, 3);
        let contains_all = |log: &[(u64, u64)]| {
            let vals: Vec<u64> = log.iter().map(|(_, v)| *v).collect();
            all.iter().all(|c| vals.contains(c))
        };
        let done = w.run_until(Time::from_secs(120), |w| {
            (0..n).all(|i| contains_all(&w.actor(ProcessId(i)).log()))
        });
        assert!(
            done,
            "logs did not fill: {:?}",
            (0..n)
                .map(|i| w.actor(ProcessId(i)).log().len())
                .collect::<Vec<_>>()
        );
        // Logs agree on every common slot (replicas may be at different
        // lengths, but never disagree).
        let reference = w.actor(ProcessId(0)).log();
        for i in 1..n {
            let log = w.actor(ProcessId(i)).log();
            let common = reference.len().min(log.len());
            assert_eq!(&log[..common], &reference[..common], "p{i} log diverged");
        }
        // Every decided non-NOOP command was actually submitted.
        for (_, v) in &reference {
            assert!(*v == NOOP || all.contains(v), "alien command {v}");
        }
    }

    #[test]
    fn log_survives_replica_crashes() {
        let n = 5;
        let mut w = world(n, 202);
        for i in 0..n {
            for k in 0..2u64 {
                let cmd = (i as u64 + 1) * 10 + k;
                w.interact(ProcessId(i), move |node, ctx| node.submit(ctx, cmd));
            }
        }
        w.schedule_crash(ProcessId(4), Time::from_millis(30));
        w.schedule_crash(ProcessId(3), Time::from_millis(90));
        // The crashed replicas' commands may be lost, but the surviving
        // replicas' six commands must all eventually be decided.
        let survivors_cmds: Vec<u64> = (0..3)
            .flat_map(|i| (0..2u64).map(move |k| (i as u64 + 1) * 10 + k))
            .collect();
        let done = w.run_until(Time::from_secs(120), |w| {
            (0..3).all(|i| {
                let vals: Vec<u64> = w
                    .actor(ProcessId(i))
                    .log()
                    .iter()
                    .map(|(_, v)| *v)
                    .collect();
                survivors_cmds.iter().all(|c| vals.contains(c))
            })
        });
        assert!(done, "surviving replicas stalled");
        let reference = w.actor(ProcessId(0)).log();
        for i in 1..3 {
            let log = w.actor(ProcessId(i)).log();
            let common = reference.len().min(log.len());
            assert_eq!(&log[..common], &reference[..common], "p{i} prefix diverged");
        }
    }

    #[test]
    fn record_decision_tolerates_out_of_order_and_duplicates() {
        let mut m = MultiEc::new(ProcessId(0), 4, ConsensusConfig::default());
        // Slot 2 arrives first: known, but not part of the contiguous log.
        assert!(m.record_decision(2, 22, 1));
        assert_eq!(m.first_undecided(), 0);
        assert!(m.log().is_empty(), "no contiguous prefix yet");
        assert!(m.record_decision(0, 20, 1));
        assert_eq!(m.first_undecided(), 1);
        assert_eq!(m.log(), vec![(0, 20)]);
        // A duplicate delivery of slot 0 — even claiming a different
        // value — is rejected and the original decision stands.
        assert!(!m.record_decision(0, 99, 2));
        assert_eq!(m.decided(0), Some((20, 1)));
        assert!(m.record_decision(1, 21, 3));
        assert_eq!(m.first_undecided(), 3);
        assert_eq!(m.log(), vec![(0, 20), (1, 21), (2, 22)]);
    }

    #[test]
    fn raised_base_excludes_caught_up_slots() {
        let mut m = MultiEc::new(ProcessId(1), 4, ConsensusConfig::default());
        m.raise_base(5);
        assert!(
            !m.record_decision(3, 33, 1),
            "below-base slots are not news"
        );
        assert_eq!(m.next_unproposed, 5);
        assert_eq!(m.first_undecided(), 5);
        assert!(m.record_decision(5, 55, 1));
        assert_eq!(m.log(), vec![(5, 55)]);
        m.raise_base(2);
        assert_eq!(m.base(), 5, "raise_base never lowers the base");
    }

    /// The frontiers as they were computed before they were cursors: a
    /// scan from the base over the public per-slot queries. Test oracle.
    fn scanned_frontiers(m: &MultiEc) -> (u64, u64) {
        let mut undecided = m.base();
        while m.decided(undecided).is_some() {
            undecided += 1;
        }
        let mut unproposed = m.base();
        while m.decided(unproposed).is_some() || m.proposed_in(unproposed).is_some() {
            unproposed += 1;
        }
        (undecided, unproposed)
    }

    proptest::proptest! {
        /// Random interleavings of the three operations that can move a
        /// frontier — including decisions and proposals far ahead of,
        /// on, and behind the cursors, duplicates, and bases raised both
        /// past the cursors and below them — leave both cursors, the
        /// contiguous log and the depth-1 gate equal to the scan.
        #[test]
        fn frontier_cursors_equal_the_naive_scan(
            ops in proptest::prop::collection::vec((0u8..8, 0u64..24), 1..80),
        ) {
            let mut m = MultiEc::new(ProcessId(0), 4, ConsensusConfig::default());
            for (step, &(op, slot)) in ops.iter().enumerate() {
                match op {
                    0..=2 => m.mark_proposed(slot, 100 + slot),
                    3..=6 => {
                        let news = m.decided(slot).is_none() && slot >= m.base();
                        proptest::prop_assert_eq!(m.record_decision(slot, 200 + slot, 1), news);
                    }
                    _ => m.raise_base(slot),
                }
                let (undecided, unproposed) = scanned_frontiers(&m);
                proptest::prop_assert_eq!(
                    (m.first_undecided(), m.next_unproposed),
                    (undecided, unproposed),
                    "after step {} of {:?}", step, ops
                );
                let log: Vec<(u64, u64)> =
                    (m.base()..undecided).map(|s| (s, 200 + s)).collect();
                proptest::prop_assert_eq!(m.log(), log);
                // The depth-1 gate: a waiting command goes to the
                // proposal frontier exactly when the slot before it is
                // decided or the frontier is the base.
                m.push_pending(7);
                let open = unproposed == m.base() || m.decided(unproposed - 1).is_some();
                proptest::prop_assert_eq!(m.next_proposal(), open.then_some((unproposed, 7)));
                if !open {
                    proptest::prop_assert_eq!(m.pop_pending(), Some(7));
                }
            }
        }
    }

    /// NOOP gap fill: a replica with an empty command queue that learns
    /// of an opened slot must still join it (with NOOP), or the slot's
    /// coordinator could starve waiting for a majority of estimates.
    #[test]
    fn bystander_joins_opened_slot_with_noop() {
        let n = 4;
        let mut w = world(n, 204);
        w.run_until_time(Time::from_millis(20));
        w.interact(ProcessId(2), |node, ctx| {
            node.on_message(ctx, ProcessId(0), MultiNodeMsg::Open { slot: 0 });
        });
        assert_eq!(
            w.actor(ProcessId(2)).multi.proposed_in(0),
            Some(NOOP),
            "bystander must gap-fill the opened slot with NOOP"
        );
    }

    /// The `multi.propose` / `multi.append` observation tags are the
    /// consensus layer's public telemetry (the fd-obs registry tracks
    /// that they stay consumed): every entry of a replica's decided log
    /// must be announced on `multi.append` exactly once, and the run
    /// must carry `multi.propose` announcements for the submissions.
    #[test]
    fn log_telemetry_mirrors_the_decided_log() {
        use fd_sim::TraceKind;
        let n = 3;
        let mut w = world(n, 209);
        for i in 0..n {
            let cmd = (i as u64 + 1) * 100;
            w.interact(ProcessId(i), move |node, ctx| node.submit(ctx, cmd));
        }
        let done = w.run_until(Time::from_secs(60), |w| {
            (0..n).all(|i| w.actor(ProcessId(i)).log().len() >= n)
        });
        assert!(done, "replicas stalled before deciding all submissions");

        let mut appended: Vec<(u64, u64)> = w
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Observation {
                    pid,
                    tag,
                    payload: Payload::U64Pair(slot, value),
                } if pid == ProcessId(0) && tag == LOG_APPEND => Some((slot, value)),
                _ => None,
            })
            .collect();
        let log = w.actor(ProcessId(0)).log();
        for entry in &log {
            assert!(
                appended.contains(entry),
                "log entry {entry:?} was never announced on multi.append"
            );
        }
        let announced = appended.len();
        appended.sort_unstable();
        appended.dedup_by_key(|(slot, _)| *slot);
        assert_eq!(announced, appended.len(), "a slot was announced twice");

        assert!(
            w.trace().events().iter().any(|e| matches!(
                e.kind,
                TraceKind::Observation { tag, .. } if tag == api_obs::PROPOSE_SLOT
            )),
            "submissions must be announced on multi.propose"
        );
    }

    /// Duplicate `SlotDecide` deliveries and reordered decision traffic
    /// (a mangler that duplicates 40% and reorders 50% of messages) must
    /// not corrupt the log: decisions are recorded once, in slot order.
    #[test]
    fn log_agrees_under_duplicating_reordering_mangler() {
        use fd_sim::{chaos, Intervention, LinkMangler, NetChange, Payload, SimDuration};
        let n = 4;
        let mut w = world(n, 205);
        w.schedule_intervention(
            Time::from_millis(1),
            Intervention {
                tag: chaos::MANGLE,
                payload: Payload::None,
                change: NetChange::SetMangler(Some(LinkMangler {
                    drop: 0.0,
                    duplicate: 0.4,
                    reorder: 0.5,
                    skew: SimDuration::from_millis(2),
                })),
            },
        );
        for i in 0..2 {
            for k in 0..3u64 {
                let cmd = (i as u64 + 1) * 100 + k;
                w.interact(ProcessId(i), move |node, ctx| node.submit(ctx, cmd));
            }
        }
        let all = submitted(2, 3);
        let done = w.run_until(Time::from_secs(120), |w| {
            (0..n).all(|i| {
                let vals: Vec<u64> = w
                    .actor(ProcessId(i))
                    .log()
                    .iter()
                    .map(|(_, v)| *v)
                    .collect();
                all.iter().all(|c| vals.contains(c))
            })
        });
        assert!(done, "logs did not converge under the mangler");
        let reference = w.actor(ProcessId(0)).log();
        for i in 1..n {
            let log = w.actor(ProcessId(i)).log();
            let common = reference.len().min(log.len());
            assert_eq!(&log[..common], &reference[..common], "p{i} log diverged");
        }
        // Duplicated deliveries never duplicate a decided command.
        for i in 0..n {
            let mut seen = std::collections::HashSet::new();
            for (_, v) in w.actor(ProcessId(i)).log() {
                if v != NOOP {
                    assert!(seen.insert(v), "command {v} decided twice at p{i}");
                }
            }
        }
    }

    #[test]
    fn slots_decide_in_order_per_replica() {
        let n = 4;
        let mut w = world(n, 203);
        for k in 0..4u64 {
            w.interact(ProcessId(0), move |node, ctx| node.submit(ctx, 1000 + k));
        }
        let done = w.run_until(Time::from_secs(30), |w| {
            w.actor(ProcessId(0)).log().len() >= 4
        });
        assert!(done);
        let log = w.actor(ProcessId(0)).log();
        let slots: Vec<u64> = log.iter().map(|(s, _)| *s).collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        // Single submitter ⇒ commands appear in submission order.
        let vals: Vec<u64> = log.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![1000, 1001, 1002, 1003]);
    }
}
