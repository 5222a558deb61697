//! Repeated consensus: a replicated command log.
//!
//! The standard way consensus is *used* (and the application the paper's
//! introduction motivates): a sequence of independent Uniform Consensus
//! instances, one per log slot. [`MultiEc`] multiplexes any number of
//! [`EcConsensus`] instances over one node — messages are tagged with
//! the slot; the instances arm no timers — and [`Log`] drives it: each
//! replica queues client commands with [`Log::submit`], proposes its
//! **whole pending queue as one batch** for the next slot, and advances
//! when the slot's decision arrives by Reliable Broadcast. All correct
//! replicas end up with the identical decided log.
//!
//! # One slot drive, two hosts
//!
//! [`Log`] alone announces, joins, proposes in and re-checks a slot,
//! and R-broadcasts and learns its decision. A [`MultiNode`] runs it
//! bare; the KV service (`fd_kv::Kv`) runs it with its store and WAL
//! plugged in through [`LogHost`]'s three hooks — so `ecfd mc --protocol
//! multi` explores the slot drive the KV service runs. One rule,
//! [`Log::votes`], says where a replica votes: not while catching up,
//! not below its base, not in a slot quarantined after a crash (state
//! only a recovering host sets). A learned decision closes a slot's
//! instance only where the replica joined and votes.
//!
//! # Names and bodies
//!
//! The paper prices its algorithm per decision (§5.4), so the log's
//! throughput is commands per decision times decisions per second. The
//! consensus underneath stays Figs. 3–4 over a `u64`; what changes is
//! what the `u64` means. A slot's consensus value is the **name** of a
//! batch, `len << 16 | (pid + 1)` — unique within the slot because a
//! process proposes there at most once — and [`NOOP`] (0) names the
//! empty batch. The **body** (the commands, in their submitter's FIFO
//! order) rides beside the name on every slot message that carries a
//! value: a non-null estimate, a non-null proposition, and the
//! `SlotDecide` broadcast. So *whoever holds a name holds its body*, by
//! construction: there is no fetch protocol and no extra message type.
//! `MultiEc::with_instance` is the one place a body is attached to an
//! outgoing message, [`MultiEc::on_message`] the one place an incoming
//! one is kept. Batching is natural — a batch of one at light load,
//! whatever has queued up under backlog — with no timer and no knob.
//!
//! **The order of names is the scheduling policy.** The estimate
//! selection breaks timestamp ties by value order
//! ([`Estimate::newer_of`](crate::api::Estimate::newer_of)), so on a
//! contended slot the largest name wins. Names are length-major: the
//! longest queue drains first, the losers return to the head of their
//! queues in order and are longer — hence ahead — next time. (Pid-major
//! names let the highest pid win every contended slot and starved the
//! rest; ranking the raw command words, as the single-command log did,
//! served the backlog newest-first by opcode.)
//!
//! The pipeline is still **depth 1**: a replica opens slot *s* only when
//! every earlier slot has decided. Batching raises commands per
//! decision; overlapping decisions is a separate step. (A replica can
//! still have two batches in flight — it joins slot *s* + 1, which a
//! faster peer opened, before it learns how *s* went — and those two can
//! pass each other, as two single commands always could: a submitter's
//! order holds within a batch, not across overlapping ones.)
//!
//! The multiplexer is deliberately built on the ◇C algorithm rather
//! than being generic over [`RoundProtocol`]: it relies on the property
//! that *every* replica's estimate reaches the slot coordinator (Phase
//! 1), so a batch submitted at any replica can win its slot without
//! extra machinery. A leader-proposes-its-own-value protocol (e.g. the
//! Paxos synod in [`crate::paxos`]) would additionally need client
//! command *forwarding* to the leader — the Multi-Paxos design — which
//! is out of this reproduction's scope.
//!
//! [`RoundProtocol`]: crate::RoundProtocol

use crate::api::{DecidePayload, ProtocolStep};
use crate::ec::{EcConsensus, EcMsg};
use fd_broadcast::{RbMsg, ReliableBroadcast};
use fd_core::{Component, EventuallyConsistentOracle, FdOutput, Over, Stack, SubCtx};
use fd_sim::{Fnv, Payload, ProcessId, SimMessage, TimerTag};
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

/// Observation tag for log appends: payload `U64Pair(slot, fold)` with
/// `fold` a digest of the decided batch's commands, once per slot per
/// process. Folding the commands rather than announcing the name is
/// what lets `multi.log_agreement` catch two replicas that agree on a
/// slot's name but hold different bodies for it.
pub use fd_obs::keys::MULTI_APPEND as LOG_APPEND;

/// The name of the empty batch, and the single log entry an empty slot
/// contributes to [`MultiEc::log`]. A replica pulled into a slot it has
/// nothing queued for proposes it: consensus needs a majority of real
/// (non-null) estimates, so bystanders must contribute *something*.
/// NOOP is the *smallest* name, so the estimate selection's value
/// tie-break always prefers a real batch — a slot decides NOOP only
/// when nobody had anything to propose.
pub const NOOP: u64 = 0;

/// The commands a batch holds, in their submitter's FIFO order. `None`
/// is the empty batch ([`NOOP`]'s body), so an idle slot allocates
/// nothing.
pub type Body = Option<Rc<[u64]>>;

/// The commands of `body` (none for the empty batch).
pub fn commands(body: &Body) -> &[u64] {
    body.as_deref().unwrap_or(&[])
}

/// A digest of the commands of `body`, in order — what `multi.append`
/// announces for a decided slot.
fn fold_body(body: &Body) -> u64 {
    let mut h = Fnv::new();
    for &command in commands(body) {
        h.u64(command);
    }
    h.finish()
}

/// The name of `pid`'s batch of `len` commands: length-major (see the
/// module doc for why), the proposer in the low 16 bits.
fn batch_name(pid: ProcessId, len: usize) -> u64 {
    if len == 0 {
        NOOP
    } else {
        (len as u64) << 16 | (pid.index() as u64 + 1)
    }
}

/// How many commands the batch called `name` holds.
fn batch_len(name: u64) -> u64 {
    name >> 16
}

/// The batch name `msg` carries, if it carries a value.
fn named(msg: &EcMsg) -> Option<u64> {
    match msg {
        EcMsg::Estimate { est: Some(e), .. } => Some(e.value),
        EcMsg::Proposition { value: Some(v), .. } => Some(*v),
        EcMsg::Coordinator { .. }
        | EcMsg::Estimate { est: None, .. }
        | EcMsg::Proposition { value: None, .. }
        | EcMsg::Ack { .. }
        | EcMsg::Nack { .. } => None,
    }
}

/// The body held under `name` (nothing is held, or needed, for [`NOOP`]).
fn body_of(held: &[(u64, Rc<[u64]>)], name: u64) -> Body {
    (name != NOOP).then(|| {
        let (_, body) = held
            .iter()
            .find(|(n, _)| *n == name)
            .expect("whoever holds a batch name holds its body");
        body.clone()
    })
}

/// A slot-tagged consensus message.
#[derive(Debug, Clone)]
pub struct MultiMsg {
    /// The log slot this message belongs to.
    pub slot: u64,
    /// The instance-level message.
    pub inner: EcMsg,
    /// The body of the batch `inner` names, when it names a non-empty
    /// one (a non-null estimate or proposition).
    pub body: Body,
}

impl SimMessage for MultiMsg {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn round(&self) -> Option<u64> {
        self.inner.round()
    }
}

/// Decision broadcast payload: `(slot, name, round, body)`.
pub type SlotDecide = (u64, u64, u64, Body);

/// Everything a node knows about one log slot.
#[derive(Debug, Default)]
struct Slot {
    /// The slot's consensus instance, created on first touch.
    instance: Option<EcConsensus>,
    /// The name of the batch this node proposed here, if it proposed.
    proposed: Option<u64>,
    /// The slot's decision, once known.
    decided: Option<DecidePayload>,
    /// The bodies this node holds for the slot, by name: its own batch
    /// and every one a peer's message carried (at most one per
    /// process) while the slot is open, just the decided one after.
    bodies: Vec<(u64, Rc<[u64]>)>,
}

/// The multiplexer of per-slot [`EcConsensus`] instances.
#[derive(Debug)]
pub struct MultiEc {
    me: ProcessId,
    n: usize,
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
    pub fn new(me: ProcessId, n: usize) -> MultiEc {
        assert!(n < 1 << 16, "batch names keep the proposer in 16 bits");
        MultiEc {
            me,
            n,
            slots: Vec::new(),
            pending: VecDeque::new(),
            base: 0,
            first_undecided: 0,
            next_unproposed: 0,
        }
    }

    /// The decided log so far, contiguous from [`base`](MultiEc::base)
    /// up to the first undecided slot: one `(slot, command)` entry per
    /// decided command, in slot then batch order, and one
    /// `(slot, NOOP)` for a slot that decided the empty batch.
    pub fn log(&self) -> Vec<(u64, u64)> {
        let mut log = Vec::new();
        for slot in self.base..self.first_undecided {
            let (name, _) = self
                .decided(slot)
                .expect("slots below the frontier are decided");
            match self.body(slot, name) {
                None => log.push((slot, NOOP)),
                Some(body) => log.extend(body.iter().map(|&command| (slot, command))),
            }
        }
        log
    }

    /// The decision of `slot`, if known (even out of order):
    /// `(batch name, round)`.
    pub fn decided(&self, slot: u64) -> Option<DecidePayload> {
        self.slots.get(slot as usize)?.decided
    }

    /// The body this node holds under `name` in `slot` — its own
    /// proposal's, or the slot's decision's.
    pub fn body(&self, slot: u64, name: u64) -> Body {
        body_of(&self.slots.get(slot as usize)?.bodies, name)
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
    /// this with its `applied` frontier (the first slot it has *not*
    /// applied) after snapshot catch-up so it re-enters the proposer
    /// rotation at the log frontier instead of re-opening slots whose
    /// decisions it learned wholesale.
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

    /// Whether this node has proposed in `slot`, and the name of the
    /// batch it proposed.
    pub fn proposed_in(&self, slot: u64) -> Option<u64> {
        self.slots.get(slot as usize)?.proposed
    }

    fn mark_proposed(&mut self, slot: u64, name: u64) {
        self.slot_mut(slot).proposed = Some(name);
        if slot == self.next_unproposed {
            self.advance_frontiers();
        }
    }

    /// Count `slot` as proposed in, with nothing: the proposer rotation
    /// skips it and the pending queue stays where it is. For slots a
    /// host must never vote in (a recovered replica's quarantine).
    pub fn abstain(&mut self, slot: u64) {
        self.mark_proposed(slot, NOOP);
    }

    /// Make the whole pending queue this node's batch for `slot` (the
    /// empty batch if nothing is waiting) and return its name.
    fn take_batch(&mut self, slot: u64) -> u64 {
        let name = batch_name(self.me, self.pending.len());
        if name != NOOP {
            let body = Rc::from(&*self.pending.make_contiguous());
            self.pending.clear();
            self.slot_mut(slot).bodies.push((name, body));
        }
        self.mark_proposed(slot, name);
        name
    }

    /// Record the decision of `slot`. Returns `true` if it is news
    /// (not below [`base`](MultiEc::base), not already recorded), which
    /// makes duplicate `SlotDecide` deliveries idempotent. A batch of
    /// this node's that lost the slot returns to the head of the queue,
    /// in order; of the bodies held for the slot only the decided one
    /// is kept.
    fn record_decision(&mut self, slot: u64, name: u64, round: u64, body: &Body) -> bool {
        if slot < self.base || self.decided(slot).is_some() {
            return false;
        }
        let entry = self.slot_mut(slot);
        entry.decided = Some((name, round));
        let lost = entry
            .proposed
            .filter(|&mine| mine != name)
            .and_then(|mine| body_of(&entry.bodies, mine));
        entry.bodies.clear();
        entry.bodies.extend(body.iter().map(|b| (name, b.clone())));
        for &command in commands(&lost).iter().rev() {
            self.pending.push_front(command);
        }
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

    /// The depth-1 pipeline gate [`Log`] drives: the slot to open next,
    /// if a command is waiting and the slot before the proposal frontier
    /// is decided (or the frontier sits on the tracking base).
    pub fn next_proposal(&self) -> Option<u64> {
        let slot = self.next_unproposed;
        let open = slot == self.base || self.decided(slot - 1).is_some();
        (open && !self.pending.is_empty()).then_some(slot)
    }

    /// Run `f` on the consensus instance of `slot` (created on first
    /// touch) under a context that tags what it sends with the slot and
    /// attaches the body of the batch it names — the only place a body
    /// joins an outgoing message.
    fn with_instance<N: SimMessage, R>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LogMsg>,
        slot: u64,
        f: impl FnOnce(&mut EcConsensus, &mut SubCtx<'_, '_, N, EcMsg>) -> R,
    ) -> R {
        let (me, n) = (self.me, self.n);
        let Slot {
            instance, bodies, ..
        } = self.slot_mut(slot);
        let instance = instance.get_or_insert_with(|| EcConsensus::new(me, n));
        let inject = |inner: EcMsg| {
            let body = named(&inner).and_then(|name| body_of(bodies, name));
            LogMsg::Cons(MultiMsg { slot, inner, body })
        };
        ctx.scoped(inject, instance.ns(), |sub| f(instance, sub))
    }

    /// The slots whose instance is running here — proposed in, not yet
    /// decided — in slot order. Touches no other slot, so it creates no
    /// instance; all of them lie at or above the log frontier.
    pub fn running(&self) -> impl Iterator<Item = u64> + '_ {
        let frontier = self.first_undecided as usize;
        self.slots
            .get(frontier..)
            .unwrap_or_default()
            .iter()
            .zip(self.first_undecided..)
            .filter(|(s, _)| s.instance.is_some() && s.proposed.is_some() && s.decided.is_none())
            .map(|(_, slot)| slot)
    }

    /// Propose in `slot` with everything that is waiting (see
    /// [`next_proposal`](MultiEc::next_proposal) for *when*). A
    /// non-empty batch is announced on `multi.propose`.
    pub fn propose<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LogMsg>,
        slot: u64,
        fd: &FdOutput,
    ) -> ProtocolStep {
        let name = self.take_batch(slot);
        if name != NOOP {
            ctx.observe(
                api_obs::PROPOSE_SLOT,
                Payload::U64Pair(slot, batch_len(name)),
            );
        }
        self.with_instance(ctx, slot, |inst, sub| inst.on_propose(sub, name, fd))
    }

    /// Route a slot message into its instance, first keeping the body
    /// it carries (an open slot holds one body per name it has seen).
    pub fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LogMsg>,
        from: ProcessId,
        msg: MultiMsg,
        fd: &FdOutput,
    ) -> ProtocolStep {
        let MultiMsg { slot, inner, body } = msg;
        if let (Some(name), Some(body)) = (named(&inner), body) {
            let entry = self.slot_mut(slot);
            if entry.decided.is_none() && entry.bodies.iter().all(|(n, _)| *n != name) {
                entry.bodies.push((name, body));
            }
        }
        self.with_instance(ctx, slot, |inst, sub| inst.on_message(sub, from, inner, fd))
    }

    /// The decision `step` asks the host to R-broadcast for `slot`, with
    /// its body attached.
    fn decision_of(&self, slot: u64, step: ProtocolStep) -> Option<SlotDecide> {
        let (name, round) = step.broadcast_decision?;
        Some((slot, name, round, self.body(slot, name)))
    }
}

/// What a [`Log`] exchanges with its peers.
#[derive(Debug, Clone)]
pub enum LogMsg {
    /// Slot-decision broadcasts.
    Rb(RbMsg<SlotDecide>),
    /// Slot-tagged consensus traffic.
    Cons(MultiMsg),
    /// "Slot `s` is open": the initiating replica tells everyone to
    /// propose in it (their pending batch or a NOOP), so the slot's
    /// eventual coordinator — which may have had nothing to propose —
    /// starts its Phase 0.
    Open {
        /// The opened slot.
        slot: u64,
    },
}

impl LogMsg {
    /// The slot a peer is working in, for an `Open` or a consensus
    /// message; `None` for a decision broadcast.
    pub fn slot(&self) -> Option<u64> {
        match self {
            LogMsg::Cons(m) => Some(m.slot),
            LogMsg::Open { slot } => Some(*slot),
            LogMsg::Rb(_) => None,
        }
    }
}

impl SimMessage for LogMsg {
    fn kind(&self) -> &'static str {
        match self {
            LogMsg::Rb(m) => m.kind(),
            LogMsg::Cons(m) => m.kind(),
            LogMsg::Open { .. } => fd_obs::keys::MULTI_OPEN,
        }
    }
    fn round(&self) -> Option<u64> {
        match self {
            LogMsg::Cons(m) => m.round(),
            LogMsg::Rb(_) | LogMsg::Open { .. } => None,
        }
    }
}

/// A replica: a ◇C detector with a [`Log`] over it. Build it with
/// `Stack::new(fd, Log::new(me, multi))`.
pub type MultiNode<D> = Stack<D, Log>;

/// What a module hosting a [`Log`] keeps beside it (the KV service's
/// store and WAL), plugged into the slot drive. Each hook runs inside
/// the callback that reached it, in the drive's order: every delivered
/// decision is learned, the deliveries settle, the next slot opens.
/// `()` is the bare log of a [`MultiNode`].
pub trait LogHost {
    /// This replica is about to join `slot`; its first messages there
    /// leave after this returns.
    fn joined(&mut self, _slot: u64) {}

    /// A slot's decision reached this replica and was news.
    fn learned(&mut self, _decide: SlotDecide) {}

    /// Every decision this step delivered has been learned; the log
    /// opens its next slot after this returns.
    fn settled<N: SimMessage>(&mut self, _ctx: &mut SubCtx<'_, '_, N, LogMsg>, _log: &mut Log) {}
}

impl LogHost for () {}

/// The replicated log over a detector: Reliable Broadcast + the
/// consensus multiplexer, driving itself.
pub struct Log {
    /// Slot-decision dissemination.
    pub rb: ReliableBroadcast<SlotDecide>,
    /// The per-slot consensus instances.
    pub multi: MultiEc,
    /// The detector's output, as handed over at the start and at every
    /// change since.
    fd: FdOutput,
    /// Catching up after a restart: this replica votes in no slot and
    /// opens none. Set only by a recovering host.
    pub catching_up: bool,
    /// Slots this replica may have voted in before a crash it recovered
    /// from: it never votes in them again, so it cannot equivocate. Set
    /// only by a recovering host.
    pub quarantined: BTreeSet<u64>,
}

impl Log {
    /// Assemble the module for process `me`.
    pub fn new(me: ProcessId, multi: MultiEc) -> Self {
        Log {
            rb: ReliableBroadcast::new(me),
            multi,
            fd: FdOutput::default(),
            catching_up: false,
            quarantined: BTreeSet::new(),
        }
    }

    /// Queue a client command (through [`Stack::with_above`]). It joins
    /// this replica's batch for the next free slot; if another replica's
    /// batch wins that slot, the batch is automatically re-queued, so
    /// every submitted command is eventually decided (at-least-once;
    /// deduplication is the application's concern).
    pub fn submit<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, LogMsg>, command: u64) {
        self.multi.push_pending(command);
        self.drive(ctx, &mut ());
    }

    /// The replica's decided log (contiguous prefix, one entry per
    /// command: see [`MultiEc::log`]).
    pub fn log(&self) -> Vec<(u64, u64)> {
        self.multi.log()
    }

    /// The detector output the log holds (the one of the last change).
    pub fn fd(&self) -> &FdOutput {
        &self.fd
    }

    /// Whether this replica votes in `slot`: it is not catching up, the
    /// slot is not below the base and not quarantined. Below the base a
    /// slot is decided elsewhere — an adopted snapshot holds its
    /// decision, and no longer this replica's vote there — so a fresh
    /// instance could re-decide it with no memory of the locked value.
    pub fn votes(&self, slot: u64) -> bool {
        !self.catching_up && slot >= self.multi.base() && !self.quarantined.contains(&slot)
    }

    /// The slots whose instance is running here and in which this
    /// replica votes, in slot order: the ones a detector change can
    /// move, and a lost message can wedge.
    pub fn voting(&self) -> impl Iterator<Item = u64> + '_ {
        self.multi.running().filter(|&slot| self.votes(slot))
    }

    /// Propose what is pending for the next free slot (one outstanding
    /// slot at a time, the classic SMR pipeline of depth 1) — not while
    /// catching up.
    pub fn drive<N: SimMessage, H: LogHost>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LogMsg>,
        host: &mut H,
    ) {
        if self.catching_up {
            return;
        }
        if let Some(slot) = self.multi.next_proposal() {
            self.propose_in_slot(ctx, slot, true, host);
        }
    }

    /// A peer's message. A consensus message for a slot this replica
    /// does not vote in still reaches the slot's instance, without a
    /// proposal: staying *silent* would wedge the round, whose wait
    /// clause needs every alive unsuspected process to reply. An idle
    /// instance answers announcements with null estimates and
    /// propositions with nacks (the Fig. 4 tasks), unblocking peers
    /// without contributing an estimate.
    pub fn deliver<N: SimMessage, H: LogHost>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LogMsg>,
        from: ProcessId,
        msg: LogMsg,
        host: &mut H,
    ) {
        match msg {
            LogMsg::Rb(m) => {
                let rb = &mut self.rb;
                ctx.scoped(LogMsg::Rb, rb.ns(), |sub| rb.on_message(sub, from, m));
                self.drain_deliveries(ctx, host);
            }
            LogMsg::Open { slot } => self.ensure_proposed(ctx, slot, host),
            LogMsg::Cons(msg) => {
                let slot = msg.slot;
                self.ensure_proposed(ctx, slot, host);
                let step = self.multi.on_message(ctx, from, msg, &self.fd);
                self.apply_step(ctx, slot, step, host);
            }
        }
    }

    /// The detector's output changed to `fd`: re-check the detector
    /// clause of every slot in [`voting`](Log::voting).
    pub fn refresh<N: SimMessage, H: LogHost>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LogMsg>,
        fd: FdOutput,
        host: &mut H,
    ) {
        self.fd = fd;
        let slots: Vec<u64> = self.voting().collect();
        for slot in slots {
            let step = self
                .multi
                .with_instance(ctx, slot, |inst, sub| inst.on_fd_change(sub, &self.fd));
            self.apply_step(ctx, slot, step, host);
        }
    }

    /// A slot's decision reached this replica, R-delivered or fetched
    /// by a host's catch-up: record it (see `record_decision`), announce
    /// it on `multi.append`, close the slot's instance where this
    /// replica joined and votes (Fig. 4, Task 3), and hand it to the
    /// host. `false`, having done nothing, when it is not news.
    pub fn learn<N: SimMessage, H: LogHost>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LogMsg>,
        decide: SlotDecide,
        host: &mut H,
    ) -> bool {
        let (slot, name, round, ref body) = decide;
        let close = self.votes(slot) && self.multi.proposed_in(slot).is_some();
        if !self.multi.record_decision(slot, name, round, body) {
            return false;
        }
        ctx.observe(LOG_APPEND, Payload::U64Pair(slot, fold_body(body)));
        if close {
            self.multi.with_instance(ctx, slot, |inst, sub| {
                inst.on_decide_delivered(sub, name, round)
            });
        }
        host.learned(decide);
        true
    }

    /// The per-slot half of a repair watchdog, for a host over lossy
    /// links: re-announce every slot in [`voting`](Log::voting) — if
    /// the first `Open` was lost, a peer, possibly the very coordinator
    /// the round waits on, never joined — and re-send its instance's
    /// outstanding phase message, since the round protocol itself never
    /// re-sends. Peers that joined ignore the announcement; a KV
    /// replica that decided answers it with the decision.
    pub fn retransmit<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, LogMsg>) {
        let slots: Vec<u64> = self.voting().collect();
        for slot in slots {
            ctx.send_to_others(LogMsg::Open { slot });
            self.multi
                .with_instance(ctx, slot, |inst, sub| inst.retransmit(sub, &self.fd));
        }
    }

    /// Another replica opened `slot`: join with our pending batch (it
    /// may win the slot) or a NOOP, so the slot's coordinator can gather
    /// a majority of real estimates — where this replica votes and has
    /// not joined or learned the decision yet.
    fn ensure_proposed<N: SimMessage, H: LogHost>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LogMsg>,
        slot: u64,
        host: &mut H,
    ) {
        if !self.votes(slot)
            || self.multi.proposed_in(slot).is_some()
            || self.multi.decided(slot).is_some()
        {
            return;
        }
        self.propose_in_slot(ctx, slot, false, host);
    }

    fn propose_in_slot<N: SimMessage, H: LogHost>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LogMsg>,
        slot: u64,
        announce: bool,
        host: &mut H,
    ) {
        host.joined(slot);
        if announce {
            // Tell every replica the slot exists; each joins with its own
            // pending batch or a NOOP. Without this, a slot whose
            // eventual coordinator has nothing to propose never starts.
            for i in 0..ctx.n() {
                let q = ProcessId(i);
                if q != ctx.me() {
                    ctx.send(q, LogMsg::Open { slot });
                }
            }
        }
        let step = self.multi.propose(ctx, slot, &self.fd);
        self.apply_step(ctx, slot, step, host);
    }

    fn apply_step<N: SimMessage, H: LogHost>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LogMsg>,
        slot: u64,
        step: ProtocolStep,
        host: &mut H,
    ) {
        if let Some(decide) = self.multi.decision_of(slot, step) {
            let rb = &mut self.rb;
            ctx.scoped(LogMsg::Rb, rb.ns(), |sub| rb.broadcast(sub, decide));
        }
        self.drain_deliveries(ctx, host);
    }

    fn drain_deliveries<N: SimMessage, H: LogHost>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LogMsg>,
        host: &mut H,
    ) {
        for d in self.rb.take_delivered() {
            self.learn(ctx, d.payload, host);
        }
        host.settled(ctx, self);
        // A decision may have unblocked the next slot.
        self.drive(ctx, host);
    }
}

impl<D: EventuallyConsistentOracle + 'static> Over<D> for Log {
    type Msg = LogMsg;

    /// Nothing in the log arms a timer: not the log, not its broadcast
    /// module, not its slots' instances.
    fn ns(&self) -> u32 {
        self.rb.ns()
    }

    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, LogMsg>, fd: &D) {
        self.fd = fd.output();
        let rb = &mut self.rb;
        ctx.scoped(LogMsg::Rb, rb.ns(), |sub| rb.on_start(sub));
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LogMsg>,
        from: ProcessId,
        msg: LogMsg,
        below: &D,
    ) {
        self.fd.debug_assert_current(below);
        self.deliver(ctx, from, msg, &mut ());
    }

    fn on_timer<N: SimMessage>(&mut self, _: &mut SubCtx<'_, '_, N, LogMsg>, tag: TimerTag, _: &D) {
        unreachable!("the log arms no timers: {tag:?}");
    }

    fn on_fd_change<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, LogMsg>, fd: &D) {
        self.refresh(ctx, fd.output(), &mut ());
    }
}

/// Observation tags specific to the multiplexer.
pub mod api_obs {
    /// A replica proposed a non-empty batch:
    /// `U64Pair(slot, commands in the batch)`.
    pub use fd_obs::keys::MULTI_PROPOSE as PROPOSE_SLOT;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::StackMsg;
    use fd_detectors::{HeartbeatConfig, HeartbeatDetector, LeaderByFirstNonSuspected};
    use fd_sim::{Actor, Time, World, WorldBuilder};

    type Replica = MultiNode<LeaderByFirstNonSuspected<HeartbeatDetector>>;

    fn replica(pid: ProcessId, n: usize) -> Replica {
        Stack::new(
            LeaderByFirstNonSuspected::new(
                HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                n,
            ),
            Log::new(pid, MultiEc::new(pid, n)),
        )
    }

    fn world(n: usize, seed: u64) -> World<Replica> {
        WorldBuilder::new(crate::harness::default_net(n))
            .seed(seed)
            .build(replica)
    }

    fn submit(
        node: &mut Replica,
        ctx: &mut fd_sim::Context<'_, <Replica as Actor>::Msg>,
        cmd: u64,
    ) {
        node.with_above(ctx, |log, ctx, _| log.submit(ctx, cmd));
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
                w.interact(ProcessId(i), move |node, ctx| submit(node, ctx, cmd));
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
            (0..n).all(|i| contains_all(&w.actor(ProcessId(i)).above.log()))
        });
        assert!(
            done,
            "logs did not fill: {:?}",
            (0..n)
                .map(|i| w.actor(ProcessId(i)).above.log().len())
                .collect::<Vec<_>>()
        );
        // Logs agree on every common slot (replicas may be at different
        // lengths, but never disagree).
        let reference = w.actor(ProcessId(0)).above.log();
        for i in 1..n {
            let log = w.actor(ProcessId(i)).above.log();
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
                w.interact(ProcessId(i), move |node, ctx| submit(node, ctx, cmd));
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
                    .above
                    .log()
                    .iter()
                    .map(|(_, v)| *v)
                    .collect();
                survivors_cmds.iter().all(|c| vals.contains(c))
            })
        });
        assert!(done, "surviving replicas stalled");
        let reference = w.actor(ProcessId(0)).above.log();
        for i in 1..3 {
            let log = w.actor(ProcessId(i)).above.log();
            let common = reference.len().min(log.len());
            assert_eq!(&log[..common], &reference[..common], "p{i} prefix diverged");
        }
    }

    /// The batch `pid` would propose from a queue holding `commands`:
    /// its name and its body.
    fn batch(pid: usize, commands: &[u64]) -> (u64, Body) {
        (
            batch_name(ProcessId(pid), commands.len()),
            (!commands.is_empty()).then(|| commands.into()),
        )
    }

    #[test]
    fn record_decision_tolerates_out_of_order_and_duplicates() {
        let mut m = MultiEc::new(ProcessId(0), 4);
        let (n0, b0) = batch(1, &[20]);
        let (n1, b1) = batch(2, &[21, 23]);
        let (n2, b2) = batch(3, &[22]);
        // Slot 2 arrives first: known, but not part of the contiguous log.
        assert!(m.record_decision(2, n2, 1, &b2));
        assert_eq!(m.first_undecided(), 0);
        assert!(m.log().is_empty(), "no contiguous prefix yet");
        assert!(m.record_decision(0, n0, 1, &b0));
        assert_eq!(m.first_undecided(), 1);
        assert_eq!(m.log(), vec![(0, 20)]);
        // A duplicate delivery of slot 0 — even claiming a different
        // batch — is rejected and the original decision stands.
        assert!(!m.record_decision(0, n1, 2, &b1));
        assert_eq!(m.decided(0), Some((n0, 1)));
        assert!(m.record_decision(1, n1, 3, &b1));
        assert_eq!(m.first_undecided(), 3);
        // One log entry per command: slot 1 decided a batch of two.
        assert_eq!(m.log(), vec![(0, 20), (1, 21), (1, 23), (2, 22)]);
    }

    #[test]
    fn raised_base_excludes_caught_up_slots() {
        let mut m = MultiEc::new(ProcessId(1), 4);
        m.raise_base(5);
        let (n3, b3) = batch(0, &[33]);
        assert!(
            !m.record_decision(3, n3, 1, &b3),
            "below-base slots are not news"
        );
        assert_eq!(m.next_unproposed, 5);
        assert_eq!(m.first_undecided(), 5);
        let (n5, b5) = batch(0, &[55]);
        assert!(m.record_decision(5, n5, 1, &b5));
        assert_eq!(m.log(), vec![(5, 55)]);
        m.raise_base(2);
        assert_eq!(m.base(), 5, "raise_base never lowers the base");
    }

    /// An empty slot is one `(slot, NOOP)` log entry, and names order
    /// length-major with NOOP below every real batch.
    #[test]
    fn names_rank_by_length_then_proposer_and_noop_is_smallest() {
        let (long_low_pid, _) = batch(0, &[1, 2, 3]);
        let (short_high_pid, _) = batch(3, &[4, 5]);
        let (short_low_pid, _) = batch(1, &[6, 7]);
        assert!(long_low_pid > short_high_pid && short_high_pid > short_low_pid);
        assert!(short_low_pid > NOOP);
        assert_eq!(batch(2, &[]), (NOOP, None));
        let mut m = MultiEc::new(ProcessId(0), 4);
        assert!(m.record_decision(0, NOOP, 1, &None));
        assert_eq!(m.log(), vec![(0, NOOP)]);
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
            let mut m = MultiEc::new(ProcessId(0), 4);
            proptest::prop_assert_eq!(m.next_proposal(), None, "nothing waiting, nothing to open");
            // `abstain` marks proposals without taking the queue, so one
            // waiting command probes the gate after every step.
            m.push_pending(7);
            for (step, &(op, slot)) in ops.iter().enumerate() {
                match op {
                    0..=2 => m.abstain(slot),
                    3..=6 => {
                        let news = m.decided(slot).is_none() && slot >= m.base();
                        let (name, body) = batch(1, &[200 + slot]);
                        proptest::prop_assert_eq!(m.record_decision(slot, name, 1, &body), news);
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
                let open = unproposed == m.base() || m.decided(unproposed - 1).is_some();
                proptest::prop_assert_eq!(m.next_proposal(), open.then_some(unproposed));
            }
        }

        /// Random interleavings of push, take (the pipeline's proposal,
        /// or a join of a slot a peer opened while an earlier batch is
        /// still in flight), lose-and-requeue and decide, with slots
        /// resolved in any order: no command is ever lost or duplicated.
        /// And while each batch comes back before the next is taken —
        /// all the depth-1 pipeline does on its own — decided, in-flight
        /// and queued commands together stay in submission order. (Two
        /// batches in flight at once can pass each other, as two single
        /// commands always could.)
        #[test]
        fn batches_conserve_commands_and_their_order(
            ops in proptest::prop::collection::vec((0u8..8, 0usize..4), 1..120),
        ) {
            let me = 2;
            let mut m = MultiEc::new(ProcessId(me), 4);
            let mut submitted = 0u64;
            let mut next_slot = 0u64;
            let mut in_flight: Vec<u64> = Vec::new();
            let mut won: Vec<u64> = Vec::new();
            let mut overlapped = false;
            for &(op, pick) in &ops {
                match op {
                    0..=2 => {
                        submitted += 1;
                        m.push_pending(submitted);
                    }
                    3..=4 => {
                        if m.take_batch(next_slot) != NOOP {
                            overlapped |= !in_flight.is_empty();
                            in_flight.push(next_slot);
                        }
                        next_slot += 1;
                    }
                    _ if in_flight.is_empty() => {}
                    5..=6 => {
                        // A peer's batch takes the slot.
                        let slot = in_flight.remove(pick % in_flight.len());
                        let (name, body) = batch(me + 1, &[u64::MAX; 2]);
                        proptest::prop_assert!(m.record_decision(slot, name, 1, &body));
                    }
                    _ => {
                        let slot = in_flight.remove(pick % in_flight.len());
                        let name = m.proposed_in(slot).expect("taken");
                        let body = m.body(slot, name);
                        proptest::prop_assert!(m.record_decision(slot, name, 1, &body));
                        won.extend_from_slice(commands(&body));
                    }
                }
                let mut all = won.clone();
                for &slot in &in_flight {
                    let name = m.proposed_in(slot).expect("taken");
                    all.extend_from_slice(commands(&m.body(slot, name)));
                }
                all.extend(&m.pending);
                if overlapped {
                    all.sort_unstable();
                }
                proptest::prop_assert_eq!(all, (1..=submitted).collect::<Vec<_>>());
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
            node.on_message(ctx, ProcessId(0), StackMsg::Above(LogMsg::Open { slot: 0 }));
        });
        assert_eq!(
            w.actor(ProcessId(2)).above.multi.proposed_in(0),
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
            w.interact(ProcessId(i), move |node, ctx| submit(node, ctx, cmd));
        }
        let done = w.run_until(Time::from_secs(60), |w| {
            (0..n).all(|i| w.actor(ProcessId(i)).above.log().len() >= n)
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
                    payload: Payload::U64Pair(slot, fold),
                } if pid == ProcessId(0) && tag == LOG_APPEND => Some((slot, fold)),
                _ => None,
            })
            .collect();
        // What each slot of the log should have announced: the fold of
        // its commands (of nothing, for a NOOP slot).
        let log = w.actor(ProcessId(0)).above.log();
        for slot in 0..=log.last().expect("a non-empty log").0 {
            let decided: Vec<u64> = log
                .iter()
                .filter(|(s, v)| *s == slot && *v != NOOP)
                .map(|(_, v)| *v)
                .collect();
            let (_, body) = batch(0, &decided);
            assert!(
                appended.contains(&(slot, fold_body(&body))),
                "slot {slot} ({decided:?}) was never announced on multi.append"
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
        // Every announcement carries its batch's length, and together
        // they cover at least the three submissions.
        let proposed: u64 = w
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Observation {
                    tag,
                    payload: Payload::U64Pair(_, len),
                    ..
                } if tag == api_obs::PROPOSE_SLOT => Some(len),
                _ => None,
            })
            .inspect(|&len| assert!(len >= 1, "an empty batch is not announced"))
            .sum();
        assert!(proposed >= n as u64);
    }

    /// `multi.append` announces the fold of the decided *commands*, so
    /// `multi.log_agreement` sees through names: two replicas handed
    /// the same name for a slot but different bodies (a seeded fault —
    /// the protocol never does this) disagree visibly, while the same
    /// deliveries with equal bodies pass.
    #[test]
    fn log_agreement_catches_a_body_mismatch_under_equal_names() {
        let run = |at_p0: &[u64], at_p1: &[u64]| {
            let mut w = world(3, 206);
            for (pid, commands) in [(0, at_p0), (1, at_p1)] {
                let (name, _) = batch(2, &[70, 71]);
                let (_, body) = batch(2, commands);
                let decide = RbMsg {
                    origin: ProcessId(2),
                    seq: 0,
                    payload: (0, name, 1, body),
                };
                w.interact(ProcessId(pid), move |node, ctx| {
                    node.on_message(ctx, ProcessId(2), StackMsg::Above(LogMsg::Rb(decide)));
                });
            }
            fd_core::ConsensusRun::new(w.trace(), 3).check_multi_log_agreement()
        };
        run(&[70, 71], &[70, 71]).expect("equal bodies agree");
        let err = run(&[70, 71], &[70, 72]).expect_err("a differing body must be caught");
        assert!(err.to_string().contains("slot 0"), "{err}");
    }

    /// The one close rule: a learned decision closes a slot's instance
    /// only where this replica joined the slot and votes in it. A
    /// replica that learns slot 0's decision before it joins creates no
    /// instance there and decides nothing in it — it only appends.
    #[test]
    fn a_decision_learned_before_joining_closes_no_instance() {
        let mut w = world(3, 207);
        let (name, body) = batch(2, &[70]);
        let decide = RbMsg {
            origin: ProcessId(2),
            seq: 0,
            payload: (0, name, 1, body),
        };
        w.interact(ProcessId(0), move |node, ctx| {
            node.on_message(ctx, ProcessId(2), StackMsg::Above(LogMsg::Rb(decide)));
        });
        let log = &w.actor(ProcessId(0)).above;
        assert_eq!(log.log(), vec![(0, 70)], "the decision is learned");
        assert_eq!(log.multi.proposed_in(0), None, "the slot was never joined");
        assert!(
            log.multi.slots[0].instance.is_none(),
            "learning a decision created an instance"
        );
        let decides = w
            .trace()
            .observations_of(ProcessId(0), fd_core::obs::DECIDE)
            .count();
        assert_eq!(decides, 0, "consensus.decide in a slot never joined");
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
                w.interact(ProcessId(i), move |node, ctx| submit(node, ctx, cmd));
            }
        }
        let all = submitted(2, 3);
        let done = w.run_until(Time::from_secs(120), |w| {
            (0..n).all(|i| {
                let vals: Vec<u64> = w
                    .actor(ProcessId(i))
                    .above
                    .log()
                    .iter()
                    .map(|(_, v)| *v)
                    .collect();
                all.iter().all(|c| vals.contains(c))
            })
        });
        assert!(done, "logs did not converge under the mangler");
        let reference = w.actor(ProcessId(0)).above.log();
        for i in 1..n {
            let log = w.actor(ProcessId(i)).above.log();
            let common = reference.len().min(log.len());
            assert_eq!(&log[..common], &reference[..common], "p{i} log diverged");
        }
        // Duplicated deliveries never duplicate a decided command.
        for i in 0..n {
            let mut seen = std::collections::HashSet::new();
            for (_, v) in w.actor(ProcessId(i)).above.log() {
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
            w.interact(ProcessId(0), move |node, ctx| submit(node, ctx, 1000 + k));
        }
        let done = w.run_until(Time::from_secs(30), |w| {
            w.actor(ProcessId(0)).above.log().len() >= 4
        });
        assert!(done);
        let log = w.actor(ProcessId(0)).above.log();
        // The first command goes out alone; the three that queued up
        // behind it share the next slot as one batch.
        let slots: Vec<u64> = log.iter().map(|(s, _)| *s).collect();
        assert_eq!(slots, vec![0, 1, 1, 1]);
        // Single submitter ⇒ commands appear in submission order.
        let vals: Vec<u64> = log.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![1000, 1001, 1002, 1003]);
    }
}
