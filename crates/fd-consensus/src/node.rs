//! The consensus node: one simulated process hosting a failure detector,
//! a Reliable Broadcast module, and a consensus protocol.
//!
//! This mirrors the paper's architecture exactly: the consensus algorithm
//! queries its *local* failure-detection module (never the network) and
//! hands decisions to the Reliable Broadcast primitive, whose deliveries
//! trigger the decide task (Fig. 4). The host is [`Stack`]: the detector
//! below, and above it a [`Decider`] — the protocol and the broadcast
//! module it decides through.

use crate::api::{DecidePayload, ProtocolStep, Round, RoundProtocol};
use fd_broadcast::{RbMsg, ReliableBroadcast};
use fd_core::{Component, EventuallyConsistentOracle, FdOutput, Over, Stack, StackMsg, SubCtx};
use fd_sim::{ProcessId, SimMessage, TimerTag};

/// A process running detector `D` and the consensus protocol with phases
/// `P`. Build it with `Stack::new(fd, Decider::new(me, cons))`.
pub type ConsensusNode<D, P> = Stack<D, Decider<P>>;

/// What a [`Decider`] over protocol messages `C` sends: decision
/// broadcasts below, protocol traffic above.
type Msg<C> = StackMsg<RbMsg<DecidePayload>, C>;

/// A consensus protocol and the Reliable Broadcast it decides through:
/// the module over the detector in a [`ConsensusNode`].
pub struct Decider<P> {
    /// The decision dissemination module.
    pub rb: ReliableBroadcast<DecidePayload>,
    /// The consensus protocol.
    pub cons: Round<P>,
    /// The detector's output, as handed over at the start and at every
    /// change since.
    fd: FdOutput,
}

impl<P: RoundProtocol> Decider<P> {
    /// Assemble the module for process `me`.
    pub fn new(me: ProcessId, cons: Round<P>) -> Self {
        let rb = ReliableBroadcast::new(me);
        assert_ne!(
            cons.ns(),
            rb.ns(),
            "components must own distinct timer namespaces"
        );
        Decider {
            rb,
            cons,
            fd: FdOutput::default(),
        }
    }

    /// Propose a value. Call through [`Stack::with_above`] under
    /// [`World::interact`](fd_sim::World::interact).
    pub fn propose<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, Msg<P::Msg>>, value: u64) {
        let (cons, fd) = (&mut self.cons, &self.fd);
        let step = ctx.scoped(StackMsg::Above, cons.ns(), |sub| {
            cons.on_propose(sub, value, fd)
        });
        self.apply_step(ctx, step);
    }

    /// This process's decision, if any.
    pub fn decision(&self) -> Option<DecidePayload> {
        self.cons.decision()
    }

    /// R-broadcast the decision `step` reached, if any, then hand every
    /// decision R-delivered so far (its own included) to the protocol.
    fn apply_step<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Msg<P::Msg>>,
        step: ProtocolStep,
    ) {
        let Decider { rb, cons, .. } = self;
        if let Some(payload) = step.broadcast_decision {
            ctx.scoped(StackMsg::Below, rb.ns(), |sub| rb.broadcast(sub, payload));
        }
        for d in rb.take_delivered() {
            let (value, round) = d.payload;
            ctx.scoped(StackMsg::Above, cons.ns(), |sub| {
                cons.on_decide_delivered(sub, value, round)
            });
        }
    }
}

impl<D: EventuallyConsistentOracle + 'static, P: RoundProtocol> Over<D> for Decider<P> {
    type Msg = Msg<P::Msg>;

    fn ns(&self) -> u32 {
        self.cons.ns()
    }

    fn owns(&self, ns: u32) -> bool {
        ns == self.cons.ns() || ns == self.rb.ns()
    }

    /// The consensus protocol starts on [`propose`](Decider::propose).
    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, Self::Msg>, fd: &D) {
        self.fd = fd.output();
        let rb = &mut self.rb;
        ctx.scoped(StackMsg::Below, rb.ns(), |sub| rb.on_start(sub));
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        from: ProcessId,
        msg: Self::Msg,
        below: &D,
    ) {
        self.fd.debug_assert_current(below);
        let Decider { rb, cons, fd } = self;
        let step = match msg {
            StackMsg::Below(m) => {
                ctx.scoped(StackMsg::Below, rb.ns(), |sub| rb.on_message(sub, from, m));
                ProtocolStep::none()
            }
            StackMsg::Above(m) => ctx.scoped(StackMsg::Above, cons.ns(), |sub| {
                cons.on_message(sub, from, m, fd)
            }),
        };
        self.apply_step(ctx, step);
    }

    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        tag: TimerTag,
        below: &D,
    ) {
        self.fd.debug_assert_current(below);
        // The broadcast module arms no timers.
        if tag.ns == self.cons.ns() {
            let (cons, fd) = (&mut self.cons, &self.fd);
            let step = ctx.scoped(StackMsg::Above, tag.ns, |sub| {
                cons.on_timer(sub, tag.kind, tag.data, fd)
            });
            self.apply_step(ctx, step);
        }
    }

    fn on_fd_change<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, Self::Msg>, fd: &D) {
        self.fd = fd.output();
        let (cons, fd) = (&mut self.cons, &self.fd);
        let step = ctx.scoped(StackMsg::Above, cons.ns(), |sub| cons.on_fd_change(sub, fd));
        self.apply_step(ctx, step);
    }
}
