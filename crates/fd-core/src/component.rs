//! Protocol components and their composition.
//!
//! A simulated node usually hosts several cooperating protocol modules —
//! e.g. a failure detector, a reliable-broadcast module, and a consensus
//! module — exactly like the paper attaches a failure-detection module to
//! each process. A [`Component`] is such a module: it speaks its own
//! message type and owns a timer namespace, and a host actor routes
//! deliveries and timers to it.
//!
//! The host wraps the kernel [`Context`] in a [`SubCtx`] that injects the
//! component's messages into the node's combined message enum, so each
//! component is written once and reused under any host. Two hosts live
//! here: [`Standalone`] (the node *is* the component) and [`Stack`] (a
//! detector with one module [`Over`] it — §2.1's "a process interacts
//! only with its local failure detection module", so the upper module
//! is handed `&D` on every callback and reads whichever output it needs:
//! `trusted()`, `suspected()`, a counter vector). The detector's output
//! also reaches the upper module as an *event*: after a detector
//! callback that announced a change on [`obs::SUSPECTS`] or
//! [`obs::TRUSTED`], the stack calls [`Over::on_fd_change`] — the
//! `Suspect(p)` / `Restore(p)` indications of an event-driven detector
//! port — so a module that waits on the output keeps it rather than
//! polling or rebuilding it. A detector adapter that
//! adds no messages of its own needs neither: it wraps the inner
//! `Component` and forwards (`fd-detectors::omega`). An upper module that
//! hosts modules of its own — the consensus, log and KV modules each
//! carry a Reliable Broadcast — hands them a [`SubCtx::scoped`] view and
//! says which of their timer namespaces it [`owns`](Over::owns).

use crate::obs;
use fd_sim::{
    Actor, Context, Payload, ProcessId, SimDuration, SimMessage, Time, TimerId, TimerTag,
};
use rand::rngs::SmallRng;

/// A component-scoped view of the kernel context.
///
/// `N` is the host node's message type, `C` the component's. Sends are
/// wrapped through `wrap`; timers are forced into the component's
/// namespace `ns`.
pub struct SubCtx<'a, 'w, N, C> {
    inner: &'a mut Context<'w, N>,
    wrap: &'a dyn Fn(C) -> N,
    ns: u32,
}

impl<'a, 'w, N, C> SubCtx<'a, 'w, N, C> {
    /// Wrap a kernel context for a component with namespace `ns`. The
    /// `wrap` function injects component messages into the node's
    /// combined message type — an enum variant constructor for flat
    /// hosts, or a capturing closure for multiplexed hosts (e.g. the
    /// multi-instance consensus tags messages with a slot number).
    pub fn new(inner: &'a mut Context<'w, N>, wrap: &'a dyn Fn(C) -> N, ns: u32) -> Self {
        SubCtx { inner, wrap, ns }
    }

    /// This process's identity.
    pub fn me(&self) -> ProcessId {
        self.inner.me()
    }

    /// Total number of processes.
    pub fn n(&self) -> usize {
        self.inner.n()
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.inner.now()
    }

    /// The process's private RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.inner.rng()
    }

    /// Send a component message to `to`.
    pub fn send(&mut self, to: ProcessId, msg: C) {
        self.inner.send(to, (self.wrap)(msg));
    }

    /// Send a component message to every other process, in identity order.
    ///
    /// Wraps the message once and queues a single broadcast action; the
    /// kernel fans it out sharing one payload allocation, instead of
    /// this method cloning and wrapping per destination.
    pub fn send_to_others(&mut self, msg: C)
    where
        C: Clone,
        N: Clone,
    {
        let wrapped = (self.wrap)(msg);
        self.inner.send_to_others(wrapped);
    }

    /// Send a component message to every process including this one.
    pub fn send_to_all(&mut self, msg: C)
    where
        C: Clone,
        N: Clone,
    {
        let wrapped = (self.wrap)(msg);
        self.inner.send_to_all(wrapped);
    }

    /// Arm a timer in this component's namespace.
    pub fn set_timer(&mut self, after: SimDuration, kind: u32, data: u64) -> TimerId {
        self.inner
            .set_timer(after, TimerTag::new(self.ns, kind, data))
    }

    /// Cancel a previously armed timer.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.inner.cancel_timer(id);
    }

    /// Record a trace observation.
    pub fn observe(&mut self, tag: &'static str, payload: Payload) {
        self.inner.observe(tag, payload);
    }

    /// A mark in this callback's queued actions (see [`Context::mark`]).
    pub fn mark(&self) -> usize {
        self.inner.mark()
    }

    /// Whether an observation tagged one of `tags` was queued after
    /// `mark` (see [`Context::observed_since`]).
    pub fn observed_since(&self, mark: usize, tags: &[&str]) -> bool {
        self.inner.observed_since(mark, tags)
    }

    /// Run `f` under the view of a module nested inside this one: its
    /// messages are `inject`ed into this component's, its timers carry
    /// `ns`.
    pub fn scoped<C2, R>(
        &mut self,
        inject: impl Fn(C2) -> C,
        ns: u32,
        f: impl FnOnce(&mut SubCtx<'_, 'w, N, C2>) -> R,
    ) -> R {
        let outer = self.wrap;
        f(&mut SubCtx::new(self.inner, &|m| outer(inject(m)), ns))
    }
}

/// A protocol module hosted at one process.
pub trait Component: 'static {
    /// The message type this component exchanges with its peers at other
    /// processes.
    type Msg: SimMessage;

    /// The timer namespace this component owns within its host node.
    /// Must be unique among the components of one node.
    fn ns(&self) -> u32;

    /// Invoked once at time zero.
    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, Self::Msg>);

    /// Invoked when a component message from `from` arrives.
    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        from: ProcessId,
        msg: Self::Msg,
    );

    /// Invoked when one of this component's timers fires. `kind` and
    /// `data` are the values passed to [`SubCtx::set_timer`].
    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        kind: u32,
        data: u64,
    );
}

/// Runs a single [`Component`] as a whole actor — the node *is* the
/// component. Used for detector-only worlds and unit tests.
pub struct Standalone<C>(pub C);

impl<C> Standalone<C> {
    /// The wrapped component.
    pub fn inner(&self) -> &C {
        &self.0
    }

    /// The wrapped component, mutably.
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.0
    }
}

impl<C: Component> Actor for Standalone<C> {
    type Msg = C::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let ns = self.0.ns();
        self.0
            .on_start(&mut SubCtx::new(ctx, &std::convert::identity, ns));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg) {
        let ns = self.0.ns();
        self.0.on_message(
            &mut SubCtx::new(ctx, &std::convert::identity, ns),
            from,
            msg,
        );
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: TimerTag) {
        let ns = self.0.ns();
        debug_assert_eq!(tag.ns, ns, "timer delivered to the wrong component");
        self.0.on_timer(
            &mut SubCtx::new(ctx, &std::convert::identity, ns),
            tag.kind,
            tag.data,
        );
    }
}

impl<C> std::ops::Deref for Standalone<C> {
    type Target = C;
    fn deref(&self) -> &C {
        &self.0
    }
}

impl<C> std::ops::DerefMut for Standalone<C> {
    fn deref_mut(&mut self) -> &mut C {
        &mut self.0
    }
}

/// The module stacked over a detector `D` in a [`Stack`]: the callbacks
/// of a [`Component`], each also handed the co-located lower module —
/// read-only, in its *current* state — which is the module's whole
/// interface to the detector (§2.1).
pub trait Over<D>: 'static {
    /// The message type this module exchanges with its peers.
    type Msg: SimMessage;

    /// The timer namespace this module arms its own timers in.
    fn ns(&self) -> u32;

    /// Whether timers in `ns` are routed to this module: its own, and
    /// those of every module it hosts. Must be false for `D`'s.
    fn owns(&self, ns: u32) -> bool {
        ns == self.ns()
    }

    /// Invoked once at time zero, after `below` has started.
    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, Self::Msg>, below: &D);

    /// Invoked when one of this module's messages arrives from `from`.
    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        from: ProcessId,
        msg: Self::Msg,
        below: &D,
    );

    /// Invoked when a timer in a namespace this module [`owns`](Over::owns)
    /// fires. `ctx` is scoped to the module's own namespace whichever
    /// one `tag` carries.
    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        tag: TimerTag,
        below: &D,
    );

    /// Invoked right after a callback of `below` that changed its output
    /// — one that announced [`obs::SUSPECTS`] or [`obs::TRUSTED`] — so a
    /// module can keep the output it was handed at `on_start` and here
    /// instead of re-reading it on every callback. The default ignores
    /// the news.
    fn on_fd_change<N: SimMessage>(&mut self, _ctx: &mut SubCtx<'_, '_, N, Self::Msg>, _below: &D) {
    }
}

/// The node message of a [`Stack`]: the lower module's messages plus the
/// upper module's, each keeping its own `kind()` and `round()`.
#[derive(Debug, Clone)]
pub enum StackMsg<A, B> {
    /// A message of the lower module.
    Below(A),
    /// A message of the upper module.
    Above(B),
}

impl<A: SimMessage, B: SimMessage> SimMessage for StackMsg<A, B> {
    fn kind(&self) -> &'static str {
        match self {
            StackMsg::Below(m) => m.kind(),
            StackMsg::Above(m) => m.kind(),
        }
    }
    fn round(&self) -> Option<u64> {
        match self {
            StackMsg::Below(m) => m.round(),
            StackMsg::Above(m) => m.round(),
        }
    }
}

/// A node hosting a detector `D` and one module `U` over it — the only
/// host a detector has. `below` starts first; a timer goes to `below`
/// iff it carries `below`'s namespace, else to `above`; a `below`
/// callback that changed its output is followed, in the same event, by
/// `above`'s [`on_fd_change`](Over::on_fd_change).
pub struct Stack<D, U> {
    /// The lower module (the detector).
    pub below: D,
    /// The upper module (a transformation, reduction or channel).
    pub above: U,
}

impl<D: Component, U: Over<D>> Stack<D, U> {
    /// Build the node from its two modules. Panics if `above` claims
    /// `below`'s timer namespace.
    pub fn new(below: D, above: U) -> Self {
        assert!(
            !above.owns(below.ns()),
            "components must own distinct timer namespaces"
        );
        Stack { below, above }
    }

    /// Call into the upper module from outside the event loop (via
    /// `World::interact`), with its scoped context and the lower module.
    pub fn with_above<R>(
        &mut self,
        ctx: &mut Context<'_, StackMsg<D::Msg, U::Msg>>,
        f: impl FnOnce(&mut U, &mut SubCtx<'_, '_, StackMsg<D::Msg, U::Msg>, U::Msg>, &D) -> R,
    ) -> R {
        let ns = self.above.ns();
        f(
            &mut self.above,
            &mut SubCtx::new(ctx, &StackMsg::Above, ns),
            &self.below,
        )
    }

    /// A callback of `below` queued everything after `mark`: if that
    /// announced a change of its output, tell `above`. The detectors
    /// announce exactly their changes, so this costs a scan of one
    /// callback's actions — no snapshot is built or compared.
    fn after_below(&mut self, ctx: &mut Context<'_, StackMsg<D::Msg, U::Msg>>, mark: usize) {
        if ctx.observed_since(mark, &obs::OUTPUT) {
            self.with_above(ctx, |above, ctx, below| above.on_fd_change(ctx, below));
        }
    }
}

impl<D: Component, U: Over<D>> Actor for Stack<D, U> {
    type Msg = StackMsg<D::Msg, U::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let ns = self.below.ns();
        self.below
            .on_start(&mut SubCtx::new(ctx, &StackMsg::Below, ns));
        self.with_above(ctx, |above, ctx, below| above.on_start(ctx, below));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg) {
        match msg {
            StackMsg::Below(m) => {
                let (ns, mark) = (self.below.ns(), ctx.mark());
                self.below
                    .on_message(&mut SubCtx::new(ctx, &StackMsg::Below, ns), from, m);
                self.after_below(ctx, mark);
            }
            StackMsg::Above(m) => {
                self.with_above(ctx, |above, ctx, below| {
                    above.on_message(ctx, from, m, below)
                });
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: TimerTag) {
        if tag.ns == self.below.ns() {
            let mark = ctx.mark();
            self.below.on_timer(
                &mut SubCtx::new(ctx, &StackMsg::Below, tag.ns),
                tag.kind,
                tag.data,
            );
            self.after_below(ctx, mark);
        } else {
            debug_assert!(self.above.owns(tag.ns), "timer for an unknown namespace");
            self.with_above(ctx, |above, ctx, below| above.on_timer(ctx, tag, below));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::{NetworkConfig, WorldBuilder};

    /// A component that gossips a counter once per period.
    struct Gossip {
        period: SimDuration,
        heard: u64,
    }

    #[derive(Clone, Debug)]
    struct Tick(u64);
    impl SimMessage for Tick {
        fn kind(&self) -> &'static str {
            "tick"
        }
    }

    impl Component for Gossip {
        type Msg = Tick;
        fn ns(&self) -> u32 {
            7
        }
        fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, Tick>) {
            ctx.set_timer(self.period, 0, 0);
        }
        fn on_message<N: SimMessage>(
            &mut self,
            _: &mut SubCtx<'_, '_, N, Tick>,
            _: ProcessId,
            m: Tick,
        ) {
            self.heard += m.0;
        }
        fn on_timer<N: SimMessage>(
            &mut self,
            ctx: &mut SubCtx<'_, '_, N, Tick>,
            kind: u32,
            _: u64,
        ) {
            assert_eq!(kind, 0);
            ctx.send_to_others(Tick(1));
            ctx.set_timer(self.period, 0, 0);
        }
    }

    #[test]
    fn standalone_component_runs_as_actor() {
        let mut w = WorldBuilder::new(NetworkConfig::new(3))
            .seed(5)
            .build(|_, _| {
                Standalone(Gossip {
                    period: SimDuration::from_millis(10),
                    heard: 0,
                })
            });
        w.run_until_time(Time::from_millis(100));
        for i in 0..3 {
            let heard = w.actor(ProcessId(i)).heard;
            assert!(heard >= 10, "p{i} heard only {heard}");
        }
    }

    /// Lower toy: `ticks` is 1 after start and grows by one every 10 ms.
    struct Clock {
        ticks: u64,
    }

    impl Component for Clock {
        type Msg = Tick;
        fn ns(&self) -> u32 {
            7
        }
        fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, Tick>) {
            self.ticks = 1;
            ctx.set_timer(SimDuration::from_millis(10), 0, 0);
        }
        fn on_message<N: SimMessage>(
            &mut self,
            _: &mut SubCtx<'_, '_, N, Tick>,
            _: ProcessId,
            _: Tick,
        ) {
        }
        fn on_timer<N: SimMessage>(
            &mut self,
            ctx: &mut SubCtx<'_, '_, N, Tick>,
            kind: u32,
            _: u64,
        ) {
            assert_eq!(kind, 0, "the probe's timer reached the clock");
            self.ticks += 1;
            // An even reading is announced as an output change.
            if self.ticks.is_multiple_of(2) {
                ctx.observe(obs::SUSPECTS, Payload::Pids(Vec::new()));
            }
            ctx.send_to_others(Tick(1));
            ctx.set_timer(SimDuration::from_millis(10), 0, 0);
        }
    }

    #[derive(Clone, Debug)]
    struct Ping;
    impl SimMessage for Ping {
        fn kind(&self) -> &'static str {
            "ping"
        }
    }

    /// Upper toy: on every callback, records the instant and the clock
    /// reading it was handed — output changes included.
    struct Probe {
        ns: u32,
        seen: Vec<(&'static str, Time, u64)>,
    }

    impl Over<Clock> for Probe {
        type Msg = Ping;
        fn ns(&self) -> u32 {
            self.ns
        }
        fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, Ping>, clock: &Clock) {
            self.seen.push(("start", ctx.now(), clock.ticks));
            ctx.set_timer(SimDuration::from_millis(7), 1, 0);
        }
        fn on_message<N: SimMessage>(
            &mut self,
            ctx: &mut SubCtx<'_, '_, N, Ping>,
            _: ProcessId,
            _: Ping,
            clock: &Clock,
        ) {
            self.seen.push(("message", ctx.now(), clock.ticks));
        }
        fn on_timer<N: SimMessage>(
            &mut self,
            ctx: &mut SubCtx<'_, '_, N, Ping>,
            tag: TimerTag,
            clock: &Clock,
        ) {
            assert_eq!(tag.kind, 1, "the clock's timer reached the probe");
            self.seen.push(("timer", ctx.now(), clock.ticks));
            ctx.send_to_others(Ping);
            ctx.set_timer(SimDuration::from_millis(7), 1, 0);
        }
        fn on_fd_change<N: SimMessage>(
            &mut self,
            ctx: &mut SubCtx<'_, '_, N, Ping>,
            clock: &Clock,
        ) {
            self.seen.push(("change", ctx.now(), clock.ticks));
        }
    }

    fn probe_over_clock(ns: u32) -> Stack<Clock, Probe> {
        Stack::new(
            Clock { ticks: 0 },
            Probe {
                ns,
                seen: Vec::new(),
            },
        )
    }

    #[test]
    fn the_upper_module_sees_the_lower_modules_current_state() {
        let net = NetworkConfig::new(2).with_default(fd_sim::LinkModel::reliable_const(
            SimDuration::from_millis(1),
        ));
        let mut w = WorldBuilder::new(net).build(|_, _| probe_over_clock(8));
        // Clock timers at 10, 20, 30, 40; probe timers at 7, 14, .., 42,
        // each answered by the peer's ping one millisecond later.
        w.run_until_time(Time::from_millis(45));
        let node = w.actor(ProcessId(0));
        assert_eq!(node.below.ticks, 5, "four clock timers, none misrouted");
        let count = |what| node.above.seen.iter().filter(|s| s.0 == what).count();
        assert_eq!(
            (count("start"), count("timer"), count("message")),
            (1, 6, 6)
        );
        // The clock announced a change at its even readings (at 10 and
        // 30 ms); each reached the probe in the same event, and nothing
        // else did.
        let changes: Vec<_> = node.above.seen.iter().filter(|s| s.0 == "change").collect();
        assert_eq!(
            changes,
            [
                &("change", Time::from_millis(10), 2),
                &("change", Time::from_millis(30), 4)
            ]
        );
        assert_eq!(
            node.above.seen[0],
            ("start", Time::ZERO, 1),
            "below starts first"
        );
        for &(what, at, ticks) in &node.above.seen {
            assert_eq!(ticks, 1 + at.as_millis() / 10, "{what} at {at}");
        }
        // Both modules' messages keep their own kind under `StackMsg`.
        assert_eq!(w.metrics().sent_of_kind("tick"), 2 * 4);
        assert_eq!(w.metrics().sent_of_kind("ping"), 2 * 6);

        // `with_above` lends the same view to a caller outside the loop.
        w.interact(ProcessId(0), |node, ctx| {
            let ticks = node.with_above(ctx, |_probe, ctx, clock| {
                ctx.send(ProcessId(1), Ping);
                clock.ticks
            });
            assert_eq!(ticks, 5);
        });
        w.run_until_time(Time::from_millis(47));
        assert_eq!(
            w.actor(ProcessId(1)).above.seen.last(),
            Some(&("message", Time::from_millis(46), 5))
        );
    }

    #[test]
    #[should_panic(expected = "distinct timer namespaces")]
    fn a_stack_rejects_equal_namespaces() {
        let _ = probe_over_clock(7);
    }

    /// Upper toy hosting a [`Gossip`] two `scoped` views deep, in
    /// namespace `leaf_ns`, beside a timer of its own in namespace 20.
    struct Nest {
        leaf: Gossip,
        leaf_ns: u32,
        fired: Vec<TimerTag>,
    }

    const OWN: TimerTag = TimerTag::new(20, 1, 0xfeed);

    impl Nest {
        fn new(leaf_ns: u32) -> Nest {
            Nest {
                leaf: Gossip {
                    period: SimDuration::from_millis(10),
                    heard: 0,
                },
                leaf_ns,
                fired: Vec::new(),
            }
        }

        fn with_leaf<N: SimMessage>(
            &mut self,
            ctx: &mut SubCtx<'_, '_, N, <Nest as Over<Clock>>::Msg>,
            f: impl FnOnce(&mut Gossip, &mut SubCtx<'_, '_, N, Tick>),
        ) {
            let (leaf, ns) = (&mut self.leaf, self.leaf_ns);
            ctx.scoped(StackMsg::Above, 21, |mid| {
                mid.scoped(StackMsg::Above, ns, |sub| f(leaf, sub))
            });
        }
    }

    impl Over<Clock> for Nest {
        type Msg = StackMsg<Ping, StackMsg<Ping, Tick>>;
        fn ns(&self) -> u32 {
            OWN.ns
        }
        fn owns(&self, ns: u32) -> bool {
            ns == OWN.ns || ns == self.leaf_ns
        }
        fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, Self::Msg>, _: &Clock) {
            self.with_leaf(ctx, |leaf, sub| leaf.on_start(sub));
            ctx.set_timer(SimDuration::from_millis(7), OWN.kind, OWN.data);
        }
        fn on_message<N: SimMessage>(
            &mut self,
            ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
            from: ProcessId,
            msg: Self::Msg,
            _: &Clock,
        ) {
            let StackMsg::Above(StackMsg::Above(tick)) = msg else {
                panic!("only the leaf sends: {msg:?}");
            };
            self.with_leaf(ctx, |leaf, sub| leaf.on_message(sub, from, tick));
        }
        fn on_timer<N: SimMessage>(
            &mut self,
            ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
            tag: TimerTag,
            _: &Clock,
        ) {
            self.fired.push(tag);
            if tag.ns == self.leaf_ns {
                self.with_leaf(ctx, |leaf, sub| leaf.on_timer(sub, tag.kind, tag.data));
                // The view this module was handed is its own, whichever
                // timer fired: re-arming here lands in namespace 20.
                ctx.set_timer(SimDuration::from_millis(7), OWN.kind, OWN.data);
            }
        }
    }

    #[test]
    fn a_nested_module_keeps_its_kind_and_its_namespace() {
        let net = NetworkConfig::new(2).with_default(fd_sim::LinkModel::reliable_const(
            SimDuration::from_millis(1),
        ));
        let mut w =
            WorldBuilder::new(net).build(|_, _| Stack::new(Clock { ticks: 0 }, Nest::new(22)));
        w.run_until_time(Time::from_millis(45));
        let node = w.actor(ProcessId(0));
        // The clock's four timers (namespace 7) never reached the nest,
        // and the nest's and the leaf's each came back tag intact: the
        // nest's own at 7 ms, then one 7 ms after each leaf timer but
        // the last (17, 27, 37), the leaf's at 10, 20, 30, 40.
        assert_eq!(node.below.ticks, 5);
        let leaf = TimerTag::new(22, 0, 0);
        assert_eq!(
            node.above.fired,
            [OWN, leaf, OWN, leaf, OWN, leaf, OWN, leaf]
        );
        // Two views down, the leaf's messages still count under its own
        // `kind()` (beside the clock's, which shares the type), and the
        // peer's reached the leaf, not the clock.
        assert_eq!(w.metrics().sent_of_kind("tick"), 2 * 4 + 2 * 4);
        assert_eq!(node.above.leaf.heard, 4);
    }

    #[test]
    #[should_panic(expected = "distinct timer namespaces")]
    fn a_stack_rejects_an_upper_module_that_owns_the_detectors_namespace() {
        // The nest's own namespace is 20; it is the hosted leaf's that
        // collides with the clock's 7.
        let _ = Stack::new(Clock { ticks: 0 }, Nest::new(7));
    }

    #[test]
    fn timers_carry_component_namespace() {
        // Indirectly covered by the debug_assert in Standalone::on_timer;
        // run long enough that timers fire.
        let mut w = WorldBuilder::new(NetworkConfig::new(2)).build(|_, _| {
            Standalone(Gossip {
                period: SimDuration::from_millis(1),
                heard: 0,
            })
        });
        w.run_until_time(Time::from_millis(5));
        assert!(w.metrics().sent_of_kind("tick") > 0);
    }
}
