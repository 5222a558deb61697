//! The actor abstraction: protocol code hosted at one process.
//!
//! A simulated node implements [`Actor`]. The kernel invokes its callbacks
//! for startup, message delivery, and timer expiry; the actor reacts by
//! queueing *actions* (sends, timer arms/cancels, trace observations) on
//! its [`Context`]. Actions are applied by the kernel after the callback
//! returns, which keeps the borrow structure simple and the event order
//! deterministic.

use crate::process::ProcessId;
use crate::time::{SimDuration, Time};
use crate::trace::Payload;
use rand::rngs::SmallRng;
use std::fmt;

/// Messages exchanged by actors.
///
/// `kind` labels the message for metrics (e.g. `"estimate"`, `"ack"`);
/// `round` optionally tags the protocol round it belongs to, letting the
/// experiment harness count messages per round exactly as the paper does.
pub trait SimMessage: Clone + fmt::Debug + 'static {
    /// A short static label for metrics aggregation.
    fn kind(&self) -> &'static str {
        "message"
    }
    /// The protocol round this message belongs to, if any.
    fn round(&self) -> Option<u64> {
        None
    }
}

/// A timer label. `ns` is a component namespace (so independent protocol
/// components hosted on one actor never collide), `kind` distinguishes the
/// timers of one component, and `data` carries free payload (a peer index,
/// a round number, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerTag {
    /// Component namespace.
    pub ns: u32,
    /// Timer kind within the namespace.
    pub kind: u32,
    /// Free payload.
    pub data: u64,
}

impl TimerTag {
    /// Construct a tag.
    pub const fn new(ns: u32, kind: u32, data: u64) -> TimerTag {
        TimerTag { ns, kind, data }
    }
}

/// Handle to a pending timer, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

/// An action queued by an actor callback; the simulation kernel applies
/// it after the callback returns.
#[derive(Debug)]
pub enum Action<M> {
    /// Send `msg` to `to`.
    Send {
        /// Destination.
        to: ProcessId,
        /// The message.
        msg: M,
    },
    /// Send one `msg` to every process in identity order — the cheap
    /// form of all-to-all: the kernel copies a drop-free payload into
    /// each delivery and fans one that owns heap data out behind a
    /// reference count, instead of the sender cloning it per
    /// destination. Trace, metrics, and delivery order
    /// are exactly as if the sender had queued one [`Action::Send`] per
    /// destination.
    Broadcast {
        /// Also deliver to the sender itself (over its loopback link).
        include_self: bool,
        /// The shared message.
        msg: M,
    },
    /// Arm one-shot timer `id` to fire `after` from now with `tag`.
    SetTimer {
        /// Cancellation handle.
        id: TimerId,
        /// Relative deadline.
        after: SimDuration,
        /// Label delivered back to the actor.
        tag: TimerTag,
    },
    /// Cancel timer `id`.
    CancelTimer {
        /// The handle returned by the corresponding set.
        id: TimerId,
    },
    /// Record a protocol observation.
    Observe {
        /// Observation tag.
        tag: &'static str,
        /// Structured payload.
        payload: Payload,
    },
}

/// Flatten a drained action list into the concrete `(destination,
/// message)` pairs the kernel would route: [`Action::Send`] passes
/// through, [`Action::Broadcast`] expands in identity order (skipping
/// `me` unless `include_self`), everything else is ignored.
///
/// Intended for unit tests that assert on a component's outgoing
/// traffic without caring whether it was queued as unicasts or as one
/// broadcast.
pub fn expand_sends<M: Clone>(
    me: ProcessId,
    n: usize,
    actions: &[Action<M>],
) -> Vec<(ProcessId, M)> {
    let mut out = Vec::new();
    for a in actions {
        match a {
            Action::Send { to, msg } => out.push((*to, msg.clone())),
            Action::Broadcast { include_self, msg } => {
                for i in 0..n {
                    if i == me.index() && !include_self {
                        continue;
                    }
                    out.push((ProcessId(i), msg.clone()));
                }
            }
            // Not sends: nothing for the caller's message assertions.
            Action::SetTimer { .. } | Action::CancelTimer { .. } | Action::Observe { .. } => {}
        }
    }
    out
}

/// The execution context handed to actor callbacks.
pub struct Context<'a, M> {
    pub(crate) me: ProcessId,
    pub(crate) n: usize,
    pub(crate) now: Time,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) actions: &'a mut Vec<Action<M>>,
    pub(crate) next_timer_id: &'a mut u64,
}

impl<'a, M> Context<'a, M> {
    /// Build a context outside a [`World`](crate::World): the protocol
    /// unit tests in other crates drive one component's callbacks by hand
    /// and assert on the drained `actions` (see [`expand_sends`]).
    /// `next_timer_id` must be monotonically maintained across calls so
    /// [`TimerId`]s stay unique.
    pub fn for_executor(
        me: ProcessId,
        n: usize,
        now: Time,
        rng: &'a mut SmallRng,
        actions: &'a mut Vec<Action<M>>,
        next_timer_id: &'a mut u64,
    ) -> Context<'a, M> {
        Context {
            me,
            n,
            now,
            rng,
            actions,
            next_timer_id,
        }
    }

    /// This process's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Total number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// This process's private random number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Send `msg` to `to` over the configured link.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Send `msg` to every process except this one, in identity order.
    ///
    /// Queues a single [`Action::Broadcast`] (see there for how the
    /// kernel fans the payload out).
    pub fn send_to_others(&mut self, msg: M)
    where
        M: Clone,
    {
        self.actions.push(Action::Broadcast {
            include_self: false,
            msg,
        });
    }

    /// Send `msg` to every process including this one, in identity order.
    pub fn send_to_all(&mut self, msg: M)
    where
        M: Clone,
    {
        self.actions.push(Action::Broadcast {
            include_self: true,
            msg,
        });
    }

    /// Arm a one-shot timer that fires `after` from now, carrying `tag`.
    pub fn set_timer(&mut self, after: SimDuration, tag: TimerTag) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.actions.push(Action::SetTimer { id, after, tag });
        id
    }

    /// Cancel a previously armed timer. Cancelling an already-fired timer
    /// is a harmless no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer { id });
    }

    /// Record an observation in the run trace (e.g. a failure-detector
    /// output change or a consensus decision). Observations are the raw
    /// material of the property checkers in `fd-core`.
    pub fn observe(&mut self, tag: &'static str, payload: Payload) {
        self.actions.push(Action::Observe { tag, payload });
    }

    /// A mark in this callback's queued actions, for
    /// [`observed_since`](Context::observed_since).
    pub fn mark(&self) -> usize {
        self.actions.len()
    }

    /// Whether an observation tagged one of `tags` was queued after
    /// `mark` — how a host learns what a module it called announced,
    /// at the cost of scanning what that call queued.
    pub fn observed_since(&self, mark: usize, tags: &[&str]) -> bool {
        self.actions
            .get(mark..)
            .unwrap_or_default()
            .iter()
            .any(|a| matches!(a, Action::Observe { tag, .. } if tags.contains(tag)))
    }
}

/// Protocol code hosted at one simulated process.
pub trait Actor: 'static {
    /// The message type this actor exchanges.
    type Msg: SimMessage;

    /// Invoked once at time zero, before any delivery.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Invoked when a message from `from` is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg);

    /// Invoked when a timer armed by this actor fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: TimerTag);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_process_rng;

    #[derive(Clone, Debug)]
    struct Ping;
    impl SimMessage for Ping {
        fn kind(&self) -> &'static str {
            "ping"
        }
    }

    fn with_ctx<R>(f: impl FnOnce(&mut Context<'_, Ping>) -> R) -> (R, Vec<Action<Ping>>) {
        let mut rng = derive_process_rng(0, 0);
        let mut actions = Vec::new();
        let mut next = 0;
        let mut ctx = Context {
            me: ProcessId(1),
            n: 4,
            now: Time::from_millis(5),
            rng: &mut rng,
            actions: &mut actions,
            next_timer_id: &mut next,
        };
        let r = f(&mut ctx);
        (r, actions)
    }

    #[test]
    fn send_to_others_queues_one_broadcast_without_self() {
        let (_, actions) = with_ctx(|ctx| ctx.send_to_others(Ping));
        assert_eq!(actions.len(), 1, "one action regardless of n");
        assert!(matches!(
            actions[0],
            Action::Broadcast {
                include_self: false,
                ..
            }
        ));
    }

    #[test]
    fn send_to_all_queues_one_broadcast_with_self() {
        let (_, actions) = with_ctx(|ctx| ctx.send_to_all(Ping));
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            Action::Broadcast {
                include_self: true,
                ..
            }
        ));
    }

    #[test]
    fn timer_ids_are_unique_and_monotonic() {
        let ((a, b), actions) = with_ctx(|ctx| {
            let a = ctx.set_timer(SimDuration(1), TimerTag::new(0, 0, 0));
            let b = ctx.set_timer(SimDuration(2), TimerTag::new(0, 1, 9));
            (a, b)
        });
        assert_ne!(a, b);
        assert_eq!(actions.len(), 2);
    }

    #[test]
    fn observed_since_sees_only_what_was_queued_after_the_mark() {
        let (seen, _) = with_ctx(|ctx| {
            ctx.observe("a", Payload::None);
            let mark = ctx.mark();
            let before = ctx.observed_since(mark, &["a", "b"]);
            ctx.send(ProcessId(0), Ping);
            let other = ctx.observed_since(mark, &["b"]);
            ctx.observe("b", Payload::None);
            (before, other, ctx.observed_since(mark, &["b"]))
        });
        assert_eq!(seen, (false, false, true));
    }

    #[test]
    fn context_exposes_identity_and_time() {
        let ((me, n, now), _) = with_ctx(|ctx| (ctx.me(), ctx.n(), ctx.now()));
        assert_eq!(me, ProcessId(1));
        assert_eq!(n, 4);
        assert_eq!(now, Time::from_millis(5));
    }
}
