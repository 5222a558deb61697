//! Reliable Broadcast (R-broadcast / R-deliver).
//!
//! The communication primitive the paper's consensus algorithm uses to
//! disseminate decisions (§5, citing \[6\] for its definition). Guarantees:
//!
//! * **validity** — if a correct process R-broadcasts `m`, it eventually
//!   R-delivers `m`;
//! * **agreement** — if any correct process R-delivers `m`, every correct
//!   process eventually R-delivers `m` (even if the broadcaster crashed
//!   mid-broadcast);
//! * **uniform integrity** — every process R-delivers `m` at most once,
//!   and only if `m` was broadcast.
//!
//! Implementation: the classic relay algorithm — on first receipt of a
//! `(origin, seq)` pair, forward it to everyone else, then deliver.
//! Costs O(n²) messages per broadcast, which is why the paper's §5.4
//! message counts exclude the decision broadcast.

use fd_core::{Component, SubCtx};
use fd_sim::{ProcessId, SimMessage};
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// A broadcast payload delivered to the hosting protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<P> {
    /// The process that originally broadcast the payload.
    pub origin: ProcessId,
    /// The origin-local sequence number.
    pub seq: u64,
    /// The payload itself.
    pub payload: P,
}

/// Wire message of the reliable broadcast.
#[derive(Debug, Clone)]
pub struct RbMsg<P> {
    /// Original broadcaster.
    pub origin: ProcessId,
    /// Origin-local sequence number.
    pub seq: u64,
    /// Payload.
    pub payload: P,
}

impl<P: Clone + fmt::Debug + 'static> SimMessage for RbMsg<P> {
    fn kind(&self) -> &'static str {
        fd_obs::keys::RB_MSG
    }
}

/// The relay-based Reliable Broadcast module.
#[derive(Debug)]
pub struct ReliableBroadcast<P> {
    me: ProcessId,
    seen: HashSet<(ProcessId, u64)>,
    delivered: VecDeque<Delivery<P>>,
    next_seq: u64,
}

impl<P: Clone + fmt::Debug + 'static> ReliableBroadcast<P> {
    /// Create the module for process `me`.
    pub fn new(me: ProcessId) -> ReliableBroadcast<P> {
        ReliableBroadcast {
            me,
            seen: HashSet::new(),
            delivered: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// R-broadcast `payload`. It is relayed to every other process and
    /// delivered locally at once. Returns the assigned sequence number.
    pub fn broadcast<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, RbMsg<P>>,
        payload: P,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.seen.insert((self.me, seq));
        ctx.send_to_others(RbMsg {
            origin: self.me,
            seq,
            payload: payload.clone(),
        });
        self.delivered.push_back(Delivery {
            origin: self.me,
            seq,
            payload,
        });
        seq
    }

    /// Drain payloads R-delivered since the last call. The hosting
    /// protocol calls this after routing a message to the module.
    pub fn take_delivered(&mut self) -> Vec<Delivery<P>> {
        self.delivered.drain(..).collect()
    }
}

impl<P: Clone + fmt::Debug + 'static> Component for ReliableBroadcast<P> {
    type Msg = RbMsg<P>;

    fn ns(&self) -> u32 {
        fd_detectors_ns::BROADCAST
    }

    fn on_start<N: SimMessage>(&mut self, _ctx: &mut SubCtx<'_, '_, N, RbMsg<P>>) {}

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, RbMsg<P>>,
        _from: ProcessId,
        msg: RbMsg<P>,
    ) {
        if self.seen.insert((msg.origin, msg.seq)) {
            // First sight: relay so agreement survives a crashed origin,
            // then deliver locally.
            ctx.send_to_others(msg.clone());
            self.delivered.push_back(Delivery {
                origin: msg.origin,
                seq: msg.seq,
                payload: msg.payload,
            });
        }
    }

    fn on_timer<N: SimMessage>(
        &mut self,
        _ctx: &mut SubCtx<'_, '_, N, RbMsg<P>>,
        _k: u32,
        _d: u64,
    ) {
    }
}

/// Namespace shim: the registry lives in `fd-detectors`, but depending on
/// it from here would invert the crate DAG, so the constant is mirrored
/// and asserted equal in the integration tests.
mod fd_detectors_ns {
    pub const BROADCAST: u32 = 8;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::Standalone;
    use fd_sim::{Context, LinkModel, NetworkConfig, SimDuration, Time, WorldBuilder};

    type Node = Standalone<ReliableBroadcast<u64>>;

    fn world(n: usize, seed: u64) -> fd_sim::World<Node> {
        let net = NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(5),
        ));
        WorldBuilder::new(net)
            .seed(seed)
            .build(|pid, _| Standalone(ReliableBroadcast::new(pid)))
    }

    fn do_broadcast(w: &mut fd_sim::World<Node>, from: usize, value: u64) {
        w.interact(
            ProcessId(from),
            |node, ctx: &mut Context<'_, RbMsg<u64>>| {
                let ns = node.inner().ns();
                node.inner_mut()
                    .broadcast(&mut SubCtx::new(ctx, &std::convert::identity, ns), value);
            },
        );
    }

    fn delivered_of(node: &Node) -> Vec<(ProcessId, u64, u64)> {
        node.inner()
            .delivered
            .iter()
            .map(|d| (d.origin, d.seq, d.payload))
            .collect()
    }

    #[test]
    fn broadcast_reaches_everyone_once() {
        let n = 4;
        let mut w = world(n, 81);
        do_broadcast(&mut w, 0, 42);
        w.run_until_time(Time::from_millis(100));
        for i in 0..n {
            let got = delivered_of(w.actor(ProcessId(i)));
            assert_eq!(got, vec![(ProcessId(0), 0, 42)], "at p{i}");
        }
    }

    #[test]
    fn duplicate_relays_deliver_once() {
        let n = 5;
        let mut w = world(n, 82);
        do_broadcast(&mut w, 2, 7);
        do_broadcast(&mut w, 2, 8);
        w.run_until_time(Time::from_millis(200));
        for i in 0..n {
            let got = delivered_of(w.actor(ProcessId(i)));
            assert_eq!(got.len(), 2, "p{i} delivered {got:?}");
            assert!(w
                .actor(ProcessId(i))
                .inner()
                .seen
                .contains(&(ProcessId(2), 0)));
        }
    }

    #[test]
    fn agreement_survives_origin_crash() {
        // The origin crashes right after sending: since at least one
        // correct process received a copy, relays carry it everywhere.
        let n = 5;
        let net = NetworkConfig::new(n)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(2)));
        let mut w = WorldBuilder::new(net)
            .seed(83)
            .build(|pid, _| Standalone(ReliableBroadcast::<u64>::new(pid)));
        do_broadcast(&mut w, 0, 99);
        // Crash the origin before its messages land (2ms link delay).
        w.schedule_crash(ProcessId(0), Time(1));
        w.run_until_time(Time::from_millis(100));
        for i in 1..n {
            let got = delivered_of(w.actor(ProcessId(i)));
            assert_eq!(got, vec![(ProcessId(0), 0, 99)], "p{i}");
        }
    }

    #[test]
    fn sequence_numbers_distinguish_broadcasts() {
        let mut w = world(3, 84);
        do_broadcast(&mut w, 1, 5);
        do_broadcast(&mut w, 1, 5);
        w.run_until_time(Time::from_millis(100));
        // Both same-instant broadcasts race over jittered links, so the
        // arrival order at p0 is seed-dependent; what RB guarantees is
        // that both are delivered exactly once, told apart by sequence
        // number despite carrying identical payloads.
        let mut got = delivered_of(w.actor(ProcessId(0)));
        got.sort_unstable();
        assert_eq!(got, vec![(ProcessId(1), 0, 5), (ProcessId(1), 1, 5)]);
    }
}
