//! Model-checking target adapters: [`McTarget`]s over the *real*
//! detectors and consensus protocols, for `ecfd mc`.
//!
//! `fd-mc` explores abstract [`fd_sim::SchedWorld`]s; this module
//! supplies the concrete ones. Detector targets box the same standalone
//! detector worlds the chaos campaign runs; protocol targets box full
//! [`ConsensusNode`] stacks (detector + Reliable Broadcast + protocol)
//! with the proposals injected at build time, so every explored branch
//! starts from a byte-identical world.
//!
//! All targets use a constant-delay reliable network: exploration owns
//! *all* nondeterminism (same-instant ordering, forced losses, crash
//! placement), so the substrate must be RNG-free — the kernel's digest
//! soundness assertion enforces this.
//!
//! The EC targets wrap the node in [`McEcNode`], a thin actor that
//! periodically calls [`EcConsensus::retransmit`] while undecided. The
//! round protocol assumes reliable channels; under the explorer's
//! forced losses a single dropped message wedges a round forever (the
//! PR 6 fd-kv wedge, rediscovered here exhaustively rather than by
//! seed luck). The watchdog is what makes `--drops 1` exploration of
//! EC terminate cleanly; the test-module constructor that disables it
//! is the seeded-bug regression the acceptance test hunts.

use fd_chaos::DetectorKind;
use fd_consensus::{
    ConsensusNode, CtConsensus, Decider, Ec, EcConsensus, Log, MultiEc, PaxosConsensus,
};
use fd_core::{EventuallyConsistentOracle, FdClass, Stack, StackMsg, Standalone};
use fd_detectors::{
    HeartbeatConfig, HeartbeatDetector, LeaderByFirstNonSuspected, LeaderConfig, LeaderDetector,
    RingConfig, RingDetector, StableLeaderConfig, StableLeaderDetector,
};
use fd_mc::McTarget;
use fd_obs::keys;
use fd_sim::{
    Actor, Context, LinkModel, NetworkConfig, ProcessId, SchedWorld, SimDuration, Time, TimerTag,
    WorldBuilder,
};

/// The model-checking network: constant-delay reliable links, so the
/// explorer owns all nondeterminism and the state digest is sound.
pub fn mc_net(n: usize) -> NetworkConfig {
    NetworkConfig::new(n).with_default(LinkModel::reliable_const(SimDuration::from_millis(1)))
}

/// Parse a CLI detector name (`hb` | `ring` | `leader`).
pub fn detector_kind(name: &str) -> Option<DetectorKind> {
    match name {
        "hb" | "heartbeat" => Some(DetectorKind::Heartbeat),
        "ring" => Some(DetectorKind::Ring),
        "leader" | "stable-leader" => Some(DetectorKind::StableLeader),
        _ => None,
    }
}

/// Short label for a detector kind (matches [`detector_kind`] input).
pub fn detector_label(kind: DetectorKind) -> &'static str {
    match kind {
        DetectorKind::Heartbeat => "hb",
        DetectorKind::Ring => "ring",
        DetectorKind::StableLeader => "leader",
    }
}

fn detector_world(kind: DetectorKind, n: usize) -> Box<dyn SchedWorld> {
    let b = WorldBuilder::new(mc_net(n)).track_state(true);
    match kind {
        DetectorKind::Heartbeat => Box::new(b.build(|pid, _| {
            Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default()))
        })),
        DetectorKind::Ring => {
            Box::new(b.build(|pid, _| Standalone(RingDetector::new(pid, n, RingConfig::default()))))
        }
        DetectorKind::StableLeader => Box::new(b.build(|pid, _| {
            Standalone(StableLeaderDetector::new(
                pid,
                n,
                StableLeaderConfig::default(),
            ))
        })),
    }
}

/// An exploration target for one standalone detector: the same worlds
/// the chaos campaign samples, explored exhaustively instead. The
/// checked properties are the detector's advertised class, same as the
/// campaign's monitors.
pub fn detector_target(kind: DetectorKind, n: usize, horizon: Time) -> McTarget {
    let properties = match kind.expected_class() {
        FdClass::Omega => vec![keys::FD_OMEGA],
        _ => vec![
            keys::FD_STRONG_COMPLETENESS,
            keys::FD_EVENTUAL_STRONG_ACCURACY,
        ],
    };
    McTarget {
        name: format!("{}-n{n}", detector_label(kind)),
        n,
        horizon,
        detector: kind,
        properties,
        factory: Box::new(move || detector_world(kind, n)),
    }
}

/// Timer namespace of the repair watchdog — distinct from every
/// component namespace in `fd_detectors::ns`.
const MC_REPAIR_NS: u32 = 0x4d43; // "MC"

/// How often an undecided [`McEcNode`] retransmits its stalled phase.
const REPAIR_PERIOD: SimDuration = SimDuration::from_millis(20);

/// The heartbeat-based ◇C detector the EC, CT and log targets run on.
fn hb_leader(pid: ProcessId, n: usize) -> LeaderByFirstNonSuspected<HeartbeatDetector> {
    LeaderByFirstNonSuspected::new(
        HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
        n,
    )
}

/// The EC node under exploration, with its liveness repair.
type EcHbNode = ConsensusNode<LeaderByFirstNonSuspected<HeartbeatDetector>, Ec>;

/// An [`EcHbNode`](crate::mc) wrapped with a retransmission watchdog
/// (an actor of its own until ROADMAP 2(c) moves retransmission into a
/// link layer).
///
/// While undecided, the node re-sends its outstanding round message
/// every `REPAIR_PERIOD` (the same repair fd-kv runs per stalled
/// slot). Retransmits are byte-identical duplicates, so the wrapper
/// cannot affect safety — only restore liveness under forced losses.
pub struct McEcNode {
    inner: EcHbNode,
    retransmit: bool,
}

impl McEcNode {
    /// A node with the repair watchdog armed (the shipped configuration).
    pub fn new(me: ProcessId, n: usize) -> McEcNode {
        McEcNode::build(me, n, true)
    }

    fn build(me: ProcessId, n: usize, retransmit: bool) -> McEcNode {
        let ec = EcConsensus::new(me, n);
        McEcNode {
            inner: Stack::new(hb_leader(me, n), Decider::new(me, ec)),
            retransmit,
        }
    }

    /// Propose a value (call through `World::interact`).
    pub fn propose(&mut self, ctx: &mut Context<'_, <Self as Actor>::Msg>, value: u64) {
        self.inner
            .with_above(ctx, |d, ctx, _| d.propose(ctx, value));
    }
}

impl Actor for McEcNode {
    type Msg = <EcHbNode as Actor>::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.inner.on_start(ctx);
        ctx.set_timer(REPAIR_PERIOD, TimerTag::new(MC_REPAIR_NS, 0, 0));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg) {
        self.inner.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: TimerTag) {
        if tag.ns == MC_REPAIR_NS {
            if self.retransmit && self.inner.above.decision().is_none() {
                self.inner.with_above(ctx, |decider, ctx, fd| {
                    let ec = &mut decider.cons;
                    ctx.scoped(StackMsg::Above, ec.ns(), |sub| {
                        ec.retransmit(sub, &fd.output())
                    });
                });
            }
            ctx.set_timer(REPAIR_PERIOD, TimerTag::new(MC_REPAIR_NS, 0, 0));
        } else {
            self.inner.on_timer(ctx, tag);
        }
    }
}

/// A protocol world on the model-checking network: `make` builds each
/// node and `start` hands it its input, `100 + pid`, before the first
/// event fires.
fn protocol_world<A: Actor>(
    n: usize,
    make: impl Fn(ProcessId) -> A,
    start: impl Fn(&mut A, &mut Context<'_, A::Msg>, u64),
) -> Box<dyn SchedWorld> {
    let mut world = WorldBuilder::new(mc_net(n))
        .track_state(true)
        .build(|pid, _| make(pid));
    for i in 0..n {
        world.interact(ProcessId(i), |node, ctx| start(node, ctx, 100 + i as u64));
    }
    Box::new(world)
}

/// Which protocol stack a model-checking target runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McProtocol {
    /// The paper's ◇C consensus over the heartbeat-based detector,
    /// wrapped with the retransmission watchdog ([`McEcNode`]).
    Ec,
    /// Chandra–Toueg ◇S over the same heartbeat-based detector.
    Ct,
    /// Single-decree Paxos over the candidate-based Ω detector.
    Paxos,
    /// The ◇C-multiplexing replicated log ([`fd_consensus::MultiNode`]).
    Multi,
}

impl McProtocol {
    /// Every protocol target, in presentation order.
    pub const ALL: [McProtocol; 4] = [
        McProtocol::Ec,
        McProtocol::Ct,
        McProtocol::Paxos,
        McProtocol::Multi,
    ];

    /// Parse a CLI protocol name.
    pub fn parse(name: &str) -> Option<McProtocol> {
        match name {
            "ec" => Some(McProtocol::Ec),
            "ct" => Some(McProtocol::Ct),
            "paxos" => Some(McProtocol::Paxos),
            "multi" => Some(McProtocol::Multi),
            _ => None,
        }
    }

    /// Short label (matches [`McProtocol::parse`] input).
    pub fn label(self) -> &'static str {
        match self {
            McProtocol::Ec => "ec",
            McProtocol::Ct => "ct",
            McProtocol::Paxos => "paxos",
            McProtocol::Multi => "multi",
        }
    }
}

/// An exploration target for one protocol stack at `n` processes, with
/// proposals `100 + pid` injected before the first event fires (the
/// replicated log's p0 submits a second command, 200, as well).
///
/// EC and CT check the full consensus contract
/// ([`keys::CONSENSUS_ALL`]); the replicated log checks per-slot
/// agreement ([`keys::MULTI_LOG_AGREEMENT`]) — log liveness within a
/// fixed horizon is not a protocol guarantee under crashes, so it is
/// not asserted here.
pub fn protocol_target(proto: McProtocol, n: usize, horizon: Time) -> McTarget {
    let (detector, properties): (DetectorKind, Vec<&'static str>) = match proto {
        McProtocol::Ec | McProtocol::Ct => (DetectorKind::Heartbeat, vec![keys::CONSENSUS_ALL]),
        McProtocol::Paxos => (DetectorKind::StableLeader, vec![keys::CONSENSUS_ALL]),
        McProtocol::Multi => (DetectorKind::Heartbeat, vec![keys::MULTI_LOG_AGREEMENT]),
    };
    McTarget {
        name: format!("{}-n{n}", proto.label()),
        n,
        horizon,
        detector,
        properties,
        factory: Box::new(move || match proto {
            McProtocol::Ec => protocol_world(n, |pid| McEcNode::new(pid, n), McEcNode::propose),
            McProtocol::Ct => protocol_world(
                n,
                |pid| {
                    let ct = CtConsensus::new(pid, n);
                    Stack::new(hb_leader(pid, n), Decider::new(pid, ct))
                },
                |node, ctx, v| node.with_above(ctx, |d, ctx, _| d.propose(ctx, v)),
            ),
            McProtocol::Paxos => protocol_world(
                n,
                |pid| {
                    let fd = LeaderDetector::new(pid, n, LeaderConfig::default());
                    let paxos = PaxosConsensus::new(pid, n);
                    Stack::new(fd, Decider::new(pid, paxos))
                },
                |node, ctx, v| node.with_above(ctx, |d, ctx, _| d.propose(ctx, v)),
            ),
            // p0 queues a second command behind its first. Its first
            // loses slot 0 to a higher pid's (equal lengths), returns to
            // the head of the queue, and the two go out as one batch in
            // slot 1: a batch of two, formed by a requeue, is in every
            // explored run.
            McProtocol::Multi => protocol_world(
                n,
                |pid| {
                    let multi = MultiEc::new(pid, n);
                    Stack::new(hb_leader(pid, n), Log::new(pid, multi))
                },
                |node, ctx, command| {
                    node.with_above(ctx, |log, ctx, _| {
                        log.submit(ctx, command);
                        if command == 100 {
                            log.submit(ctx, 200);
                        }
                    })
                },
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_mc::{explore, run_one, McConfig};
    use fd_sim::CanonicalScheduler;

    impl McEcNode {
        /// The seeded-bug configuration: no retransmission, so a single
        /// forced loss wedges a round forever — exactly the fd-kv wedge
        /// of PR 6, reintroduced for the model checker to find.
        fn without_retransmit(me: ProcessId, n: usize) -> McEcNode {
            McEcNode::build(me, n, false)
        }
    }

    /// Satellite 3: the model checker's first-explored branch (empty
    /// choice script) is byte-identical to the wheel's canonical
    /// `(time, seq)` order, on a real detector world.
    #[test]
    fn first_branch_reproduces_the_wheel_order() {
        let n = 3;
        let horizon = Time::from_millis(50);
        let target = detector_target(DetectorKind::Heartbeat, n, horizon);
        let cfg = McConfig::default();

        let exec = run_one(&target, &cfg, &[], &[]);

        let mut canonical = (target.factory)();
        canonical.run_scheduled_until(horizon, &mut CanonicalScheduler);
        let (trace, _) = canonical.take_results();
        assert_eq!(exec.trace_digest, trace.digest());

        // And both equal the plain wheel run (no scheduler seam at all).
        let mut wheel = WorldBuilder::new(mc_net(n))
            .track_state(true)
            .build(|pid, _| Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default())));
        wheel.run_until_time(horizon);
        let (wheel_trace, _) = wheel.take_results();
        assert_eq!(exec.trace_digest, wheel_trace.digest());
    }

    #[test]
    fn first_branch_reproduces_the_wheel_order_for_consensus() {
        let n = 3;
        let horizon = Time::from_millis(60);
        for proto in McProtocol::ALL {
            let target = protocol_target(proto, n, horizon);
            let exec = run_one(&target, &McConfig::default(), &[], &[]);
            let mut canonical = (target.factory)();
            canonical.run_scheduled_until(horizon, &mut CanonicalScheduler);
            let (trace, _) = canonical.take_results();
            assert_eq!(
                exec.trace_digest,
                trace.digest(),
                "{} diverged from canonical order",
                target.name
            );
            assert!(
                exec.violations.is_empty(),
                "{} violates on the canonical branch: {:?}",
                target.name,
                exec.violations.iter().map(|f| f.check).collect::<Vec<_>>()
            );
        }
    }

    /// The replicated-log target carries a batch of two: p0's first
    /// command loses slot 0, rejoins the queue ahead of its second, and
    /// both are proposed — and decided — together in slot 1.
    #[test]
    fn the_log_target_forms_a_batch_of_two_from_a_requeue() {
        let target = protocol_target(McProtocol::Multi, 3, Time::from_millis(300));
        let exec = run_one(&target, &McConfig::default(), &[], &[]);
        assert!(exec.violations.is_empty());
        let proposed_by_p0: Vec<(u64, u64)> = exec
            .trace
            .observations_of(ProcessId(0), keys::MULTI_PROPOSE)
            .filter_map(|(_, payload)| payload.as_u64_pair())
            .collect();
        assert_eq!(
            proposed_by_p0,
            vec![(0, 1), (1, 2)],
            "(slot, batch length) of p0's proposals"
        );
    }

    fn seeded_bug_target(n: usize, horizon: Time) -> McTarget {
        McTarget {
            name: format!("ec-noretransmit-n{n}"),
            n,
            horizon,
            detector: DetectorKind::Heartbeat,
            properties: vec![keys::CONSENSUS_TERMINATION],
            factory: Box::new(move || {
                protocol_world(
                    n,
                    |pid| McEcNode::without_retransmit(pid, n),
                    McEcNode::propose,
                )
            }),
        }
    }

    /// The first genuine choice points of the EC worlds are same-instant
    /// timer races at the start of the run; deliveries — and therefore
    /// drop options — come after them. Depth 3 puts the first message
    /// batch inside the branching frontier.
    fn wedge_cfg() -> McConfig {
        McConfig {
            depth: 3,
            drops: 1,
            max_runs: 10_000,
            ..McConfig::default()
        }
    }

    /// Satellite 4, half 1: with retransmission reverted (the PR 6
    /// wedge), exhaustive exploration at n=3 with one forced loss finds
    /// the termination violation, and the shrunk witness is minimal —
    /// exactly one dropped message, no crashes.
    #[test]
    fn mc_finds_the_seeded_retransmit_wedge() {
        let n = 3;
        let horizon = Time::from_millis(100);
        let target = seeded_bug_target(n, horizon);
        let report = explore(&target, &wedge_cfg());

        assert_eq!(report.violations.len(), 1, "stats: {:?}", report.stats);
        let v = &report.violations[0];
        assert_eq!(v.property, keys::CONSENSUS_TERMINATION);
        // Minimal witness shape: exactly one forced loss, every other
        // choice canonical (choice scripts are positional, so the
        // canonical prefix up to the drop's choice point must stay),
        // and no crash events. One lost message is the whole fault.
        let w = &v.witness;
        assert_eq!(
            w.choices.iter().filter(|c| c.is_drop()).count(),
            1,
            "witness: {:?}",
            w.choices
        );
        assert!(
            w.choices
                .iter()
                .all(|c| c.is_drop() || *c == fd_mc::Choice::Event(0)),
            "non-canonical non-drop choices survived shrinking: {:?}",
            w.choices
        );
        assert!(w.plan.events.is_empty(), "no crash needed");

        let outcome = fd_mc::replay_witness(&target, &wedge_cfg(), &v.witness);
        assert!(outcome.reproduced && outcome.violated);
    }

    /// Satellite 4, half 2: the same exploration budget against the
    /// shipped node (watchdog armed) is violation-free — the repair is
    /// what closes the wedge.
    #[test]
    fn the_repair_watchdog_closes_the_wedge() {
        let n = 3;
        let horizon = Time::from_millis(100);
        let target = McTarget {
            properties: vec![keys::CONSENSUS_TERMINATION],
            ..protocol_target(McProtocol::Ec, n, horizon)
        };
        let report = explore(&target, &wedge_cfg());
        assert!(
            report.violations.is_empty(),
            "watchdog failed to repair: {:?}",
            report
                .violations
                .iter()
                .map(|v| (&v.property, &v.detail))
                .collect::<Vec<_>>()
        );
        assert!(report.stats.runs > 1, "exploration did not branch");
    }

    /// Satellite 5: POR and state dedup are sound on the real detector
    /// worlds — switching them off finds the same violations and the
    /// same set of final states. (The toy-world proptest lives in
    /// fd-mc; this pins the real targets.)
    #[test]
    fn por_and_dedup_are_sound_on_real_detector_worlds() {
        let horizon = Time::from_millis(40);
        for kind in DetectorKind::ALL {
            for drops in [0, 1] {
                let target = detector_target(kind, 3, horizon);
                let cfg = McConfig {
                    depth: 3,
                    drops,
                    max_runs: 50_000,
                    ..McConfig::default()
                };
                let off = explore(
                    &target,
                    &McConfig {
                        por: false,
                        dedup: false,
                        ..cfg.clone()
                    },
                );
                let on = explore(&target, &cfg);
                assert!(on.complete && off.complete, "budget too small");
                fn props(r: &fd_mc::McReport) -> Vec<&str> {
                    let mut p: Vec<&str> =
                        r.violations.iter().map(|v| v.property.as_str()).collect();
                    p.sort_unstable();
                    p
                }
                assert_eq!(props(&on), props(&off), "{kind:?} drops={drops}");
                assert_eq!(
                    on.final_digests, off.final_digests,
                    "{kind:?} drops={drops}: pruning lost reachable final states"
                );
                assert!(
                    on.stats.runs <= off.stats.runs,
                    "{kind:?} drops={drops}: pruning increased work"
                );
            }
        }
    }
}
