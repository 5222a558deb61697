//! Model-checking target adapters: [`McTarget`]s over the *real*
//! detectors and consensus protocols, for `ecfd mc`, and [`McScenario`],
//! which makes a violation a campaign [`Artifact`].
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

use fd_campaign::scenario::SeedExecutor;
use fd_campaign::{Artifact, Monitor, NamedMonitor, RunOutcome, RunPlan, Scenario};
use fd_chaos::DetectorKind;
use fd_consensus::{
    ConsensusNode, CtConsensus, Decider, Ec, EcConsensus, Log, MultiEc, PaxosConsensus,
};
use fd_core::{EventuallyConsistentOracle, FdClass, Stack, StackMsg, Standalone};
use fd_detectors::{
    HeartbeatConfig, HeartbeatDetector, LeaderByFirstNonSuspected, LeaderConfig, LeaderDetector,
    RingConfig, RingDetector, StableLeaderConfig, StableLeaderDetector,
};
use fd_mc::{Choice, FoundViolation, McConfig, McTarget};
use fd_obs::keys;
use fd_sim::{
    Actor, Context, LinkModel, NetworkConfig, ProcessId, SchedWorld, SimDuration, Time, TimerTag,
    WorldBuilder,
};
use serde::{Deserialize, Serialize};

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

    /// Parse a CLI protocol name (a [`label`](McProtocol::label)).
    pub fn parse(name: &str) -> Option<McProtocol> {
        McProtocol::ALL.into_iter().find(|p| p.label() == name)
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
    let properties = match proto {
        McProtocol::Ec | McProtocol::Ct | McProtocol::Paxos => vec![keys::CONSENSUS_ALL],
        McProtocol::Multi => vec![keys::MULTI_LOG_AGREEMENT],
    };
    McTarget {
        name: format!("{}-n{n}", proto.label()),
        n,
        horizon,
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

/// What an mc plan's params hold: the choice script and the budgets it
/// was found under. The [`fd_mc::Replayer`] counts a choice point only
/// where it has two in-budget options, so the budgets are part of the run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct McParams {
    /// Recorded choice points per run ([`McConfig::depth`]).
    pub depth: usize,
    /// Forced losses per run ([`McConfig::drops`]).
    pub drops: usize,
    /// The choice script (canonical order after its last entry).
    pub choices: Vec<Choice>,
}

impl McParams {
    /// The params of an mc plan.
    pub fn of(plan: &RunPlan) -> Result<McParams, String> {
        serde_json::from_value(&plan.params).map_err(|e| format!("mc params: {e}"))
    }

    /// The plan of the one run these params name at `n`, `horizon` and
    /// `crashes`.
    fn plan(&self, n: usize, horizon: Time, crashes: &[(ProcessId, Time)]) -> RunPlan {
        let mut plan = RunPlan::new(0, horizon, mc_net(n)).with_params(serde_json::to_value(self));
        plan.crashes = crashes.to_vec();
        plan
    }
}

/// One family of model-checking targets — a detector or a protocol
/// stack at any `n` — as the campaign [`Scenario`] `mc-<label>`, whose
/// plan is one [`fd_mc::run_one`]. It has no seed space: every seed
/// plans the canonical run at n = 3 over 300 ms.
pub struct McScenario {
    /// The registry name.
    pub name: String,
    /// Builds the family's target at `n` processes and a horizon.
    pub build: Box<dyn Fn(usize, Time) -> McTarget + Send + Sync>,
}

impl McScenario {
    /// Every family `ecfd mc --all` explores, in its order: `mc-hb`, …,
    /// `mc-multi`.
    pub fn all() -> Vec<McScenario> {
        let detectors = DetectorKind::ALL.map(|kind| McScenario {
            name: format!("mc-{}", detector_label(kind)),
            build: Box::new(move |n, h| detector_target(kind, n, h)),
        });
        let protocols = McProtocol::ALL.map(|proto| McScenario {
            name: format!("mc-{}", proto.label()),
            build: Box::new(move |n, h| protocol_target(proto, n, h)),
        });
        detectors.into_iter().chain(protocols).collect()
    }

    /// The family registered as `name`.
    pub fn by_name(name: &str) -> Option<McScenario> {
        McScenario::all().into_iter().find(|s| s.name == name)
    }

    /// `v`, found exploring `target` under `cfg`, as an artifact of this
    /// family that replays without either.
    pub fn artifact(&self, target: &McTarget, cfg: &McConfig, v: &FoundViolation) -> Artifact {
        let params = McParams {
            depth: cfg.depth,
            drops: cfg.drops,
            choices: v.choices.clone(),
        };
        Artifact {
            scenario: self.name.clone(),
            seed: 0,
            property: v.property.clone(),
            detail: v.detail.clone(),
            digest: v.trace_digest,
            plan: params.plan(target.n, target.horizon, &v.schedule),
        }
    }
}

impl Scenario for McScenario {
    fn name(&self) -> &str {
        &self.name
    }

    fn plan(&self, _seed: u64) -> RunPlan {
        McParams::default().plan(3, Time::from_millis(300), &[])
    }

    fn monitors(&self) -> Vec<Box<dyn Monitor>> {
        let properties = (self.build)(3, Time::from_millis(300)).properties;
        properties.into_iter().map(NamedMonitor::boxed).collect()
    }

    /// Cut the choice script: halve it, drop its last choice, delete an
    /// earlier one — forced losses first, since a script with fewer
    /// faults is the more legible counterexample. A cut shifts later
    /// choices onto other choice points; where one no longer fits, the
    /// replayer plays the canonical event.
    fn shrink_plan(&self, plan: &RunPlan) -> Vec<(String, RunPlan)> {
        let Ok(params) = McParams::of(plan) else {
            return Vec::new();
        };
        let (script, len) = (&params.choices, params.choices.len());
        let mut cuts = Vec::new();
        let mut cut = |label: String, choices: Vec<Choice>| {
            let cut = McParams {
                choices,
                ..params.clone()
            };
            cuts.push((label, cut.plan(plan.n(), plan.horizon, &plan.crashes)));
        };
        if len >= 3 {
            cut(
                format!("halve the choice script to {}", len / 2),
                script[..len / 2].to_vec(),
            );
        }
        if len >= 1 {
            cut(
                "drop the last choice".to_string(),
                script[..len - 1].to_vec(),
            );
        }
        let mut earlier: Vec<usize> = (0..len.saturating_sub(1)).rev().collect();
        earlier.sort_by_key(|&i| !script[i].is_drop());
        for i in earlier {
            let mut rest = script.clone();
            let gone = rest.remove(i);
            cut(format!("delete choice {i} ({gone:?})"), rest);
        }
        cuts
    }

    /// A plan runs only what it says: seed 0 and the net [`mc_net`] (the
    /// target's, whatever the plan holds), crashes of its own processes,
    /// params that parse.
    fn check_plan(&self, plan: &RunPlan) -> Result<(), String> {
        let n = plan.n();
        let mc = n > 0 && serde_json::to_value(&plan.net) == serde_json::to_value(&mc_net(n));
        if plan.seed != 0 || !mc || plan.crashes.iter().any(|(p, _)| p.index() >= n) {
            return Err(format!(
                "not an mc run: wants seed 0, net mc_net({n}) and crashes below p{n}"
            ));
        }
        McParams::of(plan).map(drop)
    }

    fn make_executor(&self) -> Box<dyn SeedExecutor + '_> {
        Box::new(self)
    }
}

/// One [`fd_mc::run_one`] per plan, on a fresh, uninstrumented world.
impl SeedExecutor for &McScenario {
    fn execute(&mut self, plan: &RunPlan, _obs: Option<&fd_obs::Registry>) -> RunOutcome {
        let params = McParams::of(plan).expect("check_plan accepted the params");
        let cfg = McConfig {
            depth: params.depth,
            drops: params.drops,
            ..McConfig::default()
        };
        let target = (self.build)(plan.n(), plan.horizon);
        let exec = fd_mc::run_one(&target, &cfg, &plan.crashes, &params.choices);
        RunOutcome {
            n: plan.n(),
            end: plan.horizon,
            decision_latency: None,
            messages: exec.metrics.sent_total(),
            events: exec.metrics.events_processed(),
            trace: exec.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_mc::{explore, run_one};
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

    /// The seeded wedge as `ecfd mc` writes it: found by exhaustive
    /// exploration at n = 3 with one forced loss, as an artifact of the
    /// (unregistered) `mc-ec-noretransmit` family.
    fn wedge_artifact() -> (McScenario, Artifact) {
        let scenario = McScenario {
            name: "mc-ec-noretransmit".into(),
            build: Box::new(seeded_bug_target),
        };
        let target = (scenario.build)(3, Time::from_millis(100));
        let report = explore(&target, &wedge_cfg());
        assert_eq!(report.violations.len(), 1, "stats: {:?}", report.stats);
        let artifact = scenario.artifact(&target, &wedge_cfg(), &report.violations[0]);
        (scenario, artifact)
    }

    /// With retransmission reverted (the round wedge), exhaustive
    /// exploration at n=3 with one forced loss finds the termination
    /// violation, and the campaign shrinker cuts it to a minimal script
    /// — exactly one dropped message, no crashes.
    #[test]
    fn mc_finds_the_seeded_retransmit_wedge() {
        let (scenario, artifact) = wedge_artifact();
        assert_eq!(artifact.property, keys::CONSENSUS_TERMINATION);

        let shrunk = fd_campaign::shrink(&scenario, &artifact).unwrap().artifact;
        // Minimal shape: exactly one forced loss, every other choice
        // canonical (choice scripts are positional, so the canonical
        // prefix up to the drop's choice point must stay), and no crash
        // events. One lost message is the whole fault.
        let choices = McParams::of(&shrunk.plan).unwrap().choices;
        assert_eq!(
            choices.iter().filter(|c| c.is_drop()).count(),
            1,
            "shrunk script: {choices:?}"
        );
        assert!(
            choices
                .iter()
                .all(|c| c.is_drop() || *c == Choice::Event(0)),
            "non-canonical non-drop choices survived shrinking: {choices:?}"
        );
        assert!(shrunk.plan.crashes.is_empty(), "no crash needed");

        let replayed = fd_campaign::replay(&scenario, &shrunk).unwrap();
        assert!(replayed.reproduced() && replayed.digest_matches);
    }

    /// The artifact carries everything its run depends on: read back
    /// from JSON with no exploration config and no target flags, it
    /// replays to the recorded digest — and the drop budget in its
    /// params is load-bearing: at budget 0 the same script is another
    /// run, which terminates.
    #[test]
    fn a_wedge_artifact_replays_from_its_json_alone() {
        let (scenario, artifact) = wedge_artifact();
        let json = serde_json::to_string_pretty(&artifact).unwrap();
        let back: Artifact = serde_json::from_str(&json).unwrap();
        let replayed = fd_campaign::replay(&scenario, &back).unwrap();
        assert!(replayed.reproduced(), "the violation must come back");
        assert!(replayed.digest_matches, "byte-identical trace");

        let mut no_budget = back;
        let mut params = McParams::of(&no_budget.plan).unwrap();
        params.drops = 0;
        no_budget.plan.params = serde_json::to_value(&params);
        let replayed = fd_campaign::replay(&scenario, &no_budget).unwrap();
        assert!(!replayed.reproduced() && !replayed.digest_matches);
    }

    /// Every family resolves by its name, plans what `check_plan`
    /// accepts, and refuses a plan that would run something else.
    #[test]
    fn mc_scenarios_check_their_plans() {
        let names: Vec<String> = McScenario::all().iter().map(|s| s.name.clone()).collect();
        assert_eq!(
            names,
            [
                "mc-hb",
                "mc-ring",
                "mc-leader",
                "mc-ec",
                "mc-ct",
                "mc-paxos",
                "mc-multi"
            ]
        );
        let sc = McScenario::by_name("mc-ec").unwrap();
        let plan = sc.plan(7);
        sc.check_plan(&plan).unwrap();
        let outcome = sc.make_executor().execute(&plan, None);
        assert!(outcome.events > 0 && outcome.messages > 0);

        let mut seeded = plan.clone();
        seeded.seed = 7;
        assert!(sc.check_plan(&seeded).is_err());
        let mut lossy = plan.clone();
        lossy.net = crate::scenarios::jitter_net(3);
        assert!(sc.check_plan(&lossy).is_err());
        let mut stray = plan.clone();
        stray.crashes.push((ProcessId(3), Time::ZERO));
        assert!(sc.check_plan(&stray).is_err());
        let mut bare = plan;
        bare.params = serde::Value::Null;
        assert!(sc.check_plan(&bare).is_err());
    }

    /// The script cuts, most aggressive first, drops before events.
    #[test]
    fn mc_shrink_moves_cut_the_choice_script() {
        let sc = McScenario::by_name("mc-ec").unwrap();
        let params = McParams {
            depth: 6,
            drops: 1,
            choices: vec![
                Choice::Event(1),
                Choice::Drop(0),
                Choice::Event(2),
                Choice::Event(0),
            ],
        };
        let plan = params.plan(3, Time::from_millis(300), &[]);
        let moves = sc.shrink_plan(&plan);
        let labels: Vec<&str> = moves.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            [
                "halve the choice script to 2",
                "drop the last choice",
                "delete choice 1 (Drop(0))",
                "delete choice 2 (Event(2))",
                "delete choice 0 (Event(1))",
            ]
        );
        let scripts: Vec<Vec<Choice>> = moves
            .iter()
            .map(|(_, p)| McParams::of(p).unwrap().choices)
            .collect();
        assert_eq!(scripts[0], [Choice::Event(1), Choice::Drop(0)]);
        assert_eq!(
            scripts[2],
            [Choice::Event(1), Choice::Event(2), Choice::Event(0)]
        );
        assert!(moves.iter().all(|(_, p)| sc.check_plan(p).is_ok()));
    }

    /// The same exploration budget against the
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
