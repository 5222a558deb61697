//! The common shape of the round-based consensus protocols.
//!
//! All five protocols in this crate — the paper's ◇C algorithm and its
//! §5.4 merged variant, the Chandra–Toueg ◇S and Mostefaoui–Raynal Ω
//! baselines, and the Paxos synod — are one shell around different
//! phases. The shell, [`Round`], owns what no protocol's phases need to
//! know: whether this process has proposed and whether it has decided,
//! the `propose(v)` entry (at most once, and a no-op once the decision
//! has outrun the proposer), the polling timer that runs from the
//! proposal to the decision (wait conditions depend on the failure
//! detector's output, which can change without a message arriving), and
//! Fig. 4's decide task ("upon R-deliver(decide, v): decide v", once).
//!
//! A protocol is a [`RoundProtocol`] and supplies only its phases: what
//! to do when the instance starts, on each of its messages, on each
//! poll, and how to stand down once the decision is in. It receives the
//! co-located failure detector's current [`FdOutput`] on every callback
//! (the paper's "a process interacts only with its local failure
//! detection module") and signals decision broadcasts back to the host
//! through [`ProtocolStep`]. Messages reach the phases in every stage —
//! Fig. 4's Tasks 1 and 2 and a Paxos acceptor answer before the
//! proposal and after the decision — so the shell gates nothing there.

use fd_core::{obs, FdOutput, SubCtx};
use fd_sim::{Payload, ProcessId, SimDuration, SimMessage};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A timestamped estimate: the value a process currently champions and
/// the round in which it adopted it (`estimate_p` / `ts_p` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Estimate {
    /// The value.
    pub value: u64,
    /// The round in which it was adopted (0 = the initial proposal).
    pub ts: u64,
}

impl Estimate {
    /// The initial estimate of a proposer.
    pub fn initial(value: u64) -> Estimate {
        Estimate { value, ts: 0 }
    }

    /// The selection rule every protocol uses: prefer the larger
    /// timestamp, breaking ties by the larger value. Tie-breaking by
    /// value (rather than scan order) makes the operation a proper
    /// lattice join — deterministic and associative — and lets layered
    /// applications rank same-timestamp proposals (the replicated log
    /// uses value 0 for NOOPs so any real command outranks them).
    pub fn newer_of(a: Estimate, b: Estimate) -> Estimate {
        if (b.ts, b.value) > (a.ts, a.value) {
            b
        } else {
            a
        }
    }
}

/// The payload carried by the decision Reliable Broadcast:
/// `(value, deciding round)`.
pub type DecidePayload = (u64, u64);

/// What a protocol callback asks its host to do.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolStep {
    /// R-broadcast this decision (the Fig. 3 Phase 4 / Fig. 4 Task 3
    /// hand-off).
    pub broadcast_decision: Option<DecidePayload>,
}

impl ProtocolStep {
    /// Do nothing.
    pub fn none() -> ProtocolStep {
        ProtocolStep::default()
    }

    /// Ask the host to R-broadcast a decision.
    pub fn decide(value: u64, round: u64) -> ProtocolStep {
        ProtocolStep {
            broadcast_decision: Some((value, round)),
        }
    }
}

/// Timing knobs shared by the protocols.
#[derive(Debug, Clone)]
pub struct ConsensusConfig {
    /// Period of the wait-condition polling timer. Wait conditions depend
    /// on the failure detector's output, which can change without any
    /// protocol message arriving, so blocked phases re-check on this
    /// cadence.
    pub poll_period: SimDuration,
}

impl Default for ConsensusConfig {
    fn default() -> Self {
        ConsensusConfig {
            poll_period: SimDuration::from_millis(2),
        }
    }
}

/// The phases of a round-based consensus protocol: what a [`Round`]
/// runs between the proposal and the decision.
pub trait RoundProtocol: 'static {
    /// The protocol's wire messages.
    type Msg: SimMessage;

    /// This process proposed `value`: enter the first round.
    fn start<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        value: u64,
        fd: FdOutput,
    ) -> ProtocolStep;

    /// A protocol message arrived — before the proposal, during the
    /// rounds or after the decision.
    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        from: ProcessId,
        msg: Self::Msg,
        fd: FdOutput,
    ) -> ProtocolStep;

    /// Re-evaluate the wait conditions against the detector's current
    /// output. Called only between [`start`](RoundProtocol::start) and
    /// [`close`](RoundProtocol::close).
    fn poll<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        fd: FdOutput,
    ) -> ProtocolStep;

    /// The decision was delivered: the instance is over, and no reply
    /// that arrives from now on may complete a phase.
    fn close(&mut self);

    /// The round this process is currently in.
    fn round(&self) -> u64;
}

/// Where one process stands in one consensus instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Not yet proposed.
    Idle,
    /// Proposed, not yet decided: the poll timer is running.
    Running,
    /// Decided `(value, round)`.
    Decided(u64, u64),
}

/// The poll timer: the only timer a consensus instance arms.
const TIMER_POLL: u32 = 0;

/// One process's side of one consensus instance: the propose-once gate,
/// the poll timer and the decide task around the phases of `P`.
#[derive(Debug)]
pub struct Round<P> {
    pub(crate) body: P,
    cfg: ConsensusConfig,
    stage: Stage,
}

impl<P: RoundProtocol> Round<P> {
    /// An instance that has neither proposed nor decided.
    pub(crate) fn over(body: P, cfg: ConsensusConfig) -> Round<P> {
        Round {
            body,
            cfg,
            stage: Stage::Idle,
        }
    }

    /// Timer namespace.
    pub fn ns(&self) -> u32 {
        fd_detectors::ns::CONSENSUS
    }

    fn arm_poll<N: SimMessage>(&self, ctx: &mut SubCtx<'_, '_, N, P::Msg>) {
        ctx.set_timer(self.cfg.poll_period, TIMER_POLL, 0);
    }

    /// Propose a value (each process proposes exactly once).
    pub fn on_propose<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, P::Msg>,
        value: u64,
        fd: FdOutput,
    ) -> ProtocolStep {
        // Recorded (for the validity bookkeeping) even when the decision
        // broadcast outran a slow proposer and the instance is already
        // over for this process.
        ctx.observe(obs::PROPOSE, Payload::U64(value));
        if let Stage::Decided(..) = self.stage {
            return ProtocolStep::none();
        }
        assert_eq!(self.stage, Stage::Idle, "propose called twice");
        self.stage = Stage::Running;
        self.arm_poll(ctx);
        self.body.start(ctx, value, fd)
    }

    /// A protocol message arrived.
    pub fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, P::Msg>,
        from: ProcessId,
        msg: P::Msg,
        fd: FdOutput,
    ) -> ProtocolStep {
        self.body.on_message(ctx, from, msg, fd)
    }

    /// The poll timer fired. It re-arms from the proposal to the
    /// decision; a poll already in flight at the decision ends the chain.
    pub fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, P::Msg>,
        kind: u32,
        _data: u64,
        fd: FdOutput,
    ) -> ProtocolStep {
        debug_assert_eq!(kind, TIMER_POLL);
        if self.stage != Stage::Running {
            return ProtocolStep::none();
        }
        self.arm_poll(ctx);
        self.body.poll(ctx, fd)
    }

    /// The host R-delivered a decision broadcast: decide, once.
    pub fn on_decide_delivered<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, P::Msg>,
        value: u64,
        round: u64,
    ) {
        if self.decision().is_none() {
            self.stage = Stage::Decided(value, round);
            self.body.close();
            ctx.observe(obs::DECIDE, Payload::U64Pair(value, round));
        }
    }

    /// This process's decision, if reached: `(value, round)`.
    pub fn decision(&self) -> Option<DecidePayload> {
        match self.stage {
            Stage::Decided(value, round) => Some((value, round)),
            Stage::Idle | Stage::Running => None,
        }
    }

    /// The round this process is currently in.
    pub fn round(&self) -> u64 {
        self.body.round()
    }
}

/// The majority threshold `⌈(n+1)/2⌉` used throughout §5.
pub fn majority(n: usize) -> usize {
    n / 2 + 1
}

/// The wait clause of the ◇C algorithm's Phases 2 and 4: a majority of
/// the `n` processes replied, and so did every process the local
/// detector does not suspect.
pub(crate) fn all_unsuspected_replied<T>(
    n: usize,
    replies: &BTreeMap<ProcessId, T>,
    fd: &FdOutput,
) -> bool {
    replies.len() >= majority(n)
        && (0..n)
            .map(ProcessId)
            .all(|q| replies.contains_key(&q) || fd.suspected.contains(q))
}

/// The newest of `estimates` under [`Estimate::newer_of`] (a lattice
/// join, so the scan order does not matter) and how many there were.
pub(crate) fn newest_estimate(
    estimates: impl Iterator<Item = Estimate>,
) -> (Option<Estimate>, usize) {
    estimates.fold((None, 0), |(best, count), e| {
        let best = best.map_or(e, |b| Estimate::newer_of(b, e));
        (Some(best), count + 1)
    })
}

#[cfg(test)]
mod tests {
    use super::testkit::{drive, no_fd};
    use super::*;
    use fd_detectors::NoMsg;
    use fd_sim::Action;

    /// A body that sends nothing and counts what the shell asks of it.
    #[derive(Debug, Default)]
    struct Toy {
        started: Option<u64>,
        polls: u32,
        closes: u32,
    }

    type Ctx<'a, 'b, 'w, N> = &'a mut SubCtx<'b, 'w, N, NoMsg>;

    impl RoundProtocol for Toy {
        type Msg = NoMsg;
        fn start<N: SimMessage>(&mut self, _: Ctx<N>, value: u64, _: FdOutput) -> ProtocolStep {
            self.started = Some(value);
            ProtocolStep::none()
        }
        fn on_message<N: SimMessage>(
            &mut self,
            _: Ctx<N>,
            _: ProcessId,
            msg: NoMsg,
            _: FdOutput,
        ) -> ProtocolStep {
            match msg {}
        }
        fn poll<N: SimMessage>(&mut self, _: Ctx<N>, _: FdOutput) -> ProtocolStep {
            self.polls += 1;
            ProtocolStep::none()
        }
        fn close(&mut self) {
            self.closes += 1;
        }
        fn round(&self) -> u64 {
            0
        }
    }

    fn toy() -> Round<Toy> {
        Round::over(Toy::default(), ConsensusConfig::default())
    }

    fn is_poll_arm(a: &Action<NoMsg>) -> bool {
        let period = ConsensusConfig::default().poll_period;
        matches!(a, Action::SetTimer { after, tag, .. } if *after == period && tag.kind == TIMER_POLL)
    }

    fn observes(a: &Action<NoMsg>, key: &str, what: Payload) -> bool {
        matches!(a, Action::Observe { tag, payload } if *tag == key && *payload == what)
    }

    #[test]
    fn a_proposal_is_observed_then_arms_the_poll_then_starts_the_body() {
        let mut r = toy();
        let (_, actions) = drive(0, 3, |ctx| r.on_propose(ctx, 9, no_fd()));
        assert_eq!(actions.len(), 2);
        assert!(observes(&actions[0], obs::PROPOSE, Payload::U64(9)));
        assert!(is_poll_arm(&actions[1]));
        assert_eq!(r.body.started, Some(9));
        assert_eq!(r.decision(), None);
    }

    #[test]
    fn a_proposal_after_the_decision_is_observed_and_arms_nothing() {
        let mut r = toy();
        drive(0, 3, |ctx| r.on_decide_delivered(ctx, 7, 2));
        let (step, actions) = drive(0, 3, |ctx| r.on_propose(ctx, 9, no_fd()));
        assert_eq!(step, ProtocolStep::none());
        assert_eq!(actions.len(), 1, "no timer: {actions:?}");
        assert!(observes(&actions[0], obs::PROPOSE, Payload::U64(9)));
        assert_eq!(r.body.started, None, "the body never starts");
        assert_eq!(r.decision(), Some((7, 2)));
    }

    #[test]
    #[should_panic(expected = "propose called twice")]
    fn a_second_proposal_panics() {
        let mut r = toy();
        drive(0, 3, |ctx| r.on_propose(ctx, 9, no_fd()));
        drive(0, 3, |ctx| r.on_propose(ctx, 9, no_fd()));
    }

    #[test]
    fn the_poll_runs_from_the_proposal_to_the_decision() {
        let mut r = toy();
        // Before the proposal nothing is armed; a stray fire does nothing.
        let (_, actions) = drive(0, 3, |ctx| r.on_timer(ctx, TIMER_POLL, 0, no_fd()));
        assert!(actions.is_empty());
        assert_eq!(r.body.polls, 0);

        drive(0, 3, |ctx| r.on_propose(ctx, 9, no_fd()));
        for polls in 1..=3 {
            let (_, actions) = drive(0, 3, |ctx| r.on_timer(ctx, TIMER_POLL, 0, no_fd()));
            assert_eq!(actions.len(), 1, "re-armed exactly once: {actions:?}");
            assert!(is_poll_arm(&actions[0]));
            assert_eq!(r.body.polls, polls);
        }

        // The poll armed by the last fire is in flight at the decision:
        // it is swallowed, and the chain ends.
        drive(0, 3, |ctx| r.on_decide_delivered(ctx, 9, 1));
        let (_, actions) = drive(0, 3, |ctx| r.on_timer(ctx, TIMER_POLL, 0, no_fd()));
        assert!(actions.is_empty());
        assert_eq!(r.body.polls, 3);
    }

    #[test]
    fn the_decide_task_runs_once() {
        let mut r = toy();
        drive(0, 3, |ctx| r.on_propose(ctx, 9, no_fd()));
        let (_, actions) = drive(0, 3, |ctx| r.on_decide_delivered(ctx, 77, 4));
        assert_eq!(actions.len(), 1);
        assert!(observes(&actions[0], obs::DECIDE, Payload::U64Pair(77, 4)));
        let (_, actions) = drive(0, 3, |ctx| r.on_decide_delivered(ctx, 99, 5));
        assert!(actions.is_empty(), "a second delivery observes nothing");
        assert_eq!(r.decision(), Some((77, 4)), "first delivery wins");
        assert_eq!(r.body.closes, 1, "and the body is closed once");
    }

    #[test]
    fn the_wait_clause_needs_a_majority_and_every_unsuspected_process() {
        use super::testkit::suspects;
        let replied = |ids: &[usize]| ids.iter().map(|&i| (ProcessId(i), ())).collect();
        let all: BTreeMap<_, _> = replied(&[0, 1, 2, 3, 4]);
        assert!(all_unsuspected_replied(5, &all, &no_fd()));
        let three: BTreeMap<_, _> = replied(&[0, 1, 2]);
        assert!(!all_unsuspected_replied(5, &three, &no_fd()));
        assert!(!all_unsuspected_replied(5, &three, &suspects(&[3])));
        assert!(all_unsuspected_replied(5, &three, &suspects(&[3, 4])));
        // Suspecting everyone else does not waive the majority.
        let two: BTreeMap<_, _> = replied(&[0, 1]);
        assert!(!all_unsuspected_replied(5, &two, &suspects(&[2, 3, 4])));
    }

    #[test]
    fn newest_estimate_joins_and_counts() {
        let est = |value, ts| Estimate { value, ts };
        assert_eq!(newest_estimate(std::iter::empty()), (None, 0));
        let some = [est(1, 3), est(9, 3), est(2, 1)];
        assert_eq!(newest_estimate(some.into_iter()), (Some(est(9, 3)), 3));
    }

    #[test]
    fn majority_threshold() {
        assert_eq!(majority(1), 1);
        assert_eq!(majority(2), 2);
        assert_eq!(majority(3), 2);
        assert_eq!(majority(4), 3);
        assert_eq!(majority(5), 3);
        assert_eq!(majority(7), 4);
    }

    #[test]
    fn estimate_lattice_prefers_larger_ts() {
        let a = Estimate { value: 1, ts: 3 };
        let b = Estimate { value: 2, ts: 5 };
        assert_eq!(Estimate::newer_of(a, b), b);
        assert_eq!(Estimate::newer_of(b, a), b);
        // Timestamp ties go to the larger value (lattice join).
        let c = Estimate { value: 9, ts: 3 };
        assert_eq!(Estimate::newer_of(a, c), c);
        assert_eq!(Estimate::newer_of(c, a), c);
    }
}

/// What the unit tests of the shell and of the five protocols share:
/// one callback driven outside a world, and detector outputs by hand.
#[cfg(test)]
pub(crate) mod testkit {
    use fd_core::{FdOutput, ProcessSet, SubCtx};
    use fd_sim::{Action, Context, ProcessId, SimMessage, Time};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Drive one protocol callback directly at process `me` of `n`,
    /// returning its result and the actions (sends, timers, observations)
    /// it produced.
    pub(crate) fn drive<M: SimMessage, R>(
        me: usize,
        n: usize,
        f: impl FnOnce(&mut SubCtx<'_, '_, M, M>) -> R,
    ) -> (R, Vec<Action<M>>) {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut actions = Vec::new();
        let mut next_timer = 0;
        let r = {
            let mut ctx = Context::for_executor(
                ProcessId(me),
                n,
                Time::from_millis(1),
                &mut rng,
                &mut actions,
                &mut next_timer,
            );
            let mut sub = SubCtx::new(&mut ctx, &std::convert::identity, 9);
            f(&mut sub)
        };
        (r, actions)
    }

    /// A detector that suspects `suspects` and trusts `trusted`.
    pub(crate) fn fd(trusted: usize, suspects: &[usize]) -> FdOutput {
        FdOutput {
            trusted: Some(ProcessId(trusted)),
            ..self::suspects(suspects)
        }
    }

    /// A detector that suspects nobody and trusts `leader`.
    pub(crate) fn trusts(leader: usize) -> FdOutput {
        fd(leader, &[])
    }

    /// A detector that suspects `ids` and trusts nobody.
    pub(crate) fn suspects(ids: &[usize]) -> FdOutput {
        FdOutput {
            suspected: ids.iter().map(|&i| ProcessId(i)).collect::<ProcessSet>(),
            trusted: None,
        }
    }

    /// A detector with nothing to say.
    pub(crate) fn no_fd() -> FdOutput {
        suspects(&[])
    }
}
