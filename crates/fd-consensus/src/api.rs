//! The common shape of the round-based consensus protocols.
//!
//! All five protocols in this crate — the paper's ◇C algorithm and its
//! §5.4 merged variant, the Chandra–Toueg ◇S and Mostefaoui–Raynal Ω
//! baselines, and the Paxos synod — are one shell around different
//! phases. The shell, [`Round`], owns what no protocol's phases need to
//! know: whether this process has proposed and whether it has decided,
//! the `propose(v)` entry (at most once, and a no-op once the decision
//! has outrun the proposer), when the phases' detector clauses are
//! evaluated, and Fig. 4's decide task ("upon R-deliver(decide, v):
//! decide v", once).
//!
//! A protocol is a [`RoundProtocol`] and supplies only its phases: what
//! to do when the instance starts, on each of its messages, when the
//! co-located failure detector's output changes, and how to stand down
//! once the decision is in. It is handed that detector's [`FdOutput`] on
//! every callback (the paper's "a process interacts only with its local
//! failure detection module") and signals decision broadcasts back to
//! the host through [`ProtocolStep`]. Messages reach the phases in every
//! stage — Fig. 4's Tasks 1 and 2 and a Paxos acceptor answer before the
//! proposal and after the decision — so the shell gates nothing there.
//!
//! The shell arms no timer. Every wait clause of Figs. 3–4 ("wait until
//! … or `c_p ∈ D_p`") is a condition on the detector's output, and the
//! output reaches the instance as an event
//! ([`Round::on_fd_change`], fed by [`fd_core::Over::on_fd_change`]). The
//! clauses are evaluated on that event and also right after the start,
//! after every message, and again while a round change keeps entering
//! new phases: a phase entered with its clause already true must not wait
//! for a change that has already happened.

use fd_core::{obs, FdOutput, SubCtx};
use fd_sim::{Payload, ProcessId, SimMessage};
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
        fd: &FdOutput,
    ) -> ProtocolStep;

    /// A protocol message arrived — before the proposal, during the
    /// rounds or after the decision.
    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        from: ProcessId,
        msg: Self::Msg,
        fd: &FdOutput,
    ) -> ProtocolStep;

    /// Evaluate the current phase's detector clause against `fd`. Called
    /// only between [`start`](RoundProtocol::start) and
    /// [`close`](RoundProtocol::close): when the output changes, and
    /// after every other callback (see the module doc).
    fn on_fd_change<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        fd: &FdOutput,
    ) -> ProtocolStep;

    /// A timer the phases armed fired (between `start` and `close`).
    /// Phases that arm none keep the default.
    fn on_timer<N: SimMessage>(
        &mut self,
        _ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        _kind: u32,
        _data: u64,
        _fd: &FdOutput,
    ) -> ProtocolStep {
        ProtocolStep::none()
    }

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
    /// Proposed, not yet decided: the detector clauses are live.
    Running,
    /// Decided `(value, round)`.
    Decided(u64, u64),
}

/// One process's side of one consensus instance: the propose-once gate,
/// the evaluation of the detector clauses and the decide task around the
/// phases of `P`.
#[derive(Debug)]
pub struct Round<P> {
    pub(crate) body: P,
    stage: Stage,
}

impl<P: RoundProtocol> Round<P> {
    /// An instance that has neither proposed nor decided.
    pub(crate) fn over(body: P) -> Round<P> {
        Round {
            body,
            stage: Stage::Idle,
        }
    }

    /// Timer namespace.
    pub fn ns(&self) -> u32 {
        fd_detectors::ns::CONSENSUS
    }

    /// Propose a value (each process proposes exactly once).
    pub fn on_propose<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, P::Msg>,
        value: u64,
        fd: &FdOutput,
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
        let step = self.body.start(ctx, value, fd);
        self.settle(ctx, fd, step)
    }

    /// A protocol message arrived.
    pub fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, P::Msg>,
        from: ProcessId,
        msg: P::Msg,
        fd: &FdOutput,
    ) -> ProtocolStep {
        let step = self.body.on_message(ctx, from, msg, fd);
        self.settle(ctx, fd, step)
    }

    /// The detector's output changed to `fd`. Ignored before the
    /// proposal and after the decision.
    pub fn on_fd_change<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, P::Msg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        self.settle(ctx, fd, ProtocolStep::none())
    }

    /// A timer the phases armed fired. One still in flight at the
    /// decision is swallowed.
    pub fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, P::Msg>,
        kind: u32,
        data: u64,
        fd: &FdOutput,
    ) -> ProtocolStep {
        if self.stage != Stage::Running {
            return ProtocolStep::none();
        }
        let step = self.body.on_timer(ctx, kind, data, fd);
        self.settle(ctx, fd, step)
    }

    /// While the instance runs and `step` decides nothing, evaluate the
    /// phases' detector clause — again after each re-evaluation that
    /// moved the round, since a round change enters fresh phases whose
    /// clauses may hold already (a rotating coordinator that is itself
    /// suspected is nacked at once, not at the next output change). A
    /// round moves only when a phase completes, so this ends.
    fn settle<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, P::Msg>,
        fd: &FdOutput,
        mut step: ProtocolStep,
    ) -> ProtocolStep {
        while step.broadcast_decision.is_none() && self.stage == Stage::Running {
            let round = self.body.round();
            step = self.body.on_fd_change(ctx, fd);
            if self.body.round() == round {
                break;
            }
        }
        step
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
    use super::testkit::{drive, no_fd, trusts};
    use super::*;
    use fd_sim::Action;

    #[derive(Clone, Debug)]
    struct Nudge;
    impl SimMessage for Nudge {}

    /// A body that sends nothing and records what the shell asks of it.
    #[derive(Debug, Default)]
    struct Toy {
        started: Option<u64>,
        /// One entry per clause evaluation: the leader it was handed.
        checks: Vec<Option<ProcessId>>,
        messages: u32,
        timers: u32,
        closes: u32,
        round: u64,
        /// Each evaluation moves the round up to here, as a rotation
        /// past suspected coordinators does.
        skip_to: u64,
        decide_on_start: bool,
    }

    type Ctx<'a, 'b, 'w, N> = &'a mut SubCtx<'b, 'w, N, Nudge>;

    impl RoundProtocol for Toy {
        type Msg = Nudge;
        fn start<N: SimMessage>(&mut self, _: Ctx<N>, value: u64, _: &FdOutput) -> ProtocolStep {
            self.started = Some(value);
            if self.decide_on_start {
                ProtocolStep::decide(value, 1)
            } else {
                ProtocolStep::none()
            }
        }
        fn on_message<N: SimMessage>(
            &mut self,
            _: Ctx<N>,
            _: ProcessId,
            _: Nudge,
            _: &FdOutput,
        ) -> ProtocolStep {
            self.messages += 1;
            ProtocolStep::none()
        }
        fn on_fd_change<N: SimMessage>(&mut self, _: Ctx<N>, fd: &FdOutput) -> ProtocolStep {
            self.checks.push(fd.trusted);
            self.round = (self.round + 1).min(self.skip_to);
            ProtocolStep::none()
        }
        fn on_timer<N: SimMessage>(
            &mut self,
            _: Ctx<N>,
            _: u32,
            _: u64,
            _: &FdOutput,
        ) -> ProtocolStep {
            self.timers += 1;
            ProtocolStep::none()
        }
        fn close(&mut self) {
            self.closes += 1;
        }
        fn round(&self) -> u64 {
            self.round
        }
    }

    fn toy() -> Round<Toy> {
        Round::over(Toy::default())
    }

    fn observes(a: &Action<Nudge>, key: &str, what: Payload) -> bool {
        matches!(a, Action::Observe { tag, payload } if *tag == key && *payload == what)
    }

    #[test]
    fn a_proposal_is_observed_then_starts_the_body_then_checks_its_clause() {
        let mut r = toy();
        let (_, actions) = drive(0, 3, |ctx| r.on_propose(ctx, 9, &trusts(2)));
        assert_eq!(actions.len(), 1, "the shell arms no timer: {actions:?}");
        assert!(observes(&actions[0], obs::PROPOSE, Payload::U64(9)));
        assert_eq!(r.body.started, Some(9));
        // The first phase may be entered with its clause already true.
        assert_eq!(r.body.checks, [Some(ProcessId(2))]);
        assert_eq!(r.decision(), None);
    }

    #[test]
    fn a_proposal_after_the_decision_is_observed_and_arms_nothing() {
        let mut r = toy();
        drive(0, 3, |ctx| r.on_decide_delivered(ctx, 7, 2));
        let (step, actions) = drive(0, 3, |ctx| r.on_propose(ctx, 9, &no_fd()));
        assert_eq!(step, ProtocolStep::none());
        assert_eq!(actions.len(), 1, "no timer: {actions:?}");
        assert!(observes(&actions[0], obs::PROPOSE, Payload::U64(9)));
        assert_eq!(r.body.started, None, "the body never starts");
        assert!(r.body.checks.is_empty());
        assert_eq!(r.decision(), Some((7, 2)));
    }

    #[test]
    #[should_panic(expected = "propose called twice")]
    fn a_second_proposal_panics() {
        let mut r = toy();
        drive(0, 3, |ctx| r.on_propose(ctx, 9, &no_fd()));
        drive(0, 3, |ctx| r.on_propose(ctx, 9, &no_fd()));
    }

    #[test]
    fn fd_changes_reach_the_body_from_the_proposal_to_the_decision() {
        let mut r = toy();
        // Before the proposal a change, a timer and a message check
        // nothing (the message still reaches the phases: Fig. 4's tasks).
        drive(0, 3, |ctx| r.on_fd_change(ctx, &trusts(1)));
        drive(0, 3, |ctx| r.on_timer(ctx, 0, 0, &trusts(1)));
        drive(0, 3, |ctx| {
            r.on_message(ctx, ProcessId(1), Nudge, &trusts(1))
        });
        assert_eq!(
            (r.body.checks.len(), r.body.timers, r.body.messages),
            (0, 0, 1)
        );

        drive(0, 3, |ctx| r.on_propose(ctx, 9, &trusts(0)));
        for leader in 1..=2 {
            let (_, actions) = drive(0, 3, |ctx| r.on_fd_change(ctx, &trusts(leader)));
            assert!(actions.is_empty(), "nothing is re-armed: {actions:?}");
        }
        // Every message and every timer of the phases is followed by a
        // check against the output the host keeps.
        drive(0, 3, |ctx| {
            r.on_message(ctx, ProcessId(1), Nudge, &trusts(2))
        });
        drive(0, 3, |ctx| r.on_timer(ctx, 0, 0, &trusts(2)));
        let leaders =
            |ids: &[usize]| -> Vec<_> { ids.iter().map(|&i| Some(ProcessId(i))).collect() };
        assert_eq!(r.body.checks, leaders(&[0, 1, 2, 2, 2]));
        assert_eq!((r.body.timers, r.body.messages), (1, 2));

        // Decided: changes and timers are swallowed, messages still
        // reach the phases but are not followed by a check.
        drive(0, 3, |ctx| r.on_decide_delivered(ctx, 9, 1));
        drive(0, 3, |ctx| r.on_fd_change(ctx, &trusts(0)));
        drive(0, 3, |ctx| r.on_timer(ctx, 0, 0, &trusts(0)));
        drive(0, 3, |ctx| {
            r.on_message(ctx, ProcessId(1), Nudge, &trusts(0))
        });
        assert_eq!(r.body.checks.len(), 5);
        assert_eq!((r.body.timers, r.body.messages), (1, 3));
    }

    #[test]
    fn a_check_that_moves_the_round_is_followed_by_another() {
        // Three evaluations each rotate past a coordinator; the fourth
        // finds the round standing.
        let mut r = Round::over(Toy {
            skip_to: 3,
            ..Toy::default()
        });
        drive(0, 3, |ctx| r.on_propose(ctx, 9, &no_fd()));
        assert_eq!((r.round(), r.body.checks.len()), (3, 4));
        drive(0, 3, |ctx| r.on_fd_change(ctx, &no_fd()));
        assert_eq!(r.body.checks.len(), 5, "a standing round is checked once");
    }

    #[test]
    fn a_step_that_decides_is_not_followed_by_a_check() {
        let mut r = Round::over(Toy {
            decide_on_start: true,
            ..Toy::default()
        });
        let (step, _) = drive(0, 3, |ctx| r.on_propose(ctx, 9, &no_fd()));
        assert_eq!(step, ProtocolStep::decide(9, 1));
        assert!(
            r.body.checks.is_empty(),
            "the decision step must reach the host"
        );
    }

    #[test]
    fn the_decide_task_runs_once() {
        let mut r = toy();
        drive(0, 3, |ctx| r.on_propose(ctx, 9, &no_fd()));
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
