//! The ◇C-based Uniform Consensus algorithm of the paper (Figs. 3 and 4,
//! Theorem 2).
//!
//! Each asynchronous round has five phases:
//!
//! * **Phase 0** — coordinator determination. A process whose ◇C module
//!   trusts *itself* becomes coordinator and announces itself; everyone
//!   else adopts the first announcer (a coordinator message for a later
//!   round advances the process to that round — footnote 2).
//! * **Phase 1** — every process sends its timestamped estimate to its
//!   coordinator.
//! * **Phase 2** — the coordinator waits until it has a **majority of
//!   replies and a reply from every process it does not suspect** (the
//!   paper's key use of ◇C's accuracy). With a majority of *non-null*
//!   estimates it selects the largest-timestamp one and proposes it;
//!   otherwise it sends a null proposition.
//! * **Phase 3** — a process adopts a non-null proposition from a
//!   coordinator and acks; a null proposition ends the round; suspecting
//!   the coordinator produces a nack.
//! * **Phase 4** — the proposing coordinator again waits for a majority
//!   of replies *plus one from every unsuspected process*, and decides if
//!   **a majority of replies are acks even if nacks were received** — the
//!   improvement §5.4 contrasts with Chandra–Toueg's one-nack-kills-round
//!   rule. Decisions travel by Reliable Broadcast.
//!
//! The two auxiliary tasks of Fig. 4 are implemented as message-handler
//! arms: a late/other coordinator's announcement is answered with a null
//! estimate (Task 1), and a late coordinator's non-null proposition with
//! a nack (Task 2); R-delivery of a decision decides (Task 3).

use crate::api::{
    all_unsuspected_replied, majority, newest_estimate, Estimate, ProtocolStep, Round,
    RoundProtocol,
};
use fd_core::{FdOutput, SubCtx};
use fd_sim::{ProcessId, SimMessage};
use std::collections::BTreeMap;

/// Wire messages of the ◇C consensus.
#[derive(Debug, Clone)]
pub enum EcMsg {
    /// Phase 0: "I am the coordinator of `round`".
    Coordinator {
        /// The announced round.
        round: u64,
    },
    /// Phase 1 / Task 1: an estimate (`None` is the null estimate).
    Estimate {
        /// The round the estimate is for.
        round: u64,
        /// The sender's estimate, or `None` for a null estimate.
        est: Option<Estimate>,
    },
    /// Phase 2: the coordinator's proposition (`None` is null).
    Proposition {
        /// The round the proposition is for.
        round: u64,
        /// The proposed value, or `None` for a null proposition.
        value: Option<u64>,
    },
    /// Phase 3: positive reply.
    Ack {
        /// The acknowledged round.
        round: u64,
    },
    /// Phase 3 / Task 2: negative reply.
    Nack {
        /// The nacked round.
        round: u64,
    },
}

impl SimMessage for EcMsg {
    fn kind(&self) -> &'static str {
        match self {
            EcMsg::Coordinator { .. } => fd_obs::keys::EC_COORDINATOR,
            EcMsg::Estimate { est: Some(_), .. } => fd_obs::keys::EC_ESTIMATE,
            EcMsg::Estimate { est: None, .. } => fd_obs::keys::EC_NULL_ESTIMATE,
            EcMsg::Proposition { value: Some(_), .. } => fd_obs::keys::EC_PROPOSITION,
            EcMsg::Proposition { value: None, .. } => fd_obs::keys::EC_NULL_PROPOSITION,
            EcMsg::Ack { .. } => fd_obs::keys::EC_ACK,
            EcMsg::Nack { .. } => fd_obs::keys::EC_NACK,
        }
    }
    fn round(&self) -> Option<u64> {
        Some(match self {
            EcMsg::Coordinator { round }
            | EcMsg::Estimate { round, .. }
            | EcMsg::Proposition { round, .. }
            | EcMsg::Ack { round }
            | EcMsg::Nack { round } => *round,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Not yet proposed.
    Idle,
    /// Phase 0: waiting to learn (or become) the round's coordinator.
    AwaitCoordinator,
    /// Phase 2 (coordinator): gathering estimates.
    AwaitEstimates,
    /// Phase 3 (participant): waiting for the proposition.
    AwaitProposition,
    /// Phase 4 (coordinator): gathering acks/nacks.
    AwaitAcks,
    /// Decided.
    Done,
}

/// The phases of the ◇C consensus protocol at one process.
#[derive(Debug)]
pub struct Ec {
    me: ProcessId,
    n: usize,
    est: Estimate,
    round: u64,
    phase: Phase,
    coordinator: Option<ProcessId>,
    /// Phase 2 replies (coordinator role), this round.
    est_replies: BTreeMap<ProcessId, Option<Estimate>>,
    /// The non-null proposition sent this round (coordinator role).
    prop_value: Option<u64>,
    /// Phase 4 replies: `true` = ack.
    ack_replies: BTreeMap<ProcessId, bool>,
}

/// The ◇C consensus protocol at one process.
pub type EcConsensus = Round<Ec>;

impl EcConsensus {
    /// Create the protocol instance for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize) -> EcConsensus {
        let body = Ec {
            me,
            n,
            est: Estimate::initial(0),
            round: 0,
            phase: Phase::Idle,
            coordinator: None,
            est_replies: BTreeMap::new(),
            prop_value: None,
            ack_replies: BTreeMap::new(),
        };
        Round::over(body)
    }

    /// [`Ec::retransmit`] on this instance's phases.
    pub fn retransmit<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, EcMsg>, fd: &FdOutput) {
        self.body.retransmit(ctx, fd)
    }
}

impl Ec {
    /// Open `round` at Phase 0 with nothing collected.
    fn reset_round(&mut self, round: u64) {
        self.round = round;
        self.phase = Phase::AwaitCoordinator;
        self.coordinator = None;
        self.est_replies.clear();
        self.ack_replies.clear();
        self.prop_value = None;
    }

    fn enter_round<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcMsg>,
        round: u64,
        fd: &FdOutput,
    ) -> ProtocolStep {
        self.reset_round(round);
        self.try_become_coordinator(ctx, fd)
    }

    /// Phase 0, coordinator side: `D.trusted_p = p` makes us announce.
    fn try_become_coordinator<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcMsg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        if self.phase != Phase::AwaitCoordinator || fd.trusted != Some(self.me) {
            return ProtocolStep::none();
        }
        self.coordinator = Some(self.me);
        let round = self.round;
        ctx.send_to_others(EcMsg::Coordinator { round });
        // Phase 1 for the coordinator itself: its own estimate counts.
        self.est_replies.insert(self.me, Some(self.est));
        self.phase = Phase::AwaitEstimates;
        self.try_complete_estimates(ctx, fd)
    }

    fn try_complete_estimates<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcMsg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        if self.phase != Phase::AwaitEstimates
            || !all_unsuspected_replied(self.n, &self.est_replies, fd)
        {
            return ProtocolStep::none();
        }
        // Only the valid (non-null) estimates count.
        let (best, non_null) = newest_estimate(self.est_replies.values().flatten().copied());
        let round = self.round;
        if non_null >= majority(self.n) {
            let v = best.expect("non_null > 0").value;
            // Propose: adopt our own proposition and count our own ack.
            self.est = Estimate {
                value: v,
                ts: round,
            };
            self.prop_value = Some(v);
            ctx.send_to_others(EcMsg::Proposition {
                round,
                value: Some(v),
            });
            self.phase = Phase::AwaitAcks;
            self.ack_replies.insert(self.me, true);
            self.try_complete_acks(ctx, fd)
        } else {
            ctx.send_to_others(EcMsg::Proposition { round, value: None });
            self.enter_round(ctx, round + 1, fd)
        }
    }

    /// Phase 4 wait: a majority of replies **and** a reply from every
    /// unsuspected process; decide iff acks alone reach a majority.
    fn try_complete_acks<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcMsg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        if self.phase != Phase::AwaitAcks || !all_unsuspected_replied(self.n, &self.ack_replies, fd)
        {
            return ProtocolStep::none();
        }
        let acks = self.ack_replies.values().filter(|&&a| a).count();
        let round = self.round;
        if acks >= majority(self.n) {
            let v = self.prop_value.expect("proposing coordinator has a value");
            // The `decidable_p` flag of the paper: R-broadcast at most
            // once; the decision then comes back via Task 3.
            ProtocolStep::decide(v, round)
        } else {
            // Round failed despite completing: move on.
            self.enter_round(ctx, round + 1, fd)
        }
    }

    /// Re-send this process's outstanding message of the current phase
    /// to every peer whose reply is still missing.
    ///
    /// The round protocol assumes reliable channels (the paper's model);
    /// under message loss or partitions a single lost message wedges a
    /// round forever — the wait clauses block on an alive, unsuspected
    /// process that will never answer, and nothing in Fig. 4 re-sends.
    /// A host running over a lossy transport calls this periodically for
    /// stalled instances. Every re-sent message is a byte-identical
    /// duplicate of one already sent this round, and every receiver path
    /// tolerates duplicates (per-process reply maps; Task 1/2 answers
    /// are repeatable), so retransmission cannot affect safety — only
    /// un-wedge liveness.
    pub fn retransmit<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, EcMsg>, fd: &FdOutput) {
        let round = self.round;
        match self.phase {
            Phase::AwaitEstimates if self.coordinator == Some(self.me) => {
                for q in (0..self.n).map(ProcessId) {
                    if q != self.me
                        && !self.est_replies.contains_key(&q)
                        && !fd.suspected.contains(q)
                    {
                        ctx.send(q, EcMsg::Coordinator { round });
                    }
                }
            }
            Phase::AwaitAcks => {
                let value = self.prop_value;
                for q in (0..self.n).map(ProcessId) {
                    if q != self.me
                        && !self.ack_replies.contains_key(&q)
                        && !fd.suspected.contains(q)
                    {
                        ctx.send(q, EcMsg::Proposition { round, value });
                    }
                }
            }
            Phase::AwaitProposition => {
                // Our estimate may be the reply the coordinator is
                // missing: offer it again.
                if let Some(c) = self.coordinator {
                    ctx.send(
                        c,
                        EcMsg::Estimate {
                            round,
                            est: Some(self.est),
                        },
                    );
                }
            }
            // AwaitCoordinator re-evaluates on a detector change; Idle and
            // Done are purely message-driven. (AwaitEstimates with a
            // coordinator other than us cannot happen, but falls here.)
            Phase::Idle | Phase::AwaitCoordinator | Phase::AwaitEstimates | Phase::Done => {}
        }
    }

    /// Adopt a non-null proposition (Phase 3 success path, also used for
    /// propositions from coordinators of later rounds).
    fn adopt_and_ack<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcMsg>,
        from: ProcessId,
        round: u64,
        value: u64,
        fd: &FdOutput,
    ) -> ProtocolStep {
        self.est = Estimate { value, ts: round };
        ctx.send(from, EcMsg::Ack { round });
        self.enter_round(ctx, round + 1, fd)
    }
}

impl RoundProtocol for Ec {
    type Msg = EcMsg;

    fn start<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcMsg>,
        value: u64,
        fd: &FdOutput,
    ) -> ProtocolStep {
        self.est = Estimate::initial(value);
        self.enter_round(ctx, 1, fd)
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcMsg>,
        from: ProcessId,
        msg: EcMsg,
        fd: &FdOutput,
    ) -> ProtocolStep {
        if self.phase == Phase::Idle {
            // Not yet proposed: we cannot contribute an estimate, but we
            // must keep coordinators from blocking on us (they will not
            // suspect a correct process forever). Answer announcements
            // with null estimates and propositions with nacks — exactly
            // the Fig. 4 tasks — and let the rounds churn until we join.
            // Duplicates (a coordinator retransmitting over lossy links)
            // are answered again: the reply bookkeeping at the receiver
            // is per-process idempotent, and a coordinator re-sends only
            // because it believes our reply never arrived.
            match msg {
                EcMsg::Coordinator { round } => {
                    ctx.send(from, EcMsg::Estimate { round, est: None });
                }
                EcMsg::Proposition {
                    round,
                    value: Some(_),
                } => {
                    ctx.send(from, EcMsg::Nack { round });
                }
                // An Idle process plays no coordinator role, so replies
                // (estimates/acks/nacks) have nothing to land on, and a
                // null proposition asks for no answer: dropped by design.
                EcMsg::Estimate { .. }
                | EcMsg::Ack { .. }
                | EcMsg::Nack { .. }
                | EcMsg::Proposition { value: None, .. } => {}
            }
            return ProtocolStep::none();
        }
        match msg {
            EcMsg::Coordinator { round } => {
                let decided = self.phase == Phase::Done;
                if !decided && round > self.round {
                    // Footnote 2: jump forward and treat `from` as the
                    // coordinator of that round.
                    self.reset_round(round);
                    self.coordinator = Some(from);
                    self.phase = Phase::AwaitProposition;
                    ctx.send(
                        from,
                        EcMsg::Estimate {
                            round,
                            est: Some(self.est),
                        },
                    );
                    ProtocolStep::none()
                } else if !decided && round == self.round && self.phase == Phase::AwaitCoordinator {
                    // Phase 0 resolution: adopt the announcer.
                    self.coordinator = Some(from);
                    self.phase = Phase::AwaitProposition;
                    ctx.send(
                        from,
                        EcMsg::Estimate {
                            round,
                            est: Some(self.est),
                        },
                    );
                    ProtocolStep::none()
                } else {
                    // Task 1: any other coordinator of the current or a
                    // previous round gets a null estimate (again, if it
                    // retransmits — it only does so when our reply was
                    // lost, and nulls never introduce values).
                    ctx.send(from, EcMsg::Estimate { round, est: None });
                    ProtocolStep::none()
                }
            }
            EcMsg::Estimate { round, est } => {
                if self.phase == Phase::AwaitEstimates
                    && round == self.round
                    && self.coordinator == Some(self.me)
                {
                    self.est_replies.insert(from, est);
                    self.try_complete_estimates(ctx, fd)
                } else {
                    // A late estimate for a round we already closed (we
                    // sent a proposition or moved on); nothing owed.
                    ProtocolStep::none()
                }
            }
            EcMsg::Proposition { round, value } => {
                let decided = self.phase == Phase::Done;
                match value {
                    Some(v) => {
                        if !decided
                            && round >= self.round
                            && self.phase == Phase::AwaitProposition
                            && (round > self.round || self.coordinator == Some(from))
                        {
                            // Phase 3 success: our coordinator (or a later
                            // round's) proposed; adopt and ack.
                            self.adopt_and_ack(ctx, from, round, v, fd)
                        } else if !decided
                            && round >= self.round
                            && matches!(
                                self.phase,
                                Phase::AwaitCoordinator | Phase::AwaitProposition
                            )
                        {
                            // Non-null proposition from *some other*
                            // coordinator — the Phase 3 escape: adopt it.
                            self.adopt_and_ack(ctx, from, round, v, fd)
                        } else {
                            // Task 2: late coordinator — nack (every
                            // time it asks; a nack never causes a
                            // decision, so duplicates are harmless).
                            ctx.send(from, EcMsg::Nack { round });
                            ProtocolStep::none()
                        }
                    }
                    None => {
                        if !decided
                            && round == self.round
                            && self.phase == Phase::AwaitProposition
                            && self.coordinator == Some(from)
                        {
                            // Phase 3: null proposition ends the round.
                            self.enter_round(ctx, round + 1, fd)
                        } else {
                            ProtocolStep::none()
                        }
                    }
                }
            }
            EcMsg::Ack { round } => {
                if self.phase == Phase::AwaitAcks && round == self.round {
                    self.ack_replies.insert(from, true);
                    self.try_complete_acks(ctx, fd)
                } else {
                    ProtocolStep::none()
                }
            }
            EcMsg::Nack { round } => {
                if self.phase == Phase::AwaitAcks && round == self.round {
                    self.ack_replies.insert(from, false);
                    self.try_complete_acks(ctx, fd)
                } else {
                    ProtocolStep::none()
                }
            }
        }
    }

    fn on_fd_change<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcMsg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        match self.phase {
            Phase::AwaitCoordinator => self.try_become_coordinator(ctx, fd),
            Phase::AwaitEstimates => self.try_complete_estimates(ctx, fd),
            Phase::AwaitAcks => self.try_complete_acks(ctx, fd),
            Phase::AwaitProposition => {
                // Phase 3 failure path: we suspect our coordinator.
                let c = self.coordinator.expect("awaiting a known coordinator");
                if fd.suspected.contains(c) {
                    let round = self.round;
                    ctx.send(c, EcMsg::Nack { round });
                    self.enter_round(ctx, round + 1, fd)
                } else {
                    ProtocolStep::none()
                }
            }
            Phase::Idle | Phase::Done => unreachable!("checked only between start and close"),
        }
    }

    fn close(&mut self) {
        self.phase = Phase::Done;
    }

    fn round(&self) -> u64 {
        self.round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::testkit::{drive, fd};
    use fd_sim::Action;

    fn sends(me: usize, n: usize, actions: &[Action<EcMsg>]) -> Vec<(ProcessId, EcMsg)> {
        fd_sim::expand_sends(ProcessId(me), n, actions)
    }

    #[test]
    fn self_trusting_proposer_announces_and_collects_self_estimate() {
        let mut p = EcConsensus::new(ProcessId(0), 5);
        let (step, actions) = drive(0, 5, |ctx| p.on_propose(ctx, 42, &fd(0, &[])));
        assert_eq!(step, ProtocolStep::none());
        let coords: Vec<_> = sends(0, 5, &actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, EcMsg::Coordinator { round: 1 }))
            .collect();
        assert_eq!(coords.len(), 4, "announce to every other process");
        assert_eq!(p.round(), 1);
    }

    #[test]
    fn participant_sends_estimate_to_announcer() {
        let mut p = EcConsensus::new(ProcessId(1), 5);
        let (_, _) = drive(1, 5, |ctx| p.on_propose(ctx, 7, &fd(0, &[])));
        let (step, actions) = drive(1, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(0),
                EcMsg::Coordinator { round: 1 },
                &fd(0, &[]),
            )
        });
        assert_eq!(step, ProtocolStep::none());
        let est = sends(1, 5, &actions);
        assert_eq!(est.len(), 1);
        assert!(
            matches!(est[0], (ProcessId(0), EcMsg::Estimate { round: 1, est: Some(e) }) if e.value == 7)
        );
    }

    #[test]
    fn task1_null_estimate_is_deduplicated() {
        let mut p = EcConsensus::new(ProcessId(1), 5);
        drive(1, 5, |ctx| p.on_propose(ctx, 7, &fd(0, &[])));
        // First coordinator adopted; a SECOND announcer for the same
        // round is a "late/other coordinator" — answered with one null.
        drive(1, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(0),
                EcMsg::Coordinator { round: 1 },
                &fd(0, &[]),
            )
        });
        let (_, a1) = drive(1, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(2),
                EcMsg::Coordinator { round: 1 },
                &fd(0, &[]),
            )
        });
        let (_, a2) = drive(1, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(2),
                EcMsg::Coordinator { round: 1 },
                &fd(0, &[]),
            )
        });
        assert_eq!(
            sends(1, 5, &a1).len(),
            1,
            "one null estimate to the other coordinator"
        );
        assert!(matches!(
            sends(1, 5, &a1)[0].1,
            EcMsg::Estimate { est: None, .. }
        ));
        // A duplicate announcement means the coordinator believes our
        // reply was lost (§ Task 1): it is answered again with a null.
        // Nulls never introduce values and the coordinator's reply
        // bookkeeping is per-process idempotent, so the retransmission
        // is harmless — silently dropping it would instead let a lossy
        // link wedge the round (the PR 6 round-wedge class).
        let again = sends(1, 5, &a2);
        assert_eq!(again.len(), 1, "duplicate announcements are re-answered");
        assert!(matches!(again[0].1, EcMsg::Estimate { est: None, .. }));
    }

    #[test]
    fn coordinator_message_for_later_round_jumps_forward() {
        let mut p = EcConsensus::new(ProcessId(1), 5);
        drive(1, 5, |ctx| p.on_propose(ctx, 7, &fd(0, &[])));
        assert_eq!(p.round(), 1);
        drive(1, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(3),
                EcMsg::Coordinator { round: 9 },
                &fd(0, &[]),
            )
        });
        assert_eq!(p.round(), 9, "footnote 2: advance to the announced round");
    }

    #[test]
    fn coordinator_decides_on_majority_acks_despite_nacks() {
        // n = 5, majority = 3: the coordinator plus two acks beat two nacks.
        let mut p = EcConsensus::new(ProcessId(0), 5);
        let all_visible = fd(0, &[]); // good accuracy: wait for everyone
        drive(0, 5, |ctx| p.on_propose(ctx, 42, &all_visible));
        for q in 1..5 {
            let est = EcMsg::Estimate {
                round: 1,
                est: Some(Estimate::initial(10 + q as u64)),
            };
            drive(0, 5, |ctx| {
                p.on_message(ctx, ProcessId(q), est.clone(), &all_visible)
            });
        }
        // Two acks, then two nacks: no decision until all replied.
        for (q, ack) in [(1usize, true), (2, true), (3, false)] {
            let msg = if ack {
                EcMsg::Ack { round: 1 }
            } else {
                EcMsg::Nack { round: 1 }
            };
            let (step, _) = drive(0, 5, |ctx| {
                p.on_message(ctx, ProcessId(q), msg.clone(), &all_visible)
            });
            assert_eq!(step, ProtocolStep::none(), "must wait for unsuspected p4");
        }
        let (step, _) = drive(0, 5, |ctx| {
            p.on_message(ctx, ProcessId(4), EcMsg::Nack { round: 1 }, &all_visible)
        });
        // 3 acks (incl. self) ≥ majority even with 2 nacks — the paper's
        // feature. The decision value is the largest initial estimate.
        assert!(
            step.broadcast_decision.is_some(),
            "majority-positive rule must decide"
        );
        assert_eq!(step.broadcast_decision.unwrap().1, 1, "decided in round 1");
    }

    #[test]
    fn coordinator_fails_round_when_acks_below_majority() {
        let mut p = EcConsensus::new(ProcessId(0), 5);
        let all_visible = fd(0, &[]);
        drive(0, 5, |ctx| p.on_propose(ctx, 42, &all_visible));
        for q in 1..5 {
            let est = EcMsg::Estimate {
                round: 1,
                est: Some(Estimate::initial(5)),
            };
            drive(0, 5, |ctx| {
                p.on_message(ctx, ProcessId(q), est.clone(), &all_visible)
            });
        }
        for q in 1..4 {
            drive(0, 5, |ctx| {
                p.on_message(ctx, ProcessId(q), EcMsg::Nack { round: 1 }, &all_visible)
            });
        }
        let (step, _) = drive(0, 5, |ctx| {
            p.on_message(ctx, ProcessId(4), EcMsg::Nack { round: 1 }, &all_visible)
        });
        assert!(step.broadcast_decision.is_none());
        assert_eq!(p.round(), 2, "failed round rolls over");
    }

    #[test]
    fn suspicion_of_coordinator_produces_nack_and_next_round() {
        let mut p = EcConsensus::new(ProcessId(1), 5);
        drive(1, 5, |ctx| p.on_propose(ctx, 7, &fd(0, &[])));
        drive(1, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(0),
                EcMsg::Coordinator { round: 1 },
                &fd(0, &[]),
            )
        });
        // The detector now suspects the coordinator.
        let (_, actions) = drive(1, 5, |ctx| p.on_fd_change(ctx, &fd(1, &[0])));
        let nacks: Vec<_> = sends(1, 5, &actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, EcMsg::Nack { round: 1 }))
            .collect();
        assert_eq!(nacks.len(), 1);
        assert_eq!(nacks[0].0, ProcessId(0));
        assert_eq!(p.round(), 2);
    }

    /// Adopting a coordinator the detector already suspects: no change
    /// is coming to trigger Phase 3's failure path, so the check after
    /// the announcement must take it.
    #[test]
    fn an_announcer_suspected_already_is_nacked_on_its_announcement() {
        let mut p = EcConsensus::new(ProcessId(1), 5);
        let detector = fd(2, &[0]);
        drive(1, 5, |ctx| p.on_propose(ctx, 7, &detector));
        let (_, actions) = drive(1, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(0),
                EcMsg::Coordinator { round: 1 },
                &detector,
            )
        });
        let sent = sends(1, 5, &actions);
        assert!(matches!(
            sent[0],
            (ProcessId(0), EcMsg::Estimate { round: 1, .. })
        ));
        assert!(matches!(sent[1], (ProcessId(0), EcMsg::Nack { round: 1 })));
        assert_eq!(p.round(), 2);
    }

    #[test]
    fn decide_delivery_is_idempotent_and_terminal() {
        let mut p = EcConsensus::new(ProcessId(2), 3);
        drive(2, 3, |ctx| p.on_propose(ctx, 9, &fd(0, &[])));
        drive(2, 3, |ctx| p.on_decide_delivered(ctx, 77, 4));
        drive(2, 3, |ctx| p.on_decide_delivered(ctx, 99, 5));
        assert_eq!(p.decision(), Some((77, 4)), "first delivery wins");
    }

    #[test]
    fn a_late_ack_after_the_decision_does_nothing() {
        // n = 3, p2 suspected: p1's ack completes Phase 4.
        let mut p = EcConsensus::new(ProcessId(0), 3);
        drive(0, 3, |ctx| p.on_propose(ctx, 42, &fd(0, &[])));
        for q in 1..3 {
            let est = EcMsg::Estimate {
                round: 1,
                est: Some(Estimate::initial(q as u64)),
            };
            drive(0, 3, |ctx| {
                p.on_message(ctx, ProcessId(q), est, &fd(0, &[]))
            });
        }
        let ack = EcMsg::Ack { round: 1 };
        let (step, _) = drive(0, 3, |ctx| {
            p.on_message(ctx, ProcessId(1), ack.clone(), &fd(0, &[2]))
        });
        assert_eq!(step, ProtocolStep::decide(42, 1));
        drive(0, 3, |ctx| p.on_decide_delivered(ctx, 42, 1));
        // The instance is over: p2's ack must not complete Phase 4 again
        // and R-broadcast a second decision.
        let (step, actions) = drive(0, 3, |ctx| {
            p.on_message(ctx, ProcessId(2), ack, &fd(0, &[]))
        });
        assert_eq!(step, ProtocolStep::none());
        assert!(actions.is_empty(), "{actions:?}");
    }
}
