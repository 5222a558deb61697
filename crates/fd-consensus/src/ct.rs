//! The Chandra–Toueg ◇S consensus baseline (§5.4's main comparison).
//!
//! The classic rotating-coordinator algorithm \[6\] with its centralized
//! communication pattern and **four** phases per round:
//!
//! * **Phase 1** — every process sends its timestamped estimate to the
//!   round's predetermined coordinator `c_r = p_{(r−1) mod n}`;
//! * **Phase 2** — the coordinator waits for the **first ⌈(n+1)/2⌉**
//!   estimates, selects the largest-timestamp one and proposes it;
//! * **Phase 3** — a process adopts the proposition and acks, or nacks
//!   when it suspects the coordinator;
//! * **Phase 4** — the coordinator takes the **first ⌈(n+1)/2⌉** replies
//!   and decides only if *all* of them are acks — the paper's point of
//!   attack: "one single negative reply blocks the decision".
//!
//! Two structural differences from the ◇C algorithm matter for the
//! experiments: the coordinator is fixed by the round number (so after
//! the detector stabilizes, up to `n−1` extra rounds may pass before the
//! never-suspected process coordinates — Theorem 3), and the Phase 2/4
//! waits never use accuracy information (no "wait for every unsuspected
//! process").

use crate::api::{majority, newest_estimate, Estimate, ProtocolStep, Round, RoundProtocol};
use fd_core::{FdOutput, SubCtx};
use fd_sim::{ProcessId, SimMessage};
use std::collections::BTreeMap;

/// Wire messages of the Chandra–Toueg consensus.
#[derive(Debug, Clone)]
pub enum CtMsg {
    /// Phase 1: a timestamped estimate for the round's coordinator.
    Estimate {
        /// Round.
        round: u64,
        /// The sender's estimate.
        est: Estimate,
    },
    /// Phase 2: the coordinator's proposition.
    Proposition {
        /// Round.
        round: u64,
        /// The proposed value.
        value: u64,
    },
    /// Phase 3: positive reply.
    Ack {
        /// Round.
        round: u64,
    },
    /// Phase 3: negative reply.
    Nack {
        /// Round.
        round: u64,
    },
}

impl SimMessage for CtMsg {
    fn kind(&self) -> &'static str {
        match self {
            CtMsg::Estimate { .. } => fd_obs::keys::CT_ESTIMATE,
            CtMsg::Proposition { .. } => fd_obs::keys::CT_PROPOSITION,
            CtMsg::Ack { .. } => fd_obs::keys::CT_ACK,
            CtMsg::Nack { .. } => fd_obs::keys::CT_NACK,
        }
    }
    fn round(&self) -> Option<u64> {
        Some(match self {
            CtMsg::Estimate { round, .. }
            | CtMsg::Proposition { round, .. }
            | CtMsg::Ack { round }
            | CtMsg::Nack { round } => *round,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    /// Phase 2 (coordinator): gathering the first majority of estimates.
    AwaitEstimates,
    /// Phase 3 (participant): waiting for the proposition.
    AwaitProposition,
    /// Phase 4 (coordinator): gathering the first majority of replies.
    AwaitAcks,
    Done,
}

/// The rotating coordinator of round `r` (rounds are 1-based).
pub fn rotating_coordinator(round: u64, n: usize) -> ProcessId {
    ProcessId(((round - 1) % n as u64) as usize)
}

/// The phases of the Chandra–Toueg ◇S consensus at one process.
#[derive(Debug)]
pub struct Ct {
    me: ProcessId,
    n: usize,
    est: Estimate,
    round: u64,
    phase: Phase,
    /// Estimates buffered per round (processes run rounds at their own
    /// pace, so a coordinator can receive estimates for rounds it has not
    /// reached yet).
    est_buckets: BTreeMap<u64, BTreeMap<ProcessId, Estimate>>,
    /// Propositions buffered per round.
    prop_buckets: BTreeMap<u64, u64>,
    /// Phase 4 replies buffered per round this process coordinates;
    /// `true` = ack. A participant that suspects the coordinator nacks
    /// it at once, possibly before the coordinator has proposed (or even
    /// reached the round): the reply must wait for Phase 4, not be lost.
    reply_buckets: BTreeMap<u64, BTreeMap<ProcessId, bool>>,
    /// Whether the Phase 4 decision was already evaluated (first-majority
    /// semantics: later replies are ignored).
    acks_closed: bool,
    prop_value: Option<u64>,
}

/// The Chandra–Toueg ◇S consensus protocol at one process.
pub type CtConsensus = Round<Ct>;

impl CtConsensus {
    /// Create the protocol instance for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize) -> CtConsensus {
        let body = Ct {
            me,
            n,
            est: Estimate::initial(0),
            round: 0,
            phase: Phase::Idle,
            est_buckets: BTreeMap::new(),
            prop_buckets: BTreeMap::new(),
            reply_buckets: BTreeMap::new(),
            acks_closed: false,
            prop_value: None,
        };
        Round::over(body)
    }
}

impl Ct {
    /// The coordinator of this process's current round.
    fn current_coordinator(&self) -> ProcessId {
        rotating_coordinator(self.round, self.n)
    }

    fn enter_round<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, CtMsg>,
        round: u64,
    ) -> ProtocolStep {
        self.round = round;
        self.acks_closed = false;
        self.prop_value = None;
        // Prune state from rounds that can no longer matter to us.
        self.est_buckets.retain(|r, _| *r >= round);
        self.prop_buckets.retain(|r, _| *r >= round);
        self.reply_buckets.retain(|r, _| *r >= round);

        let coord = rotating_coordinator(round, self.n);
        // Phase 1: everyone sends its estimate to the coordinator.
        if coord == self.me {
            self.est_buckets
                .entry(round)
                .or_default()
                .insert(self.me, self.est);
            self.phase = Phase::AwaitEstimates;
            self.try_complete_estimates(ctx)
        } else {
            ctx.send(
                coord,
                CtMsg::Estimate {
                    round,
                    est: self.est,
                },
            );
            self.phase = Phase::AwaitProposition;
            // The proposition may already be buffered if we are lagging.
            if let Some(v) = self.prop_buckets.get(&round).copied() {
                self.accept_proposition(ctx, round, v)
            } else {
                ProtocolStep::none()
            }
        }
    }

    /// Phase 2: the first ⌈(n+1)/2⌉ estimates suffice (no accuracy
    /// information is consulted — the detector only offers suspicions).
    fn try_complete_estimates<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, CtMsg>,
    ) -> ProtocolStep {
        if self.phase != Phase::AwaitEstimates {
            return ProtocolStep::none();
        }
        let round = self.round;
        let bucket = self.est_buckets.entry(round).or_default();
        if bucket.len() < majority(self.n) {
            return ProtocolStep::none();
        }
        // Select the estimate with the largest timestamp.
        let (best, _) = newest_estimate(bucket.values().copied());
        let v = best.expect("majority is non-empty").value;
        self.est = Estimate {
            value: v,
            ts: round,
        };
        self.prop_value = Some(v);
        ctx.send_to_others(CtMsg::Proposition { round, value: v });
        self.phase = Phase::AwaitAcks;
        self.reply_buckets
            .entry(round)
            .or_default()
            .insert(self.me, true);
        self.try_complete_acks(ctx)
    }

    fn accept_proposition<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, CtMsg>,
        round: u64,
        value: u64,
    ) -> ProtocolStep {
        debug_assert_eq!(self.phase, Phase::AwaitProposition);
        debug_assert_eq!(round, self.round);
        self.est = Estimate { value, ts: round };
        ctx.send(rotating_coordinator(round, self.n), CtMsg::Ack { round });
        self.enter_round(ctx, round + 1)
    }

    /// Phase 4: evaluate once a majority has replied, on the replies
    /// received by then — the first majority, plus any that were already
    /// waiting when the phase began; a single nack among them kills the
    /// round.
    fn try_complete_acks<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, CtMsg>,
    ) -> ProtocolStep {
        if self.phase != Phase::AwaitAcks || self.acks_closed {
            return ProtocolStep::none();
        }
        let replies = self.reply_buckets.entry(self.round).or_default();
        if replies.len() < majority(self.n) {
            return ProtocolStep::none();
        }
        self.acks_closed = true;
        let all_acks = replies.values().all(|&a| a);
        let round = self.round;
        if all_acks {
            ProtocolStep::decide(self.prop_value.expect("proposed"), round)
        } else {
            self.enter_round(ctx, round + 1)
        }
    }
}

impl RoundProtocol for Ct {
    type Msg = CtMsg;

    fn start<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, CtMsg>,
        value: u64,
        _fd: &FdOutput,
    ) -> ProtocolStep {
        self.est = Estimate::initial(value);
        self.enter_round(ctx, 1)
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, CtMsg>,
        from: ProcessId,
        msg: CtMsg,
        _fd: &FdOutput,
    ) -> ProtocolStep {
        match msg {
            CtMsg::Estimate { round, est } => {
                if round >= self.round && self.phase != Phase::Done {
                    self.est_buckets.entry(round).or_default().insert(from, est);
                    if round == self.round {
                        return self.try_complete_estimates(ctx);
                    }
                }
                ProtocolStep::none()
            }
            CtMsg::Proposition { round, value } => {
                if self.phase == Phase::AwaitProposition && round == self.round {
                    self.accept_proposition(ctx, round, value)
                } else if round > self.round && self.phase != Phase::Done {
                    self.prop_buckets.insert(round, value);
                    ProtocolStep::none()
                } else {
                    ProtocolStep::none()
                }
            }
            CtMsg::Ack { round } | CtMsg::Nack { round } => {
                let ack = matches!(msg, CtMsg::Ack { .. });
                if round >= self.round
                    && self.phase != Phase::Done
                    && rotating_coordinator(round, self.n) == self.me
                {
                    self.reply_buckets
                        .entry(round)
                        .or_default()
                        .insert(from, ack);
                    if round == self.round {
                        return self.try_complete_acks(ctx);
                    }
                }
                ProtocolStep::none()
            }
        }
    }

    fn on_fd_change<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, CtMsg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        if self.phase == Phase::AwaitProposition {
            let c = self.current_coordinator();
            if fd.suspected.contains(c) {
                // Phase 3 failure path: nack the suspected coordinator
                // and move to the next round.
                let round = self.round;
                ctx.send(c, CtMsg::Nack { round });
                return self.enter_round(ctx, round + 1);
            }
        }
        ProtocolStep::none()
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
    use crate::api::testkit::{drive, no_fd, suspects};
    use fd_sim::Action;

    #[test]
    fn rotation_is_round_robin_one_based() {
        assert_eq!(rotating_coordinator(1, 5), ProcessId(0));
        assert_eq!(rotating_coordinator(2, 5), ProcessId(1));
        assert_eq!(rotating_coordinator(5, 5), ProcessId(4));
        assert_eq!(rotating_coordinator(6, 5), ProcessId(0));
        assert_eq!(rotating_coordinator(11, 5), ProcessId(0));
    }

    #[test]
    fn participant_sends_estimate_to_the_rotating_coordinator() {
        let mut p = CtConsensus::new(ProcessId(2), 5);
        let (_, actions) = drive(2, 5, |ctx| p.on_propose(ctx, 30, &no_fd()));
        let ests: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: CtMsg::Estimate { round: 1, .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(ests, vec![ProcessId(0)], "round 1's coordinator is p0");
        assert_eq!(p.body.current_coordinator(), ProcessId(0));
    }

    #[test]
    fn one_nack_among_the_first_majority_kills_the_round() {
        // n = 5: coordinator p0's own ack + 1 ack + 1 nack = first
        // majority with a nack → no decision, next round.
        let mut p = CtConsensus::new(ProcessId(0), 5);
        drive(0, 5, |ctx| p.on_propose(ctx, 1, &no_fd()));
        for q in [1usize, 2] {
            let est = CtMsg::Estimate {
                round: 1,
                est: Estimate::initial(q as u64),
            };
            drive(0, 5, |ctx| p.on_message(ctx, ProcessId(q), est, &no_fd()));
        }
        // Coordinator proposed after majority estimates; now replies:
        drive(0, 5, |ctx| {
            p.on_message(ctx, ProcessId(1), CtMsg::Ack { round: 1 }, &no_fd())
        });
        let (step, _) = drive(0, 5, |ctx| {
            p.on_message(ctx, ProcessId(2), CtMsg::Nack { round: 1 }, &no_fd())
        });
        assert!(step.broadcast_decision.is_none(), "CT's one-nack rule");
        assert_eq!(p.round(), 2);
        // Late extra acks for the closed round are ignored.
        let (step, _) = drive(0, 5, |ctx| {
            p.on_message(ctx, ProcessId(3), CtMsg::Ack { round: 1 }, &no_fd())
        });
        assert_eq!(step, ProtocolStep::none());
    }

    /// A participant that suspects the coordinator nacks before the
    /// coordinator has proposed; the nack counts in Phase 4 all the same.
    #[test]
    fn a_nack_that_outruns_the_proposition_still_kills_the_round() {
        let mut p = CtConsensus::new(ProcessId(0), 5);
        drive(0, 5, |ctx| p.on_propose(ctx, 1, &no_fd()));
        let nack = CtMsg::Nack { round: 1 };
        drive(0, 5, |ctx| p.on_message(ctx, ProcessId(1), nack, &no_fd()));
        for q in [1usize, 2] {
            let est = CtMsg::Estimate {
                round: 1,
                est: Estimate::initial(q as u64),
            };
            drive(0, 5, |ctx| p.on_message(ctx, ProcessId(q), est, &no_fd()));
        }
        assert_eq!(p.round(), 1, "own ack and the early nack: no majority yet");
        let (step, _) = drive(0, 5, |ctx| {
            p.on_message(ctx, ProcessId(3), CtMsg::Ack { round: 1 }, &no_fd())
        });
        assert!(step.broadcast_decision.is_none(), "CT's one-nack rule");
        assert_eq!(p.round(), 2);
    }

    #[test]
    fn all_ack_first_majority_decides() {
        let mut p = CtConsensus::new(ProcessId(0), 5);
        drive(0, 5, |ctx| p.on_propose(ctx, 1, &no_fd()));
        for q in [1usize, 2] {
            let est = CtMsg::Estimate {
                round: 1,
                est: Estimate::initial(0),
            };
            drive(0, 5, |ctx| p.on_message(ctx, ProcessId(q), est, &no_fd()));
        }
        drive(0, 5, |ctx| {
            p.on_message(ctx, ProcessId(1), CtMsg::Ack { round: 1 }, &no_fd())
        });
        let (step, _) = drive(0, 5, |ctx| {
            p.on_message(ctx, ProcessId(2), CtMsg::Ack { round: 1 }, &no_fd())
        });
        assert!(step.broadcast_decision.is_some());
    }

    #[test]
    fn suspected_coordinator_is_nacked_on_fd_change() {
        let mut p = CtConsensus::new(ProcessId(3), 5);
        drive(3, 5, |ctx| p.on_propose(ctx, 9, &no_fd()));
        let (_, actions) = drive(3, 5, |ctx| p.on_fd_change(ctx, &suspects(&[0])));
        let nacked: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: CtMsg::Nack { round: 1 },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(nacked, vec![ProcessId(0)]);
        assert_eq!(p.round(), 2, "and the participant rotates on");
        assert_eq!(p.body.current_coordinator(), ProcessId(1));
    }

    /// The trap a pure change handler falls into: rounds 1 and 2 are
    /// coordinated by processes suspected since before the proposal, so
    /// no change will ever come — the shell's clause checks nack both at
    /// once and the participant waits in round 3, on a coordinator it
    /// trusts.
    #[test]
    fn coordinators_suspected_before_the_proposal_are_nacked_at_once() {
        let mut p = CtConsensus::new(ProcessId(3), 5);
        let (_, actions) = drive(3, 5, |ctx| p.on_propose(ctx, 9, &suspects(&[0, 1])));
        let nacked: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: CtMsg::Nack { round },
                } => Some((*to, *round)),
                _ => None,
            })
            .collect();
        assert_eq!(nacked, [(ProcessId(0), 1), (ProcessId(1), 2)]);
        assert_eq!(p.round(), 3);
    }

    #[test]
    fn buffered_proposition_is_used_on_round_entry() {
        let mut p = CtConsensus::new(ProcessId(3), 5);
        drive(3, 5, |ctx| p.on_propose(ctx, 9, &no_fd()));
        // A proposition for round 2 arrives while we are still in round 1.
        drive(3, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(1),
                CtMsg::Proposition {
                    round: 2,
                    value: 55,
                },
                &no_fd(),
            )
        });
        // Round 1's coordinator is suspected → advance to round 2, where
        // the buffered proposition must immediately be adopted + acked.
        let (_, actions) = drive(3, 5, |ctx| p.on_fd_change(ctx, &suspects(&[0])));
        let acked_round2 = actions.iter().any(|a| {
            matches!(
                a,
                Action::Send {
                    to: ProcessId(1),
                    msg: CtMsg::Ack { round: 2 }
                }
            )
        });
        assert!(acked_round2, "buffered proposition consumed on entry");
        assert_eq!(p.round(), 3);
    }

    #[test]
    fn a_late_ack_after_the_decision_does_nothing() {
        // n = 3: p1's estimate and ack are each the first majority.
        let mut p = CtConsensus::new(ProcessId(0), 3);
        drive(0, 3, |ctx| p.on_propose(ctx, 42, &no_fd()));
        let est = CtMsg::Estimate {
            round: 1,
            est: Estimate::initial(1),
        };
        drive(0, 3, |ctx| p.on_message(ctx, ProcessId(1), est, &no_fd()));
        let ack = CtMsg::Ack { round: 1 };
        let (step, _) = drive(0, 3, |ctx| {
            p.on_message(ctx, ProcessId(1), ack.clone(), &no_fd())
        });
        assert_eq!(step, ProtocolStep::decide(42, 1));
        drive(0, 3, |ctx| p.on_decide_delivered(ctx, 42, 1));
        let (step, actions) = drive(0, 3, |ctx| p.on_message(ctx, ProcessId(2), ack, &no_fd()));
        assert_eq!(step, ProtocolStep::none());
        assert!(actions.is_empty(), "{actions:?}");
    }
}
