//! The merged-Phase-0/1 variant of the ◇C consensus algorithm that
//! §5.4 sketches:
//!
//! > "we could reduce the number of phases of our ◇C-Consensus protocol
//! > by merging Phases 0 and 1 in the following way: each process sends
//! > its estimate to its leader (obtained by querying the failure
//! > detector), and it also sends null_estimate to every other process.
//! > This reduction on the number of phases has the cost of augmenting
//! > the number of messages, which becomes Ω(n²) instead of Θ(n)."
//!
//! So this protocol has **four** communication phases per round (like
//! Chandra–Toueg) but keeps the leader-driven coordinator choice and the
//! majority-positive decision rule. There is no coordinator
//! announcement: a process that trusts itself collects the estimates
//! addressed to it; everyone else waits for a proposition from whoever
//! proposes. Experiment E9 ablates this variant against the five-phase
//! original — the messages-vs-steps trade-off within the paper's own
//! design space.

use crate::api::{
    all_unsuspected_replied, majority, newest_estimate, Estimate, ProtocolStep, Round,
    RoundProtocol,
};
use fd_core::{FdOutput, SubCtx};
use fd_sim::{ProcessId, SimMessage};
use std::collections::{BTreeMap, BTreeSet};

/// Wire messages of the merged variant.
#[derive(Debug, Clone)]
pub enum EcmMsg {
    /// Merged Phase 0/1: an estimate (`None` = null estimate) addressed
    /// to the receiver in its (possible) role as round coordinator.
    Estimate {
        /// Round.
        round: u64,
        /// The sender's estimate — `Some` iff the receiver is the
        /// sender's leader for this round.
        est: Option<Estimate>,
    },
    /// Phase 2: the coordinator's proposition (`None` = null).
    Proposition {
        /// Round.
        round: u64,
        /// The proposed value, or `None`.
        value: Option<u64>,
    },
    /// Phase 3: positive reply.
    Ack {
        /// Round.
        round: u64,
    },
    /// Phase 3 / Task 2: negative reply.
    Nack {
        /// Round.
        round: u64,
    },
}

impl SimMessage for EcmMsg {
    fn kind(&self) -> &'static str {
        match self {
            EcmMsg::Estimate { est: Some(_), .. } => fd_obs::keys::ECM_ESTIMATE,
            EcmMsg::Estimate { est: None, .. } => fd_obs::keys::ECM_NULL_ESTIMATE,
            EcmMsg::Proposition { value: Some(_), .. } => fd_obs::keys::ECM_PROPOSITION,
            EcmMsg::Proposition { value: None, .. } => fd_obs::keys::ECM_NULL_PROPOSITION,
            EcmMsg::Ack { .. } => fd_obs::keys::ECM_ACK,
            EcmMsg::Nack { .. } => fd_obs::keys::ECM_NACK,
        }
    }
    fn round(&self) -> Option<u64> {
        Some(match self {
            EcmMsg::Estimate { round, .. }
            | EcmMsg::Proposition { round, .. }
            | EcmMsg::Ack { round }
            | EcmMsg::Nack { round } => *round,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    /// Waiting for a proposition from our leader (participant role) —
    /// while simultaneously collecting estimates in case *we* are
    /// somebody's leader.
    AwaitProposition,
    /// Proposed; gathering acks/nacks (coordinator role).
    AwaitAcks,
    Done,
}

/// The phases of the merged-phase ◇C consensus at one process.
#[derive(Debug)]
pub struct EcMerged {
    me: ProcessId,
    n: usize,
    est: Estimate,
    round: u64,
    phase: Phase,
    /// The leader we sent our (real) estimate to this round.
    my_leader: ProcessId,
    /// Estimates addressed to us, per round (we may be a coordinator
    /// without knowing it yet).
    est_buckets: BTreeMap<u64, BTreeMap<ProcessId, Option<Estimate>>>,
    /// Whether we already proposed (or passed) for a given round.
    concluded_phase2: BTreeSet<u64>,
    prop_value: Option<u64>,
    ack_replies: BTreeMap<ProcessId, bool>,
    nacked: BTreeSet<(ProcessId, u64)>,
}

/// The merged-phase ◇C consensus protocol at one process.
pub type EcMergedConsensus = Round<EcMerged>;

impl EcMergedConsensus {
    /// Create the protocol instance for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize) -> EcMergedConsensus {
        let body = EcMerged {
            me,
            n,
            est: Estimate::initial(0),
            round: 0,
            phase: Phase::Idle,
            my_leader: ProcessId(0),
            est_buckets: BTreeMap::new(),
            concluded_phase2: BTreeSet::new(),
            prop_value: None,
            ack_replies: BTreeMap::new(),
            nacked: BTreeSet::new(),
        };
        Round::over(body)
    }
}

impl EcMerged {
    fn enter_round<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcmMsg>,
        round: u64,
        fd: &FdOutput,
    ) -> ProtocolStep {
        self.round = round;
        self.phase = Phase::AwaitProposition;
        self.ack_replies.clear();
        self.prop_value = None;
        self.est_buckets.retain(|r, _| *r >= round);
        self.concluded_phase2.retain(|r| *r >= round);

        // Merged Phase 0/1: the real estimate goes to our leader, null
        // estimates to everyone else — Ω(n²) messages system-wide.
        let leader = fd.trusted.unwrap_or(self.me);
        self.my_leader = leader;
        for i in 0..self.n {
            let q = ProcessId(i);
            if q == self.me {
                continue;
            }
            let est = if q == leader { Some(self.est) } else { None };
            ctx.send(q, EcmMsg::Estimate { round, est });
        }
        // Our own contribution to our own bucket (real iff we lead).
        let self_est = if leader == self.me {
            Some(self.est)
        } else {
            None
        };
        self.est_buckets
            .entry(round)
            .or_default()
            .insert(self.me, self_est);
        self.try_propose(ctx, fd)
    }

    /// Phase 2 (coordinator side): same wait as the five-phase variant —
    /// a majority of replies plus one from every unsuspected process.
    fn try_propose<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcmMsg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        let round = self.round;
        if self.phase != Phase::AwaitProposition
            || self.concluded_phase2.contains(&round)
            || fd.trusted != Some(self.me)
        {
            return ProtocolStep::none();
        }
        let Some(bucket) = self.est_buckets.get(&round) else {
            return ProtocolStep::none();
        };
        if !all_unsuspected_replied(self.n, bucket, fd) {
            return ProtocolStep::none();
        }
        let (best, non_null) = newest_estimate(bucket.values().flatten().copied());
        self.concluded_phase2.insert(round);
        if non_null >= majority(self.n) {
            let v = best.expect("non-null exists").value;
            self.est = Estimate {
                value: v,
                ts: round,
            };
            self.prop_value = Some(v);
            ctx.send_to_others(EcmMsg::Proposition {
                round,
                value: Some(v),
            });
            self.phase = Phase::AwaitAcks;
            self.ack_replies.insert(self.me, true);
            self.try_decide(ctx, fd)
        } else {
            ctx.send_to_others(EcmMsg::Proposition { round, value: None });
            self.enter_round(ctx, round + 1, fd)
        }
    }

    /// Phase 4: majority-positive rule, waiting on every unsuspected
    /// process (identical to the five-phase variant).
    fn try_decide<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcmMsg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        if self.phase != Phase::AwaitAcks || !all_unsuspected_replied(self.n, &self.ack_replies, fd)
        {
            return ProtocolStep::none();
        }
        let acks = self.ack_replies.values().filter(|&&a| a).count();
        let round = self.round;
        if acks >= majority(self.n) {
            ProtocolStep::decide(self.prop_value.expect("proposed"), round)
        } else {
            self.enter_round(ctx, round + 1, fd)
        }
    }

    fn adopt_and_ack<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcmMsg>,
        from: ProcessId,
        round: u64,
        value: u64,
        fd: &FdOutput,
    ) -> ProtocolStep {
        self.est = Estimate { value, ts: round };
        ctx.send(from, EcmMsg::Ack { round });
        self.enter_round(ctx, round + 1, fd)
    }
}

impl RoundProtocol for EcMerged {
    type Msg = EcmMsg;

    fn start<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcmMsg>,
        value: u64,
        fd: &FdOutput,
    ) -> ProtocolStep {
        self.est = Estimate::initial(value);
        self.enter_round(ctx, 1, fd)
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcmMsg>,
        from: ProcessId,
        msg: EcmMsg,
        fd: &FdOutput,
    ) -> ProtocolStep {
        let decided = self.phase == Phase::Done;
        match msg {
            EcmMsg::Estimate { round, est } => {
                if !decided && self.phase != Phase::Idle && round >= self.round {
                    self.est_buckets.entry(round).or_default().insert(from, est);
                    if round == self.round {
                        return self.try_propose(ctx, fd);
                    }
                }
                ProtocolStep::none()
            }
            EcmMsg::Proposition { round, value } => match value {
                Some(v) => {
                    if !decided
                        && self.phase == Phase::AwaitProposition
                        && round >= self.round
                        && (round > self.round || from == self.my_leader)
                    {
                        self.adopt_and_ack(ctx, from, round, v, fd)
                    } else if !decided
                        && self.phase == Phase::AwaitProposition
                        && round == self.round
                    {
                        // A non-null proposition from another coordinator
                        // of our round — the Phase 3 escape, as in the
                        // five-phase variant.
                        self.adopt_and_ack(ctx, from, round, v, fd)
                    } else {
                        if self.nacked.insert((from, round)) {
                            ctx.send(from, EcmMsg::Nack { round });
                        }
                        ProtocolStep::none()
                    }
                }
                None => {
                    if !decided
                        && self.phase == Phase::AwaitProposition
                        && round == self.round
                        && from == self.my_leader
                    {
                        self.enter_round(ctx, round + 1, fd)
                    } else {
                        ProtocolStep::none()
                    }
                }
            },
            EcmMsg::Ack { round } => {
                if self.phase == Phase::AwaitAcks && round == self.round {
                    self.ack_replies.insert(from, true);
                    self.try_decide(ctx, fd)
                } else {
                    ProtocolStep::none()
                }
            }
            EcmMsg::Nack { round } => {
                if self.phase == Phase::AwaitAcks && round == self.round {
                    self.ack_replies.insert(from, false);
                    self.try_decide(ctx, fd)
                } else {
                    ProtocolStep::none()
                }
            }
        }
    }

    fn on_fd_change<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EcmMsg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        match self.phase {
            Phase::AwaitProposition => {
                // We may have *become* the leader (detector change), or
                // our leader may now be suspected.
                if fd.trusted == Some(self.me) {
                    return self.try_propose(ctx, fd);
                }
                if let Some(l) = fd.trusted {
                    if l != self.my_leader && l != self.me {
                        // The Ω output moved: accept propositions from
                        // the new leader instead. We do NOT send it a
                        // second real estimate — each process contributes
                        // its estimate to at most one coordinator per
                        // round, which is what makes the round's non-null
                        // proposition unique (Lemma 1); the new leader
                        // already holds our null estimate from the
                        // round's opening broadcast.
                        self.my_leader = l;
                    }
                }
                if fd.suspected.contains(self.my_leader) {
                    let round = self.round;
                    ctx.send(self.my_leader, EcmMsg::Nack { round });
                    return self.enter_round(ctx, round + 1, fd);
                }
                ProtocolStep::none()
            }
            Phase::AwaitAcks => self.try_decide(ctx, fd),
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

    #[test]
    fn a_late_ack_after_the_decision_does_nothing() {
        // n = 3, everyone's leader is p0, p2 suspected at Phase 4.
        let mut p = EcMergedConsensus::new(ProcessId(0), 3);
        drive(0, 3, |ctx| p.on_propose(ctx, 42, &fd(0, &[])));
        for q in 1..3 {
            let est = EcmMsg::Estimate {
                round: 1,
                est: Some(Estimate::initial(q as u64)),
            };
            drive(0, 3, |ctx| {
                p.on_message(ctx, ProcessId(q), est, &fd(0, &[]))
            });
        }
        let ack = EcmMsg::Ack { round: 1 };
        let (step, _) = drive(0, 3, |ctx| {
            p.on_message(ctx, ProcessId(1), ack.clone(), &fd(0, &[2]))
        });
        assert_eq!(step, ProtocolStep::decide(42, 1));
        drive(0, 3, |ctx| p.on_decide_delivered(ctx, 42, 1));
        let (step, actions) = drive(0, 3, |ctx| {
            p.on_message(ctx, ProcessId(2), ack, &fd(0, &[]))
        });
        assert_eq!(step, ProtocolStep::none());
        assert!(actions.is_empty(), "{actions:?}");
    }
}
