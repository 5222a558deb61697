//! Single-decree Paxos (the synod protocol of Lamport's *The part-time
//! parliament* \[13\]), driven by the same Ω output as the ◇C algorithm.
//!
//! §1.2 and §5.4 discuss Paxos as the first consensus algorithm to pick
//! coordinators by leader election rather than rotation, and note that
//! "both algorithms use similar approaches" while differing in the model
//! (Paxos assumes alternating synchrony periods; the paper assumes an
//! asynchronous system augmented with a failure detector). This module
//! makes the comparison concrete: the classic two-phase synod, with the
//! co-located detector's `trusted` output deciding who plays proposer —
//! so the "leader election algorithm" of \[13\] is exactly the Ω half of
//! ◇C, and the protocols can be measured on identical scenarios.
//!
//! Structure per ballot (= the paper's "round" for instrumentation):
//!
//! * **Phase 1a/1b** — the self-trusting proposer picks a fresh ballot
//!   `b` (proposer-unique: `k·n + id`) and sends `Prepare(b)`; acceptors
//!   promise and report their highest accepted `(ballot, value)`.
//! * **Phase 2a/2b** — on a majority of promises the proposer sends
//!   `Accept(b, v)` with `v` = the reported value of the highest ballot,
//!   or its own proposal; acceptors accept unless they promised higher.
//! * A majority of accepts decides; the decision travels by Reliable
//!   Broadcast like every protocol in this crate.
//!
//! Contention (several self-trusting proposers before Ω stabilizes) is
//! resolved by rejection replies carrying the highest promised ballot:
//! a preempted proposer re-prepares above it. Once Ω stabilizes, one
//! proposer runs unopposed and decides in a single ballot — the same
//! "one round after stabilization" profile as the ◇C algorithm, at
//! Paxos's 4-communication-step cost (prepare, promise, accept, accepted).

use crate::api::{majority, ProtocolStep, Round, RoundProtocol};
use fd_core::{FdOutput, SubCtx};
use fd_sim::{ProcessId, SimDuration, SimMessage};
use std::collections::BTreeMap;

/// Wire messages of the synod.
#[derive(Debug, Clone)]
pub enum PaxosMsg {
    /// Phase 1a.
    Prepare {
        /// The ballot being opened.
        ballot: u64,
    },
    /// Phase 1b: a promise not to accept anything below `ballot`,
    /// reporting the highest proposal already accepted, if any.
    Promise {
        /// The promised ballot.
        ballot: u64,
        /// `(ballot, value)` of the acceptor's highest accepted proposal.
        accepted: Option<(u64, u64)>,
    },
    /// Phase 2a.
    Accept {
        /// The ballot.
        ballot: u64,
        /// The value chosen for this ballot.
        value: u64,
    },
    /// Phase 2b: the acceptor accepted `ballot`.
    Accepted {
        /// The accepted ballot.
        ballot: u64,
    },
    /// Rejection of a prepare/accept below an existing promise, carrying
    /// the promised ballot so the proposer can jump past it.
    Reject {
        /// The ballot that was rejected.
        ballot: u64,
        /// The acceptor's current promise.
        promised: u64,
    },
}

impl SimMessage for PaxosMsg {
    fn kind(&self) -> &'static str {
        match self {
            PaxosMsg::Prepare { .. } => fd_obs::keys::PAXOS_PREPARE,
            PaxosMsg::Promise { .. } => fd_obs::keys::PAXOS_PROMISE,
            PaxosMsg::Accept { .. } => fd_obs::keys::PAXOS_ACCEPT,
            PaxosMsg::Accepted { .. } => fd_obs::keys::PAXOS_ACCEPTED,
            PaxosMsg::Reject { .. } => fd_obs::keys::PAXOS_REJECT,
        }
    }
    fn round(&self) -> Option<u64> {
        Some(match self {
            PaxosMsg::Prepare { ballot }
            | PaxosMsg::Promise { ballot, .. }
            | PaxosMsg::Accept { ballot, .. }
            | PaxosMsg::Accepted { ballot }
            | PaxosMsg::Reject { ballot, .. } => *ballot,
        })
    }
}

/// How long a proposer lets a ballot run before retrying with a fresh
/// one, if it is still the leader and the ballot has not decided (it
/// covers acceptors that crashed before replying and, until a link layer
/// re-sends, lost replies).
const RETRY_AFTER: SimDuration = SimDuration::from_millis(60);

/// The retry deadline of the ballot in its `data`.
const TIMER_RETRY: u32 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProposerPhase {
    Idle,
    AwaitPromises,
    AwaitAccepts,
    Done,
}

/// The synod's phases at one process (every process is an acceptor; the
/// Ω-trusted process additionally plays proposer).
#[derive(Debug)]
pub struct Paxos {
    me: ProcessId,
    n: usize,
    // --- acceptor state ---
    promised: u64,
    accepted: Option<(u64, u64)>,
    // --- proposer state ---
    proposal: Option<u64>,
    phase: ProposerPhase,
    ballot: u64,
    promises: BTreeMap<ProcessId, Option<(u64, u64)>>,
    accepts: usize,
    chosen_value: Option<u64>,
    /// Highest ballot seen anywhere (for jumping past contention).
    max_seen: u64,
    ballots_started: u64,
}

/// The synod protocol at one process.
pub type PaxosConsensus = Round<Paxos>;

impl PaxosConsensus {
    /// Create the synod instance for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize) -> PaxosConsensus {
        let body = Paxos {
            me,
            n,
            promised: 0,
            accepted: None,
            proposal: None,
            phase: ProposerPhase::Idle,
            ballot: 0,
            promises: BTreeMap::new(),
            accepts: 0,
            chosen_value: None,
            max_seen: 0,
            ballots_started: 0,
        };
        Round::over(body)
    }
}

impl Paxos {
    /// Ballots this proposer has opened (instrumentation).
    pub fn ballots_started(&self) -> u64 {
        self.ballots_started
    }

    /// The smallest proposer-unique ballot above `floor`.
    fn next_ballot_above(&self, floor: u64) -> u64 {
        let n = self.n as u64;
        let id = self.me.index() as u64;
        let mut k = floor / n;
        while k * n + id <= floor {
            k += 1;
        }
        k * n + id
    }

    fn open_ballot<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, PaxosMsg>,
    ) -> ProtocolStep {
        let ballot = self.next_ballot_above(self.max_seen.max(self.ballot));
        self.ballot = ballot;
        self.max_seen = self.max_seen.max(ballot);
        self.ballots_started += 1;
        self.phase = ProposerPhase::AwaitPromises;
        self.promises.clear();
        self.accepts = 0;
        self.chosen_value = None;
        ctx.set_timer(RETRY_AFTER, TIMER_RETRY, ballot);
        // Self-promise (the proposer is also an acceptor).
        if ballot > self.promised {
            self.promised = ballot;
            self.promises.insert(self.me, self.accepted);
        }
        ctx.send_to_others(PaxosMsg::Prepare { ballot });
        // With n = 1 the self-promise is already a majority.
        self.try_phase2(ctx)
    }

    fn try_phase2<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, PaxosMsg>) -> ProtocolStep {
        if self.phase != ProposerPhase::AwaitPromises || self.promises.len() < majority(self.n) {
            return ProtocolStep::none();
        }
        // The synod rule: adopt the value of the highest reported ballot,
        // else be free to propose our own.
        let inherited = self
            .promises
            .values()
            .flatten()
            .max_by_key(|(b, _)| *b)
            .map(|(_, v)| *v);
        let value = inherited.unwrap_or_else(|| self.proposal.expect("proposer has a proposal"));
        self.chosen_value = Some(value);
        self.phase = ProposerPhase::AwaitAccepts;
        let ballot = self.ballot;
        // Self-accept.
        if ballot >= self.promised {
            self.promised = ballot;
            self.accepted = Some((ballot, value));
            self.accepts = 1;
        }
        ctx.send_to_others(PaxosMsg::Accept { ballot, value });
        self.try_decide()
    }

    fn try_decide(&mut self) -> ProtocolStep {
        if self.phase == ProposerPhase::AwaitAccepts && self.accepts >= majority(self.n) {
            self.phase = ProposerPhase::Idle; // the decision arrives by RB
            return ProtocolStep::decide(self.chosen_value.expect("phase 2 ran"), self.ballot);
        }
        ProtocolStep::none()
    }
}

impl RoundProtocol for Paxos {
    type Msg = PaxosMsg;

    fn start<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, PaxosMsg>,
        value: u64,
        fd: &FdOutput,
    ) -> ProtocolStep {
        self.proposal = Some(value);
        if fd.trusted == Some(self.me) {
            return self.open_ballot(ctx);
        }
        ProtocolStep::none()
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, PaxosMsg>,
        from: ProcessId,
        msg: PaxosMsg,
        _fd: &FdOutput,
    ) -> ProtocolStep {
        match msg {
            PaxosMsg::Prepare { ballot } => {
                self.max_seen = self.max_seen.max(ballot);
                if ballot > self.promised {
                    self.promised = ballot;
                    ctx.send(
                        from,
                        PaxosMsg::Promise {
                            ballot,
                            accepted: self.accepted,
                        },
                    );
                } else {
                    ctx.send(
                        from,
                        PaxosMsg::Reject {
                            ballot,
                            promised: self.promised,
                        },
                    );
                }
                ProtocolStep::none()
            }
            PaxosMsg::Promise { ballot, accepted } => {
                if self.phase == ProposerPhase::AwaitPromises && ballot == self.ballot {
                    self.promises.insert(from, accepted);
                    return self.try_phase2(ctx);
                }
                ProtocolStep::none()
            }
            PaxosMsg::Accept { ballot, value } => {
                self.max_seen = self.max_seen.max(ballot);
                if ballot >= self.promised {
                    self.promised = ballot;
                    self.accepted = Some((ballot, value));
                    ctx.send(from, PaxosMsg::Accepted { ballot });
                } else {
                    ctx.send(
                        from,
                        PaxosMsg::Reject {
                            ballot,
                            promised: self.promised,
                        },
                    );
                }
                ProtocolStep::none()
            }
            PaxosMsg::Accepted { ballot } => {
                if self.phase == ProposerPhase::AwaitAccepts && ballot == self.ballot {
                    self.accepts += 1;
                    return self.try_decide();
                }
                ProtocolStep::none()
            }
            PaxosMsg::Reject { ballot, promised } => {
                self.max_seen = self.max_seen.max(promised);
                // Preempted: abandon the ballot; the clause check that
                // follows reopens above the contention if we still
                // trust ourselves.
                if ballot == self.ballot
                    && matches!(
                        self.phase,
                        ProposerPhase::AwaitPromises | ProposerPhase::AwaitAccepts
                    )
                {
                    self.phase = ProposerPhase::Idle;
                }
                ProtocolStep::none()
            }
        }
    }

    fn on_fd_change<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, PaxosMsg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        let lead = fd.trusted == Some(self.me);
        match self.phase {
            ProposerPhase::Idle if lead => return self.open_ballot(ctx),
            // Deposed mid-ballot: stand down, let the new leader run.
            ProposerPhase::AwaitPromises | ProposerPhase::AwaitAccepts if !lead => {
                self.phase = ProposerPhase::Idle;
            }
            // Leading a ballot, or not leading while Idle: nothing to
            // do. Done: decided.
            ProposerPhase::Idle
            | ProposerPhase::AwaitPromises
            | ProposerPhase::AwaitAccepts
            | ProposerPhase::Done => {}
        }
        ProtocolStep::none()
    }

    /// A ballot's retry deadline: if that ballot is still this leader's
    /// (a ballot that was preempted or stood down has been replaced or
    /// has no leader to retry it, and a decided instance swallows its
    /// timers), progress stalled — retry with a fresh one.
    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, PaxosMsg>,
        kind: u32,
        ballot: u64,
        fd: &FdOutput,
    ) -> ProtocolStep {
        debug_assert_eq!(kind, TIMER_RETRY);
        if ballot == self.ballot && fd.trusted == Some(self.me) {
            return self.open_ballot(ctx);
        }
        ProtocolStep::none()
    }

    fn close(&mut self) {
        self.phase = ProposerPhase::Done;
    }

    fn round(&self) -> u64 {
        self.ballot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::testkit::{drive, trusts};
    use fd_sim::Action;

    /// Outgoing messages of `me` (n = 5), broadcasts expanded.
    fn msgs(me: usize, actions: &[Action<PaxosMsg>]) -> Vec<PaxosMsg> {
        fd_sim::expand_sends(ProcessId(me), 5, actions)
            .into_iter()
            .map(|(_, m)| m)
            .collect()
    }

    #[test]
    fn ballots_are_proposer_unique_and_increasing() {
        let p = PaxosConsensus::new(ProcessId(2), 5);
        assert_eq!(p.body.next_ballot_above(0), 2); // 0·5 + 2, the smallest > 0
        assert_eq!(p.body.next_ballot_above(2), 7);
        assert_eq!(p.body.next_ballot_above(7), 12);
        assert_eq!(p.body.next_ballot_above(11), 12);
        assert_eq!(p.body.next_ballot_above(12), 17);
        let q = PaxosConsensus::new(ProcessId(3), 5);
        assert_ne!(
            p.body.next_ballot_above(20) % 5,
            q.body.next_ballot_above(20) % 5
        );
    }

    #[test]
    fn leader_opens_a_ballot_on_propose() {
        let mut p = PaxosConsensus::new(ProcessId(0), 5);
        let (_, actions) = drive(0, 5, |ctx| p.on_propose(ctx, 42, &trusts(0)));
        let prepares = msgs(0, &actions)
            .iter()
            .filter(|m| matches!(m, PaxosMsg::Prepare { .. }))
            .count();
        assert_eq!(prepares, 4);
        assert_eq!(p.body.ballots_started(), 1);
    }

    #[test]
    fn non_leader_stays_quiet_until_trusted() {
        let mut p = PaxosConsensus::new(ProcessId(1), 5);
        let (_, actions) = drive(1, 5, |ctx| p.on_propose(ctx, 42, &trusts(0)));
        assert!(
            msgs(1, &actions).is_empty(),
            "only the trusted process proposes"
        );
        // Ω flips to us: the change opens a ballot.
        let (_, actions) = drive(1, 5, |ctx| p.on_fd_change(ctx, &trusts(1)));
        assert!(msgs(1, &actions)
            .iter()
            .any(|m| matches!(m, PaxosMsg::Prepare { .. })));
    }

    #[test]
    fn promises_inherit_the_highest_accepted_value() {
        // The synod's value-locking rule, in isolation: acceptors report
        // accepted (ballot, value) pairs; phase 2 must pick the highest's
        // value, not the proposer's own.
        let mut p = PaxosConsensus::new(ProcessId(0), 5);
        drive(0, 5, |ctx| p.on_propose(ctx, 42, &trusts(0)));
        drive(0, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(1),
                PaxosMsg::Promise {
                    ballot: 5,
                    accepted: Some((2, 77)),
                },
                &trusts(0),
            )
        });
        let (_, actions) = drive(0, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(2),
                PaxosMsg::Promise {
                    ballot: 5,
                    accepted: Some((1, 66)),
                },
                &trusts(0),
            )
        });
        let accepts: Vec<u64> = msgs(0, &actions)
            .iter()
            .filter_map(|m| match m {
                PaxosMsg::Accept { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert!(!accepts.is_empty(), "majority of promises reached");
        assert!(
            accepts.iter().all(|v| *v == 77),
            "highest accepted ballot's value wins"
        );
    }

    #[test]
    fn acceptor_rejects_below_its_promise() {
        let mut p = PaxosConsensus::new(ProcessId(3), 5);
        drive(3, 5, |ctx| p.on_propose(ctx, 1, &trusts(0)));
        drive(3, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(0),
                PaxosMsg::Prepare { ballot: 10 },
                &trusts(0),
            )
        });
        let (_, actions) = drive(3, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(1),
                PaxosMsg::Prepare { ballot: 6 },
                &trusts(0),
            )
        });
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send {
                to: ProcessId(1),
                msg: PaxosMsg::Reject {
                    ballot: 6,
                    promised: 10
                }
            }
        )));
        // And an Accept below the promise is rejected too.
        let (_, actions) = drive(3, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(1),
                PaxosMsg::Accept {
                    ballot: 6,
                    value: 9,
                },
                &trusts(0),
            )
        });
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: PaxosMsg::Reject { .. },
                ..
            }
        )));
    }

    #[test]
    fn preempted_proposer_jumps_past_the_contention() {
        let mut p = PaxosConsensus::new(ProcessId(0), 5);
        drive(0, 5, |ctx| p.on_propose(ctx, 1, &trusts(0)));
        let b0 = p.body.ballot;
        // Still the leader: the clause check after the rejection reopens
        // above the rejecting promise at once.
        let (_, actions) = drive(0, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(2),
                PaxosMsg::Reject {
                    ballot: b0,
                    promised: 93,
                },
                &trusts(0),
            )
        });
        let new_ballot = msgs(0, &actions)
            .iter()
            .find_map(|m| match m {
                PaxosMsg::Prepare { ballot } => Some(*ballot),
                _ => None,
            })
            .expect("reopened");
        assert!(
            new_ballot > 93,
            "new ballot {new_ballot} must clear the contention at 93"
        );
    }

    /// The retry deadline of every ballot is armed when it opens, and
    /// reopens only if that very ballot is still running under a leader
    /// that still leads.
    #[test]
    fn a_stalled_ballot_retries_at_its_deadline() {
        let retry = |actions: &[Action<PaxosMsg>]| -> Vec<u64> {
            actions
                .iter()
                .filter_map(|a| match a {
                    Action::SetTimer { after, tag, .. } if *after == RETRY_AFTER => Some(tag.data),
                    _ => None,
                })
                .collect()
        };
        let mut p = PaxosConsensus::new(ProcessId(0), 5);
        let (_, actions) = drive(0, 5, |ctx| p.on_propose(ctx, 1, &trusts(0)));
        let b0 = p.round();
        assert_eq!(retry(&actions), [b0], "one deadline per ballot");
        let (_, actions) = drive(0, 5, |ctx| p.on_timer(ctx, TIMER_RETRY, b0, &trusts(0)));
        let b1 = p.round();
        assert!(b1 > b0, "the stalled ballot was retried");
        assert_eq!(retry(&actions), [b1]);
        // The first ballot's deadline again, late: not the running ballot.
        let (_, actions) = drive(0, 5, |ctx| p.on_timer(ctx, TIMER_RETRY, b0, &trusts(0)));
        assert!(actions.is_empty(), "{actions:?}");
        // Deposed: the ballot stands down, and its deadline does nothing.
        drive(0, 5, |ctx| p.on_fd_change(ctx, &trusts(1)));
        let (_, actions) = drive(0, 5, |ctx| p.on_timer(ctx, TIMER_RETRY, b1, &trusts(1)));
        assert!(actions.is_empty(), "{actions:?}");
        assert_eq!(p.round(), b1);
    }

    #[test]
    fn late_replies_after_the_decision_do_nothing() {
        // n = 3: p1's promise and accept are each a majority with p0's own.
        let mut p = PaxosConsensus::new(ProcessId(0), 3);
        drive(0, 3, |ctx| p.on_propose(ctx, 42, &trusts(0)));
        let ballot = p.round();
        let promise = PaxosMsg::Promise {
            ballot,
            accepted: None,
        };
        drive(0, 3, |ctx| {
            p.on_message(ctx, ProcessId(1), promise.clone(), &trusts(0))
        });
        let accepted = PaxosMsg::Accepted { ballot };
        let (step, _) = drive(0, 3, |ctx| {
            p.on_message(ctx, ProcessId(1), accepted.clone(), &trusts(0))
        });
        assert_eq!(step, ProtocolStep::decide(42, ballot));
        drive(0, 3, |ctx| p.on_decide_delivered(ctx, 42, ballot));
        for late in [promise, accepted] {
            let (step, actions) = drive(0, 3, |ctx| {
                p.on_message(ctx, ProcessId(2), late, &trusts(0))
            });
            assert_eq!(step, ProtocolStep::none());
            assert!(actions.is_empty(), "{actions:?}");
        }
    }

    #[test]
    fn a_lone_process_decides_on_its_own_promise() {
        let mut p = PaxosConsensus::new(ProcessId(0), 1);
        let (step, _) = drive(0, 1, |ctx| p.on_propose(ctx, 42, &trusts(0)));
        assert_eq!(step, ProtocolStep::decide(42, p.round()));
    }
}
