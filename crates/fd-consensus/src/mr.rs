//! The Mostefaoui–Raynal-style Ω-based consensus baseline (§5.4).
//!
//! A decentralized, leader-based protocol with **three** phases per
//! round, each beginning with an all-to-all broadcast — the `3n²`
//! messages/round accounting of §5.4 — and quorum waits of `n − f`
//! replies, where `f` is the *assumed* maximum number of failures.
//!
//! The exact figure-level pseudocode of \[20\] is not reproduced in our
//! source paper, so this is a faithful structural adaptation with the
//! properties §5.4 relies on (documented in DESIGN.md):
//!
//! * **Phase 1 (leader vote):** everyone broadcasts
//!   `(round, Ω.trusted, estimate)`. A process waits for `n − f` Phase 1
//!   messages *including one from its own current leader* (the only wait
//!   an Ω user can pose — it has no suspect set to discharge other
//!   processes with). If more than `n/2` of the received votes name the
//!   same process ℓ and ℓ's own message was received, the auxiliary
//!   value is ℓ's estimate, else ⊥. Two majorities intersect, so at most
//!   one non-⊥ value exists per round.
//! * **Phase 2 (locking):** everyone broadcasts its auxiliary value and
//!   takes the **first `n − f`** replies: all-`v` ⇒ decide flag; mixed
//!   `v`/⊥ ⇒ adopt `v`; all-⊥ ⇒ keep the old estimate. This is where the
//!   paper's criticism bites: with only `f < n/2` known, `n − f` is a
//!   bare majority and **a single ⊥ among the first majority blocks the
//!   decision** (experiment E5).
//! * **Phase 3 (ratification):** everyone broadcasts its decide flag (and
//!   estimate); on the first `n − f` replies, any raised flag decides via
//!   Reliable Broadcast.
//!
//! Like the ◇C algorithm — and unlike Chandra–Toueg — stability of the
//! leader yields a decision in a single round.

use crate::api::{Estimate, ProtocolStep, Round, RoundProtocol};
use fd_core::{FdOutput, SubCtx};
use fd_sim::{ProcessId, SimMessage};
use std::collections::BTreeMap;

/// Wire messages of the MR-style consensus.
#[derive(Debug, Clone)]
pub enum MrMsg {
    /// Phase 1: leader vote + estimate.
    Phase1 {
        /// Round.
        round: u64,
        /// The Ω output the sender sees.
        leader: ProcessId,
        /// The sender's estimate.
        est: Estimate,
    },
    /// Phase 2: auxiliary value (`None` = ⊥).
    Phase2 {
        /// Round.
        round: u64,
        /// The auxiliary value.
        aux: Option<u64>,
    },
    /// Phase 3: decide flag + current estimate.
    Phase3 {
        /// Round.
        round: u64,
        /// Whether the sender's Phase 2 quorum was unanimous.
        flag: bool,
        /// The sender's estimate value after Phase 2.
        value: u64,
    },
}

impl SimMessage for MrMsg {
    fn kind(&self) -> &'static str {
        match self {
            MrMsg::Phase1 { .. } => fd_obs::keys::MR_PHASE1,
            MrMsg::Phase2 { .. } => fd_obs::keys::MR_PHASE2,
            MrMsg::Phase3 { .. } => fd_obs::keys::MR_PHASE3,
        }
    }
    fn round(&self) -> Option<u64> {
        Some(match self {
            MrMsg::Phase1 { round, .. }
            | MrMsg::Phase2 { round, .. }
            | MrMsg::Phase3 { round, .. } => *round,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    P1,
    P2,
    P3,
    Done,
}

/// The phases of the MR-style Ω consensus at one process.
#[derive(Debug)]
pub struct Mr {
    me: ProcessId,
    n: usize,
    /// The assumed upper bound on failures (quorum = `n − f`).
    assumed_f: usize,
    est: Estimate,
    round: u64,
    phase: Phase,
    p1_buckets: BTreeMap<u64, BTreeMap<ProcessId, (ProcessId, Estimate)>>,
    p2_buckets: BTreeMap<u64, BTreeMap<ProcessId, Option<u64>>>,
    p3_buckets: BTreeMap<u64, BTreeMap<ProcessId, (bool, u64)>>,
    my_flag: bool,
}

/// The MR-style Ω consensus protocol at one process.
pub type MrConsensus = Round<Mr>;

impl MrConsensus {
    /// Create the protocol instance for process `me` of `n`, assuming at
    /// most `assumed_f < n/2` failures.
    pub fn new(me: ProcessId, n: usize, assumed_f: usize) -> MrConsensus {
        assert!(assumed_f * 2 < n, "MR consensus requires f < n/2");
        let body = Mr {
            me,
            n,
            assumed_f,
            est: Estimate::initial(0),
            round: 0,
            phase: Phase::Idle,
            p1_buckets: BTreeMap::new(),
            p2_buckets: BTreeMap::new(),
            p3_buckets: BTreeMap::new(),
            my_flag: false,
        };
        Round::over(body)
    }

    /// The maximally pessimistic instance: `f = ⌈n/2⌉ − 1`, i.e. only
    /// "a majority of processes are correct" is known — the §5.4 setting
    /// where one negative reply among the first majority blocks.
    pub fn with_unknown_f(me: ProcessId, n: usize) -> MrConsensus {
        MrConsensus::new(me, n, n.div_ceil(2) - 1)
    }
}

impl Mr {
    fn quorum(&self) -> usize {
        self.n - self.assumed_f
    }

    fn enter_round<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, MrMsg>,
        round: u64,
        fd: &FdOutput,
    ) -> ProtocolStep {
        self.round = round;
        self.phase = Phase::P1;
        self.my_flag = false;
        self.p1_buckets.retain(|r, _| *r >= round);
        self.p2_buckets.retain(|r, _| *r >= round);
        self.p3_buckets.retain(|r, _| *r >= round);

        let leader = fd.trusted.unwrap_or(self.me);
        let est = self.est;
        ctx.send_to_others(MrMsg::Phase1 { round, leader, est });
        self.p1_buckets
            .entry(round)
            .or_default()
            .insert(self.me, (leader, est));
        self.try_complete_p1(ctx, fd)
    }

    /// Phase 1 wait: `n − f` votes *and* a vote from the current leader.
    fn try_complete_p1<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, MrMsg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        if self.phase != Phase::P1 {
            return ProtocolStep::none();
        }
        let round = self.round;
        let quorum = self.quorum();
        let Some(bucket) = self.p1_buckets.get(&round) else {
            return ProtocolStep::none();
        };
        if bucket.len() < quorum {
            return ProtocolStep::none();
        }
        let my_leader = fd.trusted.unwrap_or(self.me);
        if !bucket.contains_key(&my_leader) {
            // The one wait Ω permits: hold for the leader's own vote.
            // Re-evaluated on every arrival and on a detector change (the
            // leader output may change).
            return ProtocolStep::none();
        }
        // aux = ℓ's estimate iff > n/2 of the received votes name ℓ and
        // ℓ's vote is present. Majorities intersect ⇒ at most one non-⊥
        // auxiliary value per round, regardless of who computes it.
        let named: usize = bucket.values().filter(|(l, _)| *l == my_leader).count();
        let aux = if named * 2 > self.n {
            Some(bucket[&my_leader].1.value)
        } else {
            None
        };
        self.phase = Phase::P2;
        ctx.send_to_others(MrMsg::Phase2 { round, aux });
        self.p2_buckets
            .entry(round)
            .or_default()
            .insert(self.me, aux);
        self.try_complete_p2(ctx, fd)
    }

    /// Phase 2: evaluate on the first `n − f` replies.
    fn try_complete_p2<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, MrMsg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        if self.phase != Phase::P2 {
            return ProtocolStep::none();
        }
        let round = self.round;
        let quorum = self.quorum();
        let Some(bucket) = self.p2_buckets.get(&round) else {
            return ProtocolStep::none();
        };
        if bucket.len() < quorum {
            return ProtocolStep::none();
        }
        let values: Vec<Option<u64>> = bucket.values().copied().collect();
        let non_null: Vec<u64> = values.iter().filter_map(|v| *v).collect();
        // All non-⊥ values are identical (majority-intersection argument).
        debug_assert!(non_null.windows(2).all(|w| w[0] == w[1]));
        if let Some(&v) = non_null.first() {
            self.est = Estimate {
                value: v,
                ts: round,
            };
            // The decide flag requires unanimity: a single ⊥ among the
            // quorum blocks it (the §5.4 criticism).
            self.my_flag = non_null.len() == values.len();
        } else {
            self.my_flag = false;
        }
        self.phase = Phase::P3;
        let flag = self.my_flag;
        let value = self.est.value;
        ctx.send_to_others(MrMsg::Phase3 { round, flag, value });
        self.p3_buckets
            .entry(round)
            .or_default()
            .insert(self.me, (flag, value));
        self.try_complete_p3(ctx, fd)
    }

    /// Phase 3: any raised flag among the first `n − f` replies decides.
    fn try_complete_p3<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, MrMsg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        if self.phase != Phase::P3 {
            return ProtocolStep::none();
        }
        let round = self.round;
        let quorum = self.quorum();
        let Some(bucket) = self.p3_buckets.get(&round) else {
            return ProtocolStep::none();
        };
        if bucket.len() < quorum {
            return ProtocolStep::none();
        }
        if let Some((_, v)) = bucket.values().find(|(flag, _)| *flag) {
            ProtocolStep::decide(*v, round)
        } else {
            self.enter_round(ctx, round + 1, fd)
        }
    }
}

impl RoundProtocol for Mr {
    type Msg = MrMsg;

    fn start<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, MrMsg>,
        value: u64,
        fd: &FdOutput,
    ) -> ProtocolStep {
        self.est = Estimate::initial(value);
        self.enter_round(ctx, 1, fd)
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, MrMsg>,
        from: ProcessId,
        msg: MrMsg,
        fd: &FdOutput,
    ) -> ProtocolStep {
        if self.phase == Phase::Done {
            return ProtocolStep::none();
        }
        match msg {
            MrMsg::Phase1 { round, leader, est } => {
                if round >= self.round {
                    self.p1_buckets
                        .entry(round)
                        .or_default()
                        .insert(from, (leader, est));
                    if round == self.round {
                        return self.try_complete_p1(ctx, fd);
                    }
                }
                ProtocolStep::none()
            }
            MrMsg::Phase2 { round, aux } => {
                if round >= self.round {
                    self.p2_buckets.entry(round).or_default().insert(from, aux);
                    if round == self.round {
                        return self.try_complete_p2(ctx, fd);
                    }
                }
                ProtocolStep::none()
            }
            MrMsg::Phase3 { round, flag, value } => {
                if round >= self.round {
                    self.p3_buckets
                        .entry(round)
                        .or_default()
                        .insert(from, (flag, value));
                    if round == self.round {
                        return self.try_complete_p3(ctx, fd);
                    }
                }
                ProtocolStep::none()
            }
        }
    }

    fn on_fd_change<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, MrMsg>,
        fd: &FdOutput,
    ) -> ProtocolStep {
        // The Phase 1 wait depends on the (mutable) Ω output.
        self.try_complete_p1(ctx, fd)
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
    use crate::api::testkit::{drive, trusts};
    use fd_sim::Action;

    /// All outgoing messages, broadcasts expanded (me = p4, n = 5 in
    /// these tests).
    fn msgs(actions: &[Action<MrMsg>]) -> Vec<MrMsg> {
        fd_sim::expand_sends(ProcessId(4), 5, actions)
            .into_iter()
            .map(|(_, m)| m)
            .collect()
    }

    fn p1(round: u64, leader: usize, value: u64) -> MrMsg {
        MrMsg::Phase1 {
            round,
            leader: ProcessId(leader),
            est: Estimate::initial(value),
        }
    }

    #[test]
    fn quorum_is_n_minus_f() {
        let p = MrConsensus::new(ProcessId(0), 5, 1);
        assert_eq!(p.body.quorum(), 4);
        let p = MrConsensus::with_unknown_f(ProcessId(0), 5);
        assert_eq!(p.body.quorum(), 3, "unknown f ⇒ bare majority");
        let p = MrConsensus::with_unknown_f(ProcessId(0), 4);
        assert_eq!(p.body.quorum(), 3);
    }

    #[test]
    #[should_panic(expected = "f < n/2")]
    fn oversized_f_rejected() {
        let _ = MrConsensus::new(ProcessId(0), 4, 2);
    }

    #[test]
    fn phase1_waits_for_the_leaders_vote() {
        // n = 5, f = 2, quorum = 3. Two votes + self = quorum, but the
        // leader (p0) has not voted yet: Phase 1 must not complete.
        let mut p = MrConsensus::with_unknown_f(ProcessId(4), 5);
        drive(4, 5, |ctx| p.on_propose(ctx, 9, &trusts(0)));
        drive(4, 5, |ctx| {
            p.on_message(ctx, ProcessId(3), p1(1, 0, 3), &trusts(0))
        });
        let (_, actions) = drive(4, 5, |ctx| {
            p.on_message(ctx, ProcessId(2), p1(1, 0, 2), &trusts(0))
        });
        let sent_p2 = msgs(&actions)
            .iter()
            .any(|m| matches!(m, MrMsg::Phase2 { .. }));
        assert!(!sent_p2, "quorum met but leader vote missing");
        // The leader's vote arrives → Phase 2 fires with aux = leader's
        // estimate (everyone named p0: 4 > n/2).
        let (_, actions) = drive(4, 5, |ctx| {
            p.on_message(ctx, ProcessId(0), p1(1, 0, 77), &trusts(0))
        });
        let auxes: Vec<Option<u64>> = msgs(&actions)
            .iter()
            .filter_map(|m| match m {
                MrMsg::Phase2 { aux, .. } => Some(*aux),
                _ => None,
            })
            .collect();
        assert!(!auxes.is_empty());
        assert!(
            auxes.iter().all(|a| *a == Some(77)),
            "aux = the leader's estimate"
        );
    }

    #[test]
    fn split_leader_vote_yields_bottom() {
        // Votes name three different leaders: no one has > n/2, so the
        // auxiliary value must be ⊥ even though the quorum is met.
        let mut p = MrConsensus::with_unknown_f(ProcessId(4), 5);
        drive(4, 5, |ctx| p.on_propose(ctx, 9, &trusts(0)));
        drive(4, 5, |ctx| {
            p.on_message(ctx, ProcessId(3), p1(1, 3, 3), &trusts(0))
        });
        drive(4, 5, |ctx| {
            p.on_message(ctx, ProcessId(2), p1(1, 2, 2), &trusts(0))
        });
        let (_, actions) = drive(4, 5, |ctx| {
            p.on_message(ctx, ProcessId(0), p1(1, 0, 77), &trusts(0))
        });
        let auxes: Vec<Option<u64>> = msgs(&actions)
            .iter()
            .filter_map(|m| match m {
                MrMsg::Phase2 { aux, .. } => Some(*aux),
                _ => None,
            })
            .collect();
        assert!(
            auxes.iter().all(|a| a.is_none()),
            "no majority leader ⇒ ⊥, got {auxes:?}"
        );
    }

    #[test]
    fn one_bottom_in_the_phase2_quorum_blocks_the_flag() {
        let mut p = MrConsensus::with_unknown_f(ProcessId(4), 5);
        drive(4, 5, |ctx| p.on_propose(ctx, 9, &trusts(4)));
        // Reach Phase 2 quickly: self-leader, so own vote satisfies the
        // leader condition once the quorum arrives.
        drive(4, 5, |ctx| {
            p.on_message(ctx, ProcessId(3), p1(1, 4, 3), &trusts(4))
        });
        drive(4, 5, |ctx| {
            p.on_message(ctx, ProcessId(2), p1(1, 4, 2), &trusts(4))
        });
        // Phase 2 replies: one ⊥ among the first quorum.
        drive(4, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(3),
                MrMsg::Phase2 {
                    round: 1,
                    aux: Some(9),
                },
                &trusts(4),
            )
        });
        let (_, actions) = drive(4, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(2),
                MrMsg::Phase2 {
                    round: 1,
                    aux: None,
                },
                &trusts(4),
            )
        });
        let flags: Vec<bool> = msgs(&actions)
            .iter()
            .filter_map(|m| match m {
                MrMsg::Phase3 { flag, .. } => Some(*flag),
                _ => None,
            })
            .collect();
        assert!(!flags.is_empty(), "phase 3 must start");
        assert!(
            flags.iter().all(|f| !f),
            "a single ⊥ blocks the decide flag (§5.4)"
        );
    }

    #[test]
    fn any_raised_flag_in_phase3_decides() {
        let mut p = MrConsensus::with_unknown_f(ProcessId(4), 5);
        drive(4, 5, |ctx| p.on_propose(ctx, 9, &trusts(4)));
        drive(4, 5, |ctx| {
            p.on_message(ctx, ProcessId(3), p1(1, 4, 3), &trusts(4))
        });
        drive(4, 5, |ctx| {
            p.on_message(ctx, ProcessId(2), p1(1, 4, 2), &trusts(4))
        });
        drive(4, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(3),
                MrMsg::Phase2 {
                    round: 1,
                    aux: None,
                },
                &trusts(4),
            )
        });
        drive(4, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(2),
                MrMsg::Phase2 {
                    round: 1,
                    aux: None,
                },
                &trusts(4),
            )
        });
        // Our own flag is false (all-⊥), but a flagged Phase 3 from a
        // peer carries the decision.
        drive(4, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(3),
                MrMsg::Phase3 {
                    round: 1,
                    flag: false,
                    value: 9,
                },
                &trusts(4),
            )
        });
        let (step, _) = drive(4, 5, |ctx| {
            p.on_message(
                ctx,
                ProcessId(2),
                MrMsg::Phase3 {
                    round: 1,
                    flag: true,
                    value: 55,
                },
                &trusts(4),
            )
        });
        assert_eq!(step.broadcast_decision, Some((55, 1)));
    }

    #[test]
    fn a_late_flag_after_the_decision_does_nothing() {
        // n = 3, quorum 2: p1's vote, value and flag each complete a phase.
        let mut p = MrConsensus::with_unknown_f(ProcessId(0), 3);
        drive(0, 3, |ctx| p.on_propose(ctx, 42, &trusts(0)));
        drive(0, 3, |ctx| {
            p.on_message(ctx, ProcessId(1), p1(1, 0, 7), &trusts(0))
        });
        let locked = MrMsg::Phase2 {
            round: 1,
            aux: Some(42),
        };
        drive(0, 3, |ctx| {
            p.on_message(ctx, ProcessId(1), locked, &trusts(0))
        });
        let flagged = MrMsg::Phase3 {
            round: 1,
            flag: true,
            value: 42,
        };
        let (step, _) = drive(0, 3, |ctx| {
            p.on_message(ctx, ProcessId(1), flagged.clone(), &trusts(0))
        });
        assert_eq!(step, ProtocolStep::decide(42, 1));
        drive(0, 3, |ctx| p.on_decide_delivered(ctx, 42, 1));
        let (step, actions) = drive(0, 3, |ctx| {
            p.on_message(ctx, ProcessId(2), flagged, &trusts(0))
        });
        assert_eq!(step, ProtocolStep::none());
        assert!(actions.is_empty(), "{actions:?}");
    }
}
