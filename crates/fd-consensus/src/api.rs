//! The common shape of the round-based consensus protocols.
//!
//! All five protocols in this crate — the paper's ◇C algorithm and its
//! §5.4 merged variant, the Chandra–Toueg ◇S and Mostefaoui–Raynal Ω
//! baselines, and the Paxos synod — share the same skeleton: a process
//! proposes a value, the protocol runs asynchronous rounds driven by
//! messages and a polling timer (which re-evaluates wait conditions
//! whenever the failure detector's output may have changed), and
//! decisions are disseminated by Reliable Broadcast.
//!
//! A protocol is a [`RoundProtocol`]: it receives the co-located failure
//! detector's current [`FdOutput`] on every callback (the paper's "a
//! process interacts only with its local failure detection module") and
//! signals decision broadcasts back to the host through [`ProtocolStep`].

use fd_core::{FdOutput, SubCtx};
use fd_sim::{ProcessId, SimDuration, SimMessage};
use serde::{Deserialize, Serialize};

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

/// A round-based consensus protocol, hostable in a
/// [`Decider`](crate::node::Decider).
pub trait RoundProtocol: 'static {
    /// The protocol's wire messages.
    type Msg: SimMessage;

    /// Timer namespace.
    fn ns(&self) -> u32;

    /// Propose a value (each process proposes exactly once).
    fn on_propose<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        value: u64,
        fd: FdOutput,
    ) -> ProtocolStep;

    /// A protocol message arrived.
    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        from: ProcessId,
        msg: Self::Msg,
        fd: FdOutput,
    ) -> ProtocolStep;

    /// A protocol timer fired (including the wait-condition poll).
    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        kind: u32,
        data: u64,
        fd: FdOutput,
    ) -> ProtocolStep;

    /// The host R-delivered a decision broadcast.
    fn on_decide_delivered<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, Self::Msg>,
        value: u64,
        round: u64,
    );

    /// This process's decision, if reached: `(value, round)`.
    fn decision(&self) -> Option<DecidePayload>;

    /// The round this process is currently in.
    fn round(&self) -> u64;
}

/// The majority threshold `⌈(n+1)/2⌉` used throughout §5.
pub fn majority(n: usize) -> usize {
    n / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

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
