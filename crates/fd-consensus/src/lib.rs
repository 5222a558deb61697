//! # fd-consensus — Uniform Consensus with unreliable failure detectors
//!
//! Five complete protocols in one shell. [`Round`] is the shell — the
//! propose-once gate, the evaluation of the detector clauses when the
//! detector's output changes (an event, not a timer), and Fig. 4's
//! decide task, each written once — and a protocol is the
//! [`RoundProtocol`] inside it: its phases, nothing else (`EcConsensus`
//! is `Round<Ec>`, and so on).
//!
//! * [`EcConsensus`] — **the paper's contribution** (Figs. 3–4): five
//!   phases per round, the coordinator chosen by ◇C's leader output
//!   instead of rotation, and the majority-positive decision rule that
//!   tolerates nacks;
//! * [`EcMergedConsensus`] — the §5.4 merged-Phase-0/1 variant: one
//!   communication step fewer, Ω(n²) messages;
//! * [`CtConsensus`] — the Chandra–Toueg ◇S rotating-coordinator
//!   baseline: four phases, first-majority waits, one nack kills a round;
//! * [`MrConsensus`] — the Mostefaoui–Raynal-style Ω baseline: three
//!   decentralized phases, `n − f` quorums;
//! * [`PaxosConsensus`] — the single-decree synod of \[13\], driven by
//!   the same Ω output (the §1.2 "similar approaches" reference point).
//!
//! Every node is an [`fd_core::Stack`] — a detector, and one module over
//! it: a [`ConsensusNode`]'s is a [`Decider`] (one protocol and its
//! Reliable Broadcast), a [`MultiNode`]'s is a [`Log`] (◇C instances
//! multiplexed into a live replicated log); the [`harness`] runs whole
//! scenarios. §5.4's comparison table falls out of
//! [`harness::RunResult`]'s metrics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod ct;
pub mod ec;
pub mod ec_merged;
pub mod harness;
pub mod mr;
pub mod multi;
pub mod node;
pub mod paxos;

pub use api::{majority, DecidePayload, Estimate, ProtocolStep, Round, RoundProtocol};
pub use ct::{rotating_coordinator, Ct, CtConsensus, CtMsg};
pub use ec::{Ec, EcConsensus, EcMsg};
pub use ec_merged::{EcMerged, EcMergedConsensus, EcmMsg};
pub use harness::{default_net, run_scenario, ConsensusRunner, RunResult, Scenario};
pub use mr::{Mr, MrConsensus, MrMsg};
pub use multi::{Log, LogHost, LogMsg, MultiEc, MultiMsg, MultiNode, SlotDecide, LOG_APPEND, NOOP};
pub use node::{ConsensusNode, Decider};
pub use paxos::{Paxos, PaxosConsensus, PaxosMsg};

use fd_core::Stack;
use fd_detectors::{
    HeartbeatConfig, HeartbeatDetector, LeaderByFirstNonSuspected, LeaderConfig, LeaderDetector,
    ScriptedDetector,
};
use fd_sim::ProcessId;

/// ◇C consensus over a heartbeat-◇P-based ◇C detector (high accuracy).
pub type EcNodeHb = ConsensusNode<LeaderByFirstNonSuspected<HeartbeatDetector>, Ec>;

/// ◇C consensus over the candidate-based ◇C detector of \[16\]
/// (Ω-grade accuracy, `n−1` messages per period).
pub type EcNodeLeader = ConsensusNode<LeaderDetector, Ec>;

/// Chandra–Toueg consensus over a heartbeat-based ◇S (◇P) detector.
pub type CtNodeHb = ConsensusNode<LeaderByFirstNonSuspected<HeartbeatDetector>, Ct>;

/// MR-style consensus over the candidate-based Ω detector.
pub type MrNodeLeader = ConsensusNode<LeaderDetector, Mr>;

/// Any protocol over a scripted (adversarial) detector.
pub type ScriptedNode<P> = ConsensusNode<ScriptedDetector, P>;

/// Single-decree Paxos over the candidate-based Ω detector.
pub type PaxosNodeLeader = ConsensusNode<LeaderDetector, Paxos>;

/// A world-reusing [`ConsensusRunner`] for [`EcNodeHb`] scenarios.
pub type EcHbRunner = ConsensusRunner<LeaderByFirstNonSuspected<HeartbeatDetector>, Ec>;

/// A world-reusing [`ConsensusRunner`] for [`CtNodeHb`] scenarios.
pub type CtHbRunner = ConsensusRunner<LeaderByFirstNonSuspected<HeartbeatDetector>, Ct>;

/// A world-reusing [`ConsensusRunner`] for [`MrNodeLeader`] scenarios.
pub type MrLeaderRunner = ConsensusRunner<LeaderDetector, Mr>;

/// Build an [`EcNodeHb`].
pub fn ec_node_hb(me: ProcessId, n: usize) -> EcNodeHb {
    Stack::new(
        LeaderByFirstNonSuspected::new(
            HeartbeatDetector::new(me, n, HeartbeatConfig::default()),
            n,
        ),
        Decider::new(me, EcConsensus::new(me, n)),
    )
}

/// Build an [`EcNodeLeader`].
pub fn ec_node_leader(me: ProcessId, n: usize) -> EcNodeLeader {
    Stack::new(
        LeaderDetector::new(me, n, LeaderConfig::default()),
        Decider::new(me, EcConsensus::new(me, n)),
    )
}

/// Build a [`CtNodeHb`].
pub fn ct_node_hb(me: ProcessId, n: usize) -> CtNodeHb {
    Stack::new(
        LeaderByFirstNonSuspected::new(
            HeartbeatDetector::new(me, n, HeartbeatConfig::default()),
            n,
        ),
        Decider::new(me, CtConsensus::new(me, n)),
    )
}

/// Build an [`MrNodeLeader`] that only knows `f < n/2`.
pub fn mr_node_leader(me: ProcessId, n: usize) -> MrNodeLeader {
    let cons = MrConsensus::with_unknown_f(me, n);
    Stack::new(
        LeaderDetector::new(me, n, LeaderConfig::default()),
        Decider::new(me, cons),
    )
}

/// Build a [`PaxosNodeLeader`].
pub fn paxos_node_leader(me: ProcessId, n: usize) -> PaxosNodeLeader {
    let cons = PaxosConsensus::new(me, n);
    Stack::new(
        LeaderDetector::new(me, n, LeaderConfig::default()),
        Decider::new(me, cons),
    )
}

/// Build a node with a scripted detector and any protocol.
pub fn scripted_node<P: RoundProtocol>(
    me: ProcessId,
    fd: ScriptedDetector,
    cons: Round<P>,
) -> ScriptedNode<P> {
    Stack::new(fd, Decider::new(me, cons))
}
