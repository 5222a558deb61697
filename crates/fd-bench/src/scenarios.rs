//! Shared workload builders for the experiments.

use fd_consensus::{scripted_node, CtConsensus, EcConsensus, MrConsensus, PaxosConsensus};
use fd_core::ProcessSet;
use fd_detectors::ScriptedDetector;
use fd_sim::{LinkModel, NetworkConfig, ProcessId, SimDuration, Time};

/// The network used by the complexity experiments: constant-delay links,
/// so communication-step counting is exact.
pub fn const_delay_net(n: usize, delta: SimDuration) -> NetworkConfig {
    NetworkConfig::new(n).with_default(LinkModel::reliable_const(delta))
}

/// A jittery reliable network (the default experimental substrate).
pub fn jitter_net(n: usize) -> NetworkConfig {
    fd_consensus::default_net(n)
}

/// A stable scripted ◇C detector: leader `p0`, suspects `Π \ {p0}`,
/// from time zero.
pub fn stable_fd(_pid: ProcessId, n: usize) -> ScriptedDetector {
    let leader = ProcessId(0);
    ScriptedDetector::stable(leader, ProcessSet::singleton(leader).complement(n))
}
// `pid` is unused but kept so all builders share a signature.

/// Which consensus protocol an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The paper's ◇C algorithm.
    Ec,
    /// Chandra–Toueg ◇S.
    Ct,
    /// Mostefaoui–Raynal Ω.
    Mr,
    /// Single-decree Paxos \[13\] over the same Ω output (discussed
    /// qualitatively in §1.2/§5.4; not part of the paper's own tables).
    Paxos,
}

impl Protocol {
    /// The paper's three compared protocols, in presentation order.
    pub const ALL: [Protocol; 3] = [Protocol::Ec, Protocol::Ct, Protocol::Mr];

    /// The paper's three plus the Paxos reference point.
    pub const WITH_PAXOS: [Protocol; 4] =
        [Protocol::Ec, Protocol::Ct, Protocol::Mr, Protocol::Paxos];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Ec => "◇C (paper)",
            Protocol::Ct => "CT ◇S",
            Protocol::Mr => "MR Ω",
            Protocol::Paxos => "Paxos [13]",
        }
    }

    /// Message-kind prefix for metrics filtering.
    pub fn prefix(self) -> &'static str {
        match self {
            Protocol::Ec => "ec.",
            Protocol::Ct => "ct.",
            Protocol::Mr => "mr.",
            Protocol::Paxos => "paxos.",
        }
    }

    /// The paper's phases-per-round figure (§5.4).
    pub fn paper_phases(self) -> u64 {
        match self {
            Protocol::Ec => 5,
            Protocol::Ct => 4,
            Protocol::Mr => 3,
            // Not in the paper's table: prepare/promise/accept/accepted.
            Protocol::Paxos => 4,
        }
    }

    /// The paper's messages-per-round formula (§5.4), evaluated at `n`.
    pub fn paper_messages(self, n: usize) -> u64 {
        let n = n as u64;
        match self {
            Protocol::Ec => 4 * n,
            Protocol::Ct => 3 * n,
            Protocol::Mr => 3 * n * n,
            // Not in the paper's table: 4(n−1) ≈ 4n for an uncontested
            // ballot (prepare+promise+accept+accepted, no Phase 0).
            Protocol::Paxos => 4 * n,
        }
    }
}

/// Run one scripted-FD scenario for `proto` and return the result. The
/// `mk_fd` closure builds each process's scripted detector.
pub fn run_scripted(
    proto: Protocol,
    n: usize,
    seed: u64,
    net: NetworkConfig,
    horizon: Time,
    mk_fd: impl Fn(ProcessId, usize) -> ScriptedDetector,
) -> fd_consensus::RunResult {
    let sc = fd_consensus::Scenario::failure_free(n, seed, horizon);
    match proto {
        Protocol::Ec => fd_consensus::run_scenario(net, &sc, |pid, n| {
            scripted_node(pid, mk_fd(pid, n), EcConsensus::new(pid, n))
        }),
        Protocol::Ct => fd_consensus::run_scenario(net, &sc, |pid, n| {
            scripted_node(pid, mk_fd(pid, n), CtConsensus::new(pid, n))
        }),
        Protocol::Mr => fd_consensus::run_scenario(net, &sc, |pid, n| {
            scripted_node(pid, mk_fd(pid, n), MrConsensus::with_unknown_f(pid, n))
        }),
        Protocol::Paxos => fd_consensus::run_scenario(net, &sc, |pid, n| {
            scripted_node(pid, mk_fd(pid, n), PaxosConsensus::new(pid, n))
        }),
    }
}
