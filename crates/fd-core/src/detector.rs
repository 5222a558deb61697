//! Local failure-detector query interfaces.
//!
//! The paper's model (§2.1): "a distributed failure detector can be viewed
//! as a set of n failure detection modules, each one attached to a
//! different process … a process interacts only with its local failure
//! detection module." These traits are that local interface: a consensus
//! component co-located with a detector component on the same simulated
//! node queries it synchronously, with no extra messages.

use crate::set::ProcessSet;
use fd_sim::{Payload, ProcessId};
use serde::{Deserialize, Serialize};

/// Query interface of detectors exposing a suspected set
/// (`D.suspected_p` in the paper).
pub trait SuspectOracle {
    /// The set of processes this module currently suspects.
    fn suspected(&self) -> ProcessSet;

    /// Convenience: whether `q` is currently suspected.
    fn suspects(&self, q: ProcessId) -> bool {
        self.suspected().contains(q)
    }
}

/// Query interface of detectors exposing a trusted process
/// (`D.trusted_p` in the paper).
pub trait LeaderOracle {
    /// The process this module currently trusts (its leader candidate).
    fn trusted(&self) -> ProcessId;
}

/// The combined ◇C interface (Definition 1): both queries at once.
/// Blanket-implemented for anything providing both halves.
pub trait EventuallyConsistentOracle: SuspectOracle + LeaderOracle {
    /// Snapshot both outputs.
    fn output(&self) -> FdOutput {
        FdOutput {
            suspected: self.suspected(),
            trusted: Some(self.trusted()),
        }
    }
}

impl<T: SuspectOracle + LeaderOracle> EventuallyConsistentOracle for T {}

/// A point-in-time snapshot of a detector module's output.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FdOutput {
    /// The suspected set (empty for pure Ω detectors that only trust).
    pub suspected: ProcessSet,
    /// The trusted process, if the detector has a leader output.
    pub trusted: Option<ProcessId>,
}

impl FdOutput {
    /// Debug builds: panic unless this output, kept since the last change
    /// `below` announced, is still `below`'s — a detector that changed its
    /// output without announcing it would leave the module above waiting
    /// on a stale one.
    pub fn debug_assert_current(&self, below: &impl EventuallyConsistentOracle) {
        debug_assert_eq!(*self, below.output(), "a detector change went unannounced");
    }

    /// Whether this snapshot already satisfies the ◇C consistency clause
    /// `trusted ∉ suspected`.
    pub fn is_consistent(&self) -> bool {
        match self.trusted {
            Some(t) => !self.suspected.contains(t),
            None => true,
        }
    }
}

/// Observation-tag conventions shared across the workspace. Detector and
/// consensus components emit these via `Context::observe`; the property
/// checkers in [`crate::properties`] consume them.
pub mod obs {
    /// Consensus decision: payload [`Payload::U64Pair`] (value, round).
    pub use fd_obs::keys::CONSENSUS_DECIDE as DECIDE;
    /// Consensus proposal: payload [`Payload::U64`] with the value.
    pub use fd_obs::keys::CONSENSUS_PROPOSE as PROPOSE;
    /// Suspect-set change: payload [`Payload::Pids`] with the new set.
    pub use fd_obs::keys::FD_SUSPECTS as SUSPECTS;
    /// Trusted-process change: payload [`Payload::Pid`] with the new leader.
    pub use fd_obs::keys::FD_TRUSTED as TRUSTED;

    /// The two announcements of a change of a detector's output. Every
    /// detector emits one of them in exactly the callbacks that change
    /// its [`FdOutput`](crate::FdOutput), which is what lets a host
    /// treat that output as a stream of events instead of re-reading it.
    pub const OUTPUT: [&str; 2] = [SUSPECTS, TRUSTED];

    // Re-exported so the doc links above resolve.
    #[allow(unused_imports)]
    use fd_sim::Payload;
}

/// Helper for components: emit a [`obs::SUSPECTS`] observation.
pub fn observe_suspects<M>(ctx: &mut fd_sim::Context<'_, M>, set: &ProcessSet) {
    ctx.observe(obs::SUSPECTS, Payload::Pids(set.to_vec()));
}

/// Helper for components: emit a [`obs::TRUSTED`] observation.
pub fn observe_trusted<M>(ctx: &mut fd_sim::Context<'_, M>, leader: ProcessId) {
    ctx.observe(obs::TRUSTED, Payload::Pid(leader));
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        s: ProcessSet,
        t: ProcessId,
    }
    impl SuspectOracle for Fake {
        fn suspected(&self) -> ProcessSet {
            self.s.clone()
        }
    }
    impl LeaderOracle for Fake {
        fn trusted(&self) -> ProcessId {
            self.t
        }
    }

    #[test]
    fn blanket_ec_oracle() {
        let f = Fake {
            s: ProcessSet::singleton(ProcessId(2)),
            t: ProcessId(0),
        };
        let out = f.output();
        assert_eq!(out.trusted, Some(ProcessId(0)));
        assert!(out.suspected.contains(ProcessId(2)));
        assert!(out.is_consistent());
        assert!(f.suspects(ProcessId(2)));
        assert!(!f.suspects(ProcessId(1)));
    }

    #[test]
    fn inconsistent_snapshot_detected() {
        let f = Fake {
            s: ProcessSet::singleton(ProcessId(0)),
            t: ProcessId(0),
        };
        assert!(!f.output().is_consistent());
    }

    #[test]
    fn leaderless_snapshot_is_vacuously_consistent() {
        let out = FdOutput {
            suspected: ProcessSet::singleton(ProcessId(1)),
            trusted: None,
        };
        assert!(out.is_consistent());
    }
}
