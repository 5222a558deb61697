//! # fd-core — failure-detector abstractions and property checkers
//!
//! The vocabulary of the `ecfd` workspace:
//!
//! * [`ProcessSet`] — compact sets of processes (detector outputs, quorums);
//! * [`FdClass`] — the detector classes of the paper (Fig. 1, Ω, and the
//!   new ◇C of Definition 1) with their reducibility relations;
//! * [`SuspectOracle`] / [`LeaderOracle`] — the local query interface a
//!   process uses to interrogate its attached detector module;
//! * [`Component`] / [`SubCtx`] / [`Standalone`] / [`Stack`] — composition
//!   machinery so a detector, a broadcast module and a consensus module
//!   can share one simulated node;
//! * [`properties`] — finite-trace checkers for every completeness,
//!   accuracy, leadership, and consensus property in the paper;
//! * [`qos`] — how fast and how often a detector is wrong on the way
//!   there: detection time, mistake rate, mistake duration.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classes;
pub mod component;
pub mod detector;
pub mod properties;
pub mod qos;
pub mod set;

pub use classes::{Accuracy, Completeness, FdClass, SystemModel};
pub use component::{Component, Over, Stack, StackMsg, Standalone, SubCtx};
pub use detector::{
    obs, observe_suspects, observe_trusted, EventuallyConsistentOracle, FdOutput, LeaderOracle,
    SuspectOracle,
};
pub use properties::{run_named_check, CheckResult, ConsensusRun, FdRun, Violation};
pub use properties::{NAMED_CHECKS, PREFIX_CLOSED_CHECKS};
pub use qos::{nearest_rank, DetectorQos};
pub use set::{ProcessSet, MAX_PROCESSES};

/// Convenient glob-import for downstream crates and examples.
pub mod prelude {
    pub use crate::classes::{FdClass, SystemModel};
    pub use crate::component::{Component, Stack, Standalone, SubCtx};
    pub use crate::detector::{
        obs, EventuallyConsistentOracle, FdOutput, LeaderOracle, SuspectOracle,
    };
    pub use crate::properties::{ConsensusRun, FdRun, Violation};
    pub use crate::set::ProcessSet;
}
