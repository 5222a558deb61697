//! # fd-detectors — unreliable failure detector implementations
//!
//! Every detector and transformation the paper defines, uses, or compares
//! against:
//!
//! | Module | Algorithm | Class | Periodic cost |
//! |---|---|---|---|
//! | [`heartbeat`] | all-to-all heartbeats (Chandra–Toueg \[6\]) | ◇P | `n(n−1)` |
//! | [`ring`] | ring with circulating suspect lists (Larrea et al. \[15\]) | ◇P-quality ◇S | `2n` (or `n` piggybacked) |
//! | [`leader`] | candidate broadcast (Larrea et al. \[16\]) | Ω + ◇S (◇C, poor accuracy) | `n−1` |
//! | [`omega`] | §3 local adapters: first-non-suspected ↔ suspect-all-but-leader | ◇C from ◇P/◇S/Ω | `0` extra |
//! | [`ec_to_ep`] | **Fig. 2 transformation** (Theorem 1) | ◇C → ◇P | `2(n−1)` extra |
//! | [`fused`] | §4's piggybacked stack (\[16\] + Fig. 2) | Ω + ◇P | `2(n−1)` total |
//! | [`weak_to_strong`] | completeness amplification \[6\] | ◇W → ◇S | `n(n−1)` gossip |
//! | [`omega_stable`] | stable leader election (Aguilera et al. \[2\]) | Ω + ◇P, flap-resistant | `n(n−1)` |
//! | [`omega_gossip`] | accusation-counter Ω reduction (\[5\]/\[7\]) | ◇W/◇S → Ω | `n(n−1)` gossip |
//! | [`hb_counter`] | timeout-free Heartbeat + quiescent channel (\[1\]) | counter evidence | `n(n−1)` beats |
//! | [`vcube`] | hierarchical hypercube testing (VCube/adaptive-DSD lineage) | ◇P | `≤ 2n·⌈log₂ n⌉` |
//! | [`scripted`] | oracle detectors for adversarial runs | any (by construction) | `0` |
//!
//! The detectors are [`fd_core::Component`]s: they run
//! [`Standalone`](fd_core::Standalone) (detector-only worlds) or composed
//! with broadcast/consensus modules on one node. The four modules that
//! exchange messages of their own *on top of* a detector —
//! [`ec_to_ep`], [`weak_to_strong`], [`omega_gossip`] and
//! [`hb_counter`]'s channel — implement [`fd_core::Over`] and run as the
//! upper half of a [`fd_core::Stack`]; the message-free [`omega`]
//! adapters wrap their detector instead.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ec_to_ep;
pub mod fused;
pub mod hb_counter;
pub mod heartbeat;
pub mod leader;
pub mod omega;
pub mod omega_gossip;
pub mod omega_stable;
pub mod ring;
pub mod scripted;
pub mod timeout;
pub mod vcube;
pub mod weak_to_strong;

/// Timer-namespace registry: every component class in the workspace owns
/// a distinct namespace so any combination can share a node.
pub mod ns {
    /// [`crate::heartbeat::HeartbeatDetector`].
    pub const HEARTBEAT: u32 = 1;
    /// [`crate::ring::RingDetector`].
    pub const RING: u32 = 2;
    /// [`crate::leader::LeaderDetector`].
    pub const LEADER: u32 = 3;
    /// [`crate::ec_to_ep::EcToEp`].
    pub const EC_TO_EP: u32 = 4;
    /// [`crate::fused::FusedDetector`].
    pub const FUSED: u32 = 5;
    /// [`crate::weak_to_strong::WeakToStrong`].
    pub const WEAK_TO_STRONG: u32 = 6;
    /// [`crate::scripted::ScriptedDetector`].
    pub const SCRIPTED: u32 = 7;
    /// Reserved for `fd-broadcast`.
    pub const BROADCAST: u32 = 8;
    /// [`crate::omega_stable::StableLeaderDetector`].
    pub const STABLE_LEADER: u32 = 11;
    /// [`crate::omega_gossip::OmegaGossip`].
    pub const OMEGA_GOSSIP: u32 = 12;
    /// [`crate::hb_counter::HeartbeatCounter`].
    pub const HB_COUNTER: u32 = 13;
    /// [`crate::hb_counter::QuiescentChannel`].
    pub const QUIESCENT: u32 = 14;
    /// [`crate::vcube::VCubeDetector`].
    pub const VCUBE: u32 = 15;
    /// Reserved for `fd-consensus`.
    pub const CONSENSUS: u32 = 9;
}

pub use ec_to_ep::{EcToEp, EcToEpConfig, EpMsg, EP_SUSPECTS_OUT};
pub use fused::{FusedConfig, FusedDetector, FusedMsg};
pub use hb_counter::{
    HbBeat, HbCounterConfig, HeartbeatCounter, QcMsg, QuiescentChannel, QC_DELIVERED,
};
pub use heartbeat::{HeartbeatConfig, HeartbeatDetector, HeartbeatMsg};
pub use leader::{LeaderAlive, LeaderConfig, LeaderDetector};
pub use omega::{LeaderByFirstNonSuspected, SuspectAllButLeader};
pub use omega_gossip::{GossipMsg, OmegaGossip, OmegaGossipConfig};
pub use omega_stable::{StableAlive, StableLeaderConfig, StableLeaderDetector};
pub use ring::{RingConfig, RingDetector, RingMsg};
pub use scripted::{NoMsg, ScriptedDetector};
pub use timeout::TimeoutTable;
pub use vcube::{VCubeConfig, VCubeDetector, VCubeMsg};
pub use weak_to_strong::{W2sMsg, WeakToStrong, WeakToStrongConfig, W2S_SUSPECTS_OUT};

/// Convenient glob-import for downstream crates and examples.
pub mod prelude {
    pub use crate::ec_to_ep::{EcToEp, EcToEpConfig, EP_SUSPECTS_OUT};
    pub use crate::fused::{FusedConfig, FusedDetector};
    pub use crate::heartbeat::{HeartbeatConfig, HeartbeatDetector};
    pub use crate::leader::{LeaderConfig, LeaderDetector};
    pub use crate::omega::{LeaderByFirstNonSuspected, SuspectAllButLeader};
    pub use crate::ring::{RingConfig, RingDetector};
    pub use crate::scripted::ScriptedDetector;
    pub use crate::vcube::{VCubeConfig, VCubeDetector};
}
