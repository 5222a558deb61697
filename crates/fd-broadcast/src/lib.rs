//! # fd-broadcast — the broadcast primitive
//!
//! The Reliable Broadcast primitive the paper's consensus algorithm uses
//! to disseminate decisions (§5, third task of Fig. 4): a component
//! designed to be hosted on a node next to a failure detector and a
//! consensus module.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod reliable;

pub use reliable::{Delivery, RbMsg, ReliableBroadcast};
