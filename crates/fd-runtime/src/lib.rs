//! # fd-runtime — a threaded, wall-clock executor for the same actors
//!
//! The simulator in `fd-sim` is the measurement instrument; this crate is
//! the existence proof that the protocol code is not simulator-only. A
//! [`Runtime`] spawns one OS thread per process, connects them with
//! `std::sync::mpsc` channels, drives [`fd_sim::Actor`] callbacks against the
//! wall clock (timers via `recv_timeout`), and interprets the very same
//! [`fd_sim::Action`] stream the kernel does. Crash-stop failures are a
//! control message that makes a thread drop its actor and go silent.
//!
//! Message loss can be injected per send (a Bernoulli trial, matching the
//! fair-lossy link model); delays are whatever the OS scheduler provides,
//! which is exactly the "asynchronous system" reading of real hardware.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod runtime;

pub use runtime::{observations_to_trace, RtObservation, Runtime, RuntimeConfig};
