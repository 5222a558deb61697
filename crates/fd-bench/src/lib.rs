//! # fd-bench — the experiment harness
//!
//! Regenerates every analytical table/claim of the paper's evaluation
//! (§4 costs, §5.4 comparison, Theorems 1–3). Each experiment has a
//! binary (`cargo run -p fd-bench --bin e1_messages_per_round`, …) and a
//! library entry point (used by the binaries and the integration tests).
//! `all_experiments` runs the lot. Host-time measurement lives in the
//! standalone `benchmark/` package, not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod experiments;
pub mod mc;
pub mod scale;
pub mod scenarios;
pub mod table;

pub use table::Table;
