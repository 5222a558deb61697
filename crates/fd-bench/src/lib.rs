//! # fd-bench — the experiment harness
//!
//! Regenerates every analytical table/claim of the paper's evaluation
//! (§4 costs, §5.4 comparison, Theorems 1–3). Each experiment is a
//! library entry point in [`experiments`], listed in
//! [`experiments::ALL`]; `ecfd experiments [E1 … E10]` prints them (no
//! ids = all ten, in order) and the integration tests call them
//! directly. Host-time measurement lives in the standalone `benchmark/`
//! package, not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod experiments;
pub mod mc;
pub mod scale;
pub mod scenarios;
pub mod table;

pub use table::Table;
