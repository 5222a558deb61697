//! # fd-chaos — scheduled fault injection with a documented catalog
//!
//! The adversary, made declarative. A [`ChaosPlan`] describes one fault
//! schedule — timed partitions and heals, message mangling windows,
//! crash/restart churn, GST markers — as plain serializable data;
//! [`compile()`] lowers it to `fd-sim` kernel interventions that fire
//! through the ordinary event queue, so a chaos run replays
//! byte-identically from its JSON plan alone. [`ChaosScenario`] plugs
//! the whole thing into the `fd-campaign` engine: thousand-seed sweeps,
//! repro artifacts carrying the plan, and shrinking that minimizes the
//! *schedule* (which interventions are actually needed to break a
//! property?), not just the generic plan knobs.
//!
//! Paper grounding (Larrea, Fernández & Arévalo): the base network is
//! the partially synchronous model of §4 — eventually timely links with
//! an unknown GST — and every intervention is a bounded violation of an
//! assumption the paper makes: partitions suspend link fairness (§2.1),
//! manglers weaken reliable delivery to fair-lossy-with-noise, churn
//! exercises crash-stop (and, beyond the paper, crash-recovery). The
//! chaos checkers in `fd-core` (`chaos.*_after_faults`) demand each
//! detector's class hold *after* the schedule's quiet point — the
//! finite-trace reading of "there is a time after which …" relative to
//! an adversary that eventually stops.
//!
//! See `CATALOG.md` (crate root) for the full intervention catalog with
//! a runnable plan example per entry, and `DESIGN.md` §"Adversary
//! model" for which knob may legally violate which property.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compile;
pub mod plan;
pub mod scenario;

pub use compile::compile;
pub use plan::{ChaosEvent, ChaosKind, ChaosPlan, DetectorKind, PlanSource};
pub use scenario::{
    base_net, chaos_plan_of, generate_plan, push_minority_partition, ChaosScenario, CHAOS,
};
