//! # fd-campaign — parallel simulation campaigns
//!
//! The workspace's single-run tools answer "does this seed behave?";
//! this crate answers "do *thousands* of seeds behave?" — the difference
//! between spot-checking the paper's claims and sweeping for the rare
//! schedule that breaks them.
//!
//! A campaign fans a deterministic [`Scenario`] over a seed range with a
//! pool of worker threads. Each seed expands (purely) into a serializable
//! [`RunPlan`], executes in an isolated simulated world, and is checked
//! against the scenario's [`Monitor`]s — thin named wrappers over the
//! `fd-core::properties` trace checkers. The merged [`CampaignReport`]
//! carries pass/fail counts and order statistics (min/mean/p50/p99/max)
//! over decision latency and message counts.
//!
//! When a seed violates a property, the engine emits a JSON [`Artifact`]
//! holding the full plan; [`replay`] re-executes it (verifying a
//! byte-identical trace via digest) and [`shrink()`] greedily minimizes it
//! — dropping crashes, shortening the horizon, removing processes,
//! reducing link loss — while the violation persists.
//!
//! ```
//! use fd_campaign::{BlindScenario, Campaign};
//!
//! let scenario = BlindScenario; // known-bad: never suspects anyone
//! let report = Campaign::new(&scenario, 0..8).jobs(2).run();
//! assert_eq!(report.failed(), 8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod builtin;
pub mod engine;
pub mod monitor;
pub mod obs_report;
pub mod plan;
pub mod scenario;
pub mod shrink;

pub use artifact::{replay, Artifact, ReplayResult};
pub use builtin::{builtin_names, builtin_scenario, BlindScenario};
pub use engine::{Campaign, CampaignReport, SeedResult, SeedTiming, Stats, WorkerStat};
pub use monitor::{Monitor, NamedMonitor};
pub use obs_report::{metrics_rows, render_metrics, write_metrics_file};
pub use plan::{run_plan, RunOutcome, RunPlan};
pub use scenario::{Scenario, SeedExecutor};
pub use shrink::{shrink, ShrinkOutcome};
