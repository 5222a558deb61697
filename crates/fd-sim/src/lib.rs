//! # fd-sim — deterministic simulation of crash-prone message-passing systems
//!
//! The substrate for the `ecfd` workspace: a discrete-event simulator of
//! the system model used by Larrea, Fernández & Arévalo in *"Eventually
//! consistent failure detectors"* — a finite, totally ordered set of `n`
//! processes communicating over directed links, failing only by crashing
//! (permanently), with three link regimes:
//!
//! * **reliable asynchronous** links (the base model of §2.1),
//! * **eventually timely** links with a global stabilization time GST and
//!   an unknown bound Δ (the partial synchrony of §4 / \[6,8\]),
//! * **fair-lossy** links (the leader's output links in the Fig. 2
//!   transformation).
//!
//! Runs are fully deterministic given a seed: the event queue breaks time
//! ties by scheduling order and every source of randomness is derived from
//! the run seed via independent streams. The kernel records a [`Trace`]
//! (message events, crashes, protocol observations) and [`Metrics`]
//! (message counts by kind and round) which the rest of the workspace uses
//! to check the paper's properties and regenerate its complexity tables.
//!
//! ## Example
//!
//! ```
//! use fd_sim::prelude::*;
//!
//! struct Echo;
//! #[derive(Clone, Debug)]
//! struct Hello;
//! impl SimMessage for Hello {
//!     fn kind(&self) -> &'static str { "hello" }
//! }
//! impl Actor for Echo {
//!     type Msg = Hello;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Hello>) {
//!         if ctx.me() == ProcessId(0) {
//!             ctx.send_to_others(Hello);
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Hello>, _from: ProcessId, _m: Hello) {}
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, Hello>, _t: TimerTag) {}
//! }
//!
//! let mut world = WorldBuilder::new(NetworkConfig::new(3)).seed(7).build(|_, _| Echo);
//! world.run_until_time(Time::from_millis(100));
//! assert_eq!(world.metrics().sent_of_kind("hello"), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actor;
pub mod bench;
pub mod cache;
pub mod chaos;
pub mod event;
pub mod link;
pub mod metrics;
pub mod process;
pub mod rng;
pub mod sched;
pub mod storage;
pub mod time;
pub mod timeline;
pub mod topology;
pub mod trace;
pub mod world;

pub use actor::{expand_sends, Action, Actor, Context, SimMessage, TimerId, TimerTag};
pub use cache::WorldCache;
pub use chaos::{Intervention, NetChange};
pub use event::QueueImpl;
pub use link::{DelayDist, LinkMangler, LinkModel};
pub use metrics::Metrics;
pub use process::{all_processes, ProcessId};
pub use sched::{
    CanonicalScheduler, ChoicePoint, EnabledEvent, EnabledKind, SchedChoice, SchedWorld, Scheduler,
};
pub use storage::{SimDisk, StorageConfig};
pub use time::{SimDuration, Time};
pub use timeline::{summary as trace_summary, Timeline};
pub use topology::NetworkConfig;
pub use trace::{DropReason, Fnv, Payload, Trace, TraceEvent, TraceKind};
pub use world::{TraceMode, World, WorldBuilder, WorldObs};

/// Convenient glob-import for downstream crates and examples.
pub mod prelude {
    pub use crate::actor::{Actor, Context, SimMessage, TimerId, TimerTag};
    pub use crate::link::{DelayDist, LinkModel};
    pub use crate::process::{all_processes, ProcessId};
    pub use crate::time::{SimDuration, Time};
    pub use crate::topology::NetworkConfig;
    pub use crate::trace::{Payload, Trace, TraceKind};
    pub use crate::world::{TraceMode, World, WorldBuilder, WorldObs};
}
