//! Large-n scale cells: the three detector cost classes at
//! n = 64…4096, as the `scale` campaign scenario.
//!
//! The paper's §4 cost comparison — `n²` heartbeats vs the ring's `2n`
//! vs hierarchical testing's `n·log n` — only *bites* at system sizes
//! the rest of the workspace never reaches (the consensus experiments
//! sweep n ≤ 7). Each cost class runs at n ∈ {64, 256, 1024, 4096} under
//! a stable and a fair-lossy network; a cell's event count, message
//! volume, and observation digest are deterministic, so any
//! nondeterminism at scale shows up as a digest drift rather than a
//! silent wrong answer. `tests/scale_e2e.rs` pins all 22 cells in a
//! golden table (the §4 message-volume numbers EXPERIMENTS.md cites);
//! host-time throughput of these cells is measured by `benchmark/` only.
//!
//! Worlds run with [`TraceMode::ObsOnly`]: detector observations and
//! crashes are kept (the digest input, and what any checker needs),
//! per-message trace events are not — at n = 4096 a full trace would be
//! the run's own quadratic bottleneck.
//!
//! The heartbeat class stops at n = 1024: its send burst queues `n²`
//! simultaneous deliveries (≈ 17 M queued events at 4096 — a gigabyte
//! of event queue), which is precisely the blow-up the sub-quadratic
//! detectors exist to avoid. The ring and vCube classes carry the 4096
//! cells.

use fd_campaign::scenario::SeedExecutor;
use fd_campaign::{run_plan, Monitor, NamedMonitor, RunOutcome, RunPlan, Scenario};
use fd_detectors::{
    HeartbeatConfig, HeartbeatDetector, RingConfig, RingDetector, VCubeConfig, VCubeDetector,
};
use fd_sim::{
    Actor, LinkModel, NetworkConfig, ProcessId, SimDuration, Time, TraceMode, WorldCache,
};

/// The system sizes the scale sweep covers.
pub const SCALE_SIZES: [usize; 4] = [64, 256, 1024, 4096];

/// Detector cost class of a scale cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleClass {
    /// All-to-all heartbeats — `n(n−1)` messages per period.
    Heartbeat,
    /// Ring with circulating suspect lists — `O(n)` per period.
    Ring,
    /// Hierarchical hypercube testing — `O(n·log n)` per period.
    VCube,
}

impl ScaleClass {
    /// Every class, in reporting order.
    pub const ALL: [ScaleClass; 3] = [ScaleClass::Heartbeat, ScaleClass::Ring, ScaleClass::VCube];

    /// Stable registry key (a plan's `class` param).
    pub fn key(self) -> &'static str {
        match self {
            ScaleClass::Heartbeat => "heartbeat",
            ScaleClass::Ring => "ring",
            ScaleClass::VCube => "vcube",
        }
    }

    /// The class a registry key names.
    pub fn from_key(key: &str) -> Option<ScaleClass> {
        ScaleClass::ALL.into_iter().find(|c| c.key() == key)
    }

    /// Largest n this class runs at (see module docs).
    fn max_n(self) -> usize {
        match self {
            ScaleClass::Heartbeat => 1024,
            ScaleClass::Ring | ScaleClass::VCube => 4096,
        }
    }
}

/// Network regime of a scale cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleNet {
    /// Reliable links, 1–4 ms uniform delay.
    Stable,
    /// Fair-lossy links: 1–8 ms delay, 15% independent drops.
    Lossy,
}

impl ScaleNet {
    /// Both regimes, in reporting order.
    pub const ALL: [ScaleNet; 2] = [ScaleNet::Stable, ScaleNet::Lossy];

    fn config(self, n: usize) -> NetworkConfig {
        match self {
            ScaleNet::Stable => NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
                SimDuration::from_millis(1),
                SimDuration::from_millis(4),
            )),
            ScaleNet::Lossy => NetworkConfig::new(n).with_default(LinkModel::fair_lossy(
                SimDuration::from_millis(1),
                SimDuration::from_millis(8),
                0.15,
            )),
        }
    }
}

/// One cell of the scale sweep.
#[derive(Debug, Clone, Copy)]
pub struct ScaleCell {
    /// Detector cost class.
    pub class: ScaleClass,
    /// System size.
    pub n: usize,
    /// Network regime.
    pub net: ScaleNet,
}

impl ScaleCell {
    /// Simulated horizon: scaled down with n and up for the cheaper
    /// message classes, so every cell processes a comparable event
    /// volume — the quadratic class covers fewer simulated seconds per
    /// wall second, and a fixed horizon would leave the `O(n)` ring
    /// cells too brief to measure (tens of milliseconds of wall time,
    /// where scheduler noise swamps the throughput number).
    pub fn horizon(&self) -> Time {
        let base_ms = match self.n {
            0..=64 => 500,
            65..=256 => 200,
            257..=1024 => 100,
            _ => 30,
        };
        let factor = match self.class {
            ScaleClass::Heartbeat => 1,
            // A crash is suspected after five unanswered 30 ms attempts:
            // at n = 4096 (crash at 120 ms of 300) its testers get there
            // at ≈ 275 ms. Half this factor ends the run before they do.
            ScaleClass::VCube => 10,
            ScaleClass::Ring => 20,
        };
        Time::from_millis(base_ms * factor)
    }

    /// The run plan of this cell under `seed`: the cell's network and
    /// horizon, the whole seed driving the world's RNG streams, and one
    /// mid-run crash (process n/3 at 2/5 of the horizon) so the
    /// detectors detect something and the observation digest covers
    /// real suspicion traffic.
    pub fn plan(&self, seed: u64) -> RunPlan {
        let horizon = self.horizon();
        RunPlan::new(seed, horizon, self.net.config(self.n))
            .with_crash(
                ProcessId(self.n / 3),
                Time::from_millis(horizon.as_millis() * 2 / 5),
            )
            .with_params(serde::Value::Obj(vec![(
                "class".to_string(),
                serde::Value::Str(self.class.key().to_string()),
            )]))
    }
}

/// The cell list for the given sizes, n-major (all classes and nets of
/// one size before the next), skipping class/size pairs over the class
/// ceiling.
pub fn scale_cells(sizes: &[usize]) -> Vec<ScaleCell> {
    let mut cells = Vec::new();
    for &n in sizes {
        for class in ScaleClass::ALL {
            if n > class.max_n() {
                continue;
            }
            for net in ScaleNet::ALL {
                cells.push(ScaleCell { class, n, net });
            }
        }
    }
    cells
}

/// Registry name of [`ScaleScenario`].
pub const SCALE: &str = "scale";

/// The scale sweep as a campaign scenario (registry name `"scale"`).
///
/// Seed `s` runs cell `cells[s % cells.len()]` of
/// [`scale_cells`]`(&SCALE_SIZES)` — so sweeping `0..22` covers every
/// cell once — under [`ScaleCell::plan`] and [`TraceMode::ObsOnly`]. The
/// campaign engine's per-seed digests are the scale determinism
/// contract: a sweep must be byte-identical across `--jobs`.
///
/// Monitored property: `fd.weak_completeness` — the strongest property
/// every class satisfies within the throughput-sized horizons. Full
/// dissemination takes O(n) poll periods on the ring (hop-by-hop list
/// circulation), far past the horizon at n = 4096; that detection-time
/// gap is the §4 measurement, not a bug, so strong completeness is
/// checked separately at small n where the horizons cover it.
pub struct ScaleScenario;

/// The cell a seed belongs to (seeds wrap around the cell list).
pub fn scale_cell_of(seed: u64) -> ScaleCell {
    let cells = scale_cells(&SCALE_SIZES);
    cells[(seed % cells.len() as u64) as usize]
}

impl Scenario for ScaleScenario {
    fn name(&self) -> &str {
        SCALE
    }

    fn plan(&self, seed: u64) -> RunPlan {
        scale_cell_of(seed).plan(seed)
    }

    fn monitors(&self) -> Vec<Box<dyn Monitor>> {
        vec![NamedMonitor::boxed(fd_obs::keys::FD_WEAK_COMPLETENESS)]
    }

    fn check_plan(&self, plan: &RunPlan) -> Result<(), String> {
        let class = plan.params.field("class");
        let accepted = ScaleClass::ALL.map(ScaleClass::key);
        match class.as_str().and_then(ScaleClass::from_key) {
            Some(_) => Ok(()),
            None => Err(format!(
                "param `class` is {class:?}; expected one of {accepted:?}"
            )),
        }
    }

    fn make_executor(&self) -> Box<dyn SeedExecutor + '_> {
        Box::new(ScaleExecutor)
    }
}

/// Executor for [`ScaleScenario`]. The class is read from the plan's
/// params (not re-derived from the seed) so replayed artifacts stay
/// self-contained.
struct ScaleExecutor;

impl SeedExecutor for ScaleExecutor {
    fn execute(&mut self, plan: &RunPlan, obs: Option<&fd_obs::Registry>) -> RunOutcome {
        let class = plan.params.field("class");
        match class.as_str().and_then(ScaleClass::from_key) {
            Some(ScaleClass::Heartbeat) => run_scale_plan(plan, obs, |pid, n| {
                fd_core::Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default()))
            }),
            Some(ScaleClass::Ring) => run_scale_plan(plan, obs, |pid, n| {
                fd_core::Standalone(RingDetector::new(pid, n, RingConfig::default()))
            }),
            Some(ScaleClass::VCube) => run_scale_plan(plan, obs, |pid, n| {
                fd_core::Standalone(VCubeDetector::new(pid, n, VCubeConfig::default()))
            }),
            None => panic!("scale plan names a class that check_plan rejects"),
        }
    }
}

/// Run one scale plan in a [`TraceMode::ObsOnly`] world that lives only
/// for this call: a reset rebuilds every actor anyway, so a world kept
/// across plans gains no wall time and holds hundreds of megabytes (peak
/// RSS +3 % with one kept, +60–100 % with one per class).
fn run_scale_plan<A: Actor>(
    plan: &RunPlan,
    obs: Option<&fd_obs::Registry>,
    make: impl FnMut(ProcessId, usize) -> A,
) -> RunOutcome {
    let mut cache = WorldCache::new(|builder| builder.trace_mode(TraceMode::ObsOnly));
    run_plan(cache.arm(plan.net.clone(), plan.seed, obs, make), plan, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_campaign::Campaign;

    #[test]
    fn cell_list_is_n_major_and_respects_class_ceilings() {
        let cells = scale_cells(&SCALE_SIZES);
        // 4 sizes × 3 classes × 2 nets, minus the two heartbeat@4096 cells.
        assert_eq!(cells.len(), 4 * 3 * 2 - 2);
        let ns: Vec<usize> = cells.iter().map(|c| c.n).collect();
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        assert_eq!(ns, sorted, "cells must be n-major");
        assert!(!cells
            .iter()
            .any(|c| c.class == ScaleClass::Heartbeat && c.n > 1024));
    }

    #[test]
    fn small_sweep_produces_consistent_rows() {
        // Seeds 0..6 are the six n = 64 cells (3 classes × 2 nets).
        let sweep = || Campaign::new(&ScaleScenario, 0..6).jobs(1).run().results;
        let rows = sweep();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.passed(), "seed {}: {:?}", r.seed, r.violation);
            assert!(
                r.events > 0 && r.messages > 0,
                "seed {} ran nothing",
                r.seed
            );
        }
        // Same sweep again: digests, events and messages must reproduce.
        assert_eq!(rows, sweep());
    }

    #[test]
    fn message_volume_ranks_heartbeat_over_vcube_over_ring() {
        // The stable n = 256 cell of each class, by its campaign seed.
        let msgs = |class: ScaleClass| {
            let seed = (0..22)
                .find(|&s| {
                    let c = scale_cell_of(s);
                    (c.class, c.n, c.net) == (class, 256, ScaleNet::Stable)
                })
                .expect("every class has a stable n = 256 cell");
            Campaign::run_seed(&ScaleScenario, seed).0.messages
        };
        let (hb, vc, ring) = (
            msgs(ScaleClass::Heartbeat),
            msgs(ScaleClass::VCube),
            msgs(ScaleClass::Ring),
        );
        assert!(
            hb > vc && vc > ring,
            "expected n² > n·log n > n message ranking, got hb={hb} vcube={vc} ring={ring}"
        );
    }
}
