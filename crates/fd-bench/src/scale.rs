//! Large-n scale benchmark: the three detector cost classes at
//! n = 64…4096.
//!
//! The paper's §4 cost comparison — `n²` heartbeats vs the ring's `2n`
//! vs hierarchical testing's `n·log n` — only *bites* at system sizes
//! the rest of the workspace never reaches (the consensus experiments
//! sweep n ≤ 7). This bench runs each cost class at n ∈ {64, 256, 1024,
//! 4096} under a stable and a fair-lossy network, measuring kernel
//! throughput (events/second), message volume, and an
//! observation-digest per cell so any nondeterminism at scale shows up
//! as a digest drift rather than a silent wrong answer.
//!
//! Worlds run with [`TraceMode::ObsOnly`]: detector observations and
//! crashes are kept (the digest input, and what any checker needs),
//! per-message trace events are not — at n = 4096 a full trace would be
//! the benchmark's own quadratic bottleneck.
//!
//! The heartbeat class stops at n = 1024: its send burst queues `n²`
//! simultaneous deliveries (≈ 17 M queued events at 4096 — a gigabyte
//! of event queue), which is precisely the blow-up the sub-quadratic
//! detectors exist to avoid. The ring and vCube classes carry the 4096
//! cells.
//!
//! `ecfd bench-scale` drives this and writes `BENCH_scale.json`; the CI
//! scale-smoke job re-runs the n = 256 column and gates on per-cell
//! throughput regressions with a wide tolerance.

use fd_campaign::scenario::SeedExecutor;
use fd_campaign::{run_plan, Monitor, NamedMonitor, RunOutcome, RunPlan, Scenario};
use fd_detectors::{
    HeartbeatConfig, HeartbeatDetector, RingConfig, RingDetector, VCubeConfig, VCubeDetector,
};
use fd_sim::{
    Actor, LinkModel, NetworkConfig, ProcessId, SimDuration, Time, TraceMode, WorldBuilder,
    WorldCache,
};
use std::time::Instant;

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

    /// Stable registry key (appears in `BENCH_scale.json`).
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

    /// Largest n this class is benched at (see module docs).
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

    /// Stable registry key (appears in `BENCH_scale.json`).
    pub fn key(self) -> &'static str {
        match self {
            ScaleNet::Stable => "stable",
            ScaleNet::Lossy => "lossy",
        }
    }

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
            ScaleClass::VCube => 5,
            ScaleClass::Ring => 20,
        };
        Time::from_millis(base_ms * factor)
    }

    /// Seeds this cell runs given the sweep's base seed count: full at
    /// n ≤ 256, halved at 1024, one seed at 4096 (the biggest worlds
    /// dominate wall time; one seed is enough for a throughput number).
    pub fn seeds(&self, base: u64) -> u64 {
        match self.n {
            0..=256 => base,
            257..=1024 => (base / 2).max(1),
            _ => 1,
        }
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

/// Measured result of one cell.
struct CellStats {
    events: u64,
    messages: u64,
    wall_ns: u64,
    allocs: u64,
    digest: u64,
}

/// Run one cell's seeds with the given actor factory; wall time covers
/// only `run_until_time` (world construction — hundreds of megabytes of
/// detector state at n = 4096 — is setup, not kernel throughput).
fn run_cell<A, F>(cell: &ScaleCell, seeds: u64, mk: F) -> CellStats
where
    A: Actor,
    F: Fn(ProcessId, usize) -> A + Copy,
{
    let horizon = cell.horizon();
    // One mid-run crash so the detectors detect something and the
    // observation digest covers real suspicion traffic.
    let victim = ProcessId(cell.n / 3);
    let crash_at = Time::from_millis(horizon.as_millis() * 2 / 5);
    let mut stats = CellStats {
        events: 0,
        messages: 0,
        wall_ns: 0,
        allocs: 0,
        digest: 0,
    };
    for seed in 0..seeds {
        let mut w = WorldBuilder::new(cell.net.config(cell.n))
            .seed(seed)
            .trace_mode(TraceMode::ObsOnly)
            .crash_at(victim, crash_at)
            .build(mk);
        let allocs_before = fd_obs::CountingAllocator::count();
        let t0 = Instant::now();
        w.run_until_time(horizon);
        stats.wall_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        stats.allocs += fd_obs::CountingAllocator::count().saturating_sub(allocs_before);
        stats.events += w.metrics().events_processed();
        stats.messages += w.metrics().sent_total();
        let (trace, _) = w.into_results();
        stats.digest ^= trace.digest().rotate_left(seed as u32);
    }
    stats
}

fn execute_cell(cell: &ScaleCell, seeds: u64) -> CellStats {
    match cell.class {
        ScaleClass::Heartbeat => run_cell(cell, seeds, |pid, n| {
            fd_core::Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default()))
        }),
        ScaleClass::Ring => run_cell(cell, seeds, |pid, n| {
            fd_core::Standalone(RingDetector::new(pid, n, RingConfig::default()))
        }),
        ScaleClass::VCube => run_cell(cell, seeds, |pid, n| {
            fd_core::Standalone(VCubeDetector::new(pid, n, VCubeConfig::default()))
        }),
    }
}

/// Run the scale sweep over the given sizes and return the JSON object
/// `ecfd bench-scale` writes to `BENCH_scale.json`: one entry per cell
/// with events, wall time, throughput, message volume, and the folded
/// observation digest.
///
/// Absolute throughput is machine-dependent; the committed file is a
/// reference for spotting scalability regressions on comparable
/// hardware. The digests are *not* machine-dependent: a digest change
/// without an intentional protocol/kernel change is a determinism bug.
pub fn scale_bench(sizes: &[usize], seeds_base: u64) -> serde::Value {
    let cells = scale_cells(sizes);
    let mut rows = Vec::with_capacity(cells.len());
    for cell in &cells {
        let seeds = cell.seeds(seeds_base);
        let s = execute_cell(cell, seeds);
        let eps = if s.wall_ns == 0 {
            0.0
        } else {
            s.events as f64 / (s.wall_ns as f64 / 1e9)
        };
        let mut row = serde::Value::Obj(vec![
            (
                "class".to_string(),
                serde::Value::Str(cell.class.key().into()),
            ),
            ("n".to_string(), serde::Value::U128(cell.n as u128)),
            ("net".to_string(), serde::Value::Str(cell.net.key().into())),
            ("seeds".to_string(), serde::Value::U128(seeds.into())),
            (
                "horizon_ms".to_string(),
                serde::Value::U128(cell.horizon().as_millis().into()),
            ),
            ("events".to_string(), serde::Value::U128(s.events.into())),
            ("wall_ns".to_string(), serde::Value::U128(s.wall_ns.into())),
            ("events_per_sec".to_string(), serde::Value::F64(eps)),
            (
                "messages".to_string(),
                serde::Value::U128(s.messages.into()),
            ),
            (
                "digest".to_string(),
                serde::Value::Str(format!("{:016x}", s.digest)),
            ),
        ]);
        // Meaningful only under a counting global allocator (the `ecfd`
        // binary installs one; plain test harnesses do not).
        if s.allocs > 0 && s.events > 0 {
            if let serde::Value::Obj(fields) = &mut row {
                fields.push((
                    "allocs_per_event".to_string(),
                    serde::Value::F64(s.allocs as f64 / s.events as f64),
                ));
            }
        }
        rows.push(row);
    }
    serde::Value::Obj(vec![
        ("bench".to_string(), serde::Value::Str("scale".into())),
        (
            "queue_impl".to_string(),
            serde::Value::Str(fd_sim::QueueImpl::default().label().into()),
        ),
        (
            "seeds_base".to_string(),
            serde::Value::U128(seeds_base.into()),
        ),
        ("cells".to_string(), serde::Value::Arr(rows)),
    ])
}

/// Registry name of [`ScaleScenario`].
pub const SCALE: &str = "scale";

/// The scale sweep as a campaign scenario (registry name `"scale"`).
///
/// Seed `s` runs cell `cells[s % cells.len()]` of
/// [`scale_cells`]`(&SCALE_SIZES)` — so sweeping `0..22` covers every
/// cell once — with the whole seed driving the world's RNG streams, the
/// same mid-run crash as the bench, and [`TraceMode::ObsOnly`]. The
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
        let cell = scale_cell_of(seed);
        let horizon = cell.horizon();
        RunPlan::new(seed, horizon, cell.net.config(cell.n))
            .with_crash(
                ProcessId(cell.n / 3),
                Time::from_millis(horizon.as_millis() * 2 / 5),
            )
            .with_params(serde::Value::Obj(vec![(
                "class".to_string(),
                serde::Value::Str(cell.class.key().to_string()),
            )]))
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
    fn seeds_taper_with_n() {
        let cell = |n| ScaleCell {
            class: ScaleClass::Ring,
            n,
            net: ScaleNet::Stable,
        };
        assert_eq!(cell(64).seeds(4), 4);
        assert_eq!(cell(256).seeds(4), 4);
        assert_eq!(cell(1024).seeds(4), 2);
        assert_eq!(cell(4096).seeds(4), 1);
        assert_eq!(cell(4096).seeds(1), 1);
    }

    #[test]
    fn small_sweep_produces_consistent_rows() {
        let v = scale_bench(&[64], 1);
        let serde::Value::Arr(rows) = v.field("cells") else {
            panic!("cells must be an array");
        };
        assert_eq!(rows.len(), 6); // 3 classes × 2 nets
        for row in rows {
            assert!(row.field("events").as_u64().unwrap_or(0) > 0);
            assert!(row.field("messages").as_u64().unwrap_or(0) > 0);
            assert!(row.field("events_per_sec").as_f64().unwrap_or(0.0) > 0.0);
            let digest = row.field("digest").as_str().unwrap_or("");
            assert_eq!(digest.len(), 16, "digest must be a 64-bit hex string");
        }
        // Same sweep again: digests (unlike wall times) must reproduce.
        let v2 = scale_bench(&[64], 1);
        let d = |v: &serde::Value, i: usize| {
            let serde::Value::Arr(rows) = v.field("cells") else {
                panic!("cells must be an array");
            };
            rows[i].field("digest").as_str().unwrap_or("").to_string()
        };
        for i in 0..6 {
            assert_eq!(d(&v, i), d(&v2, i), "cell {i} digest drifted");
        }
    }

    #[test]
    fn message_volume_ranks_heartbeat_over_vcube_over_ring() {
        let v = scale_bench(&[256], 1);
        let serde::Value::Arr(rows) = v.field("cells") else {
            panic!("cells must be an array");
        };
        let msgs = |class: &str| {
            rows.iter()
                .find(|r| {
                    r.field("class").as_str() == Some(class)
                        && r.field("net").as_str() == Some("stable")
                })
                .and_then(|r| r.field("messages").as_u64())
                .unwrap_or(0)
        };
        let (hb, vc, ring) = (msgs("heartbeat"), msgs("vcube"), msgs("ring"));
        assert!(
            hb > vc && vc > ring,
            "expected n² > n·log n > n message ranking, got hb={hb} vcube={vc} ring={ring}"
        );
    }
}
