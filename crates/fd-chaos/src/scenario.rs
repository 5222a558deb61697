//! The `chaos` campaign scenario: seed-indexed fault schedules over the
//! workspace's real detectors, checked relative to the schedule.
//!
//! Two modes share one implementation:
//!
//! * **Generated** ([`ChaosScenario::generated`], the registry default):
//!   each seed expands into a random-but-deterministic [`ChaosPlan`] —
//!   system size, detector, partition window, mangler window, and churn
//!   all derived from the seed. Every generated plan is *model-legal*
//!   (partitions heal, manglers uninstall, at most a minority crashes),
//!   so every seed must satisfy its detector's class after the quiet
//!   point; a failing seed is a real finding.
//! * **Fixed** ([`ChaosScenario::fixed`], `ecfd campaign --plan FILE`):
//!   every seed runs the same hand-written plan, with only the RNG
//!   streams varying. Fixed plans may be deliberately model-*illegal*
//!   (e.g. a partition that never heals) to demonstrate which paper
//!   assumption a violation traces back to.

use crate::compile::compile;
use crate::plan::{ChaosKind, ChaosPlan, DetectorKind, PlanSource};
use fd_campaign::scenario::SeedExecutor;
use fd_campaign::{run_plan, Monitor, NamedMonitor, RunOutcome, RunPlan, Scenario};
use fd_core::Standalone;
use fd_detectors::{
    HeartbeatConfig, HeartbeatDetector, RingConfig, RingDetector, StableLeaderConfig,
    StableLeaderDetector,
};
use fd_sim::{LinkMangler, LinkModel, NetworkConfig, ProcessId, SimDuration, Time, WorldCache};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Registry name of [`ChaosScenario`].
pub const CHAOS: &str = "chaos";

/// The canonical base network of every chaos run: eventually timely
/// links with GST at 300 ms and a post-GST bound of 4 ms; before GST,
/// delays are uniform up to 50 ms and 5% of messages are lost. The
/// chaos schedule perturbs *this* network, and heals restore links to
/// exactly these models.
pub fn base_net(n: usize) -> NetworkConfig {
    NetworkConfig::new(n).with_default(LinkModel::eventually_timely(
        Time::from_millis(300),
        SimDuration::from_millis(4),
        SimDuration::from_millis(50),
        0.05,
    ))
}

/// Horizon of generated plans: the latest generated intervention lands
/// before 1.7 s, leaving > 4 s of calm network for the detectors to
/// stabilize in — comfortably more than the adaptive timeouts can grow
/// to under the bounded windows generated here.
const GENERATED_HORIZON: Time = Time::from_secs(6);

/// Generator building block: isolate a random strict minority of
/// `plan.n` for a bounded window — opening 100..=`latest_start_ms` ms
/// in, lasting 100..=400 ms — then heal. The draw order from `rng` is
/// part of every generated plan's identity; do not reorder it.
pub fn push_minority_partition(
    plan: ChaosPlan,
    rng: &mut SmallRng,
    latest_start_ms: u64,
) -> ChaosPlan {
    let k = rng.gen_range(1..=(plan.n - 1) / 2);
    let mut pids: Vec<usize> = (0..plan.n).collect();
    let mut island = Vec::new();
    for _ in 0..k {
        island.push(ProcessId(pids.swap_remove(rng.gen_range(0..pids.len()))));
    }
    let mainland: Vec<ProcessId> = pids.into_iter().map(ProcessId).collect();
    let from = Time::from_millis(rng.gen_range(100..=latest_start_ms));
    let until = from + SimDuration::from_millis(rng.gen_range(100..=400));
    let groups = vec![island, mainland];
    plan.push(from, ChaosKind::Partition { groups })
        .push(until, ChaosKind::Heal)
}

/// Expand `seed` into a model-legal chaos plan (pure function of the
/// seed; see the module docs for the legality rules).
pub fn generate_plan(seed: u64) -> ChaosPlan {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc4a0_5bad_f00d);
    let n = rng.gen_range(4..=7);
    let detector = DetectorKind::ALL[(seed % 3) as usize];
    let mut plan = ChaosPlan::new(n, detector, GENERATED_HORIZON)
        .push(Time::from_millis(300), ChaosKind::GstMarker);

    if rng.gen_bool(0.75) {
        plan = push_minority_partition(plan, &mut rng, 500);
    }

    if rng.gen_bool(0.6) {
        // A bounded window of message mangling.
        let mangler = LinkMangler {
            drop: rng.gen_range(0.0..0.2),
            duplicate: rng.gen_range(0.0..0.15),
            reorder: rng.gen_range(0.0..0.5),
            skew: SimDuration::from_millis(rng.gen_range(1..=4)),
        };
        let from = Time::from_millis(rng.gen_range(50..=600));
        let until = from + SimDuration::from_millis(rng.gen_range(100..=400));
        plan = plan
            .push(from, ChaosKind::Mangle(mangler))
            .push(until, ChaosKind::Unmangle);
    }

    if rng.gen_bool(0.5) {
        // Crash one process; half the time it recovers (warm restart).
        let pid = ProcessId(rng.gen_range(0..n));
        let at = Time::from_millis(rng.gen_range(100..=900));
        plan = plan.push(at, ChaosKind::Crash { pid });
        if rng.gen_bool(0.5) {
            let back = at + SimDuration::from_millis(rng.gen_range(300..=700));
            plan = plan.push(back, ChaosKind::Restart { pid });
        }
    }

    debug_assert!(plan.validate().is_ok(), "generated plan must be legal");
    plan
}

/// The chaos scenario (registry name `"chaos"`).
pub struct ChaosScenario {
    source: PlanSource,
}

impl ChaosScenario {
    /// Seed-generated plans (the registry default).
    pub fn generated() -> ChaosScenario {
        ChaosScenario {
            source: PlanSource::Generated(generate_plan),
        }
    }

    /// Run `plan` for every seed (`--plan FILE`). Errors if the plan is
    /// internally inconsistent.
    pub fn fixed(plan: ChaosPlan) -> Result<ChaosScenario, String> {
        PlanSource::fixed(plan).map(|source| ChaosScenario { source })
    }
}

/// Recover the embedded [`ChaosPlan`] from a run plan's params.
pub fn chaos_plan_of(plan: &RunPlan) -> Result<ChaosPlan, String> {
    serde_json::from_value(plan.params.field("chaos"))
        .map_err(|e| format!("run plan carries no valid chaos plan: {e}"))
}

impl Scenario for ChaosScenario {
    fn name(&self) -> &str {
        CHAOS
    }

    fn plan(&self, seed: u64) -> RunPlan {
        let chaos = self.source.plan(seed);
        RunPlan::new(seed, chaos.horizon, base_net(chaos.n)).with_params(chaos_params(&chaos))
    }

    fn monitors(&self) -> Vec<Box<dyn Monitor>> {
        vec![NamedMonitor::boxed(fd_obs::keys::CHAOS_CLASS_AFTER_FAULTS)]
    }

    fn shrink_plan(&self, plan: &RunPlan) -> Vec<(String, RunPlan)> {
        let Ok(chaos) = chaos_plan_of(plan) else {
            return Vec::new();
        };
        chaos
            .drop_event_moves()
            .into_iter()
            .map(|(label, shrunk)| (label, plan.clone().with_params(chaos_params(&shrunk))))
            .collect()
    }

    fn make_executor(&self) -> Box<dyn SeedExecutor + '_> {
        Box::new(ChaosExecutor::default())
    }
}

/// The `RunPlan::params` object embedding `chaos`.
fn chaos_params(chaos: &ChaosPlan) -> serde::Value {
    serde::Value::Obj(vec![("chaos".to_string(), serde_json::to_value(chaos))])
}

/// Executor: one reusable world per detector family (each is a distinct
/// generic `World` instantiation). A reset restores the base network and
/// clears all chaos state (mangler, partition count), so reuse is
/// invisible in the results.
#[derive(Default)]
struct ChaosExecutor {
    hb: WorldCache<Standalone<HeartbeatDetector>>,
    ring: WorldCache<Standalone<RingDetector>>,
    leader: WorldCache<Standalone<StableLeaderDetector>>,
}

impl SeedExecutor for ChaosExecutor {
    fn execute(&mut self, plan: &RunPlan, obs: Option<&fd_obs::Registry>) -> RunOutcome {
        let chaos = chaos_plan_of(plan).expect("chaos scenario run plan");
        // A generic shrink move (e.g. "shrink n") can desync the run
        // plan from the embedded chaos plan; compiling then fails. Run
        // such candidates with no interventions at all — the missing
        // `chaos.expect_class` annotation makes the monitor report a
        // `chaos-expect-class` violation, which the shrinker's
        // same-property guard rejects, so the candidate is discarded
        // instead of panicking a worker.
        let interventions = compile(&chaos, &plan.net).unwrap_or_default();
        let (net, seed) = (plan.net.clone(), plan.seed);
        match chaos.detector {
            DetectorKind::Heartbeat => {
                let world = self.hb.arm(net, seed, obs, |pid, n| {
                    Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default()))
                });
                run_plan(world, plan, &interventions)
            }
            DetectorKind::Ring => {
                let world = self.ring.arm(net, seed, obs, |pid, n| {
                    Standalone(RingDetector::new(pid, n, RingConfig::default()))
                });
                run_plan(world, plan, &interventions)
            }
            DetectorKind::StableLeader => {
                let world = self.leader.arm(net, seed, obs, |pid, n| {
                    Standalone(StableLeaderDetector::new(
                        pid,
                        n,
                        StableLeaderConfig::default(),
                    ))
                });
                run_plan(world, plan, &interventions)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_plans_are_pure_functions_of_the_seed() {
        for seed in 0..50 {
            let a = generate_plan(seed);
            let b = generate_plan(seed);
            assert_eq!(a, b);
            a.validate().unwrap();
            assert!(a.quiet_point().unwrap() < a.horizon);
        }
    }

    #[test]
    fn seed_layout_cycles_all_detectors() {
        let kinds: Vec<DetectorKind> = (0..3).map(|s| generate_plan(s).detector).collect();
        assert_eq!(kinds, DetectorKind::ALL.to_vec());
    }

    #[test]
    fn every_generated_seed_upholds_its_class_after_faults() {
        let sc = ChaosScenario::generated();
        let monitors = sc.monitors();
        let mut ex = sc.make_executor();
        for seed in 0..30 {
            let outcome = ex.execute(&sc.plan(seed), None);
            for m in &monitors {
                m.check(&outcome).unwrap_or_else(|v| {
                    panic!("seed {seed} ({:?}): {v}", generate_plan(seed).detector)
                });
            }
            assert!(outcome.messages > 0, "seed {seed} moved no messages");
        }
    }

    #[test]
    fn fixed_plans_reject_invalid_input() {
        let bad = ChaosPlan::new(1, DetectorKind::Ring, Time::from_secs(1));
        assert!(ChaosScenario::fixed(bad).is_err());
    }

    #[test]
    fn shrink_moves_drop_single_events_and_crash_restart_pairs() {
        let chaos = ChaosPlan::new(4, DetectorKind::Heartbeat, Time::from_secs(5))
            .push(Time::from_millis(100), ChaosKind::GstMarker)
            .push(
                Time::from_millis(200),
                ChaosKind::Crash { pid: ProcessId(1) },
            )
            .push(
                Time::from_millis(600),
                ChaosKind::Restart { pid: ProcessId(1) },
            );
        let sc = ChaosScenario::fixed(chaos).unwrap();
        let plan = sc.plan(0);
        let moves = sc.shrink_plan(&plan);
        assert_eq!(moves.len(), 3, "one candidate per event");
        for (label, candidate) in &moves {
            let shrunk = chaos_plan_of(candidate).unwrap();
            shrunk
                .validate()
                .unwrap_or_else(|e| panic!("candidate {label:?} is invalid: {e}"));
            if label.contains("crash") {
                // The dependent restart went with it.
                assert_eq!(shrunk.events.len(), 1);
            } else {
                assert_eq!(shrunk.events.len(), 2);
            }
        }
    }
}
