//! Built-in scenarios.
//!
//! [`BlindScenario`] is a deliberately broken detector — it never suspects
//! anyone — run against plans that always crash processes. Every seed
//! therefore violates strong completeness, which makes it the standard
//! end-to-end exercise (and demo) of the failure pipeline: campaign →
//! artifact → replay → shrink.

use crate::monitor::{Monitor, NamedMonitor};
use crate::plan::{run_plan, RunOutcome, RunPlan};
use crate::scenario::{Scenario, SeedExecutor};
use fd_core::{observe_suspects, observe_trusted, ProcessSet};
use fd_sim::prelude::*;
use fd_sim::WorldCache;

/// A detector module that is blind to failures: it reports an empty
/// suspect set forever, while heartbeating so runs still move messages.
struct BlindActor;

#[derive(Clone, Debug)]
struct Beat;

impl SimMessage for Beat {
    fn kind(&self) -> &'static str {
        fd_obs::keys::BLIND_HB
    }
}

const T_BEAT: TimerTag = TimerTag::new(b'b' as u32, 0, 0);
const BEAT_PERIOD: SimDuration = SimDuration::from_millis(100);

impl Actor for BlindActor {
    type Msg = Beat;

    fn on_start(&mut self, ctx: &mut Context<'_, Beat>) {
        observe_suspects(ctx, &ProcessSet::new());
        observe_trusted(ctx, ProcessId(0));
        ctx.set_timer(BEAT_PERIOD, T_BEAT);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Beat>, _from: ProcessId, _msg: Beat) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Beat>, _tag: TimerTag) {
        ctx.send_to_others(Beat);
        // Re-assert blindness, so the suspect history is non-trivial.
        observe_suspects(ctx, &ProcessSet::new());
        ctx.set_timer(BEAT_PERIOD, T_BEAT);
    }
}

/// The known-bad scenario: blind detectors plus seed-derived crash plans.
/// Every seed fails `fd.strong_completeness`.
pub struct BlindScenario;

/// Registry name of [`BlindScenario`].
pub const BLIND: &str = "blind";

impl Scenario for BlindScenario {
    fn name(&self) -> &str {
        BLIND
    }

    fn plan(&self, seed: u64) -> RunPlan {
        // Pure seed arithmetic — no RNG — so plans are trivially stable.
        let n = 4 + (seed % 3) as usize;
        let first = (seed % n as u64) as usize;
        let second = (first + 1 + (seed / 3 % (n as u64 - 1)) as usize) % n;
        RunPlan::new(seed, Time::from_secs(1), NetworkConfig::new(n))
            .with_crash(ProcessId(first), Time::from_millis(50 + seed % 100))
            .with_crash(ProcessId(second), Time::from_millis(200 + seed % 80))
    }

    fn monitors(&self) -> Vec<Box<dyn Monitor>> {
        vec![NamedMonitor::boxed(fd_obs::keys::FD_STRONG_COMPLETENESS)]
    }

    fn make_executor(&self) -> Box<dyn SeedExecutor + '_> {
        Box::new(BlindExecutor::default())
    }
}

/// Executor for [`BlindScenario`]: one reusable world of blind actors.
#[derive(Default)]
struct BlindExecutor {
    world: WorldCache<BlindActor>,
}

impl SeedExecutor for BlindExecutor {
    fn execute(&mut self, plan: &RunPlan, obs: Option<&fd_obs::Registry>) -> RunOutcome {
        let world = self
            .world
            .arm(plan.net.clone(), plan.seed, obs, |_, _| BlindActor);
        run_plan(world, plan, &[])
    }
}

/// Look up a scenario shipped with this crate by registry name.
pub fn builtin_scenario(name: &str) -> Option<Box<dyn Scenario>> {
    match name {
        BLIND => Some(Box::new(BlindScenario)),
        _ => None,
    }
}

/// Names of the scenarios shipped with this crate.
pub fn builtin_names() -> Vec<&'static str> {
    vec![BLIND]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        let sc = BlindScenario;
        for seed in 0..50 {
            let a = sc.plan(seed);
            let b = sc.plan(seed);
            assert_eq!(serde_json::to_string(&a), serde_json::to_string(&b));
            assert_eq!(a.crashes.len(), 2, "two distinct victims per plan");
            let (p, q) = (a.crashes[0].0, a.crashes[1].0);
            assert_ne!(p, q, "victims must differ (seed {seed})");
            assert!(p.index() < a.n() && q.index() < a.n());
        }
    }

    #[test]
    fn every_seed_violates_strong_completeness() {
        let sc = BlindScenario;
        for seed in [0u64, 1, 17, 999] {
            let outcome = sc.make_executor().execute(&sc.plan(seed), None);
            let [m] = &sc.monitors()[..] else {
                panic!("one monitor")
            };
            let err = m.check(&outcome).unwrap_err();
            assert_eq!(err.property, "strong-completeness");
            assert!(outcome.messages > 0, "heartbeats must flow");
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(builtin_scenario("blind").is_some());
        assert!(builtin_scenario("nope").is_none());
        assert_eq!(builtin_names(), vec!["blind"]);
    }
}
