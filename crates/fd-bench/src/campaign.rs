//! Campaign-engine scenarios for the experiments.
//!
//! [`E8Scenario`] ports experiment E8 (the Theorem 2 soundness sweep) to
//! `fd-campaign`: each seed expands deterministically into one consensus
//! run — protocol, system size, and crash plan all derived from the seed
//! — so the sweep can fan out over thousands of seeds in parallel while
//! staying bit-reproducible seed-for-seed.

use crate::scenarios::{jitter_net, Protocol};
use fd_campaign::scenario::SeedExecutor;
use fd_campaign::{Monitor, NamedMonitor, RunOutcome, RunPlan, Scenario};
use fd_consensus::{
    ct_node_hb, ec_node_hb, mr_node_leader, CtHbRunner, EcHbRunner, MrLeaderRunner, RunResult,
};
use fd_sim::{ProcessId, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The system sizes E8 sweeps (as in the serial experiment).
pub const E8_SIZES: [usize; 3] = [4, 5, 7];

/// Experiment E8 as a campaign scenario (registry name `"e8"`).
///
/// Seed layout: `seed / 12 mod 9` picks the (protocol, n) cell — three
/// protocols × three sizes, twelve consecutive seeds per cell before the
/// cells repeat — and the whole seed drives the crash plan and the world
/// RNG streams, so every seed is a distinct run. Sweeping `0..108`
/// reproduces the serial experiment's 12 runs per cell.
pub struct E8Scenario;

/// Registry name of [`E8Scenario`].
pub const E8: &str = "e8";

/// The (protocol, n) cell a seed belongs to.
pub fn e8_cell(seed: u64) -> (Protocol, usize) {
    let cell = (seed / 12) % 9;
    let proto = Protocol::ALL[(cell / 3) as usize];
    let n = E8_SIZES[(cell % 3) as usize];
    (proto, n)
}

fn proto_key(p: Protocol) -> &'static str {
    match p {
        Protocol::Ec => "ec",
        Protocol::Ct => "ct",
        Protocol::Mr => "mr",
        Protocol::Paxos => "paxos",
    }
}

impl Scenario for E8Scenario {
    fn name(&self) -> &str {
        E8
    }

    fn plan(&self, seed: u64) -> RunPlan {
        let (proto, n) = e8_cell(seed);
        // Same crash-plan derivation as the serial experiment: an RNG
        // keyed off (seed, n) picks how many of the < n/2 allowed crashes
        // happen, who, and when.
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(1000) + n as u64);
        let f_max = (n - 1) / 2;
        let crashes = rng.gen_range(0..=f_max);
        let mut plan = RunPlan::new(seed, Time::from_secs(30), jitter_net(n)).with_params(
            serde::Value::Obj(vec![(
                "proto".to_string(),
                serde::Value::Str(proto_key(proto).to_string()),
            )]),
        );
        let mut victims: Vec<usize> = (0..n).collect();
        for _ in 0..crashes {
            let idx = rng.gen_range(0..victims.len());
            let victim = victims.swap_remove(idx);
            let at = Time::from_millis(rng.gen_range(0..400));
            plan = plan.with_crash(ProcessId(victim), at);
        }
        plan
    }

    fn monitors(&self) -> Vec<Box<dyn Monitor>> {
        vec![
            NamedMonitor::boxed(fd_obs::keys::CONSENSUS_SAFETY),
            NamedMonitor::boxed(fd_obs::keys::CONSENSUS_TERMINATION),
        ]
    }

    fn check_plan(&self, plan: &RunPlan) -> Result<(), String> {
        let (proto, accepted) = (plan.params.field("proto"), Protocol::ALL.map(proto_key));
        match proto.as_str() {
            Some(p) if accepted.contains(&p) => Ok(()),
            _ => Err(format!(
                "param `proto` is {proto:?}; expected one of {accepted:?}"
            )),
        }
    }

    fn make_executor(&self) -> Box<dyn SeedExecutor + '_> {
        Box::new(E8Executor::default())
    }
}

/// Executor for [`E8Scenario`].
///
/// E8 interleaves three protocols, each a distinct generic `World`
/// instantiation, so the executor holds one world-reusing runner per
/// protocol; a worker sweeping the full seed space keeps all three warm
/// and rebuilds nothing between seeds.
#[derive(Default)]
struct E8Executor {
    ec: EcHbRunner,
    ct: CtHbRunner,
    mr: MrLeaderRunner,
}

impl SeedExecutor for E8Executor {
    fn execute(&mut self, plan: &RunPlan, obs: Option<&fd_obs::Registry>) -> RunOutcome {
        let mut sc = fd_consensus::Scenario::failure_free(plan.n(), plan.seed, plan.horizon);
        sc.crashes.clone_from(&plan.crashes);
        let net = plan.net.clone();
        let r: RunResult = match plan.params.field("proto").as_str() {
            Some("ec") => self.ec.run(net, &sc, ec_node_hb, obs),
            Some("ct") => self.ct.run(net, &sc, ct_node_hb, obs),
            Some("mr") => self.mr.run(net, &sc, mr_node_leader, obs),
            other => panic!("e8 plan names proto {other:?}, which check_plan rejects"),
        };
        RunOutcome {
            n: r.n,
            end: plan.horizon,
            decision_latency: r.decide_time.map(|t| t.since(Time::ZERO)),
            messages: r.metrics.sent_total(),
            events: r.metrics.events_processed(),
            trace: r.trace,
        }
    }
}

/// Look up a campaign scenario by registry name: the experiment
/// scenarios defined here, then the `fd-campaign` built-ins.
pub fn scenario_by_name(name: &str) -> Option<Box<dyn Scenario>> {
    match name {
        E8 => Some(Box::new(E8Scenario)),
        crate::scale::SCALE => Some(Box::new(crate::scale::ScaleScenario)),
        fd_chaos::CHAOS => Some(Box::new(fd_chaos::ChaosScenario::generated())),
        fd_kv::KV => Some(Box::new(fd_kv::KvScenario::generated())),
        _ => fd_campaign::builtin_scenario(name),
    }
}

/// Every scenario name [`scenario_by_name`] resolves.
pub fn scenario_names() -> Vec<&'static str> {
    let mut names = vec![E8, crate::scale::SCALE, fd_chaos::CHAOS, fd_kv::KV];
    names.extend(fd_campaign::builtin_names());
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_layout_covers_all_cells() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..108 {
            seen.insert({
                let (p, n) = e8_cell(seed);
                (proto_key(p), n)
            });
        }
        assert_eq!(seen.len(), 9, "3 protocols × 3 sizes");
        // Cells repeat beyond the first block but seeds stay distinct runs.
        assert_eq!(e8_cell(0), e8_cell(108));
    }

    #[test]
    fn plans_respect_the_crash_majority_bound() {
        let sc = E8Scenario;
        for seed in 0..60 {
            let plan = sc.plan(seed);
            let n = plan.n();
            assert!(E8_SIZES.contains(&n));
            assert!(2 * plan.crashes.len() < n, "f < n/2 (seed {seed})");
            assert!(plan.params.field("proto").as_str().is_some());
        }
    }

    #[test]
    fn registry_resolves_experiment_and_builtin_names() {
        assert!(scenario_by_name("e8").is_some());
        assert!(scenario_by_name("scale").is_some());
        assert!(scenario_by_name("chaos").is_some());
        assert!(scenario_by_name("kv").is_some());
        assert!(scenario_by_name("blind").is_some());
        assert!(scenario_by_name("nope").is_none());
        assert_eq!(
            scenario_names(),
            vec!["e8", "scale", "chaos", "kv", "blind"]
        );
    }
}
