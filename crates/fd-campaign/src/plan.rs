//! Run plans and run outcomes — the serializable contract between a
//! scenario, the campaign engine, and repro artifacts.

use fd_sim::{Actor, Intervention, NetworkConfig, ProcessId, SimDuration, Time, Trace, World};
use serde::{Deserialize, Serialize};

/// Everything needed to reproduce one simulated run, independent of the
/// process that produced it: the seed, the crash plan, the link
/// configuration, and the horizon. Executing a plan must be a pure
/// function of the plan, which is what makes artifacts replayable and
/// plans shrinkable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunPlan {
    /// The run seed (drives every RNG stream in the world).
    pub seed: u64,
    /// Give up at this simulated time.
    pub horizon: Time,
    /// Scheduled crash-stop failures.
    pub crashes: Vec<(ProcessId, Time)>,
    /// The link configuration (which also fixes `n`).
    pub net: NetworkConfig,
    /// Scenario-specific knobs (protocol choice, workload size, …),
    /// carried opaquely so artifacts stay self-contained.
    pub params: serde::Value,
}

impl RunPlan {
    /// A plan over `net` with no crashes and no extra parameters.
    pub fn new(seed: u64, horizon: Time, net: NetworkConfig) -> RunPlan {
        RunPlan {
            seed,
            horizon,
            crashes: Vec::new(),
            net,
            params: serde::Value::Null,
        }
    }

    /// Number of processes (defined by the network configuration).
    pub fn n(&self) -> usize {
        self.net.n()
    }

    /// Add a crash.
    pub fn with_crash(mut self, pid: ProcessId, at: Time) -> RunPlan {
        assert!(pid.index() < self.n(), "crash target out of range");
        self.crashes.push((pid, at));
        self
    }

    /// Attach scenario parameters.
    pub fn with_params(mut self, params: serde::Value) -> RunPlan {
        self.params = params;
        self
    }

    /// A copy without the `i`-th crash (shrinker move).
    pub(crate) fn without_crash(&self, i: usize) -> RunPlan {
        let mut p = self.clone();
        p.crashes.remove(i);
        p
    }

    /// A copy with a different horizon (shrinker move).
    pub(crate) fn with_horizon(&self, horizon: Time) -> RunPlan {
        let mut p = self.clone();
        p.horizon = horizon;
        p
    }

    /// A copy restricted to the first `new_n` processes. The caller must
    /// ensure no crash references a removed process.
    pub(crate) fn shrunk_to(&self, new_n: usize) -> RunPlan {
        debug_assert!(self.crashes.iter().all(|(p, _)| p.index() < new_n));
        let mut p = self.clone();
        p.net = self.net.shrunk_to(new_n);
        p
    }
}

/// What one executed run yields: the trace (for property checking) plus
/// the headline numbers the campaign report aggregates.
#[derive(Debug)]
pub struct RunOutcome {
    /// The full event trace.
    pub trace: Trace,
    /// Number of processes in the run.
    pub n: usize,
    /// The instant the run was stopped (bounds the FD-style checks).
    pub end: Time,
    /// Time from start to the last correct process deciding, if the
    /// scenario measures decisions.
    pub decision_latency: Option<SimDuration>,
    /// Total messages sent.
    pub messages: u64,
    /// Kernel events processed. Deterministic per plan (the kernel loop
    /// is a pure function of the plan), so it is safe to compare across
    /// worker counts and instrumentation settings.
    pub events: u64,
}

/// Run `plan` to its horizon in a freshly armed `world` (see
/// [`fd_sim::WorldCache::arm`]): schedule the plan's crashes, then the
/// compiled fault `interventions`, run, and take the results. Every
/// executor that runs a plan to a fixed horizon goes through here, so
/// the scheduling order — which fixes event sequence numbers, hence
/// digests — is defined once.
pub fn run_plan<A: Actor>(
    world: &mut World<A>,
    plan: &RunPlan,
    interventions: &[(Time, Intervention)],
) -> RunOutcome {
    for &(pid, at) in &plan.crashes {
        world.schedule_crash(pid, at);
    }
    for (at, intervention) in interventions {
        world.schedule_intervention(*at, intervention.clone());
    }
    world.run_until_time(plan.horizon);
    let n = world.n();
    let (trace, metrics) = world.take_results();
    RunOutcome {
        trace,
        n,
        end: plan.horizon,
        decision_latency: None,
        messages: metrics.sent_total(),
        events: metrics.events_processed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_through_json() {
        let plan = RunPlan::new(7, Time::from_secs(2), NetworkConfig::new(4))
            .with_crash(ProcessId(1), Time::from_millis(50))
            .with_params(serde::Value::Obj(vec![(
                "proto".to_string(),
                serde::Value::Str("ec".to_string()),
            )]));
        let json = serde_json::to_string(&plan).unwrap();
        let back: RunPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seed, 7);
        assert_eq!(back.n(), 4);
        assert_eq!(back.horizon, Time::from_secs(2));
        assert_eq!(back.crashes, vec![(ProcessId(1), Time::from_millis(50))]);
        assert_eq!(back.params.field("proto").as_str(), Some("ec"));
        // Determinism: serializing again yields identical bytes.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    #[test]
    fn shrinker_moves_preserve_the_rest() {
        let plan = RunPlan::new(1, Time::from_secs(1), NetworkConfig::new(5))
            .with_crash(ProcessId(0), Time::from_millis(10))
            .with_crash(ProcessId(3), Time::from_millis(20));
        let p = plan.without_crash(0);
        assert_eq!(p.crashes, vec![(ProcessId(3), Time::from_millis(20))]);
        let p = plan.with_horizon(Time::from_millis(300));
        assert_eq!(p.horizon, Time::from_millis(300));
        assert_eq!(p.crashes.len(), 2);
        let p = plan.shrunk_to(4);
        assert_eq!(p.n(), 4);
    }
}
