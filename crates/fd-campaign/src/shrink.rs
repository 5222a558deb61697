//! Greedy counterexample shrinking.
//!
//! Given an artifact whose plan violates a property, repeatedly try
//! simpler plans — drop a crash, remove a process, shorten the horizon,
//! reduce link loss, plus any scenario-specific moves contributed via
//! [`Scenario::shrink_plan`] — keeping any mutation under which the same
//! property still fails. The result is a locally minimal counterexample:
//! no single remaining simplification preserves the failure.
//!
//! The horizon is shortened only for a property in
//! [`fd_core::PREFIX_CLOSED_CHECKS`]: any other can fail on a prefix of a
//! run that satisfies it (nobody has decided *yet*). A candidate runs
//! only if [`Scenario::check_plan`] accepts it, as its replay would.

use crate::artifact::Artifact;
use crate::monitor::check_property;
use crate::plan::RunPlan;
use crate::scenario::Scenario;
use fd_sim::{LinkModel, Time};

/// Hard cap on candidate executions, so a pathological scenario cannot
/// spin the shrinker forever.
const MAX_ATTEMPTS: usize = 512;

/// The result of a shrink pass.
#[derive(Debug)]
pub struct ShrinkOutcome {
    /// The minimized artifact (same scenario/seed/property, simpler plan,
    /// updated digest and detail).
    pub artifact: Artifact,
    /// The accepted simplifications, in order.
    pub applied: Vec<String>,
    /// Total candidate plans executed.
    pub attempts: usize,
}

impl ShrinkOutcome {
    /// Human-readable summary (what `ecfd campaign --replay --shrink`
    /// prints): the step and attempt counts, then one line per accepted
    /// simplification.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "shrunk in {} accepted steps ({} attempts):",
            self.applied.len(),
            self.attempts
        );
        for step in &self.applied {
            let _ = writeln!(out, "  - {step}");
        }
        out
    }
}

/// Greedily minimize `artifact`'s plan while its property keeps failing.
/// Errors if the original plan does not actually violate the property
/// (a stale or hand-edited artifact).
pub fn shrink(scenario: &dyn Scenario, artifact: &Artifact) -> Result<ShrinkOutcome, String> {
    scenario.check_plan(&artifact.plan)?;
    // One executor and monitor set for every candidate: a shrink pass is
    // a sweep over plans, so it reuses worlds exactly like a seed sweep.
    let mut executor = scenario.make_executor();
    let monitors = scenario.monitors();
    let mut still_fails = |plan: &RunPlan| -> Result<Option<(fd_core::Violation, u64)>, String> {
        let outcome = executor.execute(plan, None);
        let check = check_property(&monitors, &artifact.property, &outcome)?;
        Ok(check.err().map(|v| (v, outcome.trace.digest())))
    };

    let (first, mut digest) = still_fails(&artifact.plan)?.ok_or_else(|| {
        format!(
            "plan does not violate {:?} — nothing to shrink",
            artifact.property
        )
    })?;
    // A candidate must reproduce the *same* violation, not merely any
    // failure of the check: composite checks (class membership, the
    // chaos vacuity guard) can fail for unrelated reasons, and a
    // "shrink" that swaps one bug for another is not a minimization.
    let wanted = first.property;
    let mut detail = first.to_string();

    let mut current = artifact.plan.clone();
    let mut applied = Vec::new();
    let mut attempts = 0usize;
    'progress: loop {
        let moves = candidates(&current, &artifact.property)
            .into_iter()
            .chain(scenario.shrink_plan(&current));
        for (label, candidate) in moves {
            if attempts >= MAX_ATTEMPTS {
                break 'progress;
            }
            if scenario.check_plan(&candidate).is_err() {
                continue;
            }
            attempts += 1;
            if let Some((v, g)) = still_fails(&candidate)? {
                if v.property != wanted {
                    continue;
                }
                current = candidate;
                detail = v.to_string();
                digest = g;
                applied.push(label);
                continue 'progress;
            }
        }
        break;
    }

    Ok(ShrinkOutcome {
        artifact: Artifact {
            detail,
            digest,
            plan: current,
            ..artifact.clone()
        },
        applied,
        attempts,
    })
}

/// The single-step simplifications of a plan violating `property`, most
/// aggressive first.
fn candidates(plan: &RunPlan, property: &str) -> Vec<(String, RunPlan)> {
    let mut out = Vec::new();
    for i in 0..plan.crashes.len() {
        let (pid, at) = plan.crashes[i];
        out.push((format!("drop crash {pid}@{at}"), plan.without_crash(i)));
    }
    let n = plan.n();
    if n > 1 && plan.crashes.iter().all(|(p, _)| p.index() < n - 1) {
        out.push((format!("shrink n to {}", n - 1), plan.shrunk_to(n - 1)));
    }
    let shorter = Time(plan.horizon.ticks() / 4 * 3);
    let prefix_closed = fd_core::PREFIX_CLOSED_CHECKS.contains(&property);
    if prefix_closed && shorter > Time::ZERO && shorter < plan.horizon {
        out.push((
            format!("shorten horizon to {shorter}"),
            plan.with_horizon(shorter),
        ));
    }
    let healed = plan.net.map_links(reduce_loss);
    if serde_json::to_string(&healed) != serde_json::to_string(&plan.net) {
        let mut p = plan.clone();
        p.net = healed;
        out.push(("reduce link loss".to_string(), p));
    }
    out
}

/// Halve every loss probability in a link model (clearing probabilities
/// already below 1%). Dead links stay dead — they model partitions, not
/// noise.
fn reduce_loss(model: &LinkModel) -> LinkModel {
    let halve = |p: f64| if p < 0.01 { 0.0 } else { p / 2.0 };
    match model {
        LinkModel::FairLossy { delay, drop } if *drop > 0.0 => LinkModel::FairLossy {
            delay: *delay,
            drop: halve(*drop),
        },
        LinkModel::EventuallyTimely {
            gst,
            bound,
            pre_delay,
            pre_drop,
        } if *pre_drop > 0.0 => LinkModel::EventuallyTimely {
            gst: *gst,
            bound: *bound,
            pre_delay: *pre_delay,
            pre_drop: halve(*pre_drop),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::BlindScenario;
    use crate::engine::Campaign;
    use crate::replay;

    #[test]
    fn shrinks_blind_counterexample_to_one_crash() {
        let sc = BlindScenario;
        let (_, artifact) = Campaign::run_seed(&sc, 1);
        let artifact = artifact.expect("blind seeds fail");
        let before = artifact.plan.crashes.len();
        assert!(before >= 2, "the blind plan schedules several crashes");

        let out = shrink(&sc, &artifact).unwrap();
        // One unsuspected crash suffices for the violation, so the greedy
        // pass must have dropped the rest.
        assert_eq!(out.artifact.plan.crashes.len(), 1);
        // Strong completeness is a liveness property ("eventually
        // suspected"): a shorter run could fail it only because the
        // crash is not yet detected, so the horizon stays.
        assert_eq!(
            out.artifact.plan.horizon, artifact.plan.horizon,
            "horizon kept"
        );
        assert!(!out.applied.is_empty());
        assert!(out.attempts >= out.applied.len());

        // The minimized artifact still replays to a failure.
        let replayed = replay(&sc, &out.artifact).unwrap();
        assert!(replayed.reproduced());
        assert!(replayed.digest_matches);
    }

    /// The blind scenario, but its `check_plan` refuses fewer than three
    /// processes.
    struct AtLeastThree(BlindScenario);

    impl Scenario for AtLeastThree {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn plan(&self, seed: u64) -> RunPlan {
            self.0.plan(seed)
        }
        fn monitors(&self) -> Vec<Box<dyn crate::Monitor>> {
            self.0.monitors()
        }
        fn check_plan(&self, plan: &RunPlan) -> Result<(), String> {
            match plan.n() {
                n if n < 3 => Err(format!("n = {n} < 3")),
                _ => Ok(()),
            }
        }
        fn make_executor(&self) -> Box<dyn crate::SeedExecutor + '_> {
            self.0.make_executor()
        }
    }

    #[test]
    fn candidates_the_scenario_refuses_never_run() {
        // p0 crashes unsuspected: the violation survives every cut of n
        // down to 2 (at n = 1 nobody is left to suspect it).
        let artifact = Artifact {
            scenario: "blind".into(),
            seed: 0,
            property: "fd.strong_completeness".into(),
            detail: String::new(),
            digest: 0,
            plan: RunPlan::new(0, Time::from_secs(1), fd_sim::NetworkConfig::new(4))
                .with_crash(fd_sim::ProcessId(0), Time::from_millis(50)),
        };
        let free = shrink(&BlindScenario, &artifact).unwrap();
        assert_eq!(free.artifact.plan.n(), 2, "{:?}", free.applied);

        let floor = shrink(&AtLeastThree(BlindScenario), &artifact).unwrap();
        assert_eq!(floor.artifact.plan.n(), 3, "{:?}", floor.applied);
        assert!(!floor.applied.iter().any(|s| s == "shrink n to 2"));
        assert!(floor.attempts < free.attempts, "the refused cut never ran");
    }

    #[test]
    fn refuses_to_shrink_a_passing_plan() {
        let sc = BlindScenario;
        let (_, artifact) = Campaign::run_seed(&sc, 2);
        let mut artifact = artifact.unwrap();
        artifact.plan.crashes.clear();
        let err = shrink(&sc, &artifact).unwrap_err();
        assert!(err.contains("does not violate"), "{err}");
    }

    #[test]
    fn outcome_renders_counts_then_one_line_per_step() {
        let out = ShrinkOutcome {
            artifact: Artifact {
                scenario: "blind".into(),
                seed: 1,
                property: "fd.strong_completeness".into(),
                detail: String::new(),
                digest: 0,
                plan: RunPlan::new(1, Time::from_secs(1), fd_sim::NetworkConfig::new(2)),
            },
            applied: vec!["drop crash of p3".into(), "halve horizon".into()],
            attempts: 9,
        };
        assert_eq!(
            out.render(),
            "shrunk in 2 accepted steps (9 attempts):\n  - drop crash of p3\n  - halve horizon\n"
        );
    }

    #[test]
    fn loss_reduction_touches_lossy_links_only() {
        use fd_sim::SimDuration;
        let lossy = LinkModel::fair_lossy(SimDuration(1), SimDuration(2), 0.8);
        match reduce_loss(&lossy) {
            LinkModel::FairLossy { drop, .. } => assert!((drop - 0.4).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
        let faint = LinkModel::fair_lossy(SimDuration(1), SimDuration(2), 0.005);
        match reduce_loss(&faint) {
            LinkModel::FairLossy { drop, .. } => assert_eq!(drop, 0.0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(reduce_loss(&LinkModel::Dead), LinkModel::Dead);
        let reliable = LinkModel::reliable_const(SimDuration(3));
        assert_eq!(reduce_loss(&reliable), reliable);
    }
}
