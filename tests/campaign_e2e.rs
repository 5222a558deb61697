//! End-to-end tests of the campaign pipeline: parallel determinism on a
//! real experiment scenario, and the failure path (artifact → replay →
//! shrink) through the public registry the `ecfd campaign` subcommand
//! uses.

use ecfd::bench::campaign::scenario_by_name;
use ecfd::campaign::{replay, shrink, Artifact, Campaign};
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn e8_seed_results_are_independent_of_job_count() {
    let scenario = scenario_by_name("e8").expect("e8 is registered");
    let serial = Campaign::new(scenario.as_ref(), 0..6).jobs(1).run();
    let parallel = Campaign::new(scenario.as_ref(), 0..6).jobs(4).run();
    // Same per-seed verdicts AND byte-identical traces (same digests),
    // whatever the worker count.
    assert_eq!(serial.results, parallel.results);
    assert_eq!(serial.passed(), 6, "E8 seeds are sound runs");
    assert!(
        parallel.latency_stats().is_some(),
        "consensus runs report decision latency"
    );
}

#[test]
fn e8_seed_results_are_independent_of_instrumentation() {
    // The fd-obs contract: metrics collection reads wall clocks, never
    // simulation state, so per-seed verdicts — including trace digests
    // and deterministic event counts — are byte-identical with the
    // registry on or off.
    let scenario = scenario_by_name("e8").expect("e8 is registered");
    let bare = Campaign::new(scenario.as_ref(), 0..6).jobs(2).run();
    let registry = ecfd::obs::Registry::new();
    let observed = Campaign::new(scenario.as_ref(), 0..6)
        .jobs(2)
        .observe(&registry)
        .run();
    assert_eq!(bare.results, observed.results);

    // The instrumented sweep actually recorded kernel activity, and the
    // lock-free counter agrees with the deterministic per-seed sum.
    assert_eq!(
        registry.counter("sim.events").get(),
        observed.total_events(),
        "registry event counter vs summed RunOutcome events"
    );
    assert!(registry.histogram("sim.callback_ns").count() > 0);
    assert_eq!(observed.timings.len(), 6, "one timing row per seed");
    let util = observed.worker_utilization().expect("non-empty sweep");
    assert!((0.0..=1.0).contains(&util));
}

/// External dashboards consume the `--metrics-out` jsonl by key name:
/// this pins the serialized names of the shrink counters to the fd-obs
/// registry entries, so a registry rename cannot silently orphan the
/// rows downstream tooling greps for.
#[test]
fn shrink_metrics_serialize_under_their_registered_keys() {
    let dir = scratch_dir("shrink-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let registry = ecfd::obs::Registry::new();
    registry
        .counter(ecfd::obs::keys::CAMPAIGN_SHRINK_STEPS)
        .add(3);
    registry
        .counter(ecfd::obs::keys::CAMPAIGN_SHRINK_ATTEMPTS)
        .add(17);
    let path = dir.join("metrics.jsonl");
    ecfd::obs::write_jsonl_file(&path, &registry.snapshot()).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("campaign.shrink_steps"));
    assert!(text.contains("campaign.shrink_attempts"));
}

#[test]
fn known_bad_scenario_artifact_replays_and_shrinks() {
    let scenario = scenario_by_name("blind").expect("blind is registered");
    let dir = scratch_dir("blind-artifacts");
    let report = Campaign::new(scenario.as_ref(), 7..9)
        .jobs(2)
        .artifact_dir(&dir)
        .run();
    assert_eq!(report.failed(), 2);
    assert_eq!(
        report.artifacts.len(),
        2,
        "every failing seed writes an artifact"
    );

    // Load one artifact back from disk, as `ecfd campaign --replay` would.
    let loaded = Artifact::load(&report.artifacts[0]).unwrap();
    assert_eq!(loaded.property, "fd.strong_completeness");
    let replayed = replay(scenario.as_ref(), &loaded).unwrap();
    assert!(
        replayed.reproduced(),
        "replay must reproduce the recorded violation"
    );
    assert!(
        replayed.digest_matches,
        "replay must regenerate the identical trace"
    );

    // Shrink: strictly simpler plan, violation preserved.
    let shrunk = shrink(scenario.as_ref(), &loaded).unwrap();
    assert!(
        shrunk.artifact.plan.crashes.len() < loaded.plan.crashes.len()
            || shrunk.artifact.plan.n() < loaded.plan.n(),
        "shrinker must remove a crash or a process"
    );
    let still = replay(scenario.as_ref(), &shrunk.artifact).unwrap();
    assert!(
        still.reproduced(),
        "the minimized counterexample must still fail"
    );
}

/// A stale or hand-edited artifact that names a class / protocol the
/// executor has no world for is outside input: `replay` and `shrink`
/// must return an `Err` naming the param and the accepted values — not
/// panic, and not silently run some other stack.
#[test]
fn replay_rejects_artifacts_naming_an_unknown_class_or_proto() {
    for (name, param, bogus, accepted) in [
        ("scale", "class", "gossip", "vcube"),
        ("e8", "proto", "paxos", "mr"),
    ] {
        let scenario = scenario_by_name(name).expect("registered");
        let mut plan = scenario.plan(0);
        plan.params = serde::Value::Obj(vec![(param.into(), serde::Value::Str(bogus.into()))]);
        let artifact = Artifact {
            scenario: name.into(),
            seed: 0,
            property: scenario.monitors()[0].property().to_string(),
            detail: String::new(),
            digest: 0,
            plan,
        };
        for result in [
            replay(scenario.as_ref(), &artifact).map(drop),
            shrink(scenario.as_ref(), &artifact).map(drop),
        ] {
            let msg = result.expect_err("an unknown param value must not run");
            assert!(
                msg.contains(param) && msg.contains(bogus) && msg.contains(accepted),
                "{name}: {msg}"
            );
        }
    }
}
