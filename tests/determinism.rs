//! Reproducibility: the whole stack — detectors, broadcast, consensus —
//! replays bit-identically under the same seed, seeds actually matter,
//! and neither world reuse nor instrumentation shows in any campaign
//! scenario's results.

use ecfd::bench::campaign::{scenario_by_name, scenario_names};
use ecfd::prelude::*;

fn run(seed: u64) -> RunResult {
    let n = 5;
    let sc = Scenario::failure_free(n, seed, Time::from_secs(5))
        .with_crash(ProcessId(2), Time::from_millis(40));
    run_scenario(default_net(n), &sc, ec_node_hb)
}

#[test]
fn same_seed_same_everything() {
    let a = run(12345);
    let b = run(12345);
    assert_eq!(
        a.trace.events(),
        b.trace.events(),
        "traces must be identical"
    );
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.decide_time, b.decide_time);
    assert_eq!(a.metrics.sent_total(), b.metrics.sent_total());
}

#[test]
fn different_seeds_differ_somewhere() {
    let a = run(1);
    let b = run(2);
    // Values agree by chance or not, but the message schedules (jittered
    // link delays) will differ.
    assert_ne!(a.trace.events(), b.trace.events());
}

#[test]
fn seeded_replay_is_stable_across_detector_types() {
    let n = 4;
    let sc = Scenario::failure_free(n, 99, Time::from_secs(5));
    let a = run_scenario(default_net(n), &sc, fd_consensus::ec_node_leader);
    let b = run_scenario(default_net(n), &sc, fd_consensus::ec_node_leader);
    assert_eq!(a.trace.events(), b.trace.events());
}

/// Every registered scenario: the seeds one executor is fed in order, and
/// the params path naming the executor arm (= actor type, so one
/// `WorldCache` instantiation) a plan runs in. Every arm comes up at two
/// system sizes, so its cached world is reset both across `n` and back.
/// `scale` builds a world per plan (see `run_scale_plan`), so there the
/// table only pins that plans do not leak into each other.
const REUSE_SEEDS: [(&str, &[u64], &[&str], usize); 5] = [
    ("e8", &[0, 36, 72, 12, 48, 84, 0, 36, 72], &["proto"], 3),
    ("scale", &[2, 8, 4, 0, 2], &["class"], 3),
    (
        "chaos",
        &[0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2],
        &["chaos", "detector"],
        3,
    ),
    (
        "kv",
        &[0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2],
        &["kv", "chaos", "detector"],
        3,
    ),
    ("blind", &[0, 1, 0], &[], 1),
];

/// One executor fed a scenario's seed list — bare, then reporting into a
/// registry — must match a fresh, bare executor plan for plan: neither
/// the world cache nor instrumentation may show in any scenario's results.
#[test]
fn reused_executors_match_fresh_ones_in_every_scenario() {
    let names: Vec<&str> = REUSE_SEEDS.iter().map(|row| row.0).collect();
    assert_eq!(names, scenario_names(), "table must cover the registry");
    let registry = ecfd::obs::Registry::new();
    for (name, seeds, arm_path, arms) in REUSE_SEEDS {
        let sc = scenario_by_name(name).expect("registered");
        // The sizes each arm runs at, to hold the table to its promise.
        let mut sizes = std::collections::BTreeMap::<String, Vec<usize>>::new();
        for obs in [None, Some(&registry)] {
            let mut reused = sc.make_executor();
            for &seed in seeds {
                let plan = sc.plan(seed);
                let arm = arm_path.iter().fold(&plan.params, |v, key| v.field(key));
                sizes.entry(format!("{arm:?}")).or_default().push(plan.n());
                let r = reused.execute(&plan, obs);
                let f = sc.make_executor().execute(&plan, None);
                assert_eq!(
                    (r.trace.digest(), r.events, r.messages, r.n),
                    (f.trace.digest(), f.events, f.messages, f.n),
                    "{name} seed {seed} (observed: {})",
                    obs.is_some()
                );
            }
        }
        assert_eq!(sizes.len(), arms, "{name}: arms reached: {sizes:?}");
        if name != "scale" {
            for (arm, ns) in &sizes {
                let changes = ns.windows(2).filter(|w| w[0] != w[1]).count();
                assert!(
                    changes >= 2,
                    "{name} arm {arm}: n must change and change back: {ns:?}"
                );
            }
        }
    }
}
