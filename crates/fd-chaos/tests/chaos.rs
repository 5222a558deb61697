//! End-to-end chaos contracts: JSON-roundtripped plans replay
//! byte-identically, campaign sweeps are digest-identical across worker
//! counts, and the shrinker minimizes a fault schedule down to the one
//! intervention that actually causes the violation.

use fd_campaign::{replay, Campaign, Scenario};
use fd_chaos::{chaos_plan_of, generate_plan, ChaosKind, ChaosPlan, ChaosScenario, DetectorKind};
use fd_sim::{LinkMangler, ProcessId, SimDuration, Time};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A generated plan survives serialize → deserialize unchanged, and
    /// the deserialized copy replays to the byte-identical trace: the
    /// JSON artifact alone is a complete reproduction recipe.
    #[test]
    fn roundtripped_plan_replays_byte_identically(seed in any::<u64>()) {
        let plan = generate_plan(seed);
        let json = serde_json::to_string(&plan).unwrap();
        let back: ChaosPlan = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);

        let original = ChaosScenario::fixed(plan).unwrap();
        let restored = ChaosScenario::fixed(back).unwrap();
        let a = original.make_executor().execute(&original.plan(seed), None);
        let b = restored.make_executor().execute(&restored.plan(seed), None);
        prop_assert_eq!(a.trace.digest(), b.trace.digest());
        prop_assert_eq!(a.events, b.events);
    }
}

/// The headline determinism guarantee: the same seed range produces the
/// same per-seed digests whether the sweep runs on one worker or many —
/// world reuse, work stealing, and completion order are all invisible.
#[test]
fn sweep_digests_are_identical_across_job_counts() {
    let sc = ChaosScenario::generated();
    let serial = Campaign::new(&sc, 0..48).jobs(1).run();
    let parallel = Campaign::new(&sc, 0..48).jobs(4).run();
    assert_eq!(serial.results.len(), parallel.results.len());
    for (a, b) in serial.results.iter().zip(parallel.results.iter()) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.digest, b.digest, "seed {} digest diverged", a.seed);
        assert_eq!(a.events, b.events, "seed {}", a.seed);
        assert_eq!(a.violation, b.violation, "seed {}", a.seed);
    }
    assert_eq!(serial.failed(), 0, "generated plans are model-legal");
}

/// The full-size version of the cross-jobs determinism check — the
/// EXPERIMENTS.md headline run. Ignored by default (several seconds);
/// run with `cargo test -p fd-chaos --release -- --ignored`.
#[test]
#[ignore = "heavyweight: 2 × 1000-seed sweeps"]
fn thousand_seed_sweep_is_deterministic_across_job_counts() {
    let sc = ChaosScenario::generated();
    let serial = Campaign::new(&sc, 0..1000).jobs(1).run();
    let parallel = Campaign::new(&sc, 0..1000).jobs(4).run();
    for (a, b) in serial.results.iter().zip(parallel.results.iter()) {
        assert_eq!((a.seed, a.digest, a.events), (b.seed, b.digest, b.events));
    }
    assert_eq!(serial.failed(), 0);
    assert_eq!(parallel.failed(), 0);
}

/// The fixed plan of the shrinker test: a partition that never heals
/// (model-illegal on purpose — it suspends §2.1 link fairness forever),
/// buried in removable noise: a GST marker, a bounded mangle window,
/// and a crash/restart pair.
fn unhealed_partition_plan() -> ChaosPlan {
    ChaosPlan::new(4, DetectorKind::Heartbeat, Time::from_secs(3))
        .push(Time::from_millis(300), ChaosKind::GstMarker)
        .push(
            Time::from_millis(400),
            ChaosKind::Partition {
                groups: vec![
                    vec![ProcessId(0)],
                    vec![ProcessId(1), ProcessId(2), ProcessId(3)],
                ],
            },
        )
        .push(
            Time::from_millis(600),
            ChaosKind::Mangle(LinkMangler {
                drop: 0.2,
                duplicate: 0.1,
                reorder: 0.2,
                skew: SimDuration::from_millis(2),
            }),
        )
        .push(Time::from_millis(800), ChaosKind::Unmangle)
        .push(
            Time::from_millis(500),
            ChaosKind::Crash { pid: ProcessId(2) },
        )
        .push(
            Time::from_millis(900),
            ChaosKind::Restart { pid: ProcessId(2) },
        )
}

/// Shrinking a chaos counterexample minimizes the *schedule*: every
/// event irrelevant to the violation is dropped, the same property keeps
/// failing at every accepted step, and the minimized artifact still
/// replays. The surviving event names the root cause — the partition
/// that never heals.
#[test]
fn shrinker_reduces_to_the_unhealed_partition() {
    let sc = ChaosScenario::fixed(unhealed_partition_plan()).unwrap();
    let (result, artifact) = Campaign::run_seed(&sc, 7);
    assert!(!result.passed(), "an unhealed partition must violate ◇P");
    let artifact = artifact.expect("failing seed yields an artifact");
    assert_eq!(artifact.property, "chaos.class_after_faults");

    let out = fd_campaign::shrink(&sc, &artifact).unwrap();
    assert!(!out.applied.is_empty(), "the noise events must shrink away");
    assert_eq!(out.artifact.property, artifact.property);

    let minimized = chaos_plan_of(&out.artifact.plan).unwrap();
    assert_eq!(
        minimized.events.len(),
        1,
        "only the causal event survives: {:?}",
        minimized.events
    );
    assert!(
        matches!(minimized.events[0].kind, ChaosKind::Partition { .. }),
        "the surviving event is the unhealed partition"
    );

    let replayed = replay(&sc, &out.artifact).unwrap();
    assert!(replayed.reproduced(), "minimized artifact must reproduce");
    assert!(replayed.digest_matches, "minimized digest must be stable");
}
