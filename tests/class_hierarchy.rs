//! Cross-crate checks of the §3 class relationships on *implemented*
//! detectors: each implementation satisfies its claimed class, the
//! constructions built on top inherit the right properties, and the
//! classes genuinely differ (negative checks).

use ecfd::prelude::*;
use fd_core::Standalone;
use fd_detectors::{
    FusedConfig, FusedDetector, HeartbeatConfig, HeartbeatDetector, LeaderConfig, LeaderDetector,
    RingConfig, RingDetector,
};
use fd_sim::Trace;

const N: usize = 6;

fn run_detector<A: fd_sim::Actor>(
    crashes: &[(usize, u64)],
    seed: u64,
    make: impl FnMut(ProcessId, usize) -> A,
) -> (Trace, Time) {
    let net = NetworkConfig::new(N).with_default(LinkModel::reliable_uniform(
        SimDuration::from_millis(1),
        SimDuration::from_millis(3),
    ));
    let mut b = WorldBuilder::new(net).seed(seed);
    for &(pid, at) in crashes {
        b = b.crash_at(ProcessId(pid), Time::from_millis(at));
    }
    let mut w = b.build(make);
    let end = Time::from_secs(5);
    w.run_until_time(end);
    (w.into_results().0, end)
}

#[test]
fn heartbeat_is_ep_hence_everything_below() {
    let (trace, end) = run_detector(&[(1, 100), (4, 200)], 1, |pid, n| {
        Standalone(LeaderByFirstNonSuspected::new(
            HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
            n,
        ))
    });
    let run = FdRun::new(&trace, N, end);
    // ◇P ⟹ ◇Q, ◇S, ◇W, and (with the §3 leader recipe) Ω and ◇C.
    for class in fd_core::FdClass::ALL {
        run.check_class(class)
            .unwrap_or_else(|v| panic!("{class}: {v}"));
    }
}

#[test]
fn ring_is_ep_quality_and_a_good_ec_base() {
    let (trace, end) = run_detector(&[(0, 150)], 2, |pid, n| {
        Standalone(LeaderByFirstNonSuspected::new(
            RingDetector::new(pid, n, RingConfig::default()),
            n,
        ))
    });
    let run = FdRun::new(&trace, N, end);
    run.check_class(FdClass::EventuallyPerfect).unwrap();
    run.check_class(FdClass::EventuallyConsistent).unwrap();
    // Accuracy is real: only the crashed process is suspected.
    for p in run.correct().iter() {
        assert_eq!(run.final_suspects(p).len(), 1);
    }
}

#[test]
fn leader_detector_is_ec_but_not_strongly_accurate() {
    let (trace, end) = run_detector(&[(0, 150)], 3, |pid, n| {
        Standalone(LeaderDetector::new(pid, n, LeaderConfig::default()))
    });
    let run = FdRun::new(&trace, N, end);
    run.check_class(FdClass::EventuallyConsistent).unwrap();
    run.check_class(FdClass::EventuallyStrong).unwrap();
    // The Ω-grade construction is NOT eventually strongly accurate:
    // correct processes other than the leader stay suspected — the §3
    // "very poor accuracy" remark, as a negative test.
    assert!(run.check_eventual_strong_accuracy().is_err());
    assert!(run.check_class(FdClass::EventuallyPerfect).is_err());
}

#[test]
fn fused_detector_is_both_ep_and_ec() {
    let (trace, end) = run_detector(&[(2, 120)], 4, |pid, n| {
        Standalone(FusedDetector::new(pid, n, FusedConfig::default()))
    });
    let run = FdRun::new(&trace, N, end);
    run.check_class(FdClass::EventuallyPerfect).unwrap();
    run.check_class(FdClass::EventuallyConsistent).unwrap();
}

#[test]
fn suspect_all_but_leader_matches_the_omega_to_ec_construction() {
    let (trace, end) = run_detector(&[(0, 100)], 5, |pid, n| {
        Standalone(SuspectAllButLeader::new(
            LeaderDetector::new(pid, n, LeaderConfig::default()),
            n,
        ))
    });
    let run = FdRun::new(&trace, N, end);
    run.check_class(FdClass::EventuallyConsistent).unwrap();
    for p in run.correct().iter() {
        assert_eq!(
            run.final_suspects(p).len(),
            N - 1,
            "Ω→◇C suspects all but the leader"
        );
    }
}

#[test]
fn reducibility_table_matches_what_the_implementations_exhibit() {
    use fd_core::{FdClass::*, SystemModel::*};
    // The implemented constructions are instances of the §3 relations the
    // classes module encodes; spot-check that the table agrees.
    assert!(EventuallyConsistent.implementable_from(EventuallyPerfect, Asynchronous)); // heartbeat → ◇C
    assert!(EventuallyConsistent.implementable_from(Omega, Asynchronous)); // suspect-all-but-leader
    assert!(EventuallyPerfect.implementable_from(EventuallyConsistent, PartiallySynchronous)); // Fig. 2
    assert!(!EventuallyPerfect.implementable_from(EventuallyConsistent, Asynchronous));
    // needs GST
}

#[test]
fn the_hierarchy_survives_a_run_with_no_correct_process() {
    // `ecfd detector --kind ring --n 2 --crash 0@10 --crash 1@20`: every
    // process crashes, so "every correct process" clauses are vacuous
    // and "some correct process" clauses must be too — §3's ◇P ⊆ ◇C (and
    // every other inclusion of Fig. 1) holds on the verdicts themselves,
    // whatever the run, or the CLI prints "◇P: holds" above "◇C: violated".
    let n = 2;
    let end = Time::from_millis(200);
    let mut w = WorldBuilder::new(default_net(n))
        .seed(42)
        .crash_at(ProcessId(0), Time::from_millis(10))
        .crash_at(ProcessId(1), Time::from_millis(20))
        .build(|pid, n| {
            Standalone(LeaderByFirstNonSuspected::new(
                RingDetector::new(pid, n, RingConfig::default()),
                n,
            ))
        });
    w.run_until_time(end);
    let (trace, _) = w.into_results();
    let run = FdRun::new(&trace, n, end);
    assert!(run.correct().is_empty());
    run.check_class(FdClass::EventuallyPerfect).unwrap();
    for weaker in FdClass::ALL {
        run.check_class(weaker)
            .unwrap_or_else(|v| panic!("◇P holds but {weaker}: {v}"));
    }
}

#[test]
fn detectors_recover_from_a_healed_partition() {
    // A real burst partition (not probabilistic loss): p0 is cut off from
    // everyone in both directions for 400 ms, then the network heals.
    // The heartbeat detector must (a) suspect p0 during the partition and
    // (b) fully recover — eventual strong accuracy is about exactly this.
    use fd_chaos::{ChaosKind, ChaosPlan, DetectorKind};
    use fd_detectors::{HeartbeatConfig, HeartbeatDetector};
    let n = 4;
    let end = Time::from_secs(4);
    let net = NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
        SimDuration::from_millis(1),
        SimDuration::from_millis(3),
    ));
    let plan = ChaosPlan::new(n, DetectorKind::Heartbeat, end)
        .push(
            Time::from_millis(300),
            ChaosKind::Partition {
                groups: vec![vec![ProcessId(0)], (1..n).map(ProcessId).collect()],
            },
        )
        .push(Time::from_millis(700), ChaosKind::Heal);
    let mut w = WorldBuilder::new(net.clone())
        .seed(0xC0FFEE)
        .build(|pid, n| Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default())));
    for (at, intervention) in fd_chaos::compile(&plan, &net).unwrap() {
        w.schedule_intervention(at, intervention);
    }
    // Mid-partition: p0 must be suspected by the others (and vice versa).
    w.run_until_time(Time::from_millis(650));
    for i in 1..n {
        assert!(
            w.actor(ProcessId(i)).suspected().contains(ProcessId(0)),
            "p{i} must suspect the partitioned p0"
        );
    }
    assert_eq!(
        w.actor(ProcessId(0)).suspected().len(),
        n - 1,
        "p0 suspects everyone"
    );
    // After healing + timeout growth: full recovery, ◇P holds.
    w.run_until_time(end);
    let (trace, _) = w.into_results();
    let run = FdRun::new(&trace, n, end);
    run.check_class(FdClass::EventuallyPerfect).unwrap();
    for i in 0..n {
        assert!(
            run.final_suspects(ProcessId(i)).is_empty(),
            "p{i} must fully recover"
        );
    }
}

#[test]
fn restricted_heartbeat_is_quasi_perfect() {
    // Each process monitors only its ring successor: weak completeness
    // (only the monitor suspects a crashed process) but still eventual
    // STRONG accuracy (adaptive timeouts stop all false suspicions) —
    // the ◇Q cell of Fig. 1, often forgotten between ◇P and ◇W.
    use fd_detectors::{HeartbeatConfig, HeartbeatDetector};
    let (trace, end) = run_detector(&[(2, 150)], 6, |pid, n| {
        Standalone(HeartbeatDetector::restricted(
            pid,
            n,
            HeartbeatConfig::default(),
            ProcessSet::singleton(pid.predecessor(n)),
            ProcessSet::singleton(pid.successor(n)),
        ))
    });
    let run = FdRun::new(&trace, N, end);
    run.check_class(FdClass::EventuallyQuasiPerfect).unwrap();
    run.check_class(FdClass::EventuallyWeak).unwrap();
    assert!(
        run.check_class(FdClass::EventuallyPerfect).is_err(),
        "not strongly complete"
    );
    assert!(run.check_class(FdClass::EventuallyStrong).is_err());
}
