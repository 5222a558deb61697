//! Cross-crate tests of the Fig. 2 transformation over *different* ◇C
//! bases — the paper notes the algorithm "only uses detector D to query
//! for its trusted process", so any ◇C (indeed any Ω) must work.

use ecfd::prelude::*;
use fd_detectors::{HeartbeatConfig, HeartbeatDetector, LeaderConfig, LeaderDetector};

fn jitter(n: usize) -> NetworkConfig {
    NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
        SimDuration::from_millis(1),
        SimDuration::from_millis(4),
    ))
}

#[test]
fn fig2_over_the_candidate_leader_detector() {
    let n = 5;
    let mut w = WorldBuilder::new(jitter(n))
        .seed(61)
        .crash_at(ProcessId(3), Time::from_millis(250))
        .build(|pid, n| {
            Stack::new(
                LeaderDetector::new(pid, n, LeaderConfig::default()),
                EcToEp::new(pid, n, EcToEpConfig::default()),
            )
        });
    let end = Time::from_secs(4);
    w.run_until_time(end);
    let (trace, _) = w.into_results();
    FdRun::new(&trace, n, end)
        .with_suspects_tag(EP_SUSPECTS_OUT)
        .check_class(FdClass::EventuallyPerfect)
        .unwrap();
}

#[test]
fn fig2_over_a_heartbeat_based_ec_detector() {
    // A different ◇C base: heartbeat ◇P + first-non-suspected leader.
    let n = 5;
    let mut w = WorldBuilder::new(jitter(n))
        .seed(62)
        .crash_at(ProcessId(1), Time::from_millis(300))
        .build(|pid, n| {
            Stack::new(
                LeaderByFirstNonSuspected::new(
                    HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                    n,
                ),
                EcToEp::new(pid, n, EcToEpConfig::default()),
            )
        });
    let end = Time::from_secs(4);
    w.run_until_time(end);
    let (trace, _) = w.into_results();
    let run = FdRun::new(&trace, n, end).with_suspects_tag(EP_SUSPECTS_OUT);
    run.check_class(FdClass::EventuallyPerfect).unwrap();
    // The underlying detector's own output is ALSO ◇P here — but the
    // transformed output must match the crashed set exactly too.
    for p in run.correct().iter() {
        assert_eq!(run.final_suspects(p).to_vec(), vec![ProcessId(1)]);
    }
}

#[test]
fn fig2_output_beats_the_poor_accuracy_of_its_own_base() {
    // The base ◇C here suspects n−1 processes (Ω-grade); the transformed
    // ◇P output converges to ∅ in a crash-free run — the transformation
    // *improves* accuracy, which is its entire point.
    let n = 4;
    let mut w = WorldBuilder::new(jitter(n)).seed(63).build(|pid, n| {
        Stack::new(
            LeaderDetector::new(pid, n, LeaderConfig::default()),
            EcToEp::new(pid, n, EcToEpConfig::default()),
        )
    });
    let end = Time::from_secs(3);
    w.run_until_time(end);
    let (trace, _) = w.into_results();
    let base = FdRun::new(&trace, n, end);
    let transformed = FdRun::new(&trace, n, end).with_suspects_tag(EP_SUSPECTS_OUT);
    for p in 0..n {
        let p = ProcessId(p);
        assert_eq!(
            base.final_suspects(p).len(),
            n - 1,
            "base suspects all but leader"
        );
        assert!(
            transformed.final_suspects(p).is_empty(),
            "transformed output is accurate"
        );
    }
}

#[test]
fn namespace_registry_is_consistent_across_crates() {
    // fd-broadcast mirrors the BROADCAST namespace constant (it cannot
    // depend on fd-detectors without inverting the crate DAG); make sure
    // the mirror never drifts.
    use fd_core::Component;
    let rb: fd_broadcast_rb = fd_broadcast::ReliableBroadcast::new(ProcessId(0));
    assert_eq!(rb.ns(), fd_detectors::ns::BROADCAST);
}

#[allow(non_camel_case_types)]
type fd_broadcast_rb = fd_broadcast::ReliableBroadcast<u64>;

#[test]
fn eventually_only_the_leaders_links_carry_messages() {
    // §4: "Eventually only these links carry messages" — after
    // stabilization, all periodic traffic of the Fig. 2 stack flows on
    // the leader's input and output links; no non-leader pair exchanges
    // anything.
    let n = 6;
    let leader = ProcessId(0);
    let mut w = WorldBuilder::new(jitter(n)).seed(64).build(|pid, n| {
        Stack::new(
            LeaderDetector::new(pid, n, LeaderConfig::default()),
            EcToEp::new(pid, n, EcToEpConfig::default()),
        )
    });
    let end = Time::from_secs(3);
    w.run_until_time(end);
    let (trace, _) = w.into_results();

    // Generous stabilization margin: ignore the first second.
    let cutoff = Time::from_secs(1);
    let mut off_leader = 0u64;
    for ev in trace.events() {
        if let fd_sim::TraceKind::Sent { from, to, kind, .. } = ev.kind {
            if ev.at >= cutoff && from != leader && to != leader {
                off_leader += 1;
                eprintln!("off-leader traffic: {from}->{to} {kind} at {}", ev.at);
            }
        }
    }
    assert_eq!(
        off_leader, 0,
        "non-leader links must fall silent after stabilization"
    );
}

#[test]
fn fig2_over_the_stable_leader_detector() {
    // Third ◇C base: the punish-ranked stable detector of [2]. Any
    // leader-providing detector must work under Fig. 2.
    use fd_detectors::{StableLeaderConfig, StableLeaderDetector};
    let n = 5;
    let mut w = WorldBuilder::new(jitter(n))
        .seed(65)
        .crash_at(ProcessId(2), Time::from_millis(300))
        .build(|pid, n| {
            Stack::new(
                StableLeaderDetector::new(pid, n, StableLeaderConfig::default()),
                EcToEp::new(pid, n, EcToEpConfig::default()),
            )
        });
    let end = Time::from_secs(4);
    w.run_until_time(end);
    let (trace, _) = w.into_results();
    FdRun::new(&trace, n, end)
        .with_suspects_tag(EP_SUSPECTS_OUT)
        .check_class(FdClass::EventuallyPerfect)
        .unwrap();
}
