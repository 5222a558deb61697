//! Whole-stack consensus runs over unusual substrates: ring-based ◇C,
//! partially synchronous links, staggered proposals, larger systems.

use ecfd::prelude::*;
use fd_consensus::{ConsensusNode, Decider, Ec, EcConsensus};
use fd_detectors::{RingConfig, RingDetector};

type RingEcNode = ConsensusNode<LeaderByFirstNonSuspected<RingDetector>, Ec>;

fn ring_ec_node(pid: ProcessId, n: usize) -> RingEcNode {
    Stack::new(
        LeaderByFirstNonSuspected::new(RingDetector::new(pid, n, RingConfig::default()), n),
        Decider::new(pid, EcConsensus::new(pid, n)),
    )
}

fn check_all(r: &RunResult) {
    ConsensusRun::new(&r.trace, r.n).check_all().unwrap();
}

#[test]
fn ec_consensus_over_the_ring_detector() {
    // The §3 "no additional cost" ◇C base, driving the §5 algorithm.
    let n = 5;
    let sc = Scenario::failure_free(n, 71, Time::from_secs(10))
        .with_crash(ProcessId(2), Time::from_millis(60));
    let r = run_scenario(default_net(n), &sc, ring_ec_node);
    assert!(r.all_decided);
    check_all(&r);
}

#[test]
fn ec_consensus_under_partial_synchrony() {
    // Eventually timely links with a 200ms GST (no loss — the consensus
    // algorithm itself assumes reliable links; only timing misbehaves).
    let n = 5;
    let net = NetworkConfig::partially_synchronous(
        n,
        Time::from_millis(200),
        SimDuration::from_millis(4),
        SimDuration::from_millis(100),
        0.0,
    );
    let sc = Scenario::failure_free(n, 72, Time::from_secs(20));
    let r = run_scenario(net, &sc, ec_node_hb);
    assert!(r.all_decided);
    check_all(&r);
}

#[test]
fn staggered_proposals_still_terminate() {
    // p4 proposes 200ms after everyone else: rounds churn (its null
    // estimates keep coordinators unblocked) until it joins, or the rest
    // decide without it — either way all correct processes decide.
    let n = 5;
    let net = default_net(n);
    let mut builder = WorldBuilder::new(net).seed(73);
    builder = builder.max_events(50_000_000);
    let mut world = builder.build(ec_node_hb);
    for i in 0..4 {
        world.interact(ProcessId(i), move |node, ctx| {
            node.with_above(ctx, |decider, ctx, _| decider.propose(ctx, 10 + i as u64))
        });
    }
    world.run_until_time(Time::from_millis(200));
    world.interact(ProcessId(4), |node, ctx| {
        node.with_above(ctx, |decider, ctx, _| decider.propose(ctx, 14))
    });
    let decided = world.run_until(Time::from_secs(20), |w| {
        w.correct()
            .iter()
            .all(|&p| w.actor(p).above.decision().is_some())
    });
    assert!(decided, "staggered run failed to decide");
    let (trace, _) = world.into_results();
    ConsensusRun::new(&trace, n).check_all().unwrap();
}

#[test]
fn larger_system_with_maximal_failures() {
    // n = 11, f = 5 = ⌈n/2⌉ − 1 crashes (the limit of Theorem 2).
    let n = 11;
    let mut sc = Scenario::failure_free(n, 74, Time::from_secs(30));
    for (i, at) in [(1usize, 30u64), (3, 60), (5, 90), (7, 120), (9, 150)] {
        sc = sc.with_crash(ProcessId(i), Time::from_millis(at));
    }
    let r = run_scenario(default_net(n), &sc, ec_node_hb);
    assert!(r.all_decided, "f = 5 < 11/2 must still terminate");
    check_all(&r);
}

#[test]
fn n_equals_one_degenerates_gracefully() {
    let sc = Scenario::failure_free(1, 75, Time::from_secs(1));
    let r = run_scenario(default_net(1), &sc, ec_node_hb);
    assert!(r.all_decided);
    assert_eq!(r.decided_value(), 100);
    check_all(&r);
}

#[test]
fn two_processes_need_both_alive() {
    // n = 2 ⟹ majority = 2 ⟹ f must be 0; a failure-free pair decides.
    let sc = Scenario::failure_free(2, 76, Time::from_secs(5));
    let r = run_scenario(default_net(2), &sc, ec_node_hb);
    assert!(r.all_decided);
    check_all(&r);
}

#[test]
fn all_processes_propose_the_same_value() {
    let n = 5;
    let sc = Scenario {
        seed: 77,
        crashes: vec![],
        proposals: vec![9; n],
        horizon: Time::from_secs(5),
    };
    let r = run_scenario(default_net(n), &sc, ec_node_hb);
    assert!(r.all_decided);
    assert_eq!(r.decided_value(), 9, "validity forces the unanimous value");
    check_all(&r);
}

#[test]
fn consensus_survives_a_burst_partition_of_the_leader() {
    // The leader p0 is cut off in both directions from 20 ms to 250 ms —
    // mid-round-1. Leadership must move (or be re-established after the
    // heal) and consensus still terminate and agree.
    use fd_chaos::{ChaosKind, ChaosPlan, DetectorKind};
    let n = 5;
    let horizon = Time::from_secs(30);
    let net = default_net(n);
    let plan = ChaosPlan::new(n, DetectorKind::Heartbeat, horizon)
        .push(
            Time::from_millis(20),
            ChaosKind::Partition {
                groups: vec![vec![ProcessId(0)], (1..n).map(ProcessId).collect()],
            },
        )
        .push(Time::from_millis(250), ChaosKind::Heal);
    let mut w = WorldBuilder::new(net.clone()).seed(78).build(ec_node_hb);
    for (at, intervention) in fd_chaos::compile(&plan, &net).unwrap() {
        w.schedule_intervention(at, intervention);
    }
    for i in 0..n {
        w.interact(ProcessId(i), |node, ctx| {
            node.with_above(ctx, |decider, ctx, _| decider.propose(ctx, 100 + i as u64))
        });
    }
    let all_decided = w.run_until(horizon, |w| {
        (0..n).all(|i| w.actor(ProcessId(i)).above.decision().is_some())
    });
    assert!(
        all_decided,
        "partition must not prevent termination after healing"
    );
    ConsensusRun::new(w.trace(), n).check_all().unwrap();
    // p0 was only partitioned, never crashed: it must decide too.
    assert!(
        w.actor(ProcessId(0)).above.decision().is_some(),
        "the partitioned leader catches up after the heal"
    );
}

#[test]
fn scales_to_sixty_three_processes() {
    // Well beyond anything the paper evaluates analytically: n = 63 with
    // ten crashes. Θ(n) message complexity is what makes this cheap for
    // the ◇C algorithm.
    let n = 63;
    let mut sc = Scenario::failure_free(n, 80, Time::from_secs(60));
    for k in 0..10usize {
        sc = sc.with_crash(ProcessId(3 + 6 * k), Time::from_millis(10 + 15 * k as u64));
    }
    let r = run_scenario(default_net(n), &sc, fd_consensus::ec_node_leader);
    assert!(r.all_decided, "f = 10 < 63/2 must terminate");
    check_all(&r);
}

#[test]
fn majority_crash_blocks_liveness_but_never_safety() {
    // The necessity side of Theorem 2's f < n/2 assumption: with half the
    // processes gone (f = n/2), no majority of estimates or acks can ever
    // assemble, so the algorithm must NOT decide — and must not violate
    // safety while stuck.
    let n = 4;
    let sc = Scenario::failure_free(n, 81, Time::from_secs(5))
        .with_crash(ProcessId(2), Time::from_millis(5))
        .with_crash(ProcessId(3), Time::from_millis(8));
    let r = run_scenario(default_net(n), &sc, ec_node_hb);
    assert!(!r.all_decided, "a crashed majority must block termination");
    assert!(r.decisions.iter().all(|d| d.is_none()), "nobody may decide");
    ConsensusRun::new(&r.trace, n).check_safety().unwrap();
}

#[test]
fn coordinator_crash_exactly_between_proposition_and_acks() {
    // Surgical fault injection made possible by constant-delay links:
    // with Δ = 5 ms, the round-1 coordinator p0 has received estimates at
    // ~2Δ and broadcast its proposition; crashing it at 2Δ + ε kills it
    // before any ack returns (acks land at 3Δ). Participants adopted the
    // proposition (ts = 1) — the locking mechanism of Lemma 2 — and the
    // next coordinator must carry that value forward.
    use fd_consensus::EcConsensus;
    use fd_detectors::ScriptedDetector;
    let n = 5;
    let delta = SimDuration::from_millis(5);
    let netc = NetworkConfig::new(n).with_default(LinkModel::reliable_const(delta));
    let sc = Scenario {
        seed: 90,
        crashes: vec![(ProcessId(0), Time(2 * delta.ticks() + 500))],
        proposals: vec![11, 22, 33, 44, 55],
        horizon: Time::from_secs(10),
    };
    let r = run_scenario(netc, &sc, |pid, n| {
        // Leadership: p0 until its crash is noticed, then p1 (scripted
        // at 4Δ to keep the scenario deterministic).
        let schedule = ScriptedDetector::from_schedule(vec![
            (
                Time::ZERO,
                fd_core::FdOutput {
                    suspected: ProcessSet::new(),
                    trusted: Some(ProcessId(0)),
                },
            ),
            (
                Time(4 * delta.ticks()),
                fd_core::FdOutput {
                    suspected: ProcessSet::singleton(ProcessId(0)),
                    trusted: Some(ProcessId(1)),
                },
            ),
        ]);
        scripted_node(pid, schedule, EcConsensus::new(pid, n))
    });
    assert!(r.all_decided);
    check_all(&r);
    // The dead coordinator's proposition had the largest (ts, value)
    // estimate: with all ts = 0, the lattice picks 55. Round 2's
    // coordinator gathers at least one ts = 1 estimate carrying it.
    assert_eq!(
        r.decided_value(),
        55,
        "the locked round-1 value must survive the crash"
    );
    assert!(r.max_decision_round().unwrap() >= 2);
}
