//! End-to-end tests of the three consensus protocols (Theorem 2 and the
//! §5.4 comparison points).

use fd_consensus::{
    ct_node_hb, ec_node_hb, ec_node_leader, mr_node_leader, run_scenario, scripted_node,
    CtConsensus, Decider, EcConsensus, MrConsensus, RunResult, Scenario,
};
use fd_core::{ConsensusRun, Stack};
use fd_detectors::ScriptedDetector;
use fd_sim::{NetworkConfig, ProcessId, SimDuration, Time};

fn net(n: usize) -> NetworkConfig {
    fd_consensus::default_net(n)
}

fn check(result: &RunResult) {
    let run = ConsensusRun::new(&result.trace, result.n);
    run.check_safety().unwrap();
    if result.all_decided {
        run.check_all().unwrap();
    }
}

// ---------------------------------------------------------------- ◇C ---

#[test]
fn ec_failure_free_decides_quickly() {
    let n = 5;
    let sc = Scenario::failure_free(n, 1, Time::from_secs(5));
    let r = run_scenario(net(n), &sc, ec_node_hb);
    assert!(r.all_decided, "no decision before horizon");
    check(&r);
    // p0 is the stable leader from the start; consensus lands in round 1.
    assert_eq!(r.max_decision_round(), Some(1));
    // Validity: the decided value is one of the proposals.
    assert!(sc.proposals.contains(&r.decided_value()));
}

#[test]
fn ec_with_leader_grade_detector_also_decides() {
    let n = 5;
    let sc = Scenario::failure_free(n, 2, Time::from_secs(5));
    let r = run_scenario(net(n), &sc, ec_node_leader);
    assert!(r.all_decided);
    check(&r);
    assert_eq!(r.max_decision_round(), Some(1));
}

#[test]
fn ec_tolerates_minority_crashes() {
    let n = 5;
    let sc = Scenario::failure_free(n, 3, Time::from_secs(10))
        .with_crash(ProcessId(3), Time::from_millis(20))
        .with_crash(ProcessId(4), Time::from_millis(35));
    let r = run_scenario(net(n), &sc, ec_node_hb);
    assert!(r.all_decided, "f = 2 < n/2 must not prevent termination");
    check(&r);
}

#[test]
fn ec_survives_leader_crash_mid_protocol() {
    // p0 (the initial leader/coordinator) crashes 15ms in — likely while
    // coordinating round 1. Leadership must move and consensus complete.
    let n = 5;
    let sc = Scenario::failure_free(n, 4, Time::from_secs(10))
        .with_crash(ProcessId(0), Time::from_millis(15));
    let r = run_scenario(net(n), &sc, ec_node_hb);
    assert!(r.all_decided);
    check(&r);
}

#[test]
fn ec_decides_one_round_after_scripted_stabilization() {
    // All processes self-elect until t = 100ms (the paper's worst case
    // for Phase 0), then agree on p2. Consensus must land in the first
    // round the stable leader coordinates.
    let n = 5;
    let stab = Time::from_millis(100);
    let sc = Scenario::failure_free(n, 5, Time::from_secs(10));
    let r = run_scenario(net(n), &sc, |pid, n| {
        scripted_node(
            pid,
            ScriptedDetector::chaos_then_leader(pid, n, stab, ProcessId(2)),
            EcConsensus::new(pid, n),
        )
    });
    assert!(r.all_decided);
    check(&r);
    // The decision time is within a handful of message delays of the
    // stabilization time, not Ω(n) rounds later.
    let decided_at = r.decide_time.unwrap();
    assert!(
        decided_at < stab + SimDuration::from_millis(120),
        "decision at {decided_at}, stabilization at {stab}"
    );
}

#[test]
fn ec_safety_holds_across_many_chaotic_seeds() {
    // Liveness needs stabilization, but safety must hold on every run,
    // including short chaotic ones that are cut off mid-flight.
    for seed in 0..20 {
        let n = 5;
        let netcfg = NetworkConfig::partially_synchronous(
            n,
            Time::from_millis(300),
            SimDuration::from_millis(4),
            SimDuration::from_millis(80),
            0.0, // consensus links must stay reliable
        );
        let sc = Scenario::failure_free(n, seed, Time::from_millis(250)).with_crash(
            ProcessId(seed as usize % n),
            Time::from_millis(10 + seed * 7),
        );
        let r = run_scenario(netcfg, &sc, ec_node_hb);
        check(&r);
    }
}

// ---------------------------------------------------------------- CT ---

#[test]
fn ct_failure_free_decides_in_round_one() {
    let n = 5;
    let sc = Scenario::failure_free(n, 11, Time::from_secs(5));
    let r = run_scenario(net(n), &sc, ct_node_hb);
    assert!(r.all_decided);
    check(&r);
    // With an accurate detector, the round-1 coordinator (p0) succeeds.
    assert_eq!(r.max_decision_round(), Some(1));
}

#[test]
fn ct_rotates_past_crashed_coordinators() {
    // p0 and p1 are dead from the start: rounds 1 and 2 must fail by
    // suspicion and round 3 (coordinator p2) decides.
    let n = 5;
    let sc = Scenario::failure_free(n, 12, Time::from_secs(10))
        .with_crash(ProcessId(0), Time::ZERO)
        .with_crash(ProcessId(1), Time::ZERO);
    let r = run_scenario(net(n), &sc, ct_node_hb);
    assert!(r.all_decided);
    check(&r);
    let round = r.max_decision_round().unwrap();
    assert!(
        round >= 3,
        "rounds 1-2 had crashed coordinators, got {round}"
    );
}

#[test]
fn ct_safety_across_seeds_with_crashes() {
    for seed in 0..15 {
        let n = 5;
        let sc = Scenario::failure_free(n, seed, Time::from_secs(8))
            .with_crash(
                ProcessId((seed as usize) % n),
                Time::from_millis(5 + seed * 11),
            )
            .with_crash(ProcessId((seed as usize + 2) % n), Time::from_millis(40));
        let r = run_scenario(net(n), &sc, ct_node_hb);
        check(&r);
        assert!(r.all_decided, "seed {seed}: CT must terminate with f=2<n/2");
    }
}

// ---------------------------------------------------------------- MR ---

#[test]
fn mr_failure_free_decides_in_round_one() {
    let n = 5;
    let sc = Scenario::failure_free(n, 21, Time::from_secs(5));
    let r = run_scenario(net(n), &sc, mr_node_leader);
    assert!(r.all_decided);
    check(&r);
    assert_eq!(r.max_decision_round(), Some(1));
}

#[test]
fn mr_tolerates_crashes_within_assumed_f() {
    let n = 5; // assumed f = 2
    let sc = Scenario::failure_free(n, 22, Time::from_secs(10))
        .with_crash(ProcessId(1), Time::from_millis(10))
        .with_crash(ProcessId(4), Time::from_millis(25));
    let r = run_scenario(net(n), &sc, mr_node_leader);
    assert!(r.all_decided);
    check(&r);
}

#[test]
fn mr_leader_crash_is_survived() {
    let n = 5;
    let sc = Scenario::failure_free(n, 23, Time::from_secs(10))
        .with_crash(ProcessId(0), Time::from_millis(12));
    let r = run_scenario(net(n), &sc, mr_node_leader);
    assert!(r.all_decided);
    check(&r);
}

#[test]
fn mr_safety_across_seeds() {
    for seed in 0..15 {
        let n = 7; // assumed f = 3
        let sc = Scenario::failure_free(n, seed, Time::from_secs(8)).with_crash(
            ProcessId((seed as usize) % n),
            Time::from_millis(8 + seed * 9),
        );
        let r = run_scenario(net(n), &sc, mr_node_leader);
        check(&r);
        assert!(r.all_decided, "seed {seed}");
    }
}

// ------------------------------------------------- cross-protocol ------

#[test]
fn all_protocols_decide_the_same_kind_of_value() {
    // Same scenario, three protocols: each decides some proposed value
    // (they need not agree with each other, only within a protocol).
    let n = 5;
    let sc = Scenario::failure_free(n, 31, Time::from_secs(5));
    let ec = run_scenario(net(n), &sc, ec_node_hb);
    let ct = run_scenario(net(n), &sc, ct_node_hb);
    let mr = run_scenario(net(n), &sc, mr_node_leader);
    for r in [&ec, &ct, &mr] {
        assert!(r.all_decided);
        check(r);
        assert!(sc.proposals.contains(&r.decided_value()));
    }
}

#[test]
fn scripted_ct_requires_rotation_to_reach_the_leader() {
    // Theorem 3's shape at small scale: detector stabilizes on p3 at
    // t=50ms; CT cannot decide before the rotation reaches p3 (round 4),
    // while ◇C with the same detector decides in the first post-stable
    // round.
    let n = 5;
    let stab = Time::from_millis(50);
    let leader = ProcessId(3);
    let sc = Scenario::failure_free(n, 32, Time::from_secs(10));

    let ct = run_scenario(net(n), &sc, |pid, n| {
        scripted_node(
            pid,
            ScriptedDetector::chaos_then_leader(pid, n, stab, leader),
            CtConsensus::new(pid, n),
        )
    });
    assert!(ct.all_decided);
    check(&ct);
    assert!(
        ct.max_decision_round().unwrap() >= 4,
        "CT decided in round {:?} but p3 only coordinates from round 4",
        ct.max_decision_round()
    );

    let ec = run_scenario(net(n), &sc, |pid, n| {
        scripted_node(
            pid,
            ScriptedDetector::chaos_then_leader(pid, n, stab, leader),
            EcConsensus::new(pid, n),
        )
    });
    assert!(ec.all_decided);
    check(&ec);
}

#[test]
fn mr_with_exact_f_collects_more_replies() {
    // With f=1 assumed (n=5), quorums are 4 — larger than the bare
    // majority 3 used when f is unknown. Both settings must decide.
    let n = 5;
    let sc = Scenario::failure_free(n, 33, Time::from_secs(5));
    let r = run_scenario(net(n), &sc, |pid, n| {
        Stack::new(
            fd_detectors::LeaderDetector::new(pid, n, fd_detectors::LeaderConfig::default()),
            Decider::new(pid, MrConsensus::new(pid, n, 1)),
        )
    });
    assert!(r.all_decided);
    check(&r);
}

// ------------------------------------------ merged Phase 0/1 variant ---

use fd_consensus::EcMergedConsensus;

#[test]
fn ec_merged_failure_free_decides_in_round_one() {
    let n = 5;
    let sc = Scenario::failure_free(n, 41, Time::from_secs(5));
    let r = run_scenario(net(n), &sc, |pid, n| {
        scripted_node(
            pid,
            ScriptedDetector::chaos_then_leader(pid, n, Time::ZERO, ProcessId(0)),
            EcMergedConsensus::new(pid, n),
        )
    });
    assert!(r.all_decided);
    check(&r);
    assert_eq!(r.max_decision_round(), Some(1));
}

#[test]
fn ec_merged_uses_four_communication_steps() {
    // The §5.4 trade-off: one phase fewer than the five-phase variant.
    use fd_sim::LinkModel;
    let n = 5;
    let delta = SimDuration::from_millis(5);
    let netc = NetworkConfig::new(n).with_default(LinkModel::reliable_const(delta));
    let sc = Scenario::failure_free(n, 42, Time::from_secs(5));
    let r = run_scenario(netc, &sc, |pid, n| {
        scripted_node(
            pid,
            ScriptedDetector::chaos_then_leader(pid, n, Time::ZERO, ProcessId(0)),
            EcMergedConsensus::new(pid, n),
        )
    });
    assert!(r.all_decided);
    check(&r);
    // est(Δ) + prop(Δ) + ack(Δ) + decide broadcast(Δ) = 4Δ.
    assert_eq!(r.decide_time.unwrap(), Time(4 * delta.ticks()));
}

#[test]
fn ec_merged_sends_quadratic_phase01_traffic() {
    let n = 9;
    let sc = Scenario::failure_free(n, 43, Time::from_secs(5));
    let r = run_scenario(net(n), &sc, |pid, n| {
        scripted_node(
            pid,
            ScriptedDetector::chaos_then_leader(pid, n, Time::ZERO, ProcessId(0)),
            EcMergedConsensus::new(pid, n),
        )
    });
    assert!(r.all_decided);
    // Round 1 estimates (real + null): every process to every other,
    // n(n−1) total — of which exactly n−1 are real (one per non-leader,
    // addressed to the leader).
    let real = r.metrics.sent_of_kind_in_round("ecm.estimate", 1);
    let null = r.metrics.sent_of_kind_in_round("ecm.null_estimate", 1);
    assert_eq!(real + null, (n * (n - 1)) as u64);
    assert_eq!(real, (n - 1) as u64);
}

#[test]
fn ec_merged_with_real_detector_and_crashes() {
    use fd_detectors::{HeartbeatConfig, HeartbeatDetector, LeaderByFirstNonSuspected};
    let n = 5;
    let sc = Scenario::failure_free(n, 44, Time::from_secs(10))
        .with_crash(ProcessId(0), Time::from_millis(20))
        .with_crash(ProcessId(4), Time::from_millis(45));
    let r = run_scenario(net(n), &sc, |pid, n| {
        Stack::new(
            LeaderByFirstNonSuspected::new(
                HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                n,
            ),
            Decider::new(pid, EcMergedConsensus::new(pid, n)),
        )
    });
    assert!(r.all_decided, "merged variant must survive f=2 crashes");
    check(&r);
}

#[test]
fn ec_merged_safety_across_seeds() {
    for seed in 0..15 {
        let n = 5;
        let sc = Scenario::failure_free(n, seed, Time::from_secs(10)).with_crash(
            ProcessId((seed as usize) % n),
            Time::from_millis(5 + seed * 13),
        );
        let r = run_scenario(net(n), &sc, |pid, n| {
            Stack::new(
                fd_detectors::LeaderDetector::new(pid, n, fd_detectors::LeaderConfig::default()),
                Decider::new(pid, EcMergedConsensus::new(pid, n)),
            )
        });
        check(&r);
        assert!(r.all_decided, "seed {seed}");
    }
}

// -------------------------------------- transient-stability windows ----

#[test]
fn a_long_enough_stability_window_suffices() {
    // §2.2: "many algorithms can successfully complete if the failure
    // detector provides a unique leader for long enough periods of time"
    // — permanent stability is NOT required. The detector here is stable
    // only during [100ms, 350ms); chaos resumes afterwards and the
    // outputs never permanently converge, yet consensus decides inside
    // the window.
    use fd_core::{FdOutput, ProcessSet};
    let n = 5;
    let sc = Scenario::failure_free(n, 51, Time::from_secs(10));
    let mk_fd = |pid: ProcessId, n: usize| {
        let selfish = FdOutput {
            suspected: ProcessSet::singleton(pid).complement(n),
            trusted: Some(pid),
        };
        let stable = FdOutput {
            suspected: ProcessSet::singleton(ProcessId(1)).complement(n),
            trusted: Some(ProcessId(1)),
        };
        ScriptedDetector::from_schedule(vec![
            (Time::ZERO, selfish.clone()),
            (Time::from_millis(100), stable),
            (Time::from_millis(350), selfish),
        ])
    };
    let r = run_scenario(net(n), &sc, |pid, n| {
        scripted_node(pid, mk_fd(pid, n), EcConsensus::new(pid, n))
    });
    assert!(r.all_decided, "a 250ms stability window must suffice");
    check(&r);
    let at = r.decide_time.unwrap();
    assert!(
        at > Time::from_millis(100) && at < Time::from_millis(360),
        "decision must land inside the stability window, got {at}"
    );
}

#[test]
#[should_panic(expected = "distinct timer namespaces")]
fn node_rejects_component_namespace_collisions() {
    // A detector that (wrongly) claims the consensus namespace must be
    // caught at assembly time, not debugged as timer misrouting later.
    use fd_core::{Component, LeaderOracle, ProcessSet, SubCtx, SuspectOracle};
    use fd_sim::SimMessage;

    struct BadNs;
    #[derive(Clone, Debug)]
    struct NoMsg2;
    impl SimMessage for NoMsg2 {}
    impl SuspectOracle for BadNs {
        fn suspected(&self) -> ProcessSet {
            ProcessSet::new()
        }
    }
    impl LeaderOracle for BadNs {
        fn trusted(&self) -> ProcessId {
            ProcessId(0)
        }
    }
    impl Component for BadNs {
        type Msg = NoMsg2;
        fn ns(&self) -> u32 {
            fd_detectors::ns::CONSENSUS // collides with the protocol
        }
        fn on_start<N: SimMessage>(&mut self, _: &mut SubCtx<'_, '_, N, NoMsg2>) {}
        fn on_message<N: SimMessage>(
            &mut self,
            _: &mut SubCtx<'_, '_, N, NoMsg2>,
            _: ProcessId,
            _: NoMsg2,
        ) {
        }
        fn on_timer<N: SimMessage>(&mut self, _: &mut SubCtx<'_, '_, N, NoMsg2>, _: u32, _: u64) {}
    }

    let _ = Stack::new(
        BadNs,
        Decider::new(ProcessId(0), EcConsensus::new(ProcessId(0), 3)),
    );
}

// ------------------------------------------------------------ Paxos ----

use fd_consensus::paxos_node_leader;

#[test]
fn paxos_failure_free_decides_in_one_ballot() {
    let n = 5;
    let sc = Scenario::failure_free(n, 61, Time::from_secs(5));
    let r = run_scenario(net(n), &sc, paxos_node_leader);
    assert!(r.all_decided);
    check(&r);
    // One uncontested ballot: p0's first (ballot 5 = 1·5 + 0).
    assert!(sc.proposals.contains(&r.decided_value()));
}

#[test]
fn paxos_tolerates_minority_crashes() {
    let n = 5;
    let sc = Scenario::failure_free(n, 62, Time::from_secs(10))
        .with_crash(ProcessId(3), Time::from_millis(15))
        .with_crash(ProcessId(4), Time::from_millis(30));
    let r = run_scenario(net(n), &sc, paxos_node_leader);
    assert!(r.all_decided);
    check(&r);
}

#[test]
fn paxos_survives_proposer_crash_mid_ballot() {
    // p0 (leader) crashes ~15ms in — likely between Prepare and Accept.
    // Ω moves to p1, which must re-prepare above p0's ballot and preserve
    // any value p0 got accepted (the synod's locking rule).
    let n = 5;
    let sc = Scenario::failure_free(n, 63, Time::from_secs(10))
        .with_crash(ProcessId(0), Time::from_millis(15));
    let r = run_scenario(net(n), &sc, paxos_node_leader);
    assert!(r.all_decided, "the new proposer must complete the decree");
    check(&r);
}

#[test]
fn paxos_safety_under_dueling_proposers() {
    // Everyone trusts itself until stabilization: maximal ballot
    // contention. Safety must hold on every seed; liveness follows the
    // leader once Ω settles.
    for seed in 0..12 {
        let n = 5;
        let stab = Time::from_millis(40 + seed * 11);
        let sc = Scenario::failure_free(n, seed, Time::from_secs(20));
        let r = run_scenario(net(n), &sc, |pid, n| {
            scripted_node(
                pid,
                ScriptedDetector::chaos_then_leader(pid, n, stab, ProcessId((seed % 5) as usize)),
                fd_consensus::PaxosConsensus::new(pid, n),
            )
        });
        check(&r);
        assert!(
            r.all_decided,
            "seed {seed}: Paxos must decide after Ω stabilizes"
        );
    }
}

#[test]
fn paxos_uses_four_steps_like_ct() {
    // prepare → promise → accept → accepted, then the decision broadcast:
    // the same 4+1 step profile as CT, measured on constant-delay links.
    use fd_sim::LinkModel;
    let n = 5;
    let delta = SimDuration::from_millis(5);
    let netc = NetworkConfig::new(n).with_default(LinkModel::reliable_const(delta));
    let sc = Scenario::failure_free(n, 64, Time::from_secs(5));
    let r = run_scenario(netc, &sc, |pid, n| {
        scripted_node(
            pid,
            ScriptedDetector::chaos_then_leader(pid, n, Time::ZERO, ProcessId(0)),
            fd_consensus::PaxosConsensus::new(pid, n),
        )
    });
    assert!(r.all_decided);
    check(&r);
    assert_eq!(r.decide_time.unwrap(), Time(5 * delta.ticks()));
}

// ------------------------------------------------- a system of one ---

#[test]
fn a_lone_process_decides_its_own_proposal_at_once() {
    // Every quorum's degenerate case: n = 1 is a majority of itself, so
    // each protocol decides in its first round with no message.
    let sc = Scenario::failure_free(1, 1, Time::from_secs(1));
    let lone_ecm = |pid, n| {
        scripted_node(
            pid,
            ScriptedDetector::chaos_then_leader(pid, n, Time::ZERO, ProcessId(0)),
            EcMergedConsensus::new(pid, n),
        )
    };
    let runs = [
        ("ec", run_scenario(net(1), &sc, ec_node_hb)),
        ("ecm", run_scenario(net(1), &sc, lone_ecm)),
        ("ct", run_scenario(net(1), &sc, ct_node_hb)),
        ("mr", run_scenario(net(1), &sc, mr_node_leader)),
        ("paxos", run_scenario(net(1), &sc, paxos_node_leader)),
    ];
    for (protocol, r) in runs {
        assert!(r.all_decided, "{protocol}: no decision");
        check(&r);
        assert_eq!(r.decided_value(), sc.proposals[0], "{protocol}");
        assert_eq!(r.decide_time, Some(Time::ZERO), "{protocol}");
        assert_eq!(r.metrics.sent_total(), 0, "{protocol}");
    }
}
