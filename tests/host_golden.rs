//! The refactoring licence for the three protocol hosts: one seeded run
//! of each — the five consensus protocols and the replicated log, each
//! with a crash, and the standard crash-restart KV plan per detector
//! class — pinned to the trace digest and message count the hand-written
//! actor it replaced (`ConsensusNode`, `MultiNode`, `KvReplica`, now
//! aliases of `fd_core::Stack`) produced for the same run.
//!
//! `GOLDEN` was recorded at d40b337 (the parent, plus the one restart
//! order the KV rows depend on) by running this file there with
//! `Stack::new(fd, Decider::new(pid, p))` spelled `ConsensusNode::new(pid,
//! fd, p)`, `Stack::new(fd, Log::new(pid, m))` spelled `MultiNode::new(pid,
//! fd, m)` and `with_above(..submit..)` spelled `node.submit(ctx, cmd)`:
//! `cargo test --test host_golden -- --nocapture`. A row that moves
//! means start order, timer routing, send order, an RNG draw or a
//! `kind()` string changed — never re-record it to make this test pass.
//!
//! The one dated exception, 2026-10-04 (PR 23, "a timeout is a
//! deadline"): the timeout detectors stopped polling `last_heard` every
//! 5 ms and arm one timer at the earliest deadline, so in a run with a
//! crash the victim is suspected at `last_heard + timeout + 1 tick`
//! (0–5 ms sooner than the next grid point) and every observation after
//! that moved with it. All nine runs here crash someone; the seven rows
//! whose digest holds a suspicion were re-recorded once, at that commit
//! (`ct` and `mr` decide before anyone is suspected and did not move),
//! and EXPERIMENTS.md lists each with its old → new suspicion instant.
//! The licence those rows lost is carried by
//! `tests/prop_detectors.rs::crash_free_runs_kept_their_digests`: six
//! crash-free runs, byte-identical to the polled detectors'.
//!
//! The second dated exception, 2026-10-15 ("detector output is an
//! event"): a consensus instance no longer re-checks its wait clauses on
//! a 2 ms poll timer but when its detector's output changes (and after
//! every message), so a protocol reacts to the crashed coordinator's
//! suspicion at the suspicion's instant, 0–2 ms sooner. The four rows
//! whose run suspects someone before every process decided were
//! re-recorded once, message counts unchanged: `ec` decides at 48.892 ms
//! (was 49.748), `ecm` at 47.702 (48.313), `paxos` at 54.399 (55.196),
//! and `log`'s slots after the 40 ms crash move the same way. `ct` and
//! `mr` decide before anyone is suspected, and the three KV rows did not
//! move. That licence is carried by
//! `tests/fd_events.rs::crash_free_runs_kept_their_digests`: nine
//! crash-free E8 runs and a `kv-ramp`-shaped run, byte-identical to the
//! polling shell's.
//!
//! The KV rows above run one fault plan. `kv-generated-0..64` folds the
//! digests and message counts of the generated `kv` campaign's seeds
//! 0..64, whose plans heal minority partitions (gap repair, slot
//! re-announcement, retransmission) and crash and restart a replica
//! (WAL replay, quarantine, snapshot adoption, catch-up). It was recorded
//! at bea9cf7, before the KV service stopped keeping its own copy of the
//! replicated log's slot drive, and is held to the same rule.

use ecfd::prelude::*;
use fd_chaos::DetectorKind;
use fd_consensus::{Decider, EcMergedConsensus, Log, MultiEc, PaxosConsensus};
use fd_detectors::HeartbeatDetector;
use fd_kv::{standard_plan, KvScenario};

/// `(host, Trace::digest(), messages sent)`.
const GOLDEN: [(&str, u64, u64); 10] = [
    ("ec", 0x658eb7d1d99a134f, 126),
    ("ecm", 0xb198027d00d49dcf, 183),
    ("ct", 0xc0a894b8046f720f, 80),
    ("mr", 0x1ee528e343137700, 80),
    ("paxos", 0x536759a04f194b9c, 46),
    ("log", 0x586982025f449097, 1806),
    ("kv-heartbeat", 0x7c18aac72f4144e6, 9638),
    ("kv-ring", 0x1321df4e601bc616, 6591),
    ("kv-stable-leader", 0xe28d7f4843a27b33, 9638),
    ("kv-generated-0..64", 0xef947aa0a57301c4, 577884),
];

fn hb_leader(pid: ProcessId, n: usize) -> LeaderByFirstNonSuspected<HeartbeatDetector> {
    LeaderByFirstNonSuspected::new(
        HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
        n,
    )
}

/// Five processes, the round-one coordinator crashing mid-protocol.
fn consensus<D, P>(
    seed: u64,
    make: impl FnMut(ProcessId, usize) -> ConsensusNode<D, P>,
) -> (u64, u64)
where
    D: Component + SuspectOracle + LeaderOracle,
    P: RoundProtocol,
{
    let sc = Scenario::failure_free(5, seed, Time::from_secs(10))
        .with_crash(ProcessId(0), Time::from_millis(5));
    let r = run_scenario(default_net(5), &sc, make);
    assert!(r.all_decided);
    (r.trace.digest(), r.metrics.sent_total())
}

/// Six commands over five replicas, one of them crashing at 40 ms.
fn log() -> (u64, u64) {
    let mut w = WorldBuilder::new(default_net(5))
        .seed(0x1065)
        .crash_at(ProcessId(1), Time::from_millis(40))
        .build(|pid, n| {
            let multi = MultiEc::new(pid, n);
            Stack::new(hb_leader(pid, n), Log::new(pid, multi))
        });
    for k in 0..6u64 {
        w.interact(ProcessId(k as usize % 5), move |node, ctx| {
            node.with_above(ctx, |log, ctx, _| log.submit(ctx, 1000 + k))
        });
    }
    w.run_until_time(Time::from_secs(1));
    let (trace, metrics) = w.into_results();
    (trace.digest(), metrics.sent_total())
}

/// The standard crash-restart plan (`BENCH_kv.json`'s) under `detector`.
fn kv(detector: DetectorKind) -> (u64, u64) {
    use fd_campaign::Scenario as _;
    let sc = KvScenario::fixed(standard_plan(detector)).expect("standard plan is legal");
    let outcome = sc.make_executor().execute(&sc.plan(0x4b56), None);
    (outcome.trace.digest(), outcome.messages)
}

/// Seeds `0..64` of the generated `kv` campaign: every run's digest
/// folded in seed order, and the messages of all of them. Asserts, from
/// the plans, that the range heals partitions and restarts replicas.
fn kv_generated() -> (u64, u64) {
    use fd_campaign::Scenario as _;
    use fd_chaos::ChaosKind;
    let sc = KvScenario::generated();
    let mut executor = sc.make_executor();
    let (mut fold, mut messages) = (fd_sim::Fnv::new(), 0);
    let (mut partitioned, mut restarted) = (0, 0);
    for seed in 0..64 {
        let plan = sc.plan(seed);
        let chaos = fd_kv::kv_spec_of(&plan).expect("a kv plan").chaos;
        let has = |pick: fn(&ChaosKind) -> bool| chaos.events.iter().any(|e| pick(&e.kind));
        partitioned += u32::from(has(|k| matches!(k, ChaosKind::Partition { .. })));
        restarted += u32::from(has(|k| matches!(k, ChaosKind::Restart { .. })));
        let outcome = executor.execute(&plan, None);
        fold.u64(outcome.trace.digest());
        messages += outcome.messages;
    }
    assert!(
        partitioned >= 8 && restarted >= 32,
        "seeds 0..64 must heal partitions and restart replicas: \
         {partitioned} partitioned, {restarted} restarted"
    );
    (fold.finish(), messages)
}

#[test]
fn the_protocol_hosts_replay_the_actors_they_replaced() {
    let got = [
        consensus(0x4057, ec_node_hb),
        consensus(0x4058, |pid, n| {
            let ecm = EcMergedConsensus::new(pid, n);
            Stack::new(hb_leader(pid, n), Decider::new(pid, ecm))
        }),
        consensus(0x4059, ct_node_hb),
        consensus(0x405a, mr_node_leader),
        consensus(0x405b, |pid, n| {
            let fd = LeaderDetector::new(pid, n, LeaderConfig::default());
            let paxos = PaxosConsensus::new(pid, n);
            Stack::new(fd, Decider::new(pid, paxos))
        }),
        log(),
        kv(DetectorKind::Heartbeat),
        kv(DetectorKind::Ring),
        kv(DetectorKind::StableLeader),
        kv_generated(),
    ];
    let mut drifted = String::new();
    for (&(name, digest, sent), got) in GOLDEN.iter().zip(got) {
        if got != (digest, sent) {
            drifted += &format!("    (\"{name}\", {:#018x}, {}),\n", got.0, got.1);
        }
    }
    assert!(
        drifted.is_empty(),
        "digest or message count moved; this run's rows:\n{drifted}"
    );
}
