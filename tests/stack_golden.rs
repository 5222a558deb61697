//! The refactoring licence for `fd_core::Stack`: one seeded run of each
//! of the four detector stacks, pinned to the trace digest and message
//! count that the hand-written host actor `Stack` replaced (one per
//! stack, in `fd-detectors` until commit c0235cc) produced for the same
//! run.
//!
//! `GOLDEN` was recorded at c0235cc by running this file there with each
//! `Stack::new(..)` spelled as that commit's per-stack host constructor
//! and `with_above(..)` as the quiescent host's `send`:
//! `cargo test --test stack_golden -- --nocapture`. A row that moves
//! means start order, timer routing, send order or a `kind()` string
//! changed — never re-record it to make this test pass.
//!
//! The one dated exception, 2026-10-04 (PR 23, "a timeout is a
//! deadline"; see `tests/host_golden.rs`'s header): the three rows whose
//! run has a crash were re-recorded once — the victim is suspected at
//! its deadline, not at the next 5 ms check — with message counts
//! unchanged; `quiescent` (no timeout detector in it) did not move.
//!
//! The second, 2026-10-15 ("detector output is an event"): `EcToEp`
//! hears of a change of `D.trusted` the instant it happens
//! (`Over::on_fd_change`) instead of at its next 10 ms task timer, so a
//! new leader opens its Task 3 window up to 10 ms sooner. `ec_to_ep`
//! (a leader crash) was re-recorded once, message count unchanged; the
//! other three stacks have no change hook and did not move.

use ecfd::prelude::*;
use fd_detectors::{
    HbCounterConfig, HeartbeatConfig, HeartbeatCounter, HeartbeatDetector, OmegaGossip,
    OmegaGossipConfig, QuiescentChannel, WeakToStrong, WeakToStrongConfig,
};

/// `(stack, Trace::digest(), Metrics::sent_total())`.
const GOLDEN: [(&str, u64, u64); 4] = [
    ("ec_to_ep", 0x8f5a277d2acf6446, 2215),
    ("weak_to_strong", 0x623653f05fabbf34, 4075),
    ("omega_gossip", 0xdfc5e983032bea59, 6572),
    ("quiescent", 0x8f61743fc1205fa6, 814),
];

fn jitter(n: usize) -> NetworkConfig {
    NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
        SimDuration::from_millis(1),
        SimDuration::from_millis(4),
    ))
}

/// Each process monitors only its ring successor: the canonical ◇W.
fn neighbour_weak(pid: ProcessId, n: usize) -> HeartbeatDetector {
    HeartbeatDetector::restricted(
        pid,
        n,
        HeartbeatConfig::default(),
        ProcessSet::singleton(pid.predecessor(n)),
        ProcessSet::singleton(pid.successor(n)),
    )
}

fn finish<A: fd_sim::Actor>(mut w: World<A>, end: Time) -> (u64, u64) {
    w.run_until_time(end);
    let (trace, metrics) = w.into_results();
    (trace.digest(), metrics.sent_total())
}

#[test]
fn the_four_stacks_replay_the_hosts_they_replaced() {
    let end = Time::from_secs(2);

    // Fig. 2 over the candidate ◇C; the leader crashes, so leadership
    // and the transformation's duties both hand over.
    let ec_to_ep = WorldBuilder::new(jitter(5))
        .seed(0x57AC)
        .crash_at(ProcessId(0), Time::from_millis(400))
        .build(|pid, n| {
            Stack::new(
                LeaderDetector::new(pid, n, LeaderConfig::default()),
                EcToEp::new(pid, n, EcToEpConfig::default()),
            )
        });

    let weak_to_strong = WorldBuilder::new(jitter(5))
        .seed(0x57AD)
        .crash_at(ProcessId(2), Time::from_millis(150))
        .build(|pid, n| {
            Stack::new(
                neighbour_weak(pid, n),
                WeakToStrong::new(pid, WeakToStrongConfig::default()),
            )
        });

    let omega_gossip = WorldBuilder::new(jitter(5))
        .seed(0x57AE)
        .crash_at(ProcessId(0), Time::from_millis(200))
        .build(|pid, n| {
            Stack::new(
                HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                OmegaGossip::new(pid, n, OmegaGossipConfig::default()),
            )
        });

    // 50 % loss: retransmissions on heartbeat evidence to the correct
    // p1, quiescence towards p2 (crashed from the start).
    let lossy = NetworkConfig::new(3).with_default(LinkModel::fair_lossy(
        SimDuration::from_millis(1),
        SimDuration::from_millis(4),
        0.5,
    ));
    let mut quiescent = WorldBuilder::new(lossy)
        .seed(0x57AF)
        .crash_at(ProcessId(2), Time::ZERO)
        .build(|_, n| {
            let cfg = HbCounterConfig::default();
            Stack::new(
                HeartbeatCounter::new(n, cfg.clone()),
                QuiescentChannel::new(cfg),
            )
        });
    quiescent.interact(ProcessId(0), |node, ctx| {
        node.with_above(ctx, |channel, ctx, hb| {
            channel.send(ctx, ProcessId(1), 1111, hb);
            channel.send(ctx, ProcessId(2), 2222, hb);
        });
    });

    let got = [
        finish(ec_to_ep, end),
        finish(weak_to_strong, end),
        finish(omega_gossip, end),
        finish(quiescent, end),
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
