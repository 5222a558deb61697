//! E9 — ablations over the paper's own design space.
//!
//! Three alternatives the paper discusses but does not measure:
//!
//! * **E9a — merged Phase 0/1** (§5.4): "we could reduce the number of
//!   phases … merging Phases 0 and 1 … the cost of augmenting the number
//!   of messages, which becomes Ω(n²) instead of Θ(n)". We measure both
//!   sides of the trade.
//! * **E9b — stable leader election** (§1.1, Aguilera et al. \[2\]):
//!   punish-count ranking vs. the plain smallest-unsuspected-id rule,
//!   under a leader with flaky links: how often does leadership change?
//! * **E9c — the "expensive" Ω reduction** (§3, Chandra et al. \[5\] /
//!   Chu \[7\]): counter-gossip Ω costs n(n−1) messages per period where
//!   the candidate algorithm of \[16\] pays n−1 — the gap that motivates
//!   the paper's "at no additional cost" constructions.

use crate::scenarios::{const_delay_net, jitter_net, stable_fd};
use crate::table::{fmt_num, Table};
use fd_consensus::{run_scenario, scripted_node, EcConsensus, EcMergedConsensus, Scenario};
use fd_core::{FdRun, Stack, Standalone};
use fd_detectors::{
    HeartbeatConfig, HeartbeatDetector, LeaderConfig, LeaderDetector, OmegaGossip,
    OmegaGossipConfig, StableLeaderConfig, StableLeaderDetector,
};
use fd_sim::{LinkModel, NetworkConfig, ProcessId, SimDuration, Time, WorldBuilder};

fn e9a() -> Table {
    let mut t = Table::new(
        "E9a",
        "merged Phase 0/1 vs. five-phase ◇C consensus (Δ = 5 ms constant links)",
        &[
            "variant",
            "n",
            "steps to last decide",
            "round-1 msgs",
            "decision round",
        ],
    );
    let delta = SimDuration::from_millis(5);
    for n in [5usize, 9, 13] {
        let sc = Scenario::failure_free(n, 3, Time::from_secs(5));

        let five = run_scenario(const_delay_net(n, delta), &sc, |pid, n| {
            scripted_node(pid, stable_fd(pid, n), EcConsensus::new(pid, n))
        });
        assert!(five.all_decided);
        t.row(vec![
            "◇C 5-phase".into(),
            n.to_string(),
            fmt_num(five.decide_time.unwrap().ticks() as f64 / delta.ticks() as f64),
            five.messages_in_round("ec.", 1).to_string(),
            five.max_decision_round().unwrap().to_string(),
        ]);

        let merged = run_scenario(const_delay_net(n, delta), &sc, |pid, n| {
            scripted_node(pid, stable_fd(pid, n), EcMergedConsensus::new(pid, n))
        });
        assert!(merged.all_decided);
        t.row(vec![
            "◇C merged".into(),
            n.to_string(),
            fmt_num(merged.decide_time.unwrap().ticks() as f64 / delta.ticks() as f64),
            merged.messages_in_round("ecm.", 1).to_string(),
            merged.max_decision_round().unwrap().to_string(),
        ]);
    }
    t.note("§5.4's trade: the merged variant saves one communication step and pays");
    t.note("n(n−1) estimates per round instead of 4(n−1) total protocol messages");
    t
}

fn e9b() -> Table {
    let mut t = Table::new(
        "E9b",
        "leadership stability under a flaky p0 (30 s, 80% loss on p0's output links)",
        &["detector", "n", "leadership changes (sum over followers)"],
    );
    for n in [4usize, 8] {
        // Heavy fair loss starves followers of p0's heartbeats in streaks
        // far longer than the initial timeout: the plain candidate rule
        // re-elects p0 after every streak until its additive timeout
        // outgrows the gaps; the stable rule demotes p0 at the first
        // mistake and leadership stays with p1.
        let lossy = LinkModel::fair_lossy(
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
            0.8,
        );
        let mk_net = || {
            let mut net = jitter_net(n);
            for i in 1..n {
                net = net.with_link(ProcessId(0), ProcessId(i), lossy.clone());
            }
            net
        };
        let end = Time::from_secs(30);

        let mut w = WorldBuilder::new(mk_net()).seed(0xE9).build(|pid, n| {
            Standalone(StableLeaderDetector::new(
                pid,
                n,
                StableLeaderConfig::default(),
            ))
        });
        w.run_until_time(end);
        let (stable_trace, _) = w.into_results();

        let mut w = WorldBuilder::new(mk_net())
            .seed(0xE9)
            .build(|pid, n| Standalone(LeaderDetector::new(pid, n, LeaderConfig::default())));
        w.run_until_time(end);
        let (plain_trace, _) = w.into_results();

        let changes = |trace: &fd_sim::Trace| -> usize {
            (1..n)
                .map(|i| {
                    FdRun::new(trace, n, end)
                        .trusted_history(ProcessId(i))
                        .len()
                })
                .sum()
        };
        t.row(vec![
            "stable [2]".into(),
            n.to_string(),
            changes(&stable_trace).to_string(),
        ]);
        t.row(vec![
            "plain [16]".into(),
            n.to_string(),
            changes(&plain_trace).to_string(),
        ]);
    }
    t.note("the plain candidate rule re-elects the flaky p0 after every recovery;");
    t.note("punish-count ranking demotes it once and leadership stays put ([2]'s point)");
    t
}

fn e9c() -> Table {
    let mut t = Table::new(
        "E9c",
        "Ω construction cost: counter-gossip reduction [5,7] vs candidate algorithm [16]",
        &["construction", "n", "msgs/period", "formula"],
    );
    for n in [4usize, 8, 16] {
        let net = NetworkConfig::new(n)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(2)));

        // Counter-gossip Ω over a heartbeat source: count ONLY the
        // reduction's own gossip (the heartbeat substrate is charged to
        // the underlying detector, as §3 does).
        let mut w = WorldBuilder::new(net.clone()).seed(1).build(|pid, n| {
            Stack::new(
                HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                OmegaGossip::new(pid, n, OmegaGossipConfig::default()),
            )
        });
        w.run_until_time(Time::from_millis(500));
        let before = w.metrics().sent_of_kind(fd_obs::keys::OMEGA_GOSSIP);
        w.run_until_time(Time::from_millis(1500));
        let per_period =
            (w.metrics().sent_of_kind(fd_obs::keys::OMEGA_GOSSIP) - before) as f64 / 100.0;
        t.row(vec![
            "gossip Ω [5,7]".into(),
            n.to_string(),
            fmt_num(per_period),
            format!("n(n−1) = {}", n * (n - 1)),
        ]);

        let mut w = WorldBuilder::new(net)
            .seed(1)
            .build(|pid, n| Standalone(LeaderDetector::new(pid, n, LeaderConfig::default())));
        w.run_until_time(Time::from_millis(500));
        let before = w.metrics().sent_total();
        w.run_until_time(Time::from_millis(1500));
        let per_period = (w.metrics().sent_total() - before) as f64 / 100.0;
        t.row(vec![
            "candidate Ω [16]".into(),
            n.to_string(),
            fmt_num(per_period),
            format!("n−1 = {}", n - 1),
        ]);
    }
    t.note("§3: the [5,7] reductions \"require that every process send messages");
    t.note("periodically to all\" — quadratic; the [16] algorithm is linear");
    t
}

/// Run the experiment.
pub fn run() -> Vec<Table> {
    vec![e9a(), e9b(), e9c()]
}
