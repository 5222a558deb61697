//! The Ω zoo: every leader-election construction in the workspace, side
//! by side on the same scenario.
//!
//! ```bash
//! cargo run --example omega_zoo
//! ```
//!
//! Scenario: n = 6, p0 crashes at 300 ms, p1 at 700 ms — leadership must
//! end up at p2 under every construction. The table contrasts what each
//! costs (periodic messages) and what it gives back (suspect-set
//! accuracy, §3's trade-off).

use ecfd::prelude::*;
use fd_core::Standalone;
use fd_detectors::{
    FusedConfig, FusedDetector, HeartbeatDetector, OmegaGossip, OmegaGossipConfig, RingDetector,
    StableLeaderConfig, StableLeaderDetector,
};
use fd_sim::Trace;

fn scenario_world<A: fd_sim::Actor>(
    make: impl FnMut(ProcessId, usize) -> A,
) -> (Trace, fd_sim::Metrics, Time) {
    let n = 6;
    let mut w = WorldBuilder::new(default_net(n))
        .seed(0x200)
        .crash_at(ProcessId(0), Time::from_millis(300))
        .crash_at(ProcessId(1), Time::from_millis(700))
        .build(make);
    let end = Time::from_secs(5);
    w.run_until_time(end);
    let (trace, metrics) = w.into_results();
    (trace, metrics, end)
}

fn report(name: &str, trace: &Trace, metrics: &fd_sim::Metrics, end: Time) {
    let n = 6;
    let run = FdRun::new(trace, n, end);
    run.check_class(FdClass::Omega).expect("Property 1");
    let leader = run.final_trusted(ProcessId(2)).unwrap();
    let mean_suspects: f64 = run
        .correct()
        .iter()
        .map(|p| run.final_suspects(p).len() as f64)
        .sum::<f64>()
        / run.correct().len() as f64;
    println!(
        "  {name:<28} leader={leader}  mean|suspected|={mean_suspects:.1}  total msgs in 5s={}",
        metrics.sent_total(),
    );
}

fn main() {
    println!("Ω constructions on one scenario (n=6; p0 crashes @300ms, p1 @700ms):\n");

    let (t, m, end) =
        scenario_world(|pid, n| Standalone(LeaderDetector::new(pid, n, LeaderConfig::default())));
    report("candidate [16]", &t, &m, end);

    let (t, m, end) = scenario_world(|pid, n| {
        Standalone(StableLeaderDetector::new(
            pid,
            n,
            StableLeaderConfig::default(),
        ))
    });
    report("stable punish-ranked [2]", &t, &m, end);

    let (t, m, end) = scenario_world(|pid, n| {
        Standalone(LeaderByFirstNonSuspected::new(
            HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
            n,
        ))
    });
    report("first-unsuspected on ◇P", &t, &m, end);

    let (t, m, end) = scenario_world(|pid, n| {
        Standalone(LeaderByFirstNonSuspected::new(
            RingDetector::new(pid, n, RingConfig::default()),
            n,
        ))
    });
    report("first-unsuspected on ring ◇S", &t, &m, end);

    let (t, m, end) =
        scenario_world(|pid, n| Standalone(FusedDetector::new(pid, n, FusedConfig::default())));
    report("fused ◇C+◇P (§4)", &t, &m, end);

    let (t, m, end) = scenario_world(|pid, n| {
        Stack::new(
            HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
            OmegaGossip::new(pid, n, OmegaGossipConfig::default()),
        )
    });
    report("counter-gossip [5,7] on ◇P", &t, &m, end);

    println!("\nall constructions satisfy Property 1 (Ω) and agree on p2 ✓");
    println!("the spread in message totals and suspect-set sizes is §3's trade-off:");
    println!("cheap leadership (candidate: n−1/period, 5 suspects) vs. accurate");
    println!("suspect sets (heartbeat/ring bases: exactly the crashed processes).");
}
