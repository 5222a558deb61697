//! The Fig. 2 transformation, live: build an eventually perfect (◇P)
//! failure detector out of a ◇C detector in a partially synchronous
//! system — with fair-lossy links out of the leader.
//!
//! ```bash
//! cargo run --example perfect_from_ec
//! ```

use ecfd::prelude::*;

fn main() {
    let n = 5;
    let leader = ProcessId(0);
    let gst = Time::from_millis(150);

    // The paper's link requirements: eventually timely *into* the leader,
    // fair-lossy (30% loss!) *out of* the leader.
    let net = NetworkConfig::new(n)
        .with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(4),
        ))
        .with_links_into(
            leader,
            LinkModel::eventually_timely(
                gst,
                SimDuration::from_millis(5),
                SimDuration::from_millis(100),
                0.3,
            ),
        )
        .with_links_out_of(
            leader,
            LinkModel::fair_lossy(
                SimDuration::from_millis(1),
                SimDuration::from_millis(4),
                0.3,
            ),
        );

    let mut world = WorldBuilder::new(net)
        .seed(3)
        .crash_at(ProcessId(2), Time::from_millis(500))
        .crash_at(ProcessId(4), Time::from_millis(900))
        .build(|pid, n| {
            // The transformation stacked over the ◇C detector it queries.
            Stack::new(
                LeaderDetector::new(pid, n, LeaderConfig::default()),
                EcToEp::new(pid, n, EcToEpConfig::default()),
            )
        });

    let end = Time::from_secs(6);
    world.run_until_time(end);

    println!("Fig. 2 stack: [16]-leader ◇C + transformation, GST = {gst}, 30% output loss");
    println!("p2 crashes @500ms, p4 @900ms\n");
    let mistakes = world.actor(leader).above.mistakes();
    let (trace, metrics) = world.into_results();

    let run = FdRun::new(&trace, n, end).with_suspects_tag(EP_SUSPECTS_OUT);
    for i in [0usize, 1, 3] {
        println!(
            "  p{i} final ◇P suspect list: {}",
            run.final_suspects(ProcessId(i))
        );
    }
    run.check_class(FdClass::EventuallyPerfect)
        .expect("Theorem 1: the output is ◇P");
    println!("\nstrong completeness + eventual strong accuracy verified ✓");
    println!("leader's Task-4 timeout increases (mistakes): {mistakes} — finite, as proved");
    println!(
        "periodic cost: {} I-AM-ALIVE + {} list messages over 6s (≈2(n−1)/period)",
        metrics.sent_of_kind("ep.alive"),
        metrics.sent_of_kind("ep.suspects"),
    );
}
