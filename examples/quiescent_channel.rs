//! Quiescent reliable communication with the timeout-free Heartbeat
//! detector of Aguilera, Chen & Toueg \[1\] (cited in §1.1).
//!
//! ```bash
//! cargo run --example quiescent_channel
//! ```
//!
//! Every link loses 60% of its messages. p0 reliably sends to a correct
//! process (p1) and to a crashed one (p2). Retransmissions are driven
//! purely by heartbeat-counter evidence — no timeouts anywhere:
//! the correct destination is reached, and the crashed destination's
//! stream goes silent instead of retrying forever.

use ecfd::prelude::*;
use fd_detectors::{HbCounterConfig, HeartbeatCounter, QuiescentChannel};

fn main() {
    let n = 3;
    let net = NetworkConfig::new(n).with_default(LinkModel::fair_lossy(
        SimDuration::from_millis(1),
        SimDuration::from_millis(4),
        0.6,
    ));
    let mut world = WorldBuilder::new(net)
        .seed(21)
        .crash_at(ProcessId(2), Time::ZERO)
        .build(|_, n| {
            // The full [1] stack: the channel over the counter detector.
            let cfg = HbCounterConfig::default();
            Stack::new(
                HeartbeatCounter::new(n, cfg.clone()),
                QuiescentChannel::new(cfg),
            )
        });

    println!("60% loss on every link; p2 is crashed from the start\n");
    world.interact(ProcessId(0), |node, ctx| {
        node.with_above(ctx, |channel, ctx, hb| {
            channel.send(ctx, ProcessId(1), 1111, hb);
            channel.send(ctx, ProcessId(2), 2222, hb);
        });
    });

    for checkpoint_s in [2u64, 5, 10] {
        world.run_until_time(Time::from_secs(checkpoint_s));
        let channel = &world.actor(ProcessId(0)).above;
        println!(
            "t={checkpoint_s}s: tx→p1(correct)={}, tx→p2(crashed)={}, unacked={}",
            channel.transmissions(ProcessId(1), 0),
            channel.transmissions(ProcessId(2), 1),
            channel.pending_len(),
        );
    }

    assert_eq!(
        world.actor(ProcessId(0)).above.pending_len(),
        1,
        "only the message to the crashed p2 stays unacked"
    );
    println!("\nthe message to p1 was delivered despite the loss;");
    println!("the stream to p2 froze when its heartbeat counter stopped — quiescence ✓");
    println!("(a timeout-based retransmitter must choose: retry forever, or risk giving up");
    println!(" on a slow-but-correct receiver; heartbeat evidence avoids the dilemma)");
}
