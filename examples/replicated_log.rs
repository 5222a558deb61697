//! A live replicated command log (state-machine replication) — the
//! application that motivates consensus in the paper's introduction.
//!
//! ```bash
//! cargo run --example replicated_log
//! ```
//!
//! Five replicas run continuously in one world. Each replica hosts a ◇C
//! failure detector, a Reliable Broadcast module, and a *multiplexer* of
//! ◇C-consensus instances — one per log slot. Clients submit commands at
//! different replicas concurrently; every slot decides, by Uniform
//! Consensus, one replica's whole batch of waiting commands, losing
//! batches are re-queued, and replicas crash along the way. All correct
//! replicas end up applying the identical sequence.

use ecfd::prelude::*;
use fd_consensus::{Log, MultiEc, MultiNode, NOOP};
use fd_detectors::HeartbeatDetector;

type Replica = MultiNode<LeaderByFirstNonSuspected<HeartbeatDetector>>;

fn replica(pid: ProcessId, n: usize) -> Replica {
    Stack::new(
        LeaderByFirstNonSuspected::new(
            HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
            n,
        ),
        Log::new(pid, MultiEc::new(pid, n)),
    )
}

fn main() {
    let n = 5;
    let mut world = WorldBuilder::new(default_net(n)).seed(7).build(replica);

    // Clients submit 3 commands at each replica, concurrently. Command
    // encoding: replica*100 + k (0 is reserved for NOOP).
    let mut all_commands = Vec::new();
    for i in 0..n {
        for k in 0..3u64 {
            let cmd = (i as u64 + 1) * 100 + k;
            all_commands.push(cmd);
            world.interact(ProcessId(i), move |node, ctx| {
                node.with_above(ctx, |log, ctx, _| log.submit(ctx, cmd))
            });
        }
    }
    println!(
        "{} replicas, {} concurrent client commands",
        n,
        all_commands.len()
    );

    // Two replicas die while the log is being built.
    world.schedule_crash(ProcessId(4), Time::from_millis(40));
    world.schedule_crash(ProcessId(3), Time::from_millis(120));
    println!("p4 crashes @40ms, p3 @120ms (their unproposed commands are lost)\n");

    // Run until the survivors' logs contain every command the *surviving*
    // replicas submitted (crashed replicas' commands may be lost).
    let survivor_cmds: Vec<u64> = all_commands
        .iter()
        .copied()
        .filter(|c| c / 100 <= 3)
        .collect();
    let done = world.run_until(Time::from_secs(60), |w| {
        (0..3).all(|i| {
            let vals: Vec<u64> = w
                .actor(ProcessId(i))
                .above
                .log()
                .iter()
                .map(|(_, v)| *v)
                .collect();
            survivor_cmds.iter().all(|c| vals.contains(c))
        })
    });
    assert!(done, "log did not converge");

    let reference = world.actor(ProcessId(0)).above.log();
    println!(
        "replicated log at p0 ({} entries in {} slots, decided in {}):",
        reference.len(),
        reference.last().map_or(0, |(slot, _)| slot + 1),
        world.now()
    );
    for (slot, v) in &reference {
        if *v == NOOP {
            println!("  [{slot}] (noop)");
        } else {
            println!("  [{slot}] op{} from replica {}", v % 100, v / 100 - 1);
        }
    }

    // Agreement: every survivor's log is a prefix-consistent copy.
    for i in 1..3 {
        let log = world.actor(ProcessId(i)).above.log();
        let common = reference.len().min(log.len());
        assert_eq!(&log[..common], &reference[..common], "replica {i} diverged");
    }
    println!("\nall correct replicas hold identical logs — state-machine replication ✓");
    println!(
        "(messages: {} consensus, {} decision broadcasts, {} detector)",
        [
            "ec.coordinator",
            "ec.estimate",
            "ec.proposition",
            "ec.ack",
            "ec.nack",
            "multi.open"
        ]
        .iter()
        .map(|k| world.metrics().sent_of_kind(k))
        .sum::<u64>(),
        world.metrics().sent_of_kind("rb.msg"),
        world.metrics().sent_of_kind("hb.alive"),
    );
}
