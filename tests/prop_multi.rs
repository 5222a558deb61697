//! Property-based tests of the replicated log: under random command
//! batches, submitters, and crash plans — with and without a link-layer
//! mangler duplicating and reordering consensus messages — all surviving
//! replicas hold prefix-consistent logs and every command submitted by a
//! survivor is eventually decided exactly once per submission.

use ecfd::prelude::*;
use fd_consensus::{Log, MultiEc, MultiNode, NOOP};
use fd_detectors::HeartbeatDetector;
use fd_sim::chaos::{Intervention, NetChange, MANGLE};
use fd_sim::link::LinkMangler;
use fd_sim::trace::Payload;
use proptest::prelude::*;

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

#[derive(Debug, Clone)]
struct LogPlan {
    n: usize,
    seed: u64,
    /// (submitting replica, command payload) — payloads made unique below.
    submissions: Vec<usize>,
    crash: Option<(usize, u64)>,
}

fn arb_plan() -> impl Strategy<Value = LogPlan> {
    (4usize..6, any::<u64>()).prop_flat_map(|(n, seed)| {
        (
            prop::collection::vec(0..n, 1..8),
            prop::option::of((1..n, 20u64..150)),
        )
            .prop_map(move |(submissions, crash)| LogPlan {
                n,
                seed,
                submissions,
                crash,
            })
    })
}

/// Run `plan` (optionally under a message mangler installed from time
/// zero) and check the three log properties: liveness for survivor
/// submissions, pairwise prefix consistency, and at-most-once decision
/// of every non-NOOP command.
fn check_log_properties(plan: &LogPlan, mangler: Option<LinkMangler>) -> Result<(), TestCaseError> {
    let n = plan.n;
    let mut w = WorldBuilder::new(default_net(n))
        .seed(plan.seed)
        .build(replica);
    if let Some(m) = mangler {
        w.schedule_intervention(
            Time(1),
            Intervention {
                tag: MANGLE,
                payload: Payload::None,
                change: NetChange::SetMangler(Some(m)),
            },
        );
    }
    // Unique commands: index+1 shifted so 0 (NOOP) never collides.
    let mut survivor_cmds = Vec::new();
    for (i, &replica_idx) in plan.submissions.iter().enumerate() {
        let cmd = 1000 + i as u64;
        let crashed_submitter = plan.crash.is_some_and(|(c, _)| c == replica_idx);
        if !crashed_submitter {
            survivor_cmds.push(cmd);
        }
        w.interact(ProcessId(replica_idx), move |node, ctx| {
            node.with_above(ctx, |log, ctx, _| log.submit(ctx, cmd))
        });
    }
    if let Some((victim, at)) = plan.crash {
        w.schedule_crash(ProcessId(victim), Time::from_millis(at));
    }
    let survivors: Vec<usize> = (0..n)
        .filter(|&i| plan.crash.is_none_or(|(c, _)| c != i))
        .collect();
    let done = w.run_until(Time::from_secs(60), |w| {
        survivors.iter().all(|&i| {
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
    prop_assert!(done, "survivor commands not all decided: {plan:?}");

    // Prefix consistency across every pair of survivors.
    let logs: Vec<Vec<(u64, u64)>> = survivors
        .iter()
        .map(|&i| w.actor(ProcessId(i)).above.log())
        .collect();
    for a in 0..logs.len() {
        for b in a + 1..logs.len() {
            let common = logs[a].len().min(logs[b].len());
            prop_assert_eq!(&logs[a][..common], &logs[b][..common], "prefix divergence");
        }
    }
    // No survivor command appears twice; NOOPs are the only repeats.
    for log in &logs {
        let mut seen = std::collections::HashSet::new();
        for (_, v) in log {
            if *v != NOOP {
                prop_assert!(seen.insert(*v), "command {v} decided twice");
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn survivor_logs_are_prefix_consistent_and_complete(plan in arb_plan()) {
        check_log_properties(&plan, None)?;
    }

    /// The same properties with a mangler duplicating and reordering
    /// every non-loopback message for the whole run. Duplicates exercise
    /// the idempotence of every consensus receive path (per-process
    /// reply maps, passive Idle/Done answers, decision relay); bounded
    /// reordering exercises late-round message handling. Drop stays at
    /// zero: the round protocol assumes reliable channels, and loss
    /// recovery is the serving layer's job (`fd-kv`'s repair timer).
    #[test]
    fn mangled_links_preserve_log_properties(plan in arb_plan()) {
        let mangler = LinkMangler {
            drop: 0.0,
            duplicate: 0.25,
            reorder: 0.25,
            skew: SimDuration::from_millis(20),
        };
        check_log_properties(&plan, Some(mangler))?;
    }
}
