//! E2 — communication steps (phases) per round (§5.4).
//!
//! Paper claim: ◇C has 5 phases per round, CT 4, MR 3 — the flip side of
//! the message-count trade-off (fewer messages ⇒ more sequential steps).
//!
//! Method: constant-delay links (Δ = 5 ms) and a stable detector; the time until the *deciding coordinator/flagger* commits is
//! a whole number of Δs equal to the pre-decision communication steps,
//! and the last correct process decides one Reliable-Broadcast step
//! later. We report `decide_time/Δ` for the last decider: expected
//! ◇C = 4 + 1 (its Phase 0 announcement makes four message trips before
//! the decision exists, matching the paper's five *phases*), CT = 3 + 1,
//! MR = 3 (each process flags locally, no extra broadcast step).

use crate::scenarios::{const_delay_net, run_scripted, stable_fd, Protocol};
use crate::table::{fmt_num, Table};
use fd_sim::{SimDuration, Time};

/// Run the experiment.
pub fn run() -> Vec<Table> {
    let delta = SimDuration::from_millis(5);
    let mut t = Table::new(
        "E2",
        "communication steps per round (constant link delay Δ = 5 ms)",
        &[
            "protocol",
            "n",
            "decide at",
            "steps (≈time/Δ)",
            "paper phases/round",
        ],
    );
    for proto in Protocol::WITH_PAXOS {
        for n in [5usize, 9] {
            let r = run_scripted(
                proto,
                n,
                3,
                const_delay_net(n, delta),
                Time::from_secs(5),
                stable_fd,
            );
            assert!(r.all_decided, "{proto:?} n={n}");
            if proto == Protocol::Paxos {
                // Paxos "rounds" are proposer-unique ballot numbers; the
                // first uncontested ballot of leader p0 is n (= 1·n + 0).
                assert_eq!(r.max_decision_round(), Some(n as u64));
            } else {
                assert_eq!(r.max_decision_round(), Some(1));
            }
            let at = r.decide_time.unwrap();
            let steps = at.ticks() as f64 / delta.ticks() as f64;
            t.row(vec![
                proto.label().to_string(),
                n.to_string(),
                format!("{at}"),
                fmt_num(steps),
                proto.paper_phases().to_string(),
            ]);
        }
    }
    t.note("measured steps include the final decision broadcast hop;");
    t.note("ordering ◇C > CT > MR matches the paper's 5 > 4 > 3 phases;");
    t.note("Paxos (§1.2, not in the paper's table) measures 5 like ◇C: its prepare/promise");
    t.note("plays ◇C's Phase 0/1 — the 'similar approaches' remark, made concrete. CT's 4");
    t.note("is the rotation dividend: a predetermined coordinator needs no first hop");
    vec![t]
}
