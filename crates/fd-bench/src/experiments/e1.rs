//! E1 — messages per consensus round (§5.4).
//!
//! Paper claim: with no crashes and no detector mistakes, one round costs
//! ◇C ≈ 4n messages (Θ(n)), CT ≈ 3n (Θ(n)), MR ≈ 3n² (Θ(n²)); and ◇C's
//! Phase 0 degrades to Ω(n²) when every process considers itself leader.
//!
//! Method: a stable scripted detector (leader p₀ from time zero) makes
//! every protocol decide in round 1; the round-tagged metrics then count
//! exactly one round's traffic. Decision broadcasts are excluded, as in
//! the paper. Our implementation sends no self-messages, so the measured
//! counts sit at the `k(n−1)` version of each `kn` formula.

use crate::scenarios::{jitter_net, run_scripted, stable_fd, Protocol};
use crate::table::{fmt_num, Table};
use fd_detectors::ScriptedDetector;
use fd_sim::{ProcessId, Time};

/// Run the experiment.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E1",
        "messages per round, failure-free stable runs",
        &[
            "protocol",
            "n",
            "measured",
            "paper kn",
            "impl k(n-1)",
            "meas/paper",
        ],
    );
    for proto in Protocol::ALL {
        for n in [3usize, 5, 9, 13, 21, 31, 63] {
            let r = run_scripted(proto, n, 42, jitter_net(n), Time::from_secs(5), stable_fd);
            assert!(r.all_decided, "{proto:?} n={n} did not decide");
            assert_eq!(
                r.max_decision_round(),
                Some(1),
                "{proto:?} n={n} needed >1 round"
            );
            let measured = r.messages_in_round(proto.prefix(), 1);
            let paper = proto.paper_messages(n);
            let impl_expected = match proto {
                Protocol::Ec | Protocol::Paxos => 4 * (n as u64 - 1),
                Protocol::Ct => 3 * (n as u64 - 1),
                Protocol::Mr => 3 * (n as u64) * (n as u64 - 1),
            };
            t.row(vec![
                proto.label().to_string(),
                n.to_string(),
                measured.to_string(),
                paper.to_string(),
                impl_expected.to_string(),
                fmt_num(measured as f64 / paper as f64),
            ]);
        }
    }
    t.note("decision (Reliable Broadcast) messages excluded, as in §5.4");
    t.note("shape check: ◇C and CT grow linearly, MR quadratically");

    // Phase 0 worst case: everyone self-elects until stabilization.
    let mut t2 = Table::new(
        "E1b",
        "◇C Phase 0 worst case: all processes self-elect (pre-stabilization churn)",
        &[
            "n",
            "churned rounds",
            "coordinator msgs",
            "per round",
            "n(n-1)",
        ],
    );
    for n in [5usize, 9, 13] {
        let stab = Time::from_millis(80);
        let r = run_scripted(
            Protocol::Ec,
            n,
            7,
            jitter_net(n),
            Time::from_secs(5),
            |pid, n| ScriptedDetector::chaos_then_leader(pid, n, stab, ProcessId(0)),
        );
        assert!(r.all_decided);
        // Rounds churned before the stable round decided.
        let churned = r.max_decision_round().unwrap_or(1).saturating_sub(1).max(1);
        let coord_msgs = r.metrics.sent_of_kind(fd_obs::keys::EC_COORDINATOR);
        t2.row(vec![
            n.to_string(),
            churned.to_string(),
            coord_msgs.to_string(),
            fmt_num(coord_msgs as f64 / churned as f64),
            (n * (n - 1)).to_string(),
        ]);
    }
    t2.note("the paper: \"Phase 0 ... could require Ω(n²) messages in the bad case\"");
    vec![t, t2]
}
