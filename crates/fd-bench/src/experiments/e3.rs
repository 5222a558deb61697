//! E3 — rounds needed after detector stabilization (Theorem 3, §5.4).
//!
//! Paper claim: a rotating-coordinator ◇S algorithm may need up to n
//! rounds *after the detector stabilizes* before the never-suspected
//! process coordinates; the ◇C algorithm (and MR's Ω algorithm) decide
//! in one round, because the detector *chooses* the coordinator.
//!
//! Method: a scripted detector that is stable from time zero on leader
//! `p_k` (everyone suspects `Π \ {p_k}` — a legal ◇S/◇C/Ω history).
//! Sweeping k, CT must burn through rounds 1..k (their coordinators are
//! suspected) and decide in round k+1; ◇C and MR always decide in the
//! first round. The burnt rounds cost CT no waiting here — a participant
//! nacks a coordinator it already suspects the moment it enters that
//! round — so its decide time stays within a few link delays of round
//! one's; where each suspicion must first be earned by a timeout, each
//! burnt round costs one.

use crate::scenarios::{jitter_net, run_scripted, Protocol};
use crate::table::Table;
use fd_core::ProcessSet;
use fd_detectors::ScriptedDetector;
use fd_sim::{ProcessId, Time};

/// Run the experiment.
pub fn run() -> Vec<Table> {
    let n = 9usize;
    let mut t = Table::new(
        "E3",
        "decision round vs. stable-leader position (n = 9, stable from t = 0)",
        &[
            "protocol",
            "leader p_k",
            "decision round",
            "decide time (ms)",
        ],
    );
    for proto in Protocol::WITH_PAXOS {
        for k in [0usize, 2, 4, 6, 8] {
            let leader = ProcessId(k);
            let r = run_scripted(
                proto,
                n,
                11,
                jitter_net(n),
                Time::from_secs(20),
                move |_pid, n| {
                    ScriptedDetector::stable(leader, ProcessSet::singleton(leader).complement(n))
                },
            );
            assert!(r.all_decided, "{proto:?} k={k}");
            t.row(vec![
                proto.label().to_string(),
                format!("p{k}"),
                r.max_decision_round().unwrap().to_string(),
                r.decide_time.unwrap().as_millis().to_string(),
            ]);
        }
    }
    t.note("CT needs k+1 rounds (rotation reaches p_k); ◇C, MR and Paxos need 1 — Theorem 3's");
    t.note("shape (Paxos 'rounds' are ballot numbers, proposer-unique, so k-dependent in value)");
    t.note("suspected from t = 0, CT's k burnt rounds cost no waiting: its decide time stays");
    t.note("within a few link delays of round 1's (it grows by a timeout per round only when");
    t.note("each suspicion must first be earned)");
    vec![t]
}
