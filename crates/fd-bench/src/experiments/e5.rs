//! E5 — decision blocking by negative replies (§5.4's "interesting
//! feature").
//!
//! Paper claims:
//!
//! * Chandra–Toueg's coordinator takes the *first* ⌈(n+1)/2⌉ replies and
//!   "one single negative reply blocks the decision";
//! * MR (with only `f < n/2` known) waits for a bare majority, so one ⊥
//!   among the first majority likewise blocks;
//! * the ◇C coordinator keeps waiting for every *unsuspected* process and
//!   decides when a **majority of positive** replies exist, even if some
//!   replies are negative — so it tolerates up to `n − ⌈(n+1)/2⌉` nacks.
//!
//! Method: `k` processes are given a detector that (until 300 ms) falsely
//! suspects the leader p₀ (◇C/CT: they nack the coordinator; MR: they
//! vote for themselves and emit ⊥). We sweep `k` and count how often the
//! protocol still decides in round 1, over 20 seeds.

use crate::scenarios::{jitter_net, run_scripted, Protocol};
use crate::table::{fmt_num, Table};
use fd_core::{FdOutput, ProcessSet};
use fd_detectors::ScriptedDetector;
use fd_sim::{ProcessId, Time};

/// Build the E5 detector for one process: `nackers` falsely suspect
/// (or self-trust, for MR) until `heal`; everyone else is stable on p0.
fn e5_fd(
    pid: ProcessId,
    n: usize,
    nackers: &ProcessSet,
    heal: Time,
    mr_mode: bool,
) -> ScriptedDetector {
    let _ = n;
    let leader = ProcessId(0);
    // The clean detector has *good accuracy* (empty suspect set) — this
    // is the precondition for the ◇C coordinator's "wait for every
    // unsuspected process" clause to gather the extra positive replies
    // the paper's feature depends on.
    let clean = FdOutput {
        suspected: ProcessSet::new(),
        trusted: Some(leader),
    };
    if !nackers.contains(pid) {
        return ScriptedDetector::from_schedule(vec![(Time::ZERO, clean)]);
    }
    let dirty = if mr_mode {
        // MR reads only the trusted output: a self-vote spoils the
        // leader-majority at this process and produces a ⊥.
        FdOutput {
            suspected: ProcessSet::new(),
            trusted: Some(pid),
        }
    } else {
        // ◇C/CT read the suspected set: falsely suspecting the leader
        // makes this process nack the round-1 coordinator.
        FdOutput {
            suspected: ProcessSet::singleton(leader),
            trusted: Some(leader),
        }
    };
    ScriptedDetector::from_schedule(vec![(Time::ZERO, dirty), (heal, clean)])
}

/// Run the experiment.
pub fn run() -> Vec<Table> {
    let n = 5usize;
    let seeds = 20u64;
    let heal = Time::from_millis(300);
    let mut t = Table::new(
        "E5",
        "round-1 decisions with k false accusers (n = 5, majority = 3, 20 seeds)",
        &[
            "protocol",
            "k",
            "P(decide in round 1)",
            "mean decision round",
        ],
    );
    for proto in Protocol::ALL {
        for k in 0..n {
            // The accusers are the last k processes (never the leader).
            let nackers: ProcessSet = (n - k..n).map(ProcessId).collect();
            let mut round1 = 0u64;
            let mut round_sum = 0u64;
            for seed in 0..seeds {
                let nackers = nackers.clone();
                let r = run_scripted(
                    proto,
                    n,
                    seed,
                    jitter_net(n),
                    Time::from_secs(20),
                    move |pid, n| e5_fd(pid, n, &nackers, heal, proto == Protocol::Mr),
                );
                assert!(
                    r.all_decided,
                    "{proto:?} k={k} seed={seed} did not terminate"
                );
                let round = r.max_decision_round().unwrap();
                if round == 1 {
                    round1 += 1;
                }
                round_sum += round;
            }
            t.row(vec![
                proto.label().to_string(),
                k.to_string(),
                fmt_num(round1 as f64 / seeds as f64),
                fmt_num(round_sum as f64 / seeds as f64),
            ]);
        }
    }
    t.note("◇C tolerates k ≤ n − ⌈(n+1)/2⌉ = 2 accusers deterministically;");
    t.note("CT fails round 1 whenever k ≥ 1 (one nack among the first majority);");
    t.note("MR with unknown f survives small k only when the ⊥s arrive late (a race)");
    t.note("CT rows can show slightly <1.00 at k=0: the round-2 coordinator may decide");
    t.note("the same value before the round-1 broadcast lands (agreement is unaffected)");
    vec![t]
}
