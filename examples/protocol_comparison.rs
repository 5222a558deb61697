//! The §5.4 comparison, live: run the paper's ◇C consensus, the
//! Chandra–Toueg ◇S baseline, and the Mostefaoui–Raynal Ω baseline on
//! the same scenario and print rounds, messages, and latency.
//!
//! ```bash
//! cargo run --example protocol_comparison
//! ```
//!
//! The scenario stresses the rotating-coordinator weakness: the detector
//! is stable from the start with p3 as the (never-suspected) leader, so
//! CT must rotate through rounds 1–3 before its coordinator is trusted,
//! while the leader-based protocols decide in round 1 (Theorem 3).

use ecfd::prelude::*;
use fd_consensus::{CtConsensus, MrConsensus, PaxosConsensus};

fn main() {
    let n = 5;
    let leader = ProcessId(3);
    let sc = Scenario::failure_free(n, 9, Time::from_secs(10));

    println!("n = {n}; detector stable from t=0: everyone trusts {leader}, suspects the rest\n");
    println!(
        "{:<12} {:>9} {:>14} {:>12} {:>16}",
        "protocol", "decided", "decision round", "time (ms)", "protocol msgs"
    );

    let mk_fd = move |_pid: ProcessId, n: usize| {
        ScriptedDetector::stable(leader, ProcessSet::singleton(leader).complement(n))
    };

    let ec = run_scenario(default_net(n), &sc, |pid, n| {
        scripted_node(pid, mk_fd(pid, n), EcConsensus::new(pid, n))
    });
    report("◇C (paper)", &ec, "ec.");

    let ct = run_scenario(default_net(n), &sc, |pid, n| {
        scripted_node(pid, mk_fd(pid, n), CtConsensus::new(pid, n))
    });
    report("CT ◇S", &ct, "ct.");

    let mr = run_scenario(default_net(n), &sc, |pid, n| {
        scripted_node(pid, mk_fd(pid, n), MrConsensus::with_unknown_f(pid, n))
    });
    report("MR Ω", &mr, "mr.");

    let paxos = run_scenario(default_net(n), &sc, |pid, n| {
        scripted_node(pid, mk_fd(pid, n), PaxosConsensus::new(pid, n))
    });
    report("Paxos [13]", &paxos, "paxos.");

    println!("\nthe ◇C algorithm decides in the first round its leader coordinates;");
    println!("CT pays extra rounds for the rotation (Theorem 3), MR pays n² messages;");
    println!("Paxos (one uncontested ballot — its 'round' is the ballot number) matches");
    println!("◇C's latency: prepare/promise is Phase 0/1 by another name (§1.2).");
}

fn report(label: &str, r: &RunResult, prefix: &str) {
    ConsensusRun::new(&r.trace, r.n)
        .check_all()
        .expect("uniform consensus");
    println!(
        "{:<12} {:>9} {:>14} {:>12} {:>16}",
        label,
        r.decided_value(),
        r.max_decision_round().unwrap(),
        r.decide_time.unwrap().as_millis(),
        r.messages_with_prefix(prefix),
    );
}
