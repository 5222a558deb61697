//! Lemma 1 of the paper, checked on concrete traces: "In any round r, at
//! most one coordinator c will send a non-null estimate [proposition] to
//! all processes at the end of Phase 2."
//!
//! The wire kinds distinguish null from non-null propositions, so the
//! invariant is a pure trace scan: for every round, the set of distinct
//! senders of `ec.proposition` (non-null) has at most one element.

use ecfd::prelude::*;
use fd_sim::TraceKind;
use std::collections::{HashMap, HashSet};

fn assert_lemma1(trace: &fd_sim::Trace, kind_label: &str) {
    let mut proposers: HashMap<u64, HashSet<ProcessId>> = HashMap::new();
    for ev in trace.events() {
        if let TraceKind::Sent {
            from,
            kind,
            round: Some(r),
            ..
        } = ev.kind
        {
            if kind == kind_label {
                proposers.entry(r).or_default().insert(from);
            }
        }
    }
    for (round, who) in proposers {
        assert!(
            who.len() <= 1,
            "Lemma 1 violated in round {round}: non-null propositions from {who:?}"
        );
    }
}

#[test]
fn at_most_one_nonnull_proposition_per_round_under_chaos() {
    // Adversarial detectors (everyone self-elects until stabilization)
    // maximize coordinator contention — exactly the situation Lemma 1
    // must survive. Sweep seeds and stabilization times.
    for seed in 0..12 {
        let n = 5;
        let stab = Time::from_millis(30 + 17 * seed);
        let sc = Scenario::failure_free(n, seed, Time::from_secs(10));
        let r = run_scenario(default_net(n), &sc, |pid, n| {
            scripted_node(
                pid,
                ScriptedDetector::chaos_then_leader(pid, n, stab, ProcessId((seed % 5) as usize)),
                EcConsensus::new(pid, n),
            )
        });
        assert!(r.all_decided, "seed {seed}");
        assert_lemma1(&r.trace, "ec.proposition");
        ConsensusRun::new(&r.trace, n).check_all().unwrap();
    }
}

#[test]
fn lemma1_holds_for_the_merged_variant_too() {
    use fd_consensus::EcMergedConsensus;
    for seed in 0..12 {
        let n = 5;
        let stab = Time::from_millis(30 + 13 * seed);
        let sc = Scenario::failure_free(n, seed, Time::from_secs(10));
        let r = run_scenario(default_net(n), &sc, |pid, n| {
            scripted_node(
                pid,
                ScriptedDetector::chaos_then_leader(pid, n, stab, ProcessId((seed % 5) as usize)),
                EcMergedConsensus::new(pid, n),
            )
        });
        assert!(r.all_decided, "seed {seed}");
        assert_lemma1(&r.trace, "ecm.proposition");
        ConsensusRun::new(&r.trace, n).check_all().unwrap();
    }
}

#[test]
fn lemma1_holds_with_real_detectors_and_crashes() {
    for seed in 0..10 {
        let n = 5;
        let sc = Scenario::failure_free(n, seed, Time::from_secs(10)).with_crash(
            ProcessId((seed as usize) % n),
            Time::from_millis(5 + seed * 9),
        );
        let r = run_scenario(default_net(n), &sc, ec_node_hb);
        assert!(r.all_decided, "seed {seed}");
        assert_lemma1(&r.trace, "ec.proposition");
    }
}
