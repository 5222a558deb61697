//! E6 — correctness envelope of the Fig. 2 transformation (Theorem 1).
//!
//! Paper claim: given any ◇C (or Ω) detector, partial synchrony on the
//! leader's *input* links and fairness on its *output* links, the Fig. 2
//! algorithm implements ◇P — with only finitely many mistakes (the
//! adaptive timeout eventually exceeds 2Φ + Δ).
//!
//! Method: sweep GST and the output-link loss rate, with and without
//! crashes; run the \[16\]-leader + Fig. 2 stack; check the ◇P properties
//! on the trace, and report the empirical stabilization time and the
//! number of Task-4 mistakes.

use crate::table::Table;
use fd_core::{FdClass, FdRun, Stack};
use fd_detectors::{EcToEp, EcToEpConfig, LeaderConfig, LeaderDetector, EP_SUSPECTS_OUT};
use fd_sim::{LinkModel, NetworkConfig, ProcessId, SimDuration, Time, WorldBuilder};

fn stack_net(n: usize, leader: ProcessId, gst: Time, out_drop: f64) -> NetworkConfig {
    NetworkConfig::new(n)
        .with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(4),
        ))
        .with_links_into(
            leader,
            LinkModel::eventually_timely(
                gst,
                SimDuration::from_millis(5),
                SimDuration::from_millis(120),
                0.3,
            ),
        )
        .with_links_out_of(
            leader,
            LinkModel::fair_lossy(
                SimDuration::from_millis(1),
                SimDuration::from_millis(4),
                out_drop,
            ),
        )
}

/// Run the experiment.
pub fn run() -> Vec<Table> {
    let n = 5usize;
    let mut t = Table::new(
        "E6",
        "Fig. 2 (◇C→◇P) under partial synchrony: ◇P holds? (n = 5)",
        &[
            "GST (ms)",
            "out-loss",
            "crashes",
            "◇P holds",
            "stabilized (ms)",
            "leader mistakes",
        ],
    );
    for gst_ms in [0u64, 100, 400] {
        for out_drop in [0.0f64, 0.25, 0.5] {
            for crashes in [0usize, 2] {
                // With c crashes of the lowest ids, the eventual leader is p_c.
                let leader = ProcessId(crashes);
                let gst = Time::from_millis(gst_ms);
                let mut b =
                    WorldBuilder::new(stack_net(n, leader, gst, out_drop)).seed(gst_ms ^ 0xE6);
                for c in 0..crashes {
                    b = b.crash_at(ProcessId(c), Time::from_millis(200 + 100 * c as u64));
                }
                let mut w = b.build(|pid, n| {
                    Stack::new(
                        LeaderDetector::new(pid, n, LeaderConfig::default()),
                        EcToEp::new(pid, n, EcToEpConfig::default()),
                    )
                });
                let end = Time::from_secs(8);
                w.run_until_time(end);
                let mistakes = w.actor(leader).above.mistakes();
                let (trace, _) = w.into_results();
                let run = FdRun::new(&trace, n, end).with_suspects_tag(EP_SUSPECTS_OUT);
                let holds = run.check_class(FdClass::EventuallyPerfect);
                let stab = run.stabilization_time().map(|t| t.as_millis());
                t.row(vec![
                    gst_ms.to_string(),
                    format!("{out_drop:.2}"),
                    crashes.to_string(),
                    match &holds {
                        Ok(()) => "yes".to_string(),
                        Err(v) => format!("NO: {v}"),
                    },
                    stab.map_or("-".into(), |s| s.to_string()),
                    mistakes.to_string(),
                ]);
            }
        }
    }
    t.note("Theorem 1: ◇P must hold in every row; mistakes are finite (bounded count)");
    t.note("\"stabilized\" is the last ◇P-output change at any correct process");
    vec![t]
}
