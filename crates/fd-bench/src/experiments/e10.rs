//! E10 — quiescent reliable communication (\[1\], cited in §1.1).
//!
//! The timeout-free Heartbeat detector's headline property, measured:
//! a sender retransmits only on fresh heartbeat evidence, so
//!
//! * a **correct** receiver is reached (and the pending set drains) even
//!   under heavy fair loss, with the retransmission count scaling with
//!   the loss rate;
//! * a **crashed** receiver's heartbeat counter freezes, so transmissions
//!   stop — the channel goes *quiescent* instead of retrying forever.

use crate::table::Table;
use fd_core::Stack;
use fd_detectors::{HbCounterConfig, HeartbeatCounter, QuiescentChannel};
use fd_sim::{LinkModel, NetworkConfig, ProcessId, SimDuration, Time, WorldBuilder};

/// Run the experiment.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E10",
        "quiescent reliable communication over fair-lossy links ([1])",
        &[
            "receiver",
            "loss",
            "delivered",
            "tx @2s",
            "tx @8s",
            "quiescent",
        ],
    );
    for &crashed in &[false, true] {
        for &loss in &[0.2f64, 0.5, 0.8] {
            let n = 2;
            let net = NetworkConfig::new(n).with_default(LinkModel::fair_lossy(
                SimDuration::from_millis(1),
                SimDuration::from_millis(4),
                loss,
            ));
            let mut b = WorldBuilder::new(net).seed((loss * 100.0) as u64);
            if crashed {
                b = b.crash_at(ProcessId(1), Time::ZERO);
            }
            let mut w = b.build(|_, n| {
                let cfg = HbCounterConfig::default();
                Stack::new(
                    HeartbeatCounter::new(n, cfg.clone()),
                    QuiescentChannel::new(cfg),
                )
            });
            w.interact(ProcessId(0), |node, ctx| {
                node.with_above(ctx, |qc, ctx, hb| qc.send(ctx, ProcessId(1), 42, hb));
            });
            w.run_until_time(Time::from_secs(2));
            let tx_2s = w.actor(ProcessId(0)).above.transmissions(ProcessId(1), 0);
            w.run_until_time(Time::from_secs(8));
            let tx_8s = w.actor(ProcessId(0)).above.transmissions(ProcessId(1), 0);
            let delivered = w.actor(ProcessId(0)).above.pending_len() == 0;
            t.row(vec![
                if crashed { "crashed" } else { "correct" }.into(),
                format!("{loss:.1}"),
                if delivered { "yes" } else { "no" }.into(),
                tx_2s.to_string(),
                tx_8s.to_string(),
                if tx_2s == tx_8s { "yes" } else { "NO" }.into(),
            ]);
        }
    }
    t.note("correct receiver: delivered at every loss rate (tx grows with loss, then stops");
    t.note("after the ack); crashed receiver: never delivered, but tx FREEZES — quiescence,");
    t.note("which a timeout-based retransmitter cannot achieve without risking reliability");
    vec![t]
}
