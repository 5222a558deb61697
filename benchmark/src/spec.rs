//! The benchmark's contract: every metric's name, unit, direction and
//! bound, and the text of `BENCHMARK.json`.
//!
//! One table is the single source of truth. `--spec` prints
//! `BENCHMARK.json` from it, a unit test holds the committed file equal
//! to that text, and the runner emits exactly these names — so the file,
//! the binary and the README's tables cannot drift apart silently.

use crate::kv::RAMP_RATES;
use crate::workload::WORKLOADS;

pub const RUN_SECONDS: u32 = 10;

pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// What an end-to-end metric is made of, which decides how two runs of
/// it may differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall time (at reference speed): noisy, compared by medians.
    HostTime,
    /// Counting-allocator bytes: exact but for `HashMap` rehash luck.
    Heap,
    /// A simulated quantity: a pure function of the inputs.
    Simulated,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub kind: Kind,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    kind: Kind,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        kind,
    }
}

/// Every workload reports every one of these (`--trace 0`).
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", "lower", 0.25, Kind::HostTime),
    e2e("events_per_ref_s", "1/s", "higher", 0.25, Kind::HostTime),
    e2e("host_ref_us_per_op", "us", "lower", 0.25, Kind::HostTime),
    e2e("peak_heap_mb", "MB", "lower", 0.10, Kind::Heap),
    e2e("msgs_per_op", "count", "lower", 0.05, Kind::Simulated),
    e2e("sim_p50_ms", "ms", "lower", 0.10, Kind::Simulated),
    e2e("sim_tail_ms", "ms", "lower", 0.20, Kind::Simulated),
    e2e("ok_share", "ratio", "higher", 0.05, Kind::Simulated),
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn layer(name: impl Into<String>, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name: name.into(),
        unit,
        better,
    }
}

/// Every workload's traced run reports every one of these
/// (`--trace 1`); 0 where the workload's traced run does not measure
/// the metric (README, "Per-layer metrics", lists each metric's homes).
pub fn per_layer() -> Vec<PerLayer> {
    let mut v = vec![
        // Per workload: where a rep's wall time goes.
        layer("span.plan_share", "ratio", "lower"),
        layer("span.execute_share", "ratio", "lower"),
        layer("span.check_share", "ratio", "lower"),
        layer("span.extract_share", "ratio", "lower"),
        layer("span.other_share", "ratio", "lower"),
        layer("kernel_ns_per_event", "ns", "lower"),
        layer("actor_ns_per_event", "ns", "lower"),
        layer("queue_depth_hwm", "count", "lower"),
        layer("events_per_op", "count", "lower"),
        layer("allocs_per_event", "count", "lower"),
        layer("heap_bytes_per_event", "B", "lower"),
        layer("drop_share", "ratio", "lower"),
        layer("rep_spread", "ratio", "lower"),
        layer("raw_rep_spread", "ratio", "lower"),
        layer("raw_events_per_s", "1/s", "higher"),
        layer("cal_cpu_ms", "ms", "lower"),
        layer("cal_mem_ms", "ms", "lower"),
        layer("cal_sim_ms", "ms", "lower"),
        layer("peak_rss_mb", "MB", "lower"),
        layer("trace_overhead_share", "ratio", "lower"),
        // fd-sim, isolated drivers.
        layer("fd-sim.queue.wheel_ns_per_op", "ns", "lower"),
        layer("fd-sim.queue.classic_ns_per_op", "ns", "lower"),
        layer("fd-sim.dispatch.flood_ns_per_event", "ns", "lower"),
        layer("fd-sim.link.reliable_ns", "ns", "lower"),
        layer("fd-sim.link.lossy_ns", "ns", "lower"),
        layer("fd-sim.trace.fill_ns_per_event", "ns", "lower"),
        layer("fd-sim.world.build_us_per_proc", "us", "lower"),
        layer("fd-sim.world.reset_us_per_proc", "us", "lower"),
        layer("fd-sim.disk.append_fsync_ns", "ns", "lower"),
        // fd-detectors.
        layer("fd-detectors.heartbeat_ns_per_event", "ns", "lower"),
        layer("fd-detectors.ring_ns_per_event", "ns", "lower"),
        layer("fd-detectors.vcube_ns_per_event", "ns", "lower"),
        layer("fd-detectors.vcube_lossy_ns_per_event", "ns", "lower"),
        layer("fd-detectors.stable_leader_ns_per_event", "ns", "lower"),
        layer("fd-detectors.false_suspicions_per_proc_s", "1/s", "lower"),
        layer("fd-detectors.detect_p50_ms", "ms", "lower"),
        layer("fd-detectors.detected_share", "ratio", "higher"),
        // fd-consensus.
        layer("fd-consensus.ec_us_per_decision", "us", "lower"),
        layer("fd-consensus.ct_us_per_decision", "us", "lower"),
        layer("fd-consensus.mr_us_per_decision", "us", "lower"),
        layer("fd-consensus.paxos_us_per_decision", "us", "lower"),
        layer("fd-consensus.ec_msgs_per_decision", "count", "lower"),
        layer("fd-consensus.ct_msgs_per_decision", "count", "lower"),
        layer("fd-consensus.mr_msgs_per_decision", "count", "lower"),
        layer("fd-consensus.paxos_msgs_per_decision", "count", "lower"),
        layer("fd-consensus.ec_rounds_per_decision", "count", "lower"),
        // fd-campaign, fd-core, fd-chaos.
        layer("fd-campaign.overhead_us_per_seed", "us", "lower"),
        layer("fd-campaign.stats_ns_per_sample", "ns", "lower"),
        layer("fd-core.check_us_per_run", "us", "lower"),
        layer("fd-chaos.compile_us", "us", "lower"),
        // fd-kv, isolated drivers.
        layer("fd-kv.wal.append_ns", "ns", "lower"),
        layer("fd-kv.wal.recover_ns_per_record", "ns", "lower"),
        layer("fd-kv.store.apply_ns", "ns", "lower"),
        layer("fd-kv.snapshot.roundtrip_us", "us", "lower"),
    ];
    // fd-kv, per ramp step.
    for rate in RAMP_RATES {
        let key = |what: &str| format!("fd-kv.step{rate}.{what}");
        v.extend([
            layer(key("commit_p99_ms"), "ms", "lower"),
            layer(key("committed_share"), "ratio", "higher"),
            layer(key("host_us_per_event"), "us", "lower"),
            layer(key("ack_fsyncs_per_op"), "count", "lower"),
            layer(key("msgs_per_op"), "count", "lower"),
        ]);
    }
    v.extend([
        layer("fd-kv.max_rate_ok", "1/s", "higher"),
        layer("fd-kv.submit_late_share", "ratio", "lower"),
        layer("fd-kv.blackout_p50_ms", "ms", "lower"),
        layer("fd-kv.blackout_p95_ms", "ms", "lower"),
        layer("fd-kv.recovery_p50_ms", "ms", "lower"),
        layer("fd-kv.blackout.detect_p50_ms", "ms", "lower"),
        layer("fd-kv.blackout.after_detect_p50_ms", "ms", "lower"),
        layer("fd-kv.replayed_wal_records_p50", "count", "lower"),
        layer("fd-kv.catchup_entries_p50", "count", "lower"),
        // fd-mc.
        layer("fd-mc.multi_n3_runs_per_s", "1/s", "higher"),
        layer("fd-mc.multi_n3_states", "count", "lower"),
        // The ROADMAP 1(c) cells: visible, never gating.
        layer("scale.heartbeat-stable-n256.ns_per_event", "ns", "lower"),
        layer("scale.heartbeat-stable-n1024.ns_per_event", "ns", "lower"),
        layer("scale.vcube-stable-n256.ns_per_event", "ns", "lower"),
        layer("scale.vcube-stable-n1024.ns_per_event", "ns", "lower"),
        layer("scale.vcube-lossy-n1024.ns_per_event", "ns", "lower"),
        layer("scale.ring-stable-n4096.ns_per_event", "ns", "lower"),
    ]);
    v
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted = |xs: &[&str]| {
        xs.iter()
            .map(|x| format!("\"{x}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out += &format!("  \"command\": [{}],\n", quoted(&COMMAND));
    out += "  \"paths\": [\"benchmark\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    out += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_benchmark_json_is_what_the_binary_describes() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --spec > BENCHMARK.json"
        );
    }

    #[test]
    fn the_contract_limits_hold() {
        let valid_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let valid_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!(layers.len() <= 128 && (1..=16).contains(&END_TO_END.len()));
        let mut names = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && names.insert(name.to_string()), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        for m in &END_TO_END {
            assert!(
                valid_name(m.name) && names.insert(m.name.to_string()),
                "{}",
                m.name
            );
            assert!(
                valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
            assert!(["lower", "higher"].contains(&m.better));
        }
        for m in &layers {
            assert!(
                valid_name(&m.name) && names.insert(m.name.clone()),
                "{}",
                m.name
            );
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
