//! The `kv-bench` experiment: serving-stack latency per detector class.
//!
//! Runs the *same* standard crash/restart plan — n = 4, one replica
//! crashing at 600 ms and returning at 1.4 s, GST at 300 ms — under each
//! of the three detector classes, sweeping seeds so the workload and
//! every RNG stream vary per run, and distills:
//!
//! * **commit latency** (submit → durable ack) p50/p99/p99.9 — the
//!   end-to-end figure: consensus round-trips *plus* the group-commit
//!   fsync;
//! * **operations per batch** — the length of every non-empty batch a
//!   replica proposed for a slot (`multi.propose`): 1 at this plan's
//!   light load, more wherever a backlog formed (behind the blackout);
//! * **failover blackout** — how long after the crash until a surviving
//!   replica applies the next log entry (the window in which the service
//!   accepts ops but commits nothing);
//! * **catch-up volume** — WAL records replayed locally and log entries
//!   fetched from peers by the restarted replica, plus the simulated
//!   time from restart to `kv.sync_done`.
//!
//! The output lands in `BENCH_kv.json` via `ecfd kv-bench`. Every number
//! is simulated time, so the file is an experiment's golden output, not
//! a timing: it reproduces byte for byte per seed range and CI `cmp`s a
//! fresh run against the committed file. What this plan costs in host
//! time is the `kv-failover` workload of the `benchmark/` package.

use crate::replica::obs;
use crate::scenario::{commit_latencies, kv_spec_of, KvScenario};
use fd_campaign::{Scenario, Stats};
use fd_chaos::{ChaosKind, ChaosPlan, DetectorKind};
use fd_sim::{ProcessId, Time};

/// The standard plan's crashed-and-restarted replica.
const VICTIM: ProcessId = ProcessId(1);
/// The standard plan's crash instant.
const CRASH_AT: Time = Time::from_millis(600);
/// The standard plan's restart instant.
const RESTART_AT: Time = Time::from_millis(1400);
/// The standard plan's horizon.
const HORIZON: Time = Time::from_secs(8);

/// The standard crash/restart schedule every detector class is measured
/// under.
pub fn standard_plan(detector: DetectorKind) -> ChaosPlan {
    ChaosPlan::new(4, detector, HORIZON)
        .push(Time::from_millis(300), ChaosKind::GstMarker)
        .push(CRASH_AT, ChaosKind::Crash { pid: VICTIM })
        .push(RESTART_AT, ChaosKind::Restart { pid: VICTIM })
}

fn detector_key(d: DetectorKind) -> &'static str {
    match d {
        DetectorKind::Heartbeat => "heartbeat",
        DetectorKind::Ring => "ring",
        DetectorKind::StableLeader => "stable_leader",
    }
}

fn stats_value(s: Option<Stats>) -> serde::Value {
    match s {
        None => serde::Value::Null,
        Some(s) => serde::Value::Obj(vec![
            ("count".to_string(), serde::Value::U128(s.count as u128)),
            ("min".to_string(), serde::Value::U128(s.min.into())),
            ("mean".to_string(), serde::Value::F64(s.mean)),
            ("p50".to_string(), serde::Value::U128(s.p50.into())),
            ("p99".to_string(), serde::Value::U128(s.p99.into())),
            ("p999".to_string(), serde::Value::U128(s.p999.into())),
            ("max".to_string(), serde::Value::U128(s.max.into())),
        ]),
    }
}

/// Measure one detector class over `seeds` seeds of the standard plan.
fn bench_detector(detector: DetectorKind, seeds: u64) -> serde::Value {
    let sc = KvScenario::fixed(standard_plan(detector)).expect("standard plan is legal");
    let mut ex = sc.make_executor();
    let mut commit_us: Vec<u64> = Vec::new();
    let mut batch_ops: Vec<u64> = Vec::new();
    let mut blackout_us: Vec<u64> = Vec::new();
    let mut replayed: Vec<u64> = Vec::new();
    let mut fetched: Vec<u64> = Vec::new();
    let mut recovery_us: Vec<u64> = Vec::new();
    let mut violations = 0u64;
    let monitors = sc.monitors();
    for seed in 0..seeds {
        let plan = sc.plan(seed);
        debug_assert!(kv_spec_of(&plan).is_ok());
        let outcome = ex.execute(&plan, None);
        if monitors.iter().any(|m| m.check(&outcome).is_err()) {
            violations += 1;
        }
        for (_, _, d) in commit_latencies(&outcome.trace) {
            commit_us.push(d.ticks());
        }
        for (_, _, payload) in outcome.trace.observations(fd_obs::keys::MULTI_PROPOSE) {
            batch_ops.extend(payload.as_u64_pair().map(|(_slot, len)| len));
        }
        // Blackout: first post-crash apply at a *surviving* replica.
        let first_apply_after = outcome
            .trace
            .observations(obs::APPLY)
            .filter(|(t, pid, _)| *pid != VICTIM && *t >= CRASH_AT)
            .map(|(t, _, _)| t)
            .next();
        if let Some(t) = first_apply_after {
            blackout_us.push(t.since(CRASH_AT).ticks());
        }
        if let Some((_, p)) = outcome.trace.last_observation_of(VICTIM, obs::RECOVERY) {
            if let Some((r, _)) = p.as_u64_pair() {
                replayed.push(r);
            }
        }
        if let Some((t, p)) = outcome.trace.last_observation_of(VICTIM, obs::SYNC_DONE) {
            if let Some((_, f)) = p.as_u64_pair() {
                fetched.push(f);
            }
            recovery_us.push(t.since(RESTART_AT).ticks());
        }
    }
    serde::Value::Obj(vec![
        (
            "commit_us".to_string(),
            stats_value(Stats::from_samples(commit_us)),
        ),
        (
            "batch_ops".to_string(),
            stats_value(Stats::from_samples(batch_ops)),
        ),
        (
            "blackout_us".to_string(),
            stats_value(Stats::from_samples(blackout_us)),
        ),
        (
            "replayed_wal_records".to_string(),
            stats_value(Stats::from_samples(replayed)),
        ),
        (
            "catchup_entries".to_string(),
            stats_value(Stats::from_samples(fetched)),
        ),
        (
            "recovery_us".to_string(),
            stats_value(Stats::from_samples(recovery_us)),
        ),
        (
            "violations".to_string(),
            serde::Value::U128(violations.into()),
        ),
    ])
}

/// Run the full kv benchmark: every detector class over `seeds` seeds of
/// the standard crash/restart plan. The returned object is what
/// `ecfd kv-bench` writes to `BENCH_kv.json`.
pub fn kv_bench(seeds: u64) -> serde::Value {
    let detectors = DetectorKind::ALL
        .iter()
        .map(|&d| (detector_key(d).to_string(), bench_detector(d, seeds)))
        .collect();
    serde::Value::Obj(vec![
        ("bench".to_string(), serde::Value::Str("kv".into())),
        ("seeds".to_string(), serde::Value::U128(seeds.into())),
        (
            "plan".to_string(),
            serde::Value::Obj(vec![
                ("n".to_string(), serde::Value::U128(4)),
                (
                    "crash_ms".to_string(),
                    serde::Value::U128((CRASH_AT.ticks() / 1000).into()),
                ),
                (
                    "restart_ms".to_string(),
                    serde::Value::U128((RESTART_AT.ticks() / 1000).into()),
                ),
                (
                    "horizon_ms".to_string(),
                    serde::Value::U128((HORIZON.ticks() / 1000).into()),
                ),
                (
                    "fsync_cost_us".to_string(),
                    serde::Value::U128(
                        crate::replica::KvConfig::default()
                            .storage
                            .fsync_cost
                            .ticks()
                            .into(),
                    ),
                ),
            ]),
        ),
        ("detectors".to_string(), serde::Value::Obj(detectors)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_plans_are_legal_for_every_detector() {
        for d in DetectorKind::ALL {
            standard_plan(d).validate().unwrap();
        }
    }

    /// The checked-in plan CI's `kv-smoke` job feeds to
    /// `ecfd campaign --plan` must stay in lockstep with
    /// [`standard_plan`] — the benchmark and the smoke job are meant to
    /// measure the same schedule.
    #[test]
    fn committed_plan_file_matches_standard_plan() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/plans/standard-crash-restart.json"
        );
        let text = std::fs::read_to_string(path).expect("plan file present");
        let parsed: ChaosPlan = serde_json::from_str(&text).expect("plan file parses");
        assert_eq!(parsed, standard_plan(DetectorKind::Heartbeat));
    }

    #[test]
    fn bench_produces_populated_metrics() {
        let v = kv_bench(2);
        let detectors = v.field("detectors");
        for key in ["heartbeat", "ring", "stable_leader"] {
            let d = detectors.field(key);
            assert!(
                d.field("commit_us").field("count").as_u64().unwrap_or(0) > 0,
                "{key}: no commit samples"
            );
            assert!(
                d.field("batch_ops").field("min").as_u64().unwrap_or(0) >= 1,
                "{key}: every proposed batch counted holds at least one op"
            );
            assert_eq!(
                d.field("violations").as_u64(),
                Some(0),
                "{key}: property violations during bench"
            );
        }
    }
}
