//! Microbenchmarks of the kernel hot paths.
//!
//! Where `campaign::kernel_bench` measures the whole E8 sweep
//! end-to-end, this suite isolates the three subsystems the hot-path
//! overhaul touched — event queue, dispatch/broadcast, trace recording —
//! so a regression in one shows up as a number, not a guess. The
//! workload drivers live in [`fd_sim::bench`] (they need crate-private
//! access); this module only times them: short warm-up, repeated timed
//! runs, median-of-reps, returned as JSON.
//!
//! `ecfd bench-kernel` writes the result to `BENCH_micro.json` alongside
//! `BENCH_kernel.json`.

use fd_sim::bench::{dispatch_flood, queue_churn, trace_fill};
use fd_sim::QueueImpl;
use std::time::Instant;

/// Timed reps per benchmark (median reported). Odd, so the median is a
/// real observation.
const REPS: usize = 5;

/// One measured microbenchmark: `ops` operations per rep, median rep
/// wall time across [`REPS`] timed runs (after one warm-up).
struct Measurement {
    id: &'static str,
    ops: u64,
    median_ns: u64,
}

fn measure(id: &'static str, ops: u64, mut routine: impl FnMut() -> u64) -> Measurement {
    std::hint::black_box(routine()); // warm-up: page in code and data
    let mut samples: Vec<u64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(routine());
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    samples.sort_unstable();
    Measurement {
        id,
        ops,
        median_ns: samples[REPS / 2],
    }
}

impl Measurement {
    fn row(&self) -> serde::Value {
        let ns_per_op = self.median_ns as f64 / self.ops.max(1) as f64;
        let ops_per_sec = if self.median_ns == 0 {
            0.0
        } else {
            self.ops as f64 / (self.median_ns as f64 / 1e9)
        };
        serde::Value::Obj(vec![
            ("id".to_string(), serde::Value::Str(self.id.to_string())),
            ("ops".to_string(), serde::Value::U128(self.ops.into())),
            (
                "median_ns".to_string(),
                serde::Value::U128(self.median_ns.into()),
            ),
            ("ns_per_op".to_string(), serde::Value::F64(ns_per_op)),
            ("ops_per_sec".to_string(), serde::Value::F64(ops_per_sec)),
        ])
    }
}

/// Events pushed/popped per queue-churn rep.
const QUEUE_EVENTS: u64 = 20_000;
/// Trace events appended per trace-fill rep (×2 fills inside the driver).
const TRACE_EVENTS: u64 = 20_000;
/// Flood size and simulated span for the dispatch bench.
const FLOOD_N: usize = 7;
const FLOOD_MS: u64 = 200;

/// Run the whole suite and return the JSON object `ecfd bench-kernel`
/// writes to `BENCH_micro.json`: one row per benchmark with ops, median
/// wall, ns/op and ops/s.
pub fn micro_bench() -> serde::Value {
    // Ops for the flood are whatever the deterministic run processes.
    let flood_events = dispatch_flood(FLOOD_N, FLOOD_MS);
    let rows = [
        measure("queue_push_pop/wheel", QUEUE_EVENTS, || {
            queue_churn(QueueImpl::Wheel, QUEUE_EVENTS)
        }),
        measure("queue_push_pop/classic", QUEUE_EVENTS, || {
            queue_churn(QueueImpl::Classic, QUEUE_EVENTS)
        }),
        measure("dispatch_broadcast/flood", flood_events, || {
            dispatch_flood(FLOOD_N, FLOOD_MS)
        }),
        measure("trace_append/fill_digest", 2 * TRACE_EVENTS, || {
            trace_fill(TRACE_EVENTS)
        }),
    ];
    serde::Value::Obj(vec![
        ("bench".to_string(), serde::Value::Str("micro".into())),
        (
            "queue_impl_default".to_string(),
            serde::Value::Str(QueueImpl::default().label().into()),
        ),
        (
            "entries".to_string(),
            serde::Value::Arr(rows.iter().map(Measurement::row).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_bench_emits_all_suite_rows() {
        let v = micro_bench();
        let entries = match v.field("entries") {
            serde::Value::Arr(rows) => rows,
            other => panic!("entries must be an array, got {other:?}"),
        };
        let ids: Vec<&str> = entries
            .iter()
            .filter_map(|r| r.field("id").as_str())
            .collect();
        assert_eq!(
            ids,
            [
                "queue_push_pop/wheel",
                "queue_push_pop/classic",
                "dispatch_broadcast/flood",
                "trace_append/fill_digest",
            ]
        );
        for row in entries {
            assert!(row.field("ops").as_u64().unwrap() > 0);
            assert!(row.field("ops_per_sec").as_f64().unwrap() > 0.0);
        }
    }
}
