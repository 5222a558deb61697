//! What a workload is, and the registry of the six the benchmark runs.

use crate::spans::Tracer;

/// The workloads, in reporting order, each with the one line of
/// `BENCHMARK.json` that says why it was chosen (the long form is in the
/// module that implements it and in the README).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "e8-sweep",
        "campaign sweep of tiny full-trace consensus worlds: dispatch, trace, protocols and per-seed plan/check overhead; bypasses the queue",
    ),
    (
        "ring-1024",
        "n=1024 ring detector, timers dominate: the queue and run loop show here; bypasses actors, consensus and KV",
    ),
    (
        "heartbeat-64",
        "n=64 all-to-all heartbeats, 95% deliveries, cache-resident: broadcast fan-out and link draws; the kernel used the opposite way from ring-1024",
    ),
    (
        "vcube-lossy-256",
        "n=256 vCube over 15% lossy links: actor-bound (news snapshots and scans) and the only user of the lossy link path",
    ),
    (
        "kv-ramp",
        "open-loop KV rate ramp 25..300 ops/s, no faults: idle below the knee, backlogged above it; finds the knee",
    ),
    (
        "kv-failover",
        "open-loop KV at 25 ops/s through crash and restart under three detector classes: blackout and recovery; bypasses throughput work",
    ),
];

/// The workload names, in reporting order.
pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(name, _)| *name).collect()
}

/// Everything about one repetition that is a pure function of the
/// inputs. Every rep of a run must reproduce the first rep's value
/// bit for bit; the harness compares them with `==`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Exact {
    /// Trace digests of every simulated run in the rep, folded.
    pub digest: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Messages sent.
    pub messages: u64,
    /// Operations completed; "operation" is defined per workload.
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Attempted operations that did not complete inside the workload's
    /// limit (undecided seed, crash never noticed, op not committed by
    /// the horizon).
    pub late: u64,
    /// Operations whose result was wrong: a property monitor failed.
    /// Expected to be zero; a non-zero count makes the run incorrect.
    pub violations: u64,
    /// One line per violation, for the failure report.
    pub violation_notes: Vec<String>,
    /// Simulated latency of each completed operation, in microseconds.
    pub latency_us: Vec<u64>,
    /// Workload-specific simulated quantities, by per-layer metric name.
    pub detail: Vec<(String, f64)>,
}

/// One repetition's result: the exact part, plus what only a traced
/// rep gathers — host time it attributes to parts of itself and counts
/// that cost an extra pass over the trace — by per-layer metric name.
/// The second part is never compared between reps.
#[derive(Debug, Clone, Default)]
pub struct RepOutput {
    pub exact: Exact,
    pub traced_detail: Vec<(String, f64)>,
}

/// A workload, built and ready to repeat byte-identical work.
pub trait Workload {
    /// The last step of set-up: touch every code path of a rep once on
    /// a small slice of its work, so lazily built state (the executors'
    /// cached worlds) exists before anything is timed.
    fn warm_up(&mut self);

    /// Run one repetition. Calls into the layers are bracketed with
    /// spans on `tr` (free when the tracer is off).
    fn rep(&mut self, tr: &mut Tracer) -> RepOutput;

    /// Which percentile `sim_tail_ms` reports for this workload: the
    /// highest with at least ten samples beyond it.
    fn tail_percentile(&self) -> f64;
}

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Shrink sizes ~20× (smoke runs and `cargo test`).
    pub quick: bool,
}

/// Build workload `name`: generate its inputs from the seed and
/// construct its executors and worlds. With `obs`, the kernel's sampled
/// callback timer and queue gauge record into it (traced reps only).
/// `None` for an unknown name.
pub fn build<'r>(
    name: &str,
    opt: Options,
    obs: Option<&'r fd_obs::Registry>,
) -> Option<Box<dyn Workload + 'r>> {
    Some(match name {
        "e8-sweep" => Box::new(crate::e8::E8Sweep::new(opt, obs)),
        "ring-1024" => crate::detector::ring(opt, obs),
        "heartbeat-64" => crate::detector::heartbeat(opt, obs),
        "vcube-lossy-256" => crate::detector::vcube_lossy(opt, obs),
        "kv-ramp" => Box::new(crate::kv::KvBench::ramp(opt, obs)),
        "kv-failover" => Box::new(crate::kv::KvBench::failover(opt, obs)),
        _ => return None,
    })
}

/// Fold one run's digest into a rep's running digest (order-sensitive).
pub fn fold_digest(acc: u64, digest: u64) -> u64 {
    acc.rotate_left(5) ^ digest
}

/// Messages a full trace records as lost.
pub fn count_dropped(trace: &fd_sim::Trace) -> u64 {
    trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, fd_sim::TraceKind::Dropped { .. }))
        .count() as u64
}
