//! One run of one workload: set up, repeat, check, report.
//!
//! The noise protocol (README, "Noise protocol"):
//! 1. a run = set-ups (inputs from `--seed`, executors and worlds built,
//!    a warm-up slice), one untimed full rep, then timed reps of
//!    byte-identical deterministic work for `--seconds`;
//! 2. the calibration kernel `cal_sim` runs between every two reps, and
//!    a rep's host time is its wall time scaled by the two samples
//!    around it (reference-speed seconds); the run reports the
//!    interquartile mean of its reps and prints the raw times beside it;
//! 3. memory comes from the counting allocator, reset per rep;
//! 4. every rep must reproduce the untimed rep's exact results.

use crate::alloc::{HeapUse, Window};
use crate::spans::{self, Tracer};
use crate::spec::{per_layer, END_TO_END};
use crate::stats;
use crate::workload::{build, Exact, Options, RepOutput, Workload};
use crate::{cal, layers};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their interquartile mean.
const SETUPS: usize = 5;
/// Fewest timed reps, however slow the box.
const MIN_REPS: usize = 3;
/// Most timed reps (bounds the sample buffers).
const MAX_REPS: usize = 1024;
/// Traced reps of a traced run (after one untimed traced warm-up).
const TRACED_REPS: usize = 2;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// In the order `spec` lists them.
    pub metrics: Vec<Metric>,
    /// Human-readable lines about the run (printed before the metrics).
    pub notes: Vec<String>,
    /// What was wrong with the run; empty when it is correct.
    pub problems: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// A wall time, with the calibration kernel's time just before and just
/// after it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    cal_ms: f64,
}

impl Timed {
    /// The wall time in reference-speed seconds: scaled by how fast the
    /// box ran the calibration kernel around it, relative to
    /// [`cal::REF_MS`].
    pub fn ref_s(&self) -> f64 {
        self.wall_s * cal::REF_MS / self.cal_ms
    }
}

/// Times pieces of work back to back, running the calibration kernel
/// between them, so each piece has one sample on either side.
struct Stopwatch {
    last_cal_ms: f64,
}

impl Stopwatch {
    fn start() -> Stopwatch {
        Stopwatch {
            last_cal_ms: cal::cal_sim(),
        }
    }

    fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.last_cal_ms;
        let t0 = Instant::now();
        let out = work();
        let wall_s = t0.elapsed().as_secs_f64();
        self.last_cal_ms = cal::cal_sim();
        let timed = Timed {
            wall_s,
            cal_ms: (before + self.last_cal_ms) / 2.0,
        };
        (out, timed)
    }
}

fn ref_seconds(xs: &[Timed]) -> Vec<f64> {
    xs.iter().map(Timed::ref_s).collect()
}

fn walls(xs: &[Timed]) -> Vec<f64> {
    xs.iter().map(|t| t.wall_s).collect()
}

/// A workload that has been set up and has run one full, untimed rep.
struct Ready<'r> {
    workload: Box<dyn Workload + 'r>,
    /// The untimed rep's exact results: what every timed rep must equal.
    first: Exact,
    /// Each set-up (build + warm-up), timed.
    setups: Vec<Timed>,
}

/// Set the workload up `setups` times (keeping the last), then run one
/// full rep untimed: the first full rep still grows arenas to their
/// steady size, and its results are the reference for all that follow.
fn set_up<'r>(
    name: &str,
    opt: Options,
    obs: Option<&'r fd_obs::Registry>,
    setups: usize,
) -> Ready<'r> {
    let mut watch = Stopwatch::start();
    let mut timed = Vec::new();
    let mut workload = None;
    for _ in 0..setups {
        drop(workload.take());
        let (w, t) = watch.time(|| {
            let mut w = build(name, opt, obs).expect("a known workload");
            w.warm_up();
            w
        });
        timed.push(t);
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up");
    let first = workload.rep(&mut Tracer::off()).exact;
    Ready {
        workload,
        first,
        setups: timed,
    }
}

/// Timed reps and what they have in common.
struct Reps {
    timed: Vec<Timed>,
    /// Heap counters of the last rep.
    heap: HeapUse,
    /// Largest relative deviation of any rep's allocation count from
    /// the last rep's.
    heap_wobble: f64,
    last: RepOutput,
}

/// Run reps of `ready` on `tr` until `stop(reps, elapsed)`; every rep
/// must equal the untimed rep exactly. Problems go to `problems`.
fn repeat(
    name: &str,
    ready: &mut Ready<'_>,
    tr: &mut Tracer,
    stop: impl Fn(usize, f64) -> bool,
    problems: &mut Vec<String>,
) -> Reps {
    let started = Instant::now();
    // Room for every sample up front: the harness's own buffers must
    // not grow inside a measurement window.
    let mut timed = Vec::with_capacity(MAX_REPS);
    let mut heaps: Vec<HeapUse> = Vec::with_capacity(MAX_REPS);
    let mut last = RepOutput::default();
    let mut watch = Stopwatch::start();
    while timed.len() < MAX_REPS && !stop(timed.len(), started.elapsed().as_secs_f64()) {
        let rep = timed.len() as u32;
        tr.set_rep(rep);
        drop(std::mem::take(&mut last));
        let window = Window::open();
        let (out, t) = watch.time(|| {
            let open = tr.enter(spans::REP);
            let out = ready.workload.rep(tr);
            tr.exit(open);
            (out, window.close())
        });
        last = out.0;
        heaps.push(out.1);
        timed.push(t);
        if last.exact != ready.first {
            problems.push(format!(
                "{name} rep {rep}: exact results differ from the untimed rep \
                 (digest {:016x} vs {:016x}, events {} vs {})",
                last.exact.digest, ready.first.digest, last.exact.events, ready.first.events
            ));
        }
    }
    // Allocation counts are a pure function of the inputs except where
    // a std `HashMap` rehashes (its per-process random state decides
    // between growing and rehashing in place), so they are reported
    // with their largest deviation instead of being held equal.
    let heap = *heaps.last().expect("at least one rep");
    let heap_wobble = heaps
        .iter()
        .map(|h| (h.allocs as f64 - heap.allocs as f64).abs() / heap.allocs.max(1) as f64)
        .fold(0.0, f64::max);
    Reps {
        timed,
        heap,
        heap_wobble,
        last,
    }
}

fn percentile_ms(samples: &[u64], p: f64) -> f64 {
    stats::percentile(&mut samples.to_vec(), p).map_or(0.0, |us| us as f64 / 1e3)
}

/// Violations of the first rep, as problems.
fn violations(name: &str, exact: &Exact, problems: &mut Vec<String>) {
    for note in exact.violation_notes.iter().take(10) {
        problems.push(format!("{name}: {note}"));
    }
    if exact.violations > 10 {
        problems.push(format!("{name}: … and {} more", exact.violations - 10));
    }
}

/// The two machine-state witnesses, each the minimum of a sample taken
/// before the run's reps and one taken after.
struct Witness {
    before: (f64, f64),
}

impl Witness {
    fn start() -> Witness {
        Witness {
            before: (cal::cal_cpu(), cal::cal_mem()),
        }
    }

    /// `(cal_cpu_ms, cal_mem_ms)`.
    fn finish(self) -> (f64, f64) {
        (
            self.before.0.min(cal::cal_cpu()),
            self.before.1.min(cal::cal_mem()),
        )
    }
}

/// The end-to-end run: tracing off.
pub fn run(name: &str, opt: Options, seconds: f64) -> Report {
    let mut problems = Vec::new();
    let mut ready = set_up(name, opt, None, SETUPS);
    let witness = Witness::start();
    let reps = repeat(
        name,
        &mut ready,
        &mut Tracer::off(),
        |n, elapsed| n >= MIN_REPS && elapsed >= seconds,
        &mut problems,
    );
    let (cal_cpu_ms, cal_mem_ms) = witness.finish();
    let exact = &ready.first;
    violations(name, exact, &mut problems);

    // Host time: the interquartile mean of the reps, each in
    // reference-speed seconds.
    let rep_s = stats::midmean(&ref_seconds(&reps.timed));
    let ops = exact.ops.max(1) as f64;
    let tail = ready.workload.tail_percentile();
    let ok = exact.attempted - exact.late - exact.violations;
    // In the order of `spec::END_TO_END`.
    let values = [
        stats::midmean(&ref_seconds(&ready.setups)),
        exact.events as f64 / rep_s,
        rep_s * 1e6 / ops,
        reps.heap.peak_bytes as f64 / (1 << 20) as f64,
        exact.messages as f64 / ops,
        percentile_ms(&exact.latency_us, 50.0),
        percentile_ms(&exact.latency_us, tail),
        ok as f64 / exact.attempted as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name.to_string(),
            unit: m.unit,
            value,
        })
        .collect();
    let raw = walls(&reps.timed);
    let notes = vec![
        format!(
            "{name}: seed {} · {} reps · raw rep wall min {:.4} s, median {:.4} s, spread {:.3} · \
             reference-speed rep midmean {rep_s:.4} s, spread {:.3}",
            opt.seed,
            raw.len(),
            stats::min(&raw),
            stats::median(&raw),
            stats::spread(&raw),
            stats::spread(&ref_seconds(&reps.timed)),
        ),
        format!(
            "{name}: {} events, {} ops, {} latency samples (tail = p{tail}) · raw set-up median \
             {:.4} s",
            exact.events,
            exact.ops,
            exact.latency_us.len(),
            stats::median(&walls(&ready.setups)),
        ),
        format!(
            "{name}: heap peak {} B, {} allocs (reps within {:.1e} of that), {} B allocated \
             per rep · cal_cpu {cal_cpu_ms:.2} ms, cal_mem {cal_mem_ms:.2} ms",
            reps.heap.peak_bytes, reps.heap.allocs, reps.heap_wobble, reps.heap.alloc_bytes,
        ),
        format!(
            "{name}: reps, raw s / cal_sim ms: {}",
            reps.timed
                .iter()
                .map(|t| format!("{:.4}/{:.2}", t.wall_s, t.cal_ms))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    Report {
        attempted: exact.attempted,
        failed: exact.violations,
        metrics,
        notes,
        problems,
    }
}

/// Peak resident set of this process so far, MiB (0 if unreadable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The traced run: untraced reps for the baseline, then traced reps
/// with the kernel's sampler attached, then this workload's isolated
/// layer drivers. Returns the report and the spans recorded.
pub fn run_traced(name: &str, opt: Options, seconds: f64) -> (Report, Tracer) {
    let registry = fd_obs::Registry::new();
    let mut problems = Vec::new();
    let witness = Witness::start();

    // Baseline: tracing off, the kernel unobserved.
    let mut plain = set_up(name, opt, None, 1);
    let base = repeat(
        name,
        &mut plain,
        &mut Tracer::off(),
        |n, elapsed| n >= MIN_REPS && elapsed >= seconds / 4.0,
        &mut problems,
    );
    let exact = plain.first.clone();
    drop(plain);

    // Traced: spans on, registry attached. Set-up and the untimed rep
    // fill the registry too, so read the sampler as a delta.
    let mut traced = set_up(name, opt, Some(&registry), 1);
    if traced.first != exact {
        problems.push(format!(
            "{name}: observing the kernel changed the exact results"
        ));
    }
    let callback = registry.histogram(fd_obs::keys::SIM_CALLBACK_NS);
    let (sum0, count0) = (callback.sum(), callback.count());
    let mut tr = Tracer::on();
    let reps = repeat(
        name,
        &mut traced,
        &mut tr,
        |n, _| n >= TRACED_REPS,
        &mut problems,
    );
    let (sampled_ns, samples) = (callback.sum() - sum0, callback.count() - count0);
    let queue_depth_hwm = registry.gauge(fd_obs::keys::SIM_QUEUE_DEPTH_HWM).get();
    drop(traced);
    violations(name, &exact, &mut problems);

    // Attribute the fastest traced rep (raw time: the spans are raw).
    let traced_walls = walls(&reps.timed);
    let best = (0..traced_walls.len())
        .min_by(|a, b| traced_walls[*a].total_cmp(&traced_walls[*b]))
        .expect("traced reps ran");
    let own = |layer: &str| spans::self_time_of(tr.spans(), layer, best as u32) as f64;
    let rep_ns = own(spans::REP) + spans::LAYERS.iter().map(|l| own(l)).sum::<f64>();
    let events = exact.events.max(1) as f64;
    // The sampler times one callback in 32 on every traced rep; scale
    // its total to one rep's worth of callbacks.
    let actor_ns_per_event = sampled_ns as f64 * fd_sim::world::CALLBACK_SAMPLE as f64
        / traced_walls.len() as f64
        / events;
    let base_ref = ref_seconds(&base.timed);
    let overhead = stats::midmean(&ref_seconds(&reps.timed)) / stats::midmean(&base_ref) - 1.0;

    let mut values: Vec<(String, f64)> = vec![
        ("span.plan_share".into(), own("plan") / rep_ns),
        ("span.execute_share".into(), own("execute") / rep_ns),
        ("span.check_share".into(), own("check") / rep_ns),
        ("span.extract_share".into(), own("extract") / rep_ns),
        ("span.other_share".into(), own(spans::REP) / rep_ns),
        (
            "kernel_ns_per_event".into(),
            own("execute") / events - actor_ns_per_event,
        ),
        ("actor_ns_per_event".into(), actor_ns_per_event),
        ("queue_depth_hwm".into(), queue_depth_hwm as f64),
        ("events_per_op".into(), events / exact.ops.max(1) as f64),
        ("allocs_per_event".into(), base.heap.allocs as f64 / events),
        (
            "heap_bytes_per_event".into(),
            base.heap.alloc_bytes as f64 / events,
        ),
        ("rep_spread".into(), stats::spread(&base_ref)),
        ("raw_rep_spread".into(), stats::spread(&walls(&base.timed))),
        (
            "raw_events_per_s".into(),
            events / stats::min(&walls(&base.timed)),
        ),
        ("trace_overhead_share".into(), overhead),
    ];
    values.extend(exact.detail.iter().cloned());
    values.extend(reps.last.traced_detail.iter().cloned());
    values.extend(layers::measure(name, opt.quick));
    let (cal_cpu_ms, cal_mem_ms) = witness.finish();
    let cal_sim: Vec<f64> = base.timed.iter().map(|t| t.cal_ms).collect();
    values.extend([
        ("cal_cpu_ms".into(), cal_cpu_ms),
        ("cal_mem_ms".into(), cal_mem_ms),
        ("cal_sim_ms".into(), stats::median(&cal_sim)),
        ("peak_rss_mb".into(), peak_rss_mb()),
    ]);

    // Emit every per-layer metric, 0 where this run does not measure it.
    let metrics: Vec<Metric> = per_layer()
        .into_iter()
        .map(|m| Metric {
            value: values
                .iter()
                .find(|(k, _)| *k == m.name)
                .map_or(0.0, |(_, v)| *v),
            name: m.name,
            unit: m.unit,
        })
        .collect();
    for (k, _) in &values {
        if !metrics.iter().any(|m| m.name == *k) {
            problems.push(format!(
                "{name}: measured {k}, which the spec does not list"
            ));
        }
    }
    let notes = vec![format!(
        "{name}: seed {} · {} untraced reps (raw min {:.4} s) · {} traced reps (raw min {:.4} s) · \
         sampler timed {samples} callbacks · rep {best} attributed: {rep_ns:.0} ns in spans, \
         {:.0} ns wall",
        opt.seed,
        base.timed.len(),
        stats::min(&walls(&base.timed)),
        traced_walls.len(),
        traced_walls[best],
        traced_walls[best] * 1e9,
    )];
    let report = Report {
        attempted: exact.attempted,
        failed: exact.violations,
        metrics,
        notes,
        problems,
    };
    (report, tr)
}
