//! Dependency-light structured observability for the ecfd workspace.
//!
//! The workspace needs a perf trajectory (ROADMAP: "runs as fast as the
//! hardware allows") without pulling in `metrics`/`tracing` stacks the
//! offline build cannot fetch. This crate provides the minimal vocabulary
//! the kernel and campaign layers need:
//!
//! - [`Counter`] — monotonically increasing `u64` (events processed,
//!   messages sent).
//! - [`Gauge`] — last-write-wins `u64` with a [`Gauge::record_max`]
//!   high-water-mark mode (queue depth HWM).
//! - [`Histogram`] — lock-free log₂-bucketed distribution of `u64`
//!   samples (latencies in nanoseconds), with a scoped [`Span`] guard
//!   that times a region and records the elapsed nanoseconds on drop.
//! - [`Registry`] — a named get-or-create map of the above, snapshotable
//!   to [`serde::Value`] rows and writable as JSON Lines via the
//!   workspace `serde_json` shim.
//!
//! Everything is `Arc`/atomic based so instrumented code paths pay one
//! atomic RMW per event when observability is on and a branch on an
//! `Option` when it is off. Nothing here feeds back into simulation
//! state: instrumentation reads wall clocks but never RNG streams, so
//! trace digests are byte-identical with metrics on or off (the
//! `campaign_e2e` suite asserts this).
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod keys;

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge with an optional high-water-mark mode.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` exceeds the current value
    /// (high-water mark).
    pub fn record_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `k`
/// (1 ≤ k ≤ 64) holds values with bit length `k`, i.e. `[2^(k-1), 2^k)`.
const BUCKETS: usize = 65;

/// A lock-free histogram over `u64` samples with power-of-two buckets.
///
/// Designed for nanosecond latencies: exact count/sum/min/max, and
/// quantiles approximated to the upper bound of the containing log₂
/// bucket (≤2× relative error), which is plenty to spot order-of-
/// magnitude regressions without per-sample storage.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        let idx = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Start a scoped span; the elapsed wall-clock nanoseconds are
    /// recorded into this histogram when the returned guard drops.
    pub fn time(&self) -> Span<'_> {
        Span {
            hist: self,
            start: Instant::now(),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// log₂ bucket containing the nearest-rank sample, clamped to the
    /// exact observed max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        // Nearest rank: the smallest k with cumulative(k) >= ceil(q*n).
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let upper = if idx == 0 { 0 } else { (1u64 << idx) - 1 };
                return upper.min(self.max());
            }
        }
        self.max()
    }
}

/// Scoped timer guard returned by [`Histogram::time`]; records the
/// elapsed nanoseconds into the histogram on drop.
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos();
        self.hist.record(u64::try_from(ns).unwrap_or(u64::MAX));
    }
}

/// One named metric held by a [`Registry`].
#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named get-or-create collection of metrics.
///
/// Handles are `Arc`s, so callers fetch them once (at setup) and update
/// them lock-free on hot paths; the registry mutex is only taken at
/// registration and snapshot time.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.lock().unwrap();
        let metric = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get or create the gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.lock().unwrap();
        let metric = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())));
        match metric {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get or create the histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.inner.lock().unwrap();
        let metric = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())));
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Snapshot every metric as one JSON object per metric, sorted by
    /// name. Counters and gauges carry `value`; histograms carry
    /// `count`, `sum`, `min`, `max`, `mean`, and approximate `p50`,
    /// `p90`, `p99`.
    pub fn snapshot(&self) -> Vec<serde::Value> {
        let map = self.inner.lock().unwrap();
        map.iter()
            .map(|(name, metric)| {
                let mut fields = vec![
                    ("type".to_string(), serde::Value::Str(metric.kind().into())),
                    ("name".to_string(), serde::Value::Str(name.clone())),
                ];
                match metric {
                    Metric::Counter(c) => {
                        fields.push(("value".to_string(), serde::Value::U128(c.get().into())));
                    }
                    Metric::Gauge(g) => {
                        fields.push(("value".to_string(), serde::Value::U128(g.get().into())));
                    }
                    Metric::Histogram(h) => {
                        fields.extend([
                            ("count".to_string(), serde::Value::U128(h.count().into())),
                            ("sum".to_string(), serde::Value::U128(h.sum().into())),
                            ("min".to_string(), serde::Value::U128(h.min().into())),
                            ("max".to_string(), serde::Value::U128(h.max().into())),
                            ("mean".to_string(), serde::Value::F64(h.mean())),
                            (
                                "p50".to_string(),
                                serde::Value::U128(h.quantile(0.50).into()),
                            ),
                            (
                                "p90".to_string(),
                                serde::Value::U128(h.quantile(0.90).into()),
                            ),
                            (
                                "p99".to_string(),
                                serde::Value::U128(h.quantile(0.99).into()),
                            ),
                        ]);
                    }
                }
                serde::Value::Obj(fields)
            })
            .collect()
    }
}

/// Serialize `rows` as JSON Lines into `w`, one compact object per line.
pub fn write_jsonl<W: io::Write>(w: &mut W, rows: &[serde::Value]) -> io::Result<()> {
    for row in rows {
        let line = serde_json::to_string(row)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Write `rows` as a JSON Lines file at `path` (created or truncated).
pub fn write_jsonl_file(path: &Path, rows: &[serde::Value]) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    write_jsonl(&mut out, rows)?;
    out.flush()
}

/// Read a JSON Lines file back into one [`serde::Value`] per non-empty
/// line. Malformed lines surface as `InvalidData` errors naming the
/// offending line number.
pub fn read_jsonl_file(path: &Path) -> io::Result<Vec<serde::Value>> {
    let file = BufReader::new(File::open(path)?);
    let mut rows = Vec::new();
    for (lineno, line) in file.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let row: serde::Value = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {e}", lineno + 1),
            )
        })?;
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("events");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Get-or-create returns the same underlying counter.
        reg.counter("events").inc();
        assert_eq!(c.get(), 6);

        let g = reg.gauge("depth");
        g.record_max(3);
        g.record_max(9);
        g.record_max(5);
        assert_eq!(g.get(), 9, "record_max keeps the high-water mark");
        g.set(2);
        assert_eq!(g.get(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_exact_stats_and_bucketed_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram quantile is 0");
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        // Quantile error is bounded by the log2 bucket: the true p50 over
        // {0,1,2,3,100,1000} is 2 (nearest rank 3); bucket upper bound 3.
        assert_eq!(h.quantile(0.5), 3);
        // p99 lands in the top sample's bucket, clamped to the exact max.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn span_records_elapsed_nanos() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        {
            let _span = h.time();
            std::hint::black_box(());
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_and_jsonl_roundtrip() {
        let reg = Registry::new();
        reg.counter("a.events").add(7);
        reg.gauge("b.depth").set(3);
        reg.histogram("c.lat").record(1500);
        let rows = reg.snapshot();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].field("type").as_str(), Some("counter"));
        assert_eq!(rows[0].field("name").as_str(), Some("a.events"));
        assert_eq!(rows[0].field("value").as_u64(), Some(7));
        assert_eq!(rows[2].field("count").as_u64(), Some(1));

        let dir = std::env::temp_dir().join("fd-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        write_jsonl_file(&path, &rows).unwrap();
        let back = read_jsonl_file(&path).unwrap();
        assert_eq!(back, rows);
    }
}
