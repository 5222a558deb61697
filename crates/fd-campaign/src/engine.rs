//! The campaign runner: fan one scenario over a seed range with a pool
//! of worker threads, check every run against the scenario's monitors,
//! and merge everything into one report.
//!
//! Work distribution is a single atomic counter the workers race on
//! (effectively work-stealing at seed granularity), so stragglers never
//! idle the pool. Each worker executes its seeds in a fully isolated
//! world; because a seed's run is a pure function of its plan, the
//! per-seed results are identical whatever `jobs` is — only wall-clock
//! time changes.

use crate::artifact::Artifact;
use crate::plan::RunOutcome;
use crate::scenario::{Scenario, SeedExecutor};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The verdict on one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedResult {
    /// The seed.
    pub seed: u64,
    /// FNV digest of the run's trace (replay compares against this).
    pub digest: u64,
    /// Messages sent during the run.
    pub messages: u64,
    /// Kernel events processed during the run (deterministic per seed,
    /// so it participates in cross-worker equality checks like the rest
    /// of this struct).
    pub events: u64,
    /// Decision latency in ticks, for scenarios that measure decisions.
    pub latency_ticks: Option<u64>,
    /// The first violated property, if any: `(property, detail)`.
    pub violation: Option<(String, String)>,
}

impl SeedResult {
    /// Whether every monitor held.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

/// Order statistics over one per-seed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// 99.9th percentile (nearest-rank, per-mille resolution).
    pub p999: u64,
    /// Largest sample.
    pub max: u64,
}

impl Stats {
    /// Compute from raw samples; `None` when empty.
    pub fn from_samples(mut samples: Vec<u64>) -> Option<Stats> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let count = samples.len();
        let sum: u128 = samples.iter().map(|&x| x as u128).sum();
        // Nearest-rank percentile: the p-th percentile of n sorted
        // samples is the one at rank ceil(p/100 · n), 1-based. The
        // previous `(count - 1) * p / 100` truncated the rank, which
        // underestimated high percentiles on small sample sets (for
        // n = 2 it returned the *minimum* as p99). Ranks are computed
        // per-mille so p99.9 is exact rather than rounded through a
        // percent grid.
        let pml = |p: usize| samples[(p * count).div_ceil(1000).max(1) - 1];
        Some(Stats {
            count,
            min: samples[0],
            mean: sum as f64 / count as f64,
            p50: pml(500),
            p99: pml(990),
            p999: pml(999),
            max: samples[count - 1],
        })
    }
}

/// Wall-clock cost of one seed's run, and which worker executed it.
///
/// Kept apart from [`SeedResult`] on purpose: results are compared for
/// byte-identity across worker counts and instrumentation settings,
/// while timings are inherently nondeterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedTiming {
    /// The seed.
    pub seed: u64,
    /// Wall-clock nanoseconds spent planning, executing, and checking.
    pub wall_ns: u64,
    /// Index of the worker thread that ran it (0-based).
    pub worker: usize,
}

/// Aggregate load of one worker thread across the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStat {
    /// Worker index (0-based).
    pub worker: usize,
    /// Seeds this worker executed.
    pub seeds: u64,
    /// Nanoseconds the worker spent inside seed runs.
    pub busy_ns: u64,
}

/// The merged result of a campaign.
#[derive(Debug)]
pub struct CampaignReport {
    /// Scenario name.
    pub scenario: String,
    /// The swept seed range `[start, end)`.
    pub seeds: (u64, u64),
    /// Worker threads used.
    pub jobs: usize,
    /// Per-seed verdicts, sorted by seed.
    pub results: Vec<SeedResult>,
    /// Per-seed wall-clock timings, sorted by seed (nondeterministic —
    /// excluded from the determinism contract on `results`).
    pub timings: Vec<SeedTiming>,
    /// Per-worker load, indexed by worker.
    pub workers: Vec<WorkerStat>,
    /// Repro artifacts written for failing seeds.
    pub artifacts: Vec<PathBuf>,
    /// Wall-clock time of the sweep.
    pub wall: Duration,
}

impl CampaignReport {
    /// Seeds on which every monitor held.
    pub fn passed(&self) -> u64 {
        self.results.iter().filter(|r| r.passed()).count() as u64
    }

    /// Seeds with at least one violation.
    pub fn failed(&self) -> u64 {
        self.results.len() as u64 - self.passed()
    }

    /// Decision-latency statistics (ticks) over the runs that decided.
    pub fn latency_stats(&self) -> Option<Stats> {
        Stats::from_samples(
            self.results
                .iter()
                .filter_map(|r| r.latency_ticks)
                .collect(),
        )
    }

    /// Message-count statistics over all runs.
    pub fn message_stats(&self) -> Option<Stats> {
        Stats::from_samples(self.results.iter().map(|r| r.messages).collect())
    }

    /// Total kernel events processed across all runs.
    pub fn total_events(&self) -> u64 {
        self.results.iter().map(|r| r.events).sum()
    }

    /// Pool utilization in `[0, 1]`: the fraction of `jobs × wall` the
    /// workers spent inside seed runs. Low values mean stragglers or an
    /// undersized seed range; `None` for an empty or instant sweep.
    pub fn worker_utilization(&self) -> Option<f64> {
        let capacity = self.wall.as_nanos() * self.jobs as u128;
        if capacity == 0 {
            return None;
        }
        let busy: u128 = self.workers.iter().map(|w| w.busy_ns as u128).sum();
        Some((busy as f64 / capacity as f64).min(1.0))
    }

    /// Human-readable summary (what `ecfd campaign` prints).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign {}: seeds {}..{} jobs={} wall={:.2?}",
            self.scenario, self.seeds.0, self.seeds.1, self.jobs, self.wall
        );
        let _ = writeln!(out, "  passed {} / failed {}", self.passed(), self.failed());
        let fmt_stats = |label: &str, s: Stats, unit: &str| {
            format!(
                "  {label}: min {} mean {:.1} p50 {} p99 {} p99.9 {} max {} {unit} ({} runs)",
                s.min, s.mean, s.p50, s.p99, s.p999, s.max, s.count
            )
        };
        if let Some(s) = self.latency_stats() {
            let _ = writeln!(out, "{}", fmt_stats("decision latency", s, "ticks"));
        }
        if let Some(s) = self.message_stats() {
            let _ = writeln!(out, "{}", fmt_stats("messages", s, ""));
        }
        for r in self.results.iter().filter(|r| !r.passed()).take(10) {
            let (prop, detail) = r.violation.as_ref().expect("failed seed has a violation");
            let _ = writeln!(out, "  seed {}: {prop} — {detail}", r.seed);
        }
        if self.failed() > 10 {
            let _ = writeln!(out, "  … and {} more failing seeds", self.failed() - 10);
        }
        for p in &self.artifacts {
            let _ = writeln!(out, "  artifact: {}", p.display());
        }
        out
    }
}

/// A configured seed sweep, ready to run.
pub struct Campaign<'s> {
    scenario: &'s dyn Scenario,
    seeds: Range<u64>,
    jobs: usize,
    artifact_dir: Option<PathBuf>,
    obs: Option<&'s fd_obs::Registry>,
}

impl<'s> Campaign<'s> {
    /// Sweep `scenario` over `seeds` with one worker per available core.
    pub fn new(scenario: &'s dyn Scenario, seeds: Range<u64>) -> Campaign<'s> {
        let jobs = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Campaign {
            scenario,
            seeds,
            jobs,
            artifact_dir: None,
            obs: None,
        }
    }

    /// Set the worker count (clamped to at least 1).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Write a JSON repro artifact for each failing seed into `dir`.
    pub fn artifact_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.artifact_dir = Some(dir.into());
        self
    }

    /// Record kernel instrumentation for every run into `registry`
    /// (shared across workers; all metrics are atomics). Off by default.
    /// Per-seed verdicts are byte-identical with or without a registry —
    /// the `campaign_e2e` suite enforces this.
    pub fn observe(mut self, registry: &'s fd_obs::Registry) -> Self {
        self.obs = Some(registry);
        self
    }

    /// Execute one seed: plan, run, check — through a throwaway executor
    /// and monitor set, the right shape for one-off and replay paths. The
    /// sweep loop in [`Campaign::run`] instead amortizes both across a
    /// worker's whole seed stream via [`Campaign::run_seed_with`].
    pub fn run_seed(scenario: &dyn Scenario, seed: u64) -> (SeedResult, Option<Artifact>) {
        let mut executor = scenario.make_executor();
        let monitors = scenario.monitors();
        Self::run_seed_with(scenario, &mut *executor, &monitors, seed, None)
    }

    /// Execute one seed through a caller-owned executor and monitor set.
    ///
    /// The worker loop creates the executor and monitors once per worker
    /// and routes every claimed seed through them, so scenario state
    /// (cached worlds, boxed monitors) is built `jobs` times per sweep
    /// instead of once per seed. Verdicts are identical either way —
    /// the `campaign_e2e` suite compares this path against fresh
    /// per-seed execution.
    pub fn run_seed_with(
        scenario: &dyn Scenario,
        executor: &mut dyn SeedExecutor,
        monitors: &[Box<dyn crate::monitor::Monitor>],
        seed: u64,
        obs: Option<&fd_obs::Registry>,
    ) -> (SeedResult, Option<Artifact>) {
        let plan = scenario.plan(seed);
        let outcome = executor.execute(&plan, obs);
        let digest = outcome.trace.digest();
        let violation = first_violation(monitors, &outcome);
        let artifact = violation.as_ref().map(|(property, detail)| Artifact {
            scenario: scenario.name().to_string(),
            seed,
            property: property.clone(),
            detail: detail.clone(),
            digest,
            plan,
        });
        let result = SeedResult {
            seed,
            digest,
            messages: outcome.messages,
            events: outcome.events,
            latency_ticks: outcome.decision_latency.map(|d| d.ticks()),
            violation,
        };
        (result, artifact)
    }

    /// Run the sweep.
    pub fn run(&self) -> CampaignReport {
        // fd-lint: allow(ND002, reason = "wall-clock throughput metric for the sweep report; per-seed verdicts and digests never read it")
        let started = Instant::now();
        let next = AtomicU64::new(self.seeds.start);
        let results: Mutex<Vec<SeedResult>> = Mutex::new(Vec::new());
        let timings: Mutex<Vec<SeedTiming>> = Mutex::new(Vec::new());
        let worker_stats: Mutex<Vec<WorkerStat>> = Mutex::new(Vec::new());
        let artifacts: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
        let worker = |index: usize| {
            let mut stat = WorkerStat {
                worker: index,
                seeds: 0,
                busy_ns: 0,
            };
            // One executor and one monitor set per worker, amortized over
            // every seed this worker claims.
            let mut executor = self.scenario.make_executor();
            let monitors = self.scenario.monitors();
            loop {
                let seed = next.fetch_add(1, Ordering::Relaxed);
                if seed >= self.seeds.end {
                    break;
                }
                // fd-lint: allow(ND002, reason = "wall-clock throughput metric for the sweep report; per-seed verdicts and digests never read it")
                let seed_started = Instant::now();
                let (result, artifact) =
                    Self::run_seed_with(self.scenario, &mut *executor, &monitors, seed, self.obs);
                let wall_ns = u64::try_from(seed_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                stat.seeds += 1;
                stat.busy_ns = stat.busy_ns.saturating_add(wall_ns);
                if let (Some(a), Some(dir)) = (artifact, &self.artifact_dir) {
                    match a.save(dir) {
                        Ok(path) => artifacts.lock().unwrap().push(path),
                        Err(e) => {
                            eprintln!("campaign: could not write artifact for seed {seed}: {e}")
                        }
                    }
                }
                timings.lock().unwrap().push(SeedTiming {
                    seed,
                    wall_ns,
                    worker: index,
                });
                results.lock().unwrap().push(result);
            }
            worker_stats.lock().unwrap().push(stat);
        };
        if self.jobs == 1 {
            worker(0);
        } else {
            std::thread::scope(|s| {
                for index in 0..self.jobs {
                    let worker = &worker;
                    s.spawn(move || worker(index));
                }
            });
        }
        let mut results = results.into_inner().unwrap();
        results.sort_by_key(|r| r.seed);
        let mut timings = timings.into_inner().unwrap();
        timings.sort_by_key(|t| t.seed);
        let mut workers = worker_stats.into_inner().unwrap();
        workers.sort_by_key(|w| w.worker);
        let mut artifacts = artifacts.into_inner().unwrap();
        artifacts.sort();
        CampaignReport {
            scenario: self.scenario.name().to_string(),
            seeds: (self.seeds.start, self.seeds.end),
            jobs: self.jobs,
            results,
            timings,
            workers,
            artifacts,
            wall: started.elapsed(),
        }
    }
}

/// The first monitor violation of a run, as owned strings.
pub(crate) fn first_violation(
    monitors: &[Box<dyn crate::monitor::Monitor>],
    outcome: &RunOutcome,
) -> Option<(String, String)> {
    for m in monitors {
        if let Err(v) = m.check(outcome) {
            return Some((m.property().to_string(), v.to_string()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::BlindScenario;

    #[test]
    fn stats_order_statistics() {
        let s = Stats::from_samples((1..=100).rev().collect()).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p99, 99);
        // rank(p99.9) = ceil(0.999 * 100) = 100 → the maximum.
        assert_eq!(s.p999, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(Stats::from_samples(Vec::new()), None);
    }

    /// Regression: nearest-rank indices for sample counts that do not
    /// divide 100 evenly. The old `(count - 1) * p / 100` formula
    /// truncated toward the minimum — for two samples it reported the
    /// *smaller* one as the 99th percentile.
    #[test]
    fn stats_tiny_sample_sets_use_nearest_rank() {
        let s = Stats::from_samples(vec![7]).unwrap();
        assert_eq!((s.min, s.p50, s.p99, s.p999, s.max), (7, 7, 7, 7, 7));

        let s = Stats::from_samples(vec![10, 20]).unwrap();
        // rank(p50) = ceil(0.50 * 2) = 1 → 10; rank(p99) = ceil(1.98) = 2 → 20.
        assert_eq!(s.p50, 10);
        assert_eq!(s.p99, 20, "p99 of two samples is the larger one");
        assert_eq!(s.p999, 20, "p99.9 of two samples is the larger one");

        let s = Stats::from_samples((1..=99).collect()).unwrap();
        // rank(p50) = ceil(49.5) = 50; rank(p99) = ceil(98.01) = 99.
        assert_eq!(s.p50, 50);
        assert_eq!(s.p99, 99, "p99 of 99 samples is the maximum");
        assert_eq!(s.p999, 99, "p99.9 of 99 samples is the maximum");
    }

    /// p99.9 at the sample counts the issue calls out: n ∈ {1, 2, 10,
    /// 1000}. Only at n = 1000 does the 99.9th percentile separate from
    /// the maximum's neighborhood — rank ceil(0.999 · 1000) = 999.
    #[test]
    fn stats_p999_nearest_rank_at_documented_sizes() {
        let s = Stats::from_samples(vec![42]).unwrap();
        assert_eq!((s.p50, s.p99, s.p999), (42, 42, 42), "n = 1");

        let s = Stats::from_samples(vec![3, 9]).unwrap();
        // rank(p99.9) = ceil(0.999 * 2) = 2 → 9.
        assert_eq!(s.p999, 9, "n = 2");

        let s = Stats::from_samples((1..=10).collect()).unwrap();
        // rank(p50) = 5, rank(p99) = ceil(9.9) = 10, rank(p99.9) = 10.
        assert_eq!((s.p50, s.p99, s.p999), (5, 10, 10), "n = 10");

        let s = Stats::from_samples((1..=1000).rev().collect()).unwrap();
        // rank(p50) = 500, rank(p99) = 990, rank(p99.9) = 999: the three
        // percentiles are distinct order statistics at this size.
        assert_eq!(
            (s.p50, s.p99, s.p999, s.max),
            (500, 990, 999, 1000),
            "n = 1000"
        );
    }

    #[test]
    fn report_counts_and_rendering() {
        let sc = BlindScenario;
        let report = Campaign::new(&sc, 0..4).jobs(2).run();
        assert_eq!(report.results.len(), 4);
        // Every blind seed has crashes nobody suspects: all fail.
        assert_eq!(report.failed(), 4);
        let text = report.render();
        assert!(text.contains("passed 0 / failed 4"), "{text}");
        assert!(text.contains("fd.strong_completeness"), "{text}");
    }

    #[test]
    fn seed_results_independent_of_job_count() {
        let sc = BlindScenario;
        let serial = Campaign::new(&sc, 0..12).jobs(1).run();
        let parallel = Campaign::new(&sc, 0..12).jobs(4).run();
        assert_eq!(serial.results, parallel.results);
    }

    #[test]
    fn empty_seed_range_is_fine() {
        let sc = BlindScenario;
        let report = Campaign::new(&sc, 5..5).jobs(3).run();
        assert!(report.results.is_empty());
        assert_eq!(report.passed(), 0);
        assert_eq!(report.latency_stats(), None);
    }
}
