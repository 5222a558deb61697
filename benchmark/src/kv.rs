//! The two workloads over the replicated KV service (`fd-kv`).
//!
//! Operation = one committed client operation. Both workloads drive the
//! service open loop ([`crate::openloop`]); latency runs from an
//! operation's due time to its `kv.commit` (decided *and* durable). An
//! operation not committed by the horizon is late.
//!
//! * `kv-ramp` — n = 4 heartbeat-class replicas, no faults, offered
//!   rates 25 … 300 ops/s, four seeds per step (two above 75 ops/s).
//!   Finds the service's knee and exercises `fd-kv` two ways at once:
//!   idle below the knee, backlogged above it, where host cost per
//!   event rises several-fold.
//!   A batching gain that costs the idle path, or the reverse, shows.
//!   `sim_p50_ms`/`sim_tail_ms` pool the two lowest steps: latency
//!   under light load. (With the 75 ops/s step pooled in, p99 sat on
//!   that step's near-knee queueing tail and moved 28 % between seeds.)
//! * `kv-failover` — the standard crash/restart plan under each of the
//!   three detector classes, 25 ops/s (far below the knee), the victim
//!   included as a target. Blackout, recovery and loss are what a KV
//!   user feels here; throughput is not, so `kv-ramp` gains must leave
//!   it flat.
//!
//! The program only ever sees generated plans: each run's `RunPlan`
//! comes from `KvScenario::fixed(..).plan(seed)` with the embedded
//! `KvRunSpec::workload` overwritten by the open-loop generator.

use crate::openloop::{self, Step};
use crate::spans::Tracer;
use crate::stats::percentile;
use crate::workload::{count_dropped, fold_digest, Exact, Options, RepOutput, Workload};
use fd_campaign::scenario::SeedExecutor;
use fd_campaign::{Monitor, RunOutcome, RunPlan, Scenario};
use fd_chaos::{ChaosKind, ChaosPlan, DetectorKind};
use fd_kv::replica::obs;
use fd_kv::scenario::KvExecutor;
use fd_kv::{kv_spec_of, standard_plan, KvScenario};
use fd_sim::{ProcessId, Time, Trace};
use std::time::Instant;

/// Offered rates of the ramp, operations per simulated second.
pub const RAMP_RATES: [u32; 6] = [25, 50, 75, 100, 150, 300];
/// The ramp steps whose latencies `sim_p50_ms`/`sim_tail_ms` pool.
const POOLED_STEPS: usize = 2;
/// Offered rate of the failover workload.
const FAILOVER_RATE: u32 = 25;

/// One simulated run of a rep.
struct Run {
    /// Index into `KvBench::scenarios`.
    scenario: usize,
    seed: u64,
    rate: u32,
    /// Ramp step (index into [`RAMP_RATES`]); 0 on failover.
    step: usize,
}

pub struct KvBench<'r> {
    ramp: bool,
    /// The fault schedule of each scenario, and the scenario built on it.
    plans: Vec<ChaosPlan>,
    scenarios: Vec<KvScenario>,
    runs: Vec<Run>,
    executor: KvExecutor,
    monitors: Vec<Box<dyn Monitor>>,
    obs: Option<&'r fd_obs::Registry>,
}

/// Distinct `--seed`s get disjoint run-seed blocks.
fn run_seed(opt: Options, index: usize) -> u64 {
    (opt.seed % (1 << 32)) * 4096 + index as u64
}

impl<'r> KvBench<'r> {
    pub fn ramp(opt: Options, obs: Option<&'r fd_obs::Registry>) -> KvBench<'r> {
        let horizon = Time::from_secs(8);
        let calm = ChaosPlan::new(4, DetectorKind::Heartbeat, horizon)
            .push(Time::from_millis(300), ChaosKind::GstMarker);
        // Four seeds per step up to 75 ops/s, where the latency numbers
        // come from; two above, where a backlogged run costs ten times
        // the host time and only feeds the smooth committed share.
        let seeds_at = |rate: u32| match (opt.quick, rate <= 75) {
            (true, _) => 1,
            (false, true) => 4,
            (false, false) => 2,
        };
        let rates: &[u32] = if opt.quick {
            &RAMP_RATES[..POOLED_STEPS]
        } else {
            &RAMP_RATES
        };
        let mut runs = Vec::new();
        for (step, &rate) in rates.iter().enumerate() {
            for _ in 0..seeds_at(rate) {
                runs.push(Run {
                    scenario: 0,
                    seed: run_seed(opt, runs.len()),
                    rate,
                    step,
                });
            }
        }
        KvBench::new(true, vec![calm], runs, obs)
    }

    pub fn failover(opt: Options, obs: Option<&'r fd_obs::Registry>) -> KvBench<'r> {
        let seeds_per_detector = if opt.quick { 5 } else { 100 };
        let plans = DetectorKind::ALL.map(standard_plan).to_vec();
        let runs = (0..plans.len() * seeds_per_detector)
            .map(|i| Run {
                scenario: i / seeds_per_detector,
                seed: run_seed(opt, i),
                rate: FAILOVER_RATE,
                step: 0,
            })
            .collect();
        KvBench::new(false, plans, runs, obs)
    }

    fn new(
        ramp: bool,
        plans: Vec<ChaosPlan>,
        runs: Vec<Run>,
        obs: Option<&'r fd_obs::Registry>,
    ) -> KvBench<'r> {
        let scenarios: Vec<KvScenario> = plans
            .iter()
            .map(|p| KvScenario::fixed(p.clone()).expect("a legal chaos plan"))
            .collect();
        KvBench {
            ramp,
            monitors: scenarios[0].monitors(),
            plans,
            scenarios,
            runs,
            executor: KvExecutor::default(),
            obs,
        }
    }
}

/// The plan of one run: the scenario's own plan for the seed, with the
/// client workload replaced by the open-loop schedule.
fn plan_of(scenario: &KvScenario, run: &Run) -> (RunPlan, Vec<Time>) {
    let mut plan = scenario.plan(run.seed);
    let mut spec = kv_spec_of(&plan).expect("the scenario embeds its spec");
    spec.workload = openloop::generate(run.seed, spec.chaos.n, run.rate);
    let due = spec.workload.ops.iter().map(|o| o.1).collect();
    plan.params = serde::Value::Obj(vec![("kv".to_string(), serde_json::to_value(&spec))]);
    (plan, due)
}

/// What one run's trace says about its client operations.
struct RunStats {
    /// Due → first commit, per committed operation.
    latency_us: Vec<u64>,
    /// Operations whose `kv.submit` came after the due time or never.
    submitted_late: u64,
    /// Distinct (replica, instant) pairs of `kv.commit`: group-commit
    /// fsyncs that acknowledged at least one operation.
    ack_fsyncs: u64,
}

fn run_stats(trace: &Trace, due: &[Time]) -> RunStats {
    let mut submitted: Vec<Option<Time>> = vec![None; due.len()];
    for (t, _, payload) in trace.observations(obs::SUBMIT) {
        if let Some((uid, _)) = payload.as_u64_pair() {
            let slot = &mut submitted[uid as usize];
            *slot = Some(slot.map_or(t, |s| s.min(t)));
        }
    }
    let mut committed: Vec<Option<Time>> = vec![None; due.len()];
    let mut ack_fsyncs = 0;
    let mut last_ack: Option<(ProcessId, Time)> = None;
    for (t, pid, payload) in trace.observations(obs::COMMIT) {
        // Acks of one fsync are consecutive in the trace.
        if last_ack != Some((pid, t)) {
            ack_fsyncs += 1;
            last_ack = Some((pid, t));
        }
        if let Some((uid, _)) = payload.as_u64_pair() {
            let slot = &mut committed[uid as usize];
            *slot = Some(slot.map_or(t, |s| s.min(t)));
        }
    }
    RunStats {
        latency_us: committed
            .iter()
            .zip(due)
            .filter_map(|(c, d)| c.map(|t| t.since(*d).ticks()))
            .collect(),
        submitted_late: submitted
            .iter()
            .zip(due)
            .filter(|(s, d)| s.is_none_or(|t| t > **d))
            .count() as u64,
        ack_fsyncs,
    }
}

/// The standard plan's victim, crash and restart instants.
fn crash_and_restart(plan: &ChaosPlan) -> (ProcessId, Time, Time) {
    *plan
        .restarted()
        .first()
        .expect("the standard plan restarts its victim")
}

/// Samples a failover rep collects, one per run where the event exists.
#[derive(Default)]
struct FailoverSamples {
    blackout_us: Vec<u64>,
    detect_us: Vec<u64>,
    after_detect_us: Vec<u64>,
    recovery_us: Vec<u64>,
    replayed: Vec<u64>,
    fetched: Vec<u64>,
}

impl FailoverSamples {
    fn add(&mut self, trace: &Trace, plan: &ChaosPlan) {
        let (victim, crash, restart) = crash_and_restart(plan);
        let first_after_crash = |tag: &str| {
            trace
                .observations(tag)
                .find(|(t, pid, _)| *pid != victim && *t >= crash)
                .map(|(t, _, _)| t.since(crash).ticks())
        };
        // Blackout: crash → a survivor applies the next log entry.
        let blackout = first_after_crash(obs::APPLY);
        // Detection: crash → a survivor's detector output changes.
        let detect = [fd_core::obs::SUSPECTS, fd_core::obs::TRUSTED]
            .into_iter()
            .filter_map(first_after_crash)
            .min();
        self.blackout_us.extend(blackout);
        self.detect_us.extend(detect);
        if let (Some(b), Some(d)) = (blackout, detect) {
            self.after_detect_us.push(b.saturating_sub(d));
        }
        if let Some((_, p)) = trace.last_observation_of(victim, obs::RECOVERY) {
            self.replayed.extend(p.as_u64_pair().map(|(r, _)| r));
        }
        if let Some((t, p)) = trace.last_observation_of(victim, obs::SYNC_DONE) {
            self.fetched.extend(p.as_u64_pair().map(|(_, f)| f));
            self.recovery_us.push(t.since(restart).ticks());
        }
    }

    fn detail(mut self) -> Vec<(String, f64)> {
        let ms = |v: &mut Vec<u64>, p: f64| percentile(v, p).unwrap_or(0) as f64 / 1e3;
        let count = |v: &mut Vec<u64>| percentile(v, 50.0).unwrap_or(0) as f64;
        vec![
            (
                "fd-kv.blackout_p50_ms".into(),
                ms(&mut self.blackout_us, 50.0),
            ),
            (
                "fd-kv.blackout_p95_ms".into(),
                ms(&mut self.blackout_us, 95.0),
            ),
            (
                "fd-kv.recovery_p50_ms".into(),
                ms(&mut self.recovery_us, 50.0),
            ),
            (
                "fd-kv.blackout.detect_p50_ms".into(),
                ms(&mut self.detect_us, 50.0),
            ),
            (
                "fd-kv.blackout.after_detect_p50_ms".into(),
                ms(&mut self.after_detect_us, 50.0),
            ),
            (
                "fd-kv.replayed_wal_records_p50".into(),
                count(&mut self.replayed),
            ),
            ("fd-kv.catchup_entries_p50".into(), count(&mut self.fetched)),
        ]
    }
}

/// Per-step totals of a ramp rep.
#[derive(Default, Clone)]
struct StepTotals {
    due: u64,
    latency_us: Vec<u64>,
    messages: u64,
    events: u64,
    ack_fsyncs: u64,
    execute_ns: u64,
}

impl Workload for KvBench<'_> {
    fn warm_up(&mut self) {
        // The executor builds one world per detector class, lazily: run
        // the first plan of each scenario.
        for scenario in 0..self.scenarios.len() {
            let run = self
                .runs
                .iter()
                .find(|r| r.scenario == scenario)
                .expect("every scenario has runs");
            let (plan, _) = plan_of(&self.scenarios[scenario], run);
            self.executor.execute(&plan, self.obs);
        }
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOutput {
        let mut exact = Exact::default();
        let mut steps = vec![StepTotals::default(); RAMP_RATES.len()];
        let mut failover = FailoverSamples::default();
        let mut submitted_late = 0u64;
        let mut dropped = 0u64;
        let tracing = tr.is_on();
        for run in &self.runs {
            let scenario = &self.scenarios[run.scenario];
            let (plan, due) = tr.span("plan", || plan_of(scenario, run));
            let started = tracing.then(Instant::now);
            let outcome: RunOutcome = tr.span("execute", || self.executor.execute(&plan, self.obs));
            let execute_ns = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
            tr.span("check", || {
                exact.digest = fold_digest(exact.digest, outcome.trace.digest());
                for m in &self.monitors {
                    // Over the knee the ramp cannot commit everything by
                    // the horizon; those operations are counted late
                    // below rather than failing the run.
                    if self.ramp && m.property() == fd_obs::keys::KV_COMMITTED {
                        continue;
                    }
                    if let Err(v) = m.check(&outcome) {
                        exact.violations += 1;
                        exact
                            .violation_notes
                            .push(format!("run seed {}: {v}", run.seed));
                    }
                }
            });
            tr.span("extract", || {
                let stats = run_stats(&outcome.trace, &due);
                exact.events += outcome.events;
                exact.messages += outcome.messages;
                exact.attempted += due.len() as u64;
                exact.ops += stats.latency_us.len() as u64;
                submitted_late += stats.submitted_late;
                if tracing {
                    dropped += count_dropped(&outcome.trace);
                }
                if self.ramp {
                    let s = &mut steps[run.step];
                    s.due += due.len() as u64;
                    s.messages += outcome.messages;
                    s.events += outcome.events;
                    s.ack_fsyncs += stats.ack_fsyncs;
                    s.execute_ns += execute_ns;
                    if run.step < POOLED_STEPS {
                        exact.latency_us.extend(&stats.latency_us);
                    }
                    s.latency_us.extend(stats.latency_us);
                } else {
                    failover.add(&outcome.trace, &self.plans[run.scenario]);
                    exact.latency_us.extend(stats.latency_us);
                }
            });
        }
        exact.late = exact.attempted - exact.ops;
        exact.detail.push((
            "fd-kv.submit_late_share".into(),
            submitted_late as f64 / exact.attempted as f64,
        ));
        let mut traced_detail = Vec::new();
        if tracing {
            traced_detail.push((
                "drop_share".to_string(),
                dropped as f64 / exact.messages.max(1) as f64,
            ));
        }
        if self.ramp {
            let mut verdicts = Vec::new();
            for (rate, s) in RAMP_RATES.iter().zip(&mut steps) {
                if s.due == 0 {
                    continue; // `--quick` runs the pooled steps only
                }
                let committed = s.latency_us.len() as f64;
                let p99_us = percentile(&mut s.latency_us, 99.0).unwrap_or(u64::MAX);
                let step = Step {
                    rate: *rate,
                    p99_us,
                    committed_share: committed / s.due as f64,
                };
                verdicts.push(step);
                let key = |what: &str| format!("fd-kv.step{rate}.{what}");
                exact.detail.extend([
                    (key("commit_p99_ms"), p99_us as f64 / 1e3),
                    (key("committed_share"), step.committed_share),
                    (
                        key("ack_fsyncs_per_op"),
                        s.ack_fsyncs as f64 / committed.max(1.0),
                    ),
                    (key("msgs_per_op"), s.messages as f64 / committed.max(1.0)),
                ]);
                if tracing {
                    traced_detail.push((
                        key("host_us_per_event"),
                        s.execute_ns as f64 / 1e3 / s.events.max(1) as f64,
                    ));
                }
            }
            exact.detail.push((
                "fd-kv.max_rate_ok".into(),
                f64::from(openloop::max_rate_ok(&verdicts)),
            ));
        } else {
            exact.detail.extend(failover.detail());
        }
        RepOutput {
            exact,
            traced_detail,
        }
    }

    fn tail_percentile(&self) -> f64 {
        // Failover pools ~28 k committed operations. The ramp pools the
        // 1 200 of its two light-load steps; p99 there is the 12th
        // worst sample and moved 10 % between seeds, p95 is steady.
        if self.ramp {
            95.0
        } else {
            99.0
        }
    }
}
