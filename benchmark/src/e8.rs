//! `e8-sweep`: the campaign engine sweeping experiment E8.
//!
//! Operation = one seed: one consensus instance (protocol, n ∈ {4,5,7}
//! and crash plan all derived from the seed) run to decision and
//! checked against the safety and termination monitors.
//!
//! Why: the repo's headline number. Worlds are tiny and traces full, so
//! dispatch, trace recording and digesting, the consensus protocols and
//! the campaign's per-seed plan/check overhead dominate; the event
//! queue barely matters. It is the bypass for queue and large-n work.

use crate::spans::Tracer;
use crate::workload::{count_dropped, fold_digest, Exact, Options, RepOutput, Workload};
use fd_bench::campaign::E8Scenario;
use fd_campaign::{Campaign, Scenario};

static E8: E8Scenario = E8Scenario;

/// Seeds per repetition. A multiple of E8's 108-seed cell cycle would
/// be tidier, but 12 000 keeps the issue's sizing; the start is aligned
/// to a multiple of the count so every `--seed` sweeps the same mix of
/// (protocol, n) cells to within one 12-seed block.
const SEEDS: u64 = 12_000;

pub struct E8Sweep<'r> {
    first: u64,
    count: u64,
    obs: Option<&'r fd_obs::Registry>,
}

impl<'r> E8Sweep<'r> {
    pub fn new(opt: Options, obs: Option<&'r fd_obs::Registry>) -> E8Sweep<'r> {
        let count = if opt.quick { SEEDS / 20 } else { SEEDS };
        E8Sweep {
            // Distinct `--seed`s sweep disjoint seed ranges.
            first: (opt.seed % (1 << 32)) * count,
            count,
            obs,
        }
    }

    fn seeds(&self) -> std::ops::Range<u64> {
        self.first..self.first + self.count
    }

    /// The sweep as users run it: `Campaign::run`, one worker.
    fn rep_campaign(&self) -> Exact {
        let report = Campaign::new(&E8, self.seeds()).jobs(1).run();
        let mut out = Exact::default();
        for r in &report.results {
            tally(
                &mut out,
                r.seed,
                r.digest,
                r.events,
                r.messages,
                r.latency_ticks,
                r.violation.as_ref(),
            );
        }
        out
    }

    /// The same sweep with a span around each call the engine makes
    /// into a layer. Mirrors `Campaign::run_seed_with` step for step.
    fn rep_traced(&self, tr: &mut Tracer) -> RepOutput {
        let mut executor = E8.make_executor();
        let monitors = E8.monitors();
        let mut out = Exact::default();
        let mut dropped = 0u64;
        for seed in self.seeds() {
            let plan = tr.span("plan", || E8.plan(seed));
            let outcome = tr.span("execute", || executor.execute(&plan, self.obs));
            let (digest, violation) = tr.span("check", || {
                let digest = outcome.trace.digest();
                let violation = monitors.iter().find_map(|m| {
                    m.check(&outcome)
                        .err()
                        .map(|v| (m.property().to_string(), v.to_string()))
                });
                (digest, violation)
            });
            tr.span("extract", || {
                tally(
                    &mut out,
                    seed,
                    digest,
                    outcome.events,
                    outcome.messages,
                    outcome.decision_latency.map(|d| d.ticks()),
                    violation.as_ref(),
                );
                dropped += count_dropped(&outcome.trace);
            });
        }
        let drop_share = dropped as f64 / out.messages.max(1) as f64;
        RepOutput {
            exact: out,
            traced_detail: vec![("drop_share".to_string(), drop_share)],
        }
    }
}

/// Add one seed's verdict to the rep's totals.
fn tally(
    out: &mut Exact,
    seed: u64,
    digest: u64,
    events: u64,
    messages: u64,
    latency_ticks: Option<u64>,
    violation: Option<&(String, String)>,
) {
    out.digest = fold_digest(out.digest, digest);
    out.events += events;
    out.messages += messages;
    out.attempted += 1;
    match (violation, latency_ticks) {
        (Some((property, detail)), _) => {
            out.violations += 1;
            out.violation_notes
                .push(format!("seed {seed}: {property}: {detail}"));
        }
        (None, Some(ticks)) => {
            out.ops += 1;
            out.latency_us.push(ticks);
        }
        // Termination is a monitor, so an undecided seed is a violation
        // above; this arm keeps the count honest if that ever changes.
        (None, None) => out.late += 1,
    }
}

impl Workload for E8Sweep<'_> {
    fn warm_up(&mut self) {
        // One full cycle of E8's nine (protocol, n) cells.
        let cycle = self.first..self.first + self.count.min(108);
        Campaign::new(&E8, cycle).jobs(1).run();
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOutput {
        if tr.is_on() {
            self.rep_traced(tr)
        } else {
            RepOutput {
                exact: self.rep_campaign(),
                traced_detail: Vec::new(),
            }
        }
    }

    fn tail_percentile(&self) -> f64 {
        99.0
    }
}
