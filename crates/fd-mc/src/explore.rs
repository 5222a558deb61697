//! The bounded-DFS exploration driver.
//!
//! [`explore`] enumerates, for one [`McTarget`], every schedule the
//! budgets allow: an outer loop over crash schedules (victims placed on
//! a time grid — crashes commute with everything inside an instant, so
//! placing them between instants loses nothing, see DESIGN.md), and an
//! inner depth-first search over scheduler nondeterminism (same-instant
//! delivery order, timeout-vs-delivery races, forced link losses).
//!
//! Two prunings keep the search tractable without losing violations:
//!
//! * **Sleep sets** (partial-order reduction): after exploring option
//!   `a` at a choice point, sibling subtrees need not re-explore `a`
//!   first when `a` is independent of the sibling — two options are
//!   independent when they mutate different single processes. This is
//!   Godefroid's sleep-set construction keyed on the per-process
//!   footprint of message handlers and timers.
//! * **Visited states**: the world's incremental state digest (see
//!   `fd_sim::WorldBuilder::track_state`) keys a visited set; a state
//!   reached again with no larger sleep set and no more remaining depth
//!   cannot reach anything new. Soundness of the digest requires an
//!   RNG-free network, which the kernel asserts.
//!
//! Both prunings are switchable ([`McConfig::por`] /
//! [`McConfig::dedup`]) so their soundness is testable: exploration
//! with and without them must find the same violations and the same
//! set of final states.

use crate::replay::{Choice, CpRecord, Replayer};
use crate::witness::{shrink_witness, Witness};
use fd_chaos::DetectorKind;
use fd_core::properties::run_named_check;
use fd_sim::{ProcessId, SchedWorld, SimDuration, Time, Trace};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Exploration budgets and switches.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Maximum recorded choice points per run; deeper nondeterminism is
    /// resolved canonically (and reported as a depth truncation).
    pub depth: usize,
    /// Maximum forced link losses ([`Choice::Drop`]) per run.
    pub drops: usize,
    /// Maximum crash victims per crash schedule (0 = crash-free).
    pub crashes: usize,
    /// Crashes are placed at grid points in `[0, crash_window]`.
    pub crash_window: Time,
    /// The crash placement grid step.
    pub crash_grid: SimDuration,
    /// Sleep-set partial-order reduction on/off.
    pub por: bool,
    /// Visited-state pruning on/off (needs a state-tracking world).
    pub dedup: bool,
    /// Hard cap on exploration runs — the safety valve that turns a
    /// state-space explosion into a reported truncation instead of a
    /// hang.
    pub max_runs: usize,
}

impl Default for McConfig {
    fn default() -> McConfig {
        McConfig {
            depth: 12,
            drops: 0,
            crashes: 0,
            crash_window: Time::from_millis(100),
            crash_grid: SimDuration::from_millis(25),
            por: true,
            dedup: true,
            max_runs: 200_000,
        }
    }
}

/// One system under exploration: a world factory plus the properties
/// every explored run must satisfy.
pub struct McTarget {
    /// Human-readable name (labels reports and witnesses).
    pub name: String,
    /// Number of processes.
    pub n: usize,
    /// Run horizon: every run executes all events up to this time.
    pub horizon: Time,
    /// The detector kind recorded in witness plans (so a witness is a
    /// self-contained `ChaosPlan` the campaign tooling understands).
    pub detector: DetectorKind,
    /// Named property checks (see `fd_core::properties::NAMED_CHECKS`)
    /// evaluated on every explored run's trace.
    pub properties: Vec<&'static str>,
    /// Builds a fresh world for one run. Must be deterministic: two
    /// calls must yield byte-identical worlds (the driver injects crash
    /// schedules and scheduling choices on top). The world should be
    /// built with `track_state(true)` so visited-state pruning works.
    pub factory: Box<dyn Fn() -> Box<dyn SchedWorld>>,
}

/// Counters describing one exploration.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ExploreStats {
    /// Full executions performed (excluding shrinking).
    pub runs: usize,
    /// Extra executions spent shrinking witnesses.
    pub shrink_runs: usize,
    /// Crash schedules enumerated.
    pub schedules: usize,
    /// Choice points expanded across all runs.
    pub choice_points: usize,
    /// Branches skipped by sleep-set reduction.
    pub sleep_skips: usize,
    /// Subtrees pruned by the visited-state set.
    pub visited_hits: usize,
    /// Distinct state digests entered into the visited set.
    pub distinct_states: usize,
    /// Longest recorded choice-trace prefix explored.
    pub max_prefix_len: usize,
    /// Runs whose nondeterminism exceeded the depth budget (resolved
    /// canonically past the cap — coverage below the cap is exhaustive,
    /// beyond it is not).
    pub depth_capped_runs: usize,
    /// Runs on which at least one property failed (each property gets
    /// one shrunk witness per crash schedule; this counts every
    /// violating run).
    pub violating_runs: usize,
    /// True when `max_runs` stopped the search early.
    pub truncated: bool,
}

/// One violation found by exploration, with its replayable witness.
#[derive(Debug, Clone, Serialize)]
pub struct FoundViolation {
    /// The named property that failed.
    pub property: String,
    /// Human-readable failure detail (from the shrunk run).
    pub detail: String,
    /// The shrunk, replayable witness.
    pub witness: Witness,
}

/// The result of exploring one target.
#[derive(Debug, Serialize)]
pub struct McReport {
    /// Target name.
    pub target: String,
    /// Process count.
    pub n: usize,
    /// Exploration counters.
    pub stats: ExploreStats,
    /// Every distinct violation found (deduplicated by property and
    /// violating-trace digest), shrunk.
    pub violations: Vec<FoundViolation>,
    /// True when the bounded state space was fully explored (no
    /// `max_runs` truncation). Depth caps are reported separately in
    /// [`ExploreStats::depth_capped_runs`].
    pub complete: bool,
    /// Every distinct final state digest reached (horizon states),
    /// sorted. Exploration with and without POR must agree on this
    /// set — the invariant the soundness proptests check.
    pub final_digests: Vec<u64>,
}

impl McReport {
    /// This target's block of `ecfd mc` output: the counters line — with
    /// the caller-measured wall time and, when a POR-off baseline was
    /// run, the reduction factor — then two lines per violation naming
    /// the property and its [`witness_file`](McReport::witness_file).
    pub fn render(&self, wall_ms: u64, baseline_runs: Option<usize>, witness_dir: &str) -> String {
        use std::fmt::Write;
        let s = &self.stats;
        let mut out = String::new();
        let _ = write!(
            out,
            "  {:<12} runs={:<7} schedules={:<4} states={:<6} cps={:<7} sleep_skips={:<7} \
visited_hits={:<6} capped={:<6} wall={:>6}ms {}",
            self.target,
            s.runs,
            s.schedules,
            s.distinct_states,
            s.choice_points,
            s.sleep_skips,
            s.visited_hits,
            s.depth_capped_runs,
            wall_ms,
            if self.complete {
                "exhaustive"
            } else {
                "TRUNCATED"
            },
        );
        if let Some(b) = baseline_runs {
            let factor = b as f64 / s.runs.max(1) as f64;
            let _ = write!(out, " por-reduction={factor:.2}x");
        }
        out.push('\n');
        for v in &self.violations {
            let _ = writeln!(out, "    VIOLATION {}: {}", v.property, v.detail);
            let _ = writeln!(out, "    witness: {}", self.witness_file(witness_dir, v));
        }
        out
    }

    /// Where `ecfd mc` writes `v`'s witness under `witness_dir`.
    pub fn witness_file(&self, witness_dir: &str, v: &FoundViolation) -> String {
        let property = v.property.replace('.', "-");
        format!("{witness_dir}/{}-{property}.json", self.target)
    }

    /// The closing verdict line of `ecfd mc` over every explored target.
    pub fn render_verdict<'a>(reports: impl IntoIterator<Item = &'a McReport>) -> &'static str {
        let (mut violated, mut truncated) = (false, false);
        for r in reports {
            violated |= !r.violations.is_empty();
            truncated |= !r.complete;
        }
        if violated {
            "mc: violations found — witnesses written\n"
        } else if truncated {
            "mc: clean but truncated (raise --max-runs for an exhaustive verdict)\n"
        } else {
            "mc: exhaustive within budgets, no violations\n"
        }
    }
}

/// One failed named check on an explored run.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// The `NAMED_CHECKS` name that failed (the stable identifier —
    /// witnesses and reports key on this, not on the checker's
    /// internal violation label).
    pub check: &'static str,
    /// The underlying violation, with its human-readable detail.
    pub violation: fd_core::properties::Violation,
}

/// One executed run: its recorded choice points and verdicts.
pub struct Exec {
    /// The recorded choice points, in execution order.
    pub log: Vec<CpRecord>,
    /// FNV digest of the run's full trace.
    pub trace_digest: u64,
    /// The world's state digest at the horizon.
    pub final_digest: u64,
    /// Named checks that failed on this run's trace.
    pub violations: Vec<CheckFailure>,
    /// The run's trace (kept for witness details).
    pub trace: Trace,
    /// True when a scripted choice did not match the enabled set.
    pub diverged: bool,
    /// True when the depth budget truncated recording.
    pub depth_capped: bool,
}

/// Execute one run of `target` under a crash schedule and choice
/// script; check every target property on the resulting trace.
///
/// This is *the* execution function — exploration, shrinking, and
/// witness replay all go through it, which is what makes witnesses
/// byte-identical to the runs that produced them.
pub fn run_one(
    target: &McTarget,
    cfg: &McConfig,
    schedule: &[(ProcessId, Time)],
    script: &[Choice],
) -> Exec {
    let mut world = (target.factory)();
    assert_eq!(world.n(), target.n, "factory world size != target.n");
    for &(pid, at) in schedule {
        world.schedule_crash(pid, at);
    }
    let mut rep = Replayer::new(script, cfg.depth, cfg.drops);
    world.run_scheduled_until(target.horizon, &mut rep);
    let final_digest = world.state_digest();
    let (trace, _metrics) = world.take_results();
    let trace_digest = trace.digest();
    let mut violations = Vec::new();
    for name in &target.properties {
        match run_named_check(name, &trace, target.n, target.horizon) {
            Some(Err(v)) => violations.push(CheckFailure {
                check: name,
                violation: v,
            }),
            Some(Ok(())) => {}
            None => panic!("unknown named check {name:?} in target {}", target.name),
        }
    }
    Exec {
        log: rep.log,
        trace_digest,
        final_digest,
        violations,
        trace,
        diverged: rep.diverged,
        depth_capped: rep.depth_capped,
    }
}

/// A sleep-set entry: what was explored, identified by content.
/// `(is_drop, event key, footprint)` — a drop and a delivery of the
/// same message are distinct actions with the same key.
type SleepEntry = (bool, u64, Option<ProcessId>);

/// Two actions commute iff both have single-process footprints and the
/// footprints differ. Anything touching global state (`None` target)
/// is conservatively dependent on everything.
fn independent(a: &SleepEntry, b: &SleepEntry) -> bool {
    match (a.2, b.2) {
        (Some(x), Some(y)) => x != y,
        _ => false,
    }
}

/// Per-digest cap on remembered visited entries: past this, re-visits
/// re-explore rather than grow the set without bound.
const VISITED_ENTRIES_PER_DIGEST: usize = 8;

/// One fully-explored visit of a state digest: the sorted sleep-set
/// identities in force, the prefix length, and the drops used. A
/// re-visit is prunable only against an entry at least as permissive on
/// all three (see `expand`).
type VisitedEntry = (Vec<(bool, u64)>, usize, usize);

struct Dfs<'t> {
    target: &'t McTarget,
    cfg: &'t McConfig,
    schedule: Vec<(ProcessId, Time)>,
    /// digest → entries that were fully explored from that state.
    visited: BTreeMap<u64, Vec<VisitedEntry>>,
    stats: ExploreStats,
    seen: BTreeSet<String>,
    violations: Vec<FoundViolation>,
    final_digests: BTreeSet<u64>,
    stop: bool,
}

impl Dfs<'_> {
    fn run(&mut self, script: &[Choice]) -> Exec {
        self.stats.runs += 1;
        let exec = run_one(self.target, self.cfg, &self.schedule, script);
        if exec.depth_capped {
            self.stats.depth_capped_runs += 1;
        }
        exec
    }

    fn note(&mut self, exec: &Exec, prefix: &[Choice]) {
        self.final_digests.insert(exec.final_digest);
        if !exec.violations.is_empty() {
            self.stats.violating_runs += 1;
        }
        for f in &exec.violations {
            if !self.seen.insert(f.check.to_string()) {
                continue;
            }
            let (schedule, choices, shrunk) = shrink_witness(
                self.target,
                self.cfg,
                self.schedule.clone(),
                prefix.to_vec(),
                f.check,
                &mut self.stats.shrink_runs,
            );
            self.violations.push(FoundViolation {
                property: f.check.to_string(),
                detail: shrunk
                    .violations
                    .iter()
                    .find(|sf| sf.check == f.check)
                    .map(|sf| sf.violation.detail.clone())
                    .unwrap_or_else(|| f.violation.detail.clone()),
                witness: Witness::new(self.target, &schedule, choices, f.check, &shrunk),
            });
        }
    }

    fn visit(&mut self, prefix: &mut Vec<Choice>, sleep: Vec<SleepEntry>) {
        if self.stop {
            return;
        }
        if self.stats.runs >= self.cfg.max_runs {
            self.stats.truncated = true;
            self.stop = true;
            return;
        }
        let exec = self.run(prefix);
        self.note(&exec, prefix);
        self.expand(prefix, &exec, sleep);
    }

    fn expand(&mut self, prefix: &mut Vec<Choice>, exec: &Exec, sleep: Vec<SleepEntry>) {
        if self.stop {
            return;
        }
        let i = prefix.len();
        let Some(cp) = exec.log.get(i) else {
            return;
        };
        self.stats.choice_points += 1;
        self.stats.max_prefix_len = self.stats.max_prefix_len.max(i + 1);

        if self.cfg.dedup {
            if let Some(d) = cp.digest {
                let mut skeys: Vec<(bool, u64)> = sleep.iter().map(|s| (s.0, s.1)).collect();
                skeys.sort_unstable();
                let entries = self.visited.entry(d).or_default();
                // A previous exploration from this state covers this one
                // iff it had no *more* sleeping (a subset sleeps ⇒ more
                // was explored), at least as much remaining depth, and
                // at least as much remaining drop budget.
                if entries.iter().any(|(sk, len, du)| {
                    *len <= i && *du <= cp.drops_used && sk.iter().all(|k| skeys.contains(k))
                }) {
                    self.stats.visited_hits += 1;
                    return;
                }
                if entries.is_empty() {
                    self.stats.distinct_states += 1;
                }
                if entries.len() < VISITED_ENTRIES_PER_DIGEST {
                    entries.push((skeys, i, cp.drops_used));
                }
            }
        }

        let mut explored: Vec<SleepEntry> = Vec::new();
        for (oi, opt) in cp.options.iter().enumerate() {
            if self.stop {
                return;
            }
            let entry: SleepEntry = (opt.choice.is_drop(), opt.key, opt.target);
            if self.cfg.por && sleep.iter().any(|s| s.0 == entry.0 && s.1 == entry.1) {
                self.stats.sleep_skips += 1;
                continue;
            }
            let child_sleep: Vec<SleepEntry> = if self.cfg.por {
                sleep
                    .iter()
                    .chain(explored.iter())
                    .filter(|s| independent(s, &entry))
                    .copied()
                    .collect()
            } else {
                Vec::new()
            };
            prefix.push(opt.choice);
            if oi == 0 {
                // `exec` already *is* the execution of prefix + the
                // canonical choice — reuse it instead of re-running.
                self.expand(prefix, exec, child_sleep);
            } else {
                self.visit(prefix, child_sleep);
            }
            prefix.pop();
            if self.cfg.por {
                explored.push(entry);
            }
        }
    }
}

/// Enumerate every crash schedule the budgets allow: for each victim
/// set of size `1..=cfg.crashes`, each assignment of grid times in
/// `[0, crash_window]`, plus the crash-free schedule. Crash times are
/// enumerated on a grid because within an instant a crash commutes
/// with every other event of the batch (the kernel consumes crashes
/// before the instant's deliveries either way), so only the *instant*
/// of a crash matters, and between grid points detectors see the same
/// timeout-quantized behaviour (see DESIGN.md for the caveat).
pub fn crash_schedules(n: usize, cfg: &McConfig) -> Vec<Vec<(ProcessId, Time)>> {
    let mut out = vec![Vec::new()];
    if cfg.crashes == 0 || cfg.crash_grid.0 == 0 {
        return out;
    }
    let mut times = Vec::new();
    let mut t = 0u64;
    while t <= cfg.crash_window.0 {
        times.push(Time(t));
        t += cfg.crash_grid.0;
    }
    // Victim subsets in increasing-pid order; times assigned
    // independently per victim (cartesian product).
    fn extend(
        n: usize,
        max_k: usize,
        times: &[Time],
        start: usize,
        cur: &mut Vec<(ProcessId, Time)>,
        out: &mut Vec<Vec<(ProcessId, Time)>>,
    ) {
        if cur.len() == max_k {
            return;
        }
        for pid in start..n {
            for &at in times {
                cur.push((ProcessId(pid), at));
                out.push(cur.clone());
                extend(n, max_k, times, pid + 1, cur, out);
                cur.pop();
            }
        }
    }
    let mut cur = Vec::new();
    extend(n, cfg.crashes, &times, 0, &mut cur, &mut out);
    out
}

/// Exhaustively explore `target` within the budgets of `cfg`.
pub fn explore(target: &McTarget, cfg: &McConfig) -> McReport {
    let mut stats = ExploreStats::default();
    let mut violations = Vec::new();
    let mut final_digests = BTreeSet::new();
    let mut truncated = false;
    let mut runs_so_far = 0usize;
    for schedule in crash_schedules(target.n, cfg) {
        stats.schedules += 1;
        let mut dfs = Dfs {
            target,
            cfg,
            schedule,
            visited: BTreeMap::new(),
            stats: ExploreStats::default(),
            seen: BTreeSet::new(),
            violations: Vec::new(),
            final_digests: BTreeSet::new(),
            stop: false,
        };
        // Budget the inner search with what remains of the global cap.
        dfs.stats.runs = runs_so_far;
        dfs.visit(&mut Vec::new(), Vec::new());
        runs_so_far = dfs.stats.runs;
        stats.shrink_runs += dfs.stats.shrink_runs;
        stats.choice_points += dfs.stats.choice_points;
        stats.sleep_skips += dfs.stats.sleep_skips;
        stats.visited_hits += dfs.stats.visited_hits;
        stats.distinct_states += dfs.stats.distinct_states;
        stats.max_prefix_len = stats.max_prefix_len.max(dfs.stats.max_prefix_len);
        stats.depth_capped_runs += dfs.stats.depth_capped_runs;
        stats.violating_runs += dfs.stats.violating_runs;
        violations.extend(dfs.violations);
        final_digests.extend(dfs.final_digests);
        if dfs.stats.truncated {
            truncated = true;
            break;
        }
    }
    stats.runs = runs_so_far;
    stats.truncated = truncated;
    McReport {
        target: target.name.clone(),
        n: target.n,
        stats,
        violations,
        complete: !truncated,
        final_digests: final_digests.into_iter().collect(),
    }
}
