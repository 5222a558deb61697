//! Trace-based property checkers.
//!
//! The paper's guarantees are all of the form "there is a time after
//! which …". On a finite trace we interpret them in the standard way: the
//! property must hold of the run's *final* failure-detector outputs, and
//! the run must have been quiescent (no output changes) for a comfortable
//! margin before the horizon, so "final" genuinely approximates
//! "permanent". [`FdRun::stabilization_time`] exposes the last output
//! change so tests can assert that margin explicitly.
//!
//! Checkers exist for each completeness/accuracy property of Fig. 1, the
//! Ω property (Property 1), the ◇C definition (Definition 1), and the
//! four Uniform Consensus properties of §5.1.

use crate::classes::FdClass;
use crate::detector::obs;
use crate::set::ProcessSet;
use fd_sim::{all_processes, ProcessId, Time, Trace};
use std::fmt;

/// A property violation, with a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which property failed.
    pub property: &'static str,
    /// What exactly went wrong.
    pub detail: String,
}

impl Violation {
    fn new(property: &'static str, detail: impl Into<String>) -> Violation {
        Violation {
            property,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violated: {}", self.property, self.detail)
    }
}

impl std::error::Error for Violation {}

/// Checker result.
pub type CheckResult = Result<(), Violation>;

/// A finished run, viewed through its failure-detector observations.
///
/// ```
/// use fd_core::{FdClass, FdRun};
/// use fd_sim::{Payload, ProcessId, Time, Trace, TraceEvent, TraceKind};
///
/// // p1 crashes; p0 ends up suspecting exactly {p1}.
/// let trace = Trace::from_events(vec![
///     TraceEvent { at: Time(10), kind: TraceKind::Crashed { pid: ProcessId(1) } },
///     TraceEvent {
///         at: Time(40),
///         kind: TraceKind::Observation {
///             pid: ProcessId(0),
///             tag: fd_core::obs::SUSPECTS,
///             payload: Payload::Pids(vec![ProcessId(1)]),
///         },
///     },
/// ]);
/// let run = FdRun::new(&trace, 2, Time(1000));
/// run.check_class(FdClass::EventuallyPerfect).unwrap();
/// assert_eq!(run.detection_latency(ProcessId(1)), Some(fd_sim::SimDuration(30)));
/// ```
pub struct FdRun<'a> {
    pub(crate) trace: &'a Trace,
    pub(crate) n: usize,
    pub(crate) end: Time,
    pub(crate) suspects_tag: &'a str,
}

impl<'a> FdRun<'a> {
    /// Wrap a trace of an `n`-process run that was stopped at `end`.
    /// Observations are read from the default [`obs::SUSPECTS`] /
    /// [`obs::TRUSTED`] tags.
    pub fn new(trace: &'a Trace, n: usize, end: Time) -> FdRun<'a> {
        FdRun {
            trace,
            n,
            end,
            suspects_tag: obs::SUSPECTS,
        }
    }

    /// Read suspect sets from a custom observation tag instead — used when
    /// a node hosts two detectors (e.g. a ◇C detector plus the Fig. 2
    /// transformation's ◇P output) that must be checked independently.
    pub fn with_suspects_tag(mut self, tag: &'a str) -> Self {
        self.suspects_tag = tag;
        self
    }

    /// The horizon of the run.
    pub fn end(&self) -> Time {
        self.end
    }

    /// Processes that crashed during the run, with crash times.
    pub fn crashes(&self) -> Vec<(ProcessId, Time)> {
        self.trace.crashes()
    }

    /// The set of processes that are crashed *at the horizon*.
    ///
    /// A crash is undone by a later `chaos.restart` intervention for the
    /// same process (recorded in the trace as a [`fd_sim::chaos::RESTART`]
    /// observation with a `Pid` payload): a restarted process is alive at
    /// the horizon, so the "eventually" properties hold it to the same
    /// standard as a never-crashed one. Traces without chaos
    /// interventions behave exactly as before.
    pub fn crashed(&self) -> ProcessSet {
        let mut set = ProcessSet::new();
        // `crashes()` is in time order, so for a crash/restart/crash
        // history the final insert/remove reflects the last transition.
        for (p, at) in self.trace.crashes() {
            let revived = self
                .trace
                .observations(fd_sim::chaos::RESTART)
                .any(|(t, _, pl)| t >= at && pl.as_pid() == Some(p));
            if revived {
                set.remove(p);
            } else {
                set.insert(p);
            }
        }
        set
    }

    /// The set of correct (never-crashed) processes.
    pub fn correct(&self) -> ProcessSet {
        self.crashed().complement(self.n)
    }

    /// `p`'s suspect-set history as `(time, set)` pairs, in time order.
    pub fn suspect_history(&self, p: ProcessId) -> Vec<(Time, ProcessSet)> {
        self.trace
            .observations_of(p, self.suspects_tag)
            .filter_map(|(t, pl)| pl.as_pids().map(|v| (t, v.iter().collect())))
            .collect()
    }

    /// `p`'s final suspect set (empty if `p` never emitted one).
    pub fn final_suspects(&self, p: ProcessId) -> ProcessSet {
        self.trace
            .last_observation_of(p, self.suspects_tag)
            .and_then(|(_, pl)| pl.as_pids().map(|v| v.iter().collect()))
            .unwrap_or_default()
    }

    /// `p`'s trusted-process history.
    pub fn trusted_history(&self, p: ProcessId) -> Vec<(Time, ProcessId)> {
        self.trace
            .observations_of(p, obs::TRUSTED)
            .filter_map(|(t, pl)| pl.as_pid().map(|q| (t, q)))
            .collect()
    }

    /// `p`'s final trusted process, if it ever emitted one.
    pub fn final_trusted(&self, p: ProcessId) -> Option<ProcessId> {
        self.trace
            .last_observation_of(p, obs::TRUSTED)
            .and_then(|(_, pl)| pl.as_pid())
    }

    /// The time of the last failure-detector output change at any correct
    /// process — the run's empirical stabilization time. `None` if no
    /// correct process ever emitted an output.
    pub fn stabilization_time(&self) -> Option<Time> {
        let correct = self.correct();
        let mut last = None;
        for (t, p, _) in self.trace.observations(self.suspects_tag) {
            if correct.contains(p) {
                last = Some(last.map_or(t, |l: Time| l.max(t)));
            }
        }
        for (t, p, _) in self.trace.observations(obs::TRUSTED) {
            if correct.contains(p) {
                last = Some(last.map_or(t, |l: Time| l.max(t)));
            }
        }
        last
    }

    /// Assert the detector outputs were quiescent for at least `margin`
    /// before the horizon — i.e. "eventually permanently" was observed
    /// with real slack, not just at the last instant.
    pub fn check_stable_margin(&self, margin: fd_sim::SimDuration) -> CheckResult {
        match self.stabilization_time() {
            None => Err(Violation::new(
                "stability-margin",
                "no detector output was ever observed",
            )),
            Some(t) if t + margin <= self.end => Ok(()),
            Some(t) => Err(Violation::new(
                "stability-margin",
                format!(
                    "last output change at {t}, horizon {}, margin {margin} not met",
                    self.end
                ),
            )),
        }
    }

    /// Strong completeness: eventually every crashed process is
    /// permanently suspected by **every** correct process.
    pub fn check_strong_completeness(&self) -> CheckResult {
        let crashed = self.crashed();
        let correct = self.correct();
        for q in crashed.iter() {
            for p in correct.iter() {
                if !self.final_suspects(p).contains(q) {
                    return Err(Violation::new(
                        "strong-completeness",
                        format!("correct {p} does not suspect crashed {q} at the horizon"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Weak completeness: eventually every crashed process is permanently
    /// suspected by **some** correct process. Vacuous when no process is
    /// correct (as strong completeness then is).
    pub fn check_weak_completeness(&self) -> CheckResult {
        let crashed = self.crashed();
        let correct = self.correct();
        if correct.is_empty() {
            return Ok(());
        }
        for q in crashed.iter() {
            let found = correct.iter().any(|p| self.final_suspects(p).contains(q));
            if !found {
                return Err(Violation::new(
                    "weak-completeness",
                    format!("no correct process suspects crashed {q} at the horizon"),
                ));
            }
        }
        Ok(())
    }

    /// Eventual strong accuracy: there is a time after which correct
    /// processes are not suspected by any correct process.
    pub fn check_eventual_strong_accuracy(&self) -> CheckResult {
        let correct = self.correct();
        for p in correct.iter() {
            let wrong = self.final_suspects(p) & &correct;
            if !wrong.is_empty() {
                return Err(Violation::new(
                    "eventual-strong-accuracy",
                    format!("correct {p} still suspects correct {wrong} at the horizon"),
                ));
            }
        }
        Ok(())
    }

    /// Eventual weak accuracy: there is a time after which **some**
    /// correct process is never suspected by any correct process. Vacuous
    /// when no process is correct (as strong accuracy then is): an
    /// everyone-crashes run must not satisfy ◇P yet violate ◇S.
    pub fn check_eventual_weak_accuracy(&self) -> CheckResult {
        let correct = self.correct();
        if correct.is_empty() {
            return Ok(());
        }
        let candidate = correct
            .iter()
            .find(|q| correct.iter().all(|p| !self.final_suspects(p).contains(*q)));
        match candidate {
            Some(_) => Ok(()),
            None => Err(Violation::new(
                "eventual-weak-accuracy",
                "every correct process is suspected by some correct process at the horizon",
            )),
        }
    }

    /// Property 1 (Ω): there is a time after which every correct process
    /// permanently trusts the same correct process.
    pub fn check_omega(&self) -> CheckResult {
        let correct = self.correct();
        let mut leader: Option<ProcessId> = None;
        for p in correct.iter() {
            match self.final_trusted(p) {
                None => {
                    return Err(Violation::new(
                        "omega",
                        format!("correct {p} never output a trusted process"),
                    ))
                }
                Some(q) => match leader {
                    None => leader = Some(q),
                    Some(l) if l != q => {
                        return Err(Violation::new(
                            "omega",
                            format!("correct processes disagree on the leader ({l} vs {q} at {p})"),
                        ))
                    }
                    Some(_) => {}
                },
            }
        }
        match leader {
            None => {
                if correct.is_empty() {
                    Ok(())
                } else {
                    Err(Violation::new(
                        "omega",
                        "no trusted process was ever observed",
                    ))
                }
            }
            Some(l) if correct.contains(l) => Ok(()),
            Some(l) => Err(Violation::new(
                "omega",
                format!("agreed leader {l} is crashed"),
            )),
        }
    }

    /// Definition 1 clause 3: there is a time after which the trusted
    /// process is not suspected (checked locally at each correct process).
    pub fn check_trusted_not_suspected(&self) -> CheckResult {
        for p in self.correct().iter() {
            if let Some(t) = self.final_trusted(p) {
                if self.final_suspects(p).contains(t) {
                    return Err(Violation::new(
                        "trusted-not-suspected",
                        format!("{p} trusts {t} but also suspects it at the horizon"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Definition 1 in full: ◇S suspect sets + Ω trusted process +
    /// trusted ∉ suspected.
    pub fn check_eventually_consistent(&self) -> CheckResult {
        self.check_strong_completeness()?;
        self.check_eventual_weak_accuracy()?;
        self.check_omega()?;
        self.check_trusted_not_suspected()
    }

    /// The first time `observer` reported `target` suspected, if ever.
    pub fn first_suspicion_of(&self, observer: ProcessId, target: ProcessId) -> Option<Time> {
        self.trace
            .observations_of(observer, self.suspects_tag)
            .find(|(_, pl)| pl.as_pids().is_some_and(|v| v.contains(&target)))
            .map(|(t, _)| t)
    }

    /// Crash-detection latency for `victim`: the span from its crash to
    /// the moment the *last* correct process first suspects it. `None` if
    /// `victim` did not crash or some correct process never suspects it.
    pub fn detection_latency(&self, victim: ProcessId) -> Option<fd_sim::SimDuration> {
        let crash_at = self.crashes().into_iter().find(|(p, _)| *p == victim)?.1;
        let mut last: Option<Time> = None;
        for p in self.correct().iter() {
            let first = self
                .trace
                .observations_of(p, self.suspects_tag)
                .find(|(at, pl)| {
                    *at >= crash_at && pl.as_pids().is_some_and(|v| v.contains(&victim))
                })
                .map(|(at, _)| at)?;
            last = Some(last.map_or(first, |l| l.max(first)));
        }
        last.map(|t| t.since(crash_at))
    }

    /// How many times `target` *entered* `observer`'s suspect set — each
    /// entry after the first revocation is a detector mistake (for a
    /// correct target) or re-detection noise. Theorem 1's argument bounds
    /// this for correct targets under partial synchrony.
    pub fn suspicion_entries(&self, observer: ProcessId, target: ProcessId) -> u32 {
        let mut entries = 0;
        let mut inside = false;
        for (_, set) in self.suspect_history(observer) {
            let now_inside = set.contains(target);
            if now_inside && !inside {
                entries += 1;
            }
            inside = now_inside;
        }
        entries
    }

    /// How many times `observer`'s trusted output changed after its first
    /// report — the leadership flap count (experiment E9b's metric).
    pub fn leadership_changes(&self, observer: ProcessId) -> usize {
        self.trusted_history(observer).len().saturating_sub(1)
    }

    /// The run's *quiet point*: the time of the last chaos intervention
    /// recorded in the trace, after which the network obeys its base
    /// model again. `None` if the run had no interventions.
    ///
    /// The "there is a time after which …" clauses of the paper's
    /// properties are only falsifiable on the post-quiet suffix: during
    /// an open partition or an active mangler the adversary may legally
    /// violate accuracy, so chaos-aware checks demand the horizon extend
    /// strictly past this point.
    pub fn chaos_quiet_point(&self) -> Option<Time> {
        let mut last = None;
        for tag in fd_sim::chaos::ALL_TAGS {
            for (t, _, _) in self.trace.observations(tag) {
                last = Some(last.map_or(t, |l: Time| l.max(t)));
            }
        }
        last
    }

    /// The detector class this run advertises via a
    /// [`fd_sim::chaos::EXPECT_CLASS`] annotation (a `U64` index into
    /// [`FdClass::ALL`]), if any. Chaos scenarios stamp this at `t = 0`
    /// so replay can re-check the right property without out-of-band
    /// state.
    pub fn expected_class(&self) -> Option<FdClass> {
        self.trace
            .observations(fd_sim::chaos::EXPECT_CLASS)
            .filter_map(|(_, _, pl)| pl.as_u64())
            .last()
            .and_then(|i| FdClass::ALL.get(i as usize).copied())
    }

    /// Check class membership *relative to the fault schedule*: the run
    /// must extend strictly past the last intervention (otherwise the
    /// eventual clauses are vacuously untestable and the check fails
    /// loudly rather than passing silently), and the final outputs must
    /// satisfy the class on the post-quiet suffix.
    pub fn check_class_after_faults(&self, class: FdClass) -> CheckResult {
        if let Some(q) = self.chaos_quiet_point() {
            if q >= self.end {
                return Err(Violation::new(
                    "chaos-quiet-runway",
                    format!(
                        "horizon {} does not extend past the last intervention at {q}; \
                         the eventual properties were never observable",
                        self.end
                    ),
                ));
            }
        }
        self.check_class(class)
    }

    /// [`check_class_after_faults`](FdRun::check_class_after_faults)
    /// against the class the trace itself advertises via
    /// `chaos.expect_class`. Fails if the annotation is missing — a
    /// chaos run that forgot to declare its detector class is a harness
    /// bug, not a pass.
    pub fn check_expected_class_after_faults(&self) -> CheckResult {
        match self.expected_class() {
            Some(class) => self.check_class_after_faults(class),
            None => Err(Violation::new(
                "chaos-expect-class",
                "trace carries no chaos.expect_class annotation",
            )),
        }
    }

    /// Check membership of the run's detector outputs in a class.
    pub fn check_class(&self, class: FdClass) -> CheckResult {
        match class {
            FdClass::EventuallyPerfect => {
                self.check_strong_completeness()?;
                self.check_eventual_strong_accuracy()
            }
            FdClass::EventuallyQuasiPerfect => {
                self.check_weak_completeness()?;
                self.check_eventual_strong_accuracy()
            }
            FdClass::EventuallyStrong => {
                self.check_strong_completeness()?;
                self.check_eventual_weak_accuracy()
            }
            FdClass::EventuallyWeak => {
                self.check_weak_completeness()?;
                self.check_eventual_weak_accuracy()
            }
            FdClass::Omega => self.check_omega(),
            FdClass::EventuallyConsistent => self.check_eventually_consistent(),
        }
    }
}

/// A finished run, viewed through its consensus observations.
pub struct ConsensusRun<'a> {
    trace: &'a Trace,
    n: usize,
}

impl<'a> ConsensusRun<'a> {
    /// Wrap a trace of an `n`-process consensus run.
    pub fn new(trace: &'a Trace, n: usize) -> ConsensusRun<'a> {
        ConsensusRun { trace, n }
    }

    /// All proposals `(proposer, value)`.
    pub fn proposals(&self) -> Vec<(ProcessId, u64)> {
        self.trace
            .observations(obs::PROPOSE)
            .filter_map(|(_, p, pl)| pl.as_u64().map(|v| (p, v)))
            .collect()
    }

    /// All decisions `(decider, time, value, round)` in time order.
    pub fn decisions(&self) -> Vec<(ProcessId, Time, u64, u64)> {
        self.trace
            .observations(obs::DECIDE)
            .filter_map(|(t, p, pl)| pl.as_u64_pair().map(|(v, r)| (p, t, v, r)))
            .collect()
    }

    /// Largest round in which any process decided.
    pub fn max_decision_round(&self) -> Option<u64> {
        self.decisions().into_iter().map(|(_, _, _, r)| r).max()
    }

    /// Uniform agreement: no two processes (correct or faulty) decide
    /// differently.
    pub fn check_uniform_agreement(&self) -> CheckResult {
        agreement(&self.decisions())
    }

    /// Validity: every decided value was proposed by some process.
    pub fn check_validity(&self) -> CheckResult {
        self.validity(&self.decisions())
    }

    /// Uniform integrity: every process decides at most once.
    pub fn check_integrity(&self) -> CheckResult {
        integrity(&self.decisions())
    }

    /// Termination: every correct process eventually decides.
    pub fn check_termination(&self) -> CheckResult {
        self.termination(&self.decisions())
    }

    /// All four Uniform Consensus properties (§5.1), reading the
    /// decisions once for all four.
    pub fn check_all(&self) -> CheckResult {
        let ds = self.decisions();
        agreement(&ds)?;
        self.validity(&ds)?;
        integrity(&ds)?;
        self.termination(&ds)
    }

    /// The three safety properties only (agreement, validity, integrity) —
    /// what must hold on *every* run, even ones stopped before liveness
    /// could be observed.
    pub fn check_safety(&self) -> CheckResult {
        let ds = self.decisions();
        agreement(&ds)?;
        self.validity(&ds)?;
        integrity(&ds)
    }

    fn validity(&self, ds: &[Decision]) -> CheckResult {
        let proposed: Vec<u64> = self.proposals().into_iter().map(|(_, v)| v).collect();
        for (p, _, v, _) in ds {
            if !proposed.contains(v) {
                return Err(Violation::new(
                    "validity",
                    format!("{p} decided {v}, which no process proposed"),
                ));
            }
        }
        Ok(())
    }

    fn termination(&self, ds: &[Decision]) -> CheckResult {
        let crashed: ProcessSet = self.trace.crashes().iter().map(|(p, _)| *p).collect();
        let deciders: ProcessSet = ds.iter().map(|(p, _, _, _)| *p).collect();
        for p in all_processes(self.n) {
            if !crashed.contains(p) && !deciders.contains(p) {
                return Err(Violation::new(
                    "termination",
                    format!("correct {p} never decided"),
                ));
            }
        }
        Ok(())
    }

    /// Slot-wise agreement for multi-instance consensus: no two
    /// `multi.append` observations bind different batches — each is
    /// announced as the fold of its commands — to the same slot, and no
    /// process appends to a slot twice. The per-slot projection of Uniform
    /// Agreement: the safety property the replicated log (fd-kv) builds on.
    pub fn check_multi_log_agreement(&self) -> CheckResult {
        let mut chosen: std::collections::BTreeMap<u64, (ProcessId, u64)> =
            std::collections::BTreeMap::new();
        let mut appended = std::collections::BTreeSet::new();
        for (_, p, pl) in self.trace.observations(keys::MULTI_APPEND) {
            let Some((slot, cmd)) = pl.as_u64_pair() else {
                continue;
            };
            if !appended.insert((p, slot)) {
                return Err(Violation::new(
                    "multi-log-agreement",
                    format!("{p} appended to slot {slot} twice"),
                ));
            }
            match chosen.get(&slot) {
                None => {
                    chosen.insert(slot, (p, cmd));
                }
                Some((q, first)) if *first != cmd => {
                    return Err(Violation::new(
                        "multi-log-agreement",
                        format!("slot {slot}: {q} appended {first} but {p} appended {cmd}"),
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// One `consensus.decide` observation: `(decider, time, value, round)`.
type Decision = (ProcessId, Time, u64, u64);

fn agreement(ds: &[Decision]) -> CheckResult {
    if let Some((p0, _, v0, _)) = ds.first() {
        for (p, _, v, _) in ds {
            if v != v0 {
                return Err(Violation::new(
                    "uniform-agreement",
                    format!("{p0} decided {v0} but {p} decided {v}"),
                ));
            }
        }
    }
    Ok(())
}

fn integrity(ds: &[Decision]) -> CheckResult {
    let mut seen = ProcessSet::new();
    for (p, _, _, _) in ds {
        if !seen.insert(*p) {
            return Err(Violation::new(
                "integrity",
                format!("{p} decided more than once"),
            ));
        }
    }
    Ok(())
}

use fd_obs::keys;

/// Every named check understood by [`run_named_check`]. Campaign repro
/// artifacts refer to violated properties by these strings, so replay can
/// re-run exactly the check that failed.
pub const NAMED_CHECKS: &[&str] = &[
    keys::FD_STRONG_COMPLETENESS,
    keys::FD_WEAK_COMPLETENESS,
    keys::FD_EVENTUAL_STRONG_ACCURACY,
    keys::FD_EVENTUAL_WEAK_ACCURACY,
    keys::FD_OMEGA,
    keys::FD_TRUSTED_NOT_SUSPECTED,
    keys::FD_EVENTUALLY_CONSISTENT,
    keys::CONSENSUS_AGREEMENT,
    keys::CONSENSUS_VALIDITY,
    keys::CONSENSUS_INTEGRITY,
    keys::CONSENSUS_TERMINATION,
    keys::CONSENSUS_SAFETY,
    keys::CONSENSUS_ALL,
    keys::MULTI_LOG_AGREEMENT,
    keys::CHAOS_EP_AFTER_FAULTS,
    keys::CHAOS_ES_AFTER_FAULTS,
    keys::CHAOS_OMEGA_AFTER_FAULTS,
    keys::CHAOS_CLASS_AFTER_FAULTS,
];

/// The safety properties: a run that violates one violates it on every
/// extension, so a shrinker may cut its horizon. Each checker finds a bad
/// thing that stays in the trace — two decisions that differ, a decided
/// value nobody proposed (proposals are observed before they are sent),
/// a second decision, two appends or applied digests for one slot
/// (`kv.log_agreement` is an `fd-kv` monitor). Termination and the ◇
/// properties can fail on a prefix of a run that satisfies them.
pub const PREFIX_CLOSED_CHECKS: &[&str] = &[
    keys::CONSENSUS_AGREEMENT,
    keys::CONSENSUS_VALIDITY,
    keys::CONSENSUS_INTEGRITY,
    keys::CONSENSUS_SAFETY,
    keys::MULTI_LOG_AGREEMENT,
    keys::KV_LOG_AGREEMENT,
];

/// Run one trace check by its stable name (see [`NAMED_CHECKS`]).
/// Returns `None` for an unknown name. `end` bounds the run for the
/// FD-style checks (consensus checks ignore it).
pub fn run_named_check(name: &str, trace: &Trace, n: usize, end: Time) -> Option<CheckResult> {
    let fd = FdRun::new(trace, n, end);
    let cons = ConsensusRun::new(trace, n);
    Some(match name {
        keys::FD_STRONG_COMPLETENESS => fd.check_strong_completeness(),
        keys::FD_WEAK_COMPLETENESS => fd.check_weak_completeness(),
        keys::FD_EVENTUAL_STRONG_ACCURACY => fd.check_eventual_strong_accuracy(),
        keys::FD_EVENTUAL_WEAK_ACCURACY => fd.check_eventual_weak_accuracy(),
        keys::FD_OMEGA => fd.check_omega(),
        keys::FD_TRUSTED_NOT_SUSPECTED => fd.check_trusted_not_suspected(),
        keys::FD_EVENTUALLY_CONSISTENT => fd.check_eventually_consistent(),
        keys::CONSENSUS_AGREEMENT => cons.check_uniform_agreement(),
        keys::CONSENSUS_VALIDITY => cons.check_validity(),
        keys::CONSENSUS_INTEGRITY => cons.check_integrity(),
        keys::CONSENSUS_TERMINATION => cons.check_termination(),
        keys::CONSENSUS_SAFETY => cons.check_safety(),
        keys::CONSENSUS_ALL => cons.check_all(),
        keys::MULTI_LOG_AGREEMENT => cons.check_multi_log_agreement(),
        keys::CHAOS_EP_AFTER_FAULTS => fd.check_class_after_faults(FdClass::EventuallyPerfect),
        keys::CHAOS_ES_AFTER_FAULTS => fd.check_class_after_faults(FdClass::EventuallyStrong),
        keys::CHAOS_OMEGA_AFTER_FAULTS => fd.check_class_after_faults(FdClass::Omega),
        keys::CHAOS_CLASS_AFTER_FAULTS => fd.check_expected_class_after_faults(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::{Payload, TraceEvent, TraceKind};

    fn obs_ev(at: u64, pid: usize, tag: &'static str, payload: Payload) -> TraceEvent {
        TraceEvent {
            at: Time(at),
            kind: TraceKind::Observation {
                pid: ProcessId(pid),
                tag,
                payload,
            },
        }
    }

    fn crash_ev(at: u64, pid: usize) -> TraceEvent {
        TraceEvent {
            at: Time(at),
            kind: TraceKind::Crashed {
                pid: ProcessId(pid),
            },
        }
    }

    fn pids(ids: &[usize]) -> Payload {
        Payload::Pids(ids.iter().map(|&i| ProcessId(i)).collect())
    }

    /// n=3; p2 crashes at 50; p0/p1 end up suspecting exactly {p2} and
    /// trusting p0.
    fn good_ec_trace() -> Trace {
        Trace::from_events(vec![
            obs_ev(0, 0, obs::SUSPECTS, pids(&[])),
            obs_ev(0, 1, obs::SUSPECTS, pids(&[])),
            obs_ev(0, 2, obs::SUSPECTS, pids(&[])),
            obs_ev(0, 0, obs::TRUSTED, Payload::Pid(ProcessId(0))),
            obs_ev(0, 1, obs::TRUSTED, Payload::Pid(ProcessId(1))),
            crash_ev(50, 2),
            obs_ev(80, 0, obs::SUSPECTS, pids(&[2])),
            obs_ev(85, 1, obs::SUSPECTS, pids(&[2])),
            obs_ev(90, 1, obs::TRUSTED, Payload::Pid(ProcessId(0))),
        ])
    }

    #[test]
    fn good_trace_satisfies_ec() {
        let tr = good_ec_trace();
        let run = FdRun::new(&tr, 3, Time(1000));
        assert_eq!(run.crashed(), ProcessSet::singleton(ProcessId(2)));
        assert_eq!(run.correct().len(), 2);
        run.check_eventually_consistent().unwrap();
        run.check_class(FdClass::EventuallyConsistent).unwrap();
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        run.check_class(FdClass::EventuallyStrong).unwrap();
        run.check_class(FdClass::Omega).unwrap();
        assert_eq!(run.stabilization_time(), Some(Time(90)));
        run.check_stable_margin(fd_sim::SimDuration(900)).unwrap();
        assert!(run.check_stable_margin(fd_sim::SimDuration(950)).is_err());
    }

    #[test]
    fn missing_suspicion_breaks_strong_but_not_weak_completeness() {
        let tr = Trace::from_events(vec![
            crash_ev(10, 2),
            obs_ev(20, 0, obs::SUSPECTS, pids(&[2])),
            obs_ev(20, 1, obs::SUSPECTS, pids(&[])),
        ]);
        let run = FdRun::new(&tr, 3, Time(100));
        assert!(run.check_strong_completeness().is_err());
        run.check_weak_completeness().unwrap();
    }

    #[test]
    fn false_suspicion_breaks_strong_accuracy() {
        let tr = Trace::from_events(vec![
            obs_ev(20, 0, obs::SUSPECTS, pids(&[1])),
            obs_ev(20, 1, obs::SUSPECTS, pids(&[])),
        ]);
        let run = FdRun::new(&tr, 3, Time(100));
        assert!(run.check_eventual_strong_accuracy().is_err());
        // p0 and p2 are never suspected, so weak accuracy still holds.
        run.check_eventual_weak_accuracy().unwrap();
    }

    #[test]
    fn weak_accuracy_fails_when_everyone_is_suspected() {
        let tr = Trace::from_events(vec![
            obs_ev(20, 0, obs::SUSPECTS, pids(&[1, 2])),
            obs_ev(20, 1, obs::SUSPECTS, pids(&[0])),
            obs_ev(20, 2, obs::SUSPECTS, pids(&[])),
        ]);
        let run = FdRun::new(&tr, 3, Time(100));
        assert!(run.check_eventual_weak_accuracy().is_err());
    }

    #[test]
    fn every_class_is_vacuous_when_no_process_is_correct() {
        // Both processes crash while still suspecting each other. Were
        // the two "some correct process" clauses false over the empty set
        // while the "every correct process" ones hold, ◇P would hold and
        // ◇Q, ◇S, ◇W, ◇C — all weaker (§3) — be violated.
        let tr = Trace::from_events(vec![
            obs_ev(5, 0, obs::SUSPECTS, pids(&[1])),
            obs_ev(5, 1, obs::SUSPECTS, pids(&[0])),
            crash_ev(10, 0),
            crash_ev(20, 1),
        ]);
        let run = FdRun::new(&tr, 2, Time(100));
        assert!(run.correct().is_empty());
        run.check_eventual_weak_accuracy().unwrap();
        run.check_weak_completeness().unwrap();
        for class in FdClass::ALL {
            run.check_class(class)
                .unwrap_or_else(|v| panic!("{class}: {v}"));
        }
    }

    #[test]
    fn omega_requires_agreement_on_a_correct_leader() {
        let disagree = Trace::from_events(vec![
            obs_ev(5, 0, obs::TRUSTED, Payload::Pid(ProcessId(0))),
            obs_ev(5, 1, obs::TRUSTED, Payload::Pid(ProcessId(1))),
        ]);
        assert!(FdRun::new(&disagree, 2, Time(10)).check_omega().is_err());

        let crashed_leader = Trace::from_events(vec![
            crash_ev(1, 1),
            obs_ev(5, 0, obs::TRUSTED, Payload::Pid(ProcessId(1))),
        ]);
        assert!(FdRun::new(&crashed_leader, 2, Time(10))
            .check_omega()
            .is_err());

        let silent =
            Trace::from_events(vec![obs_ev(5, 0, obs::TRUSTED, Payload::Pid(ProcessId(0)))]);
        assert!(FdRun::new(&silent, 2, Time(10)).check_omega().is_err());
    }

    #[test]
    fn trusted_must_not_stay_suspected() {
        let tr = Trace::from_events(vec![
            obs_ev(5, 0, obs::TRUSTED, Payload::Pid(ProcessId(1))),
            obs_ev(6, 0, obs::SUSPECTS, pids(&[1])),
        ]);
        assert!(FdRun::new(&tr, 2, Time(10))
            .check_trusted_not_suspected()
            .is_err());
    }

    fn consensus_trace(decisions: &[(usize, u64, u64)]) -> Trace {
        let mut evs = vec![
            obs_ev(0, 0, obs::PROPOSE, Payload::U64(7)),
            obs_ev(0, 1, obs::PROPOSE, Payload::U64(9)),
            obs_ev(0, 2, obs::PROPOSE, Payload::U64(9)),
        ];
        for &(p, v, r) in decisions {
            evs.push(obs_ev(100, p, obs::DECIDE, Payload::U64Pair(v, r)));
        }
        Trace::from_events(evs)
    }

    #[test]
    fn consensus_happy_path() {
        let tr = consensus_trace(&[(0, 9, 1), (1, 9, 1), (2, 9, 2)]);
        let run = ConsensusRun::new(&tr, 3);
        run.check_all().unwrap();
        assert_eq!(run.max_decision_round(), Some(2));
    }

    #[test]
    fn disagreement_detected() {
        let tr = consensus_trace(&[(0, 9, 1), (1, 7, 1), (2, 9, 1)]);
        assert!(ConsensusRun::new(&tr, 3).check_uniform_agreement().is_err());
    }

    #[test]
    fn invented_value_detected() {
        let tr = consensus_trace(&[(0, 42, 1)]);
        assert!(ConsensusRun::new(&tr, 3).check_validity().is_err());
    }

    #[test]
    fn double_decision_detected() {
        let tr = consensus_trace(&[(0, 9, 1), (0, 9, 2)]);
        assert!(ConsensusRun::new(&tr, 3).check_integrity().is_err());
    }

    #[test]
    fn non_termination_detected_for_correct_only() {
        // p2 decided nothing but crashed — termination holds for the rest.
        let mut evs = vec![
            obs_ev(0, 0, obs::PROPOSE, Payload::U64(7)),
            crash_ev(1, 2),
            obs_ev(100, 0, obs::DECIDE, Payload::U64Pair(7, 1)),
            obs_ev(100, 1, obs::DECIDE, Payload::U64Pair(7, 1)),
        ];
        let tr = Trace::from_events(std::mem::take(&mut evs));
        ConsensusRun::new(&tr, 3).check_termination().unwrap();

        // But if p1 is correct and silent, termination fails.
        let tr2 = consensus_trace(&[(0, 9, 1)]);
        assert!(ConsensusRun::new(&tr2, 3).check_termination().is_err());
    }

    #[test]
    fn safety_subset_ignores_termination() {
        let tr = consensus_trace(&[(0, 9, 1)]);
        ConsensusRun::new(&tr, 3).check_safety().unwrap();
    }

    /// Each named safety check fails on a run that has done its bad
    /// thing, and keeps failing however the run goes on; termination,
    /// left off the list, fails on a prefix of a run that satisfies it.
    #[test]
    fn prefix_closed_checks_stay_violated_when_the_run_goes_on() {
        let prefix = vec![
            obs_ev(0, 0, obs::PROPOSE, Payload::U64(7)),
            obs_ev(0, 1, obs::PROPOSE, Payload::U64(9)),
            obs_ev(10, 0, obs::DECIDE, Payload::U64Pair(7, 1)),
            obs_ev(10, 1, obs::DECIDE, Payload::U64Pair(8, 1)),
            obs_ev(20, 0, obs::DECIDE, Payload::U64Pair(7, 2)),
            obs_ev(30, 0, keys::MULTI_APPEND, Payload::U64Pair(0, 7)),
            obs_ev(30, 1, keys::MULTI_APPEND, Payload::U64Pair(0, 8)),
        ];
        let mut longer = prefix.clone();
        longer.extend([
            obs_ev(40, 2, obs::DECIDE, Payload::U64Pair(7, 3)),
            obs_ev(40, 2, keys::MULTI_APPEND, Payload::U64Pair(0, 7)),
            obs_ev(50, 2, keys::MULTI_APPEND, Payload::U64Pair(1, 9)),
        ]);
        let (prefix, longer) = (Trace::from_events(prefix), Trace::from_events(longer));
        for &name in PREFIX_CLOSED_CHECKS {
            if name == keys::KV_LOG_AGREEMENT {
                assert!(!NAMED_CHECKS.contains(&name), "a fd-kv monitor");
                continue;
            }
            assert!(NAMED_CHECKS.contains(&name), "{name}");
            for trace in [&prefix, &longer] {
                let check = run_named_check(name, trace, 3, Time(100)).unwrap();
                assert!(check.is_err(), "{name} passed a violating run");
            }
        }

        let done = consensus_trace(&[(0, 9, 1), (1, 9, 1), (2, 9, 1)]);
        let cut = Trace::from_events(
            done.events()
                .iter()
                .filter(|e| e.at < Time(100))
                .cloned()
                .collect(),
        );
        assert!(ConsensusRun::new(&done, 3).check_termination().is_ok());
        assert!(ConsensusRun::new(&cut, 3).check_termination().is_err());
        assert!(!PREFIX_CLOSED_CHECKS.contains(&keys::CONSENSUS_TERMINATION));
    }

    #[test]
    fn multi_log_agreement_accepts_consistent_appends() {
        let tr = Trace::from_events(vec![
            obs_ev(10, 0, keys::MULTI_APPEND, Payload::U64Pair(0, 7)),
            obs_ev(12, 1, keys::MULTI_APPEND, Payload::U64Pair(0, 7)),
            obs_ev(20, 0, keys::MULTI_APPEND, Payload::U64Pair(1, 9)),
        ]);
        ConsensusRun::new(&tr, 2)
            .check_multi_log_agreement()
            .unwrap();
    }

    #[test]
    fn multi_log_agreement_rejects_slot_conflicts_and_double_appends() {
        let conflict = Trace::from_events(vec![
            obs_ev(10, 0, keys::MULTI_APPEND, Payload::U64Pair(0, 7)),
            obs_ev(12, 1, keys::MULTI_APPEND, Payload::U64Pair(0, 8)),
        ]);
        assert!(ConsensusRun::new(&conflict, 2)
            .check_multi_log_agreement()
            .is_err());

        let double = Trace::from_events(vec![
            obs_ev(10, 0, keys::MULTI_APPEND, Payload::U64Pair(0, 7)),
            obs_ev(12, 0, keys::MULTI_APPEND, Payload::U64Pair(0, 7)),
        ]);
        assert!(ConsensusRun::new(&double, 2)
            .check_multi_log_agreement()
            .is_err());
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use fd_sim::{chaos, Payload, TraceEvent, TraceKind};

    fn obs_ev(at: u64, pid: usize, tag: &'static str, payload: Payload) -> TraceEvent {
        TraceEvent {
            at: Time(at),
            kind: TraceKind::Observation {
                pid: ProcessId(pid),
                tag,
                payload,
            },
        }
    }
    fn crash_ev(at: u64, pid: usize) -> TraceEvent {
        TraceEvent {
            at: Time(at),
            kind: TraceKind::Crashed {
                pid: ProcessId(pid),
            },
        }
    }
    fn pids(ids: &[usize]) -> Payload {
        Payload::Pids(ids.iter().map(|&i| ProcessId(i)).collect())
    }

    #[test]
    fn restart_revives_a_crashed_process() {
        let tr = Trace::from_events(vec![
            crash_ev(10, 1),
            obs_ev(30, 0, chaos::RESTART, Payload::Pid(ProcessId(1))),
            // Neither process suspects the other after the restart.
            obs_ev(80, 0, obs::SUSPECTS, pids(&[])),
            obs_ev(80, 1, obs::SUSPECTS, pids(&[])),
        ]);
        let run = FdRun::new(&tr, 2, Time(1000));
        assert!(run.crashed().is_empty());
        assert_eq!(run.correct().len(), 2);
        // p1 is correct again, so nobody has to suspect it — ◇P holds.
        run.check_class_after_faults(FdClass::EventuallyPerfect)
            .unwrap();
    }

    #[test]
    fn a_second_crash_after_restart_sticks() {
        let tr = Trace::from_events(vec![
            crash_ev(10, 1),
            obs_ev(30, 0, chaos::RESTART, Payload::Pid(ProcessId(1))),
            crash_ev(50, 1),
            obs_ev(80, 0, obs::SUSPECTS, pids(&[1])),
        ]);
        let run = FdRun::new(&tr, 2, Time(1000));
        assert_eq!(run.crashed(), ProcessSet::singleton(ProcessId(1)));
        run.check_class_after_faults(FdClass::EventuallyPerfect)
            .unwrap();
    }

    #[test]
    fn quiet_point_is_the_last_intervention() {
        let tr = Trace::from_events(vec![
            obs_ev(10, 0, chaos::PARTITION, Payload::None),
            obs_ev(40, 0, chaos::HEAL, Payload::None),
            obs_ev(25, 0, chaos::GST, Payload::None),
        ]);
        let run = FdRun::new(&tr, 2, Time(1000));
        assert_eq!(run.chaos_quiet_point(), Some(Time(40)));
        assert_eq!(
            FdRun::new(&Trace::from_events(vec![]), 2, Time(10)).chaos_quiet_point(),
            None
        );
    }

    #[test]
    fn vacuous_horizon_fails_loudly() {
        // The last intervention lands on the horizon itself: there is no
        // post-quiet suffix, so the check must fail rather than pass.
        let tr = Trace::from_events(vec![
            obs_ev(0, 0, obs::SUSPECTS, pids(&[])),
            obs_ev(100, 0, chaos::PARTITION, Payload::None),
        ]);
        let run = FdRun::new(&tr, 1, Time(100));
        let err = run
            .check_class_after_faults(FdClass::EventuallyPerfect)
            .unwrap_err();
        assert_eq!(err.property, "chaos-quiet-runway");
    }

    #[test]
    fn expected_class_reads_the_annotation() {
        let tr = Trace::from_events(vec![
            obs_ev(0, 0, chaos::EXPECT_CLASS, Payload::U64(2)),
            obs_ev(50, 0, obs::SUSPECTS, pids(&[])),
            obs_ev(50, 1, obs::SUSPECTS, pids(&[])),
        ]);
        let run = FdRun::new(&tr, 2, Time(1000));
        assert_eq!(run.expected_class(), Some(FdClass::ALL[2]));
        run.check_expected_class_after_faults().unwrap();

        let bare = Trace::from_events(vec![obs_ev(50, 0, obs::SUSPECTS, pids(&[]))]);
        let err = FdRun::new(&bare, 1, Time(1000))
            .check_expected_class_after_faults()
            .unwrap_err();
        assert_eq!(err.property, "chaos-expect-class");

        let bogus = Trace::from_events(vec![obs_ev(0, 0, chaos::EXPECT_CLASS, Payload::U64(99))]);
        assert_eq!(FdRun::new(&bogus, 1, Time(1000)).expected_class(), None);
    }

    #[test]
    fn chaos_checks_are_named() {
        let tr = Trace::from_events(vec![
            obs_ev(0, 0, chaos::EXPECT_CLASS, Payload::U64(0)),
            obs_ev(10, 0, chaos::PARTITION, Payload::None),
            obs_ev(40, 0, chaos::HEAL, Payload::None),
            obs_ev(80, 0, obs::SUSPECTS, pids(&[])),
            obs_ev(80, 1, obs::SUSPECTS, pids(&[])),
            obs_ev(80, 0, obs::TRUSTED, Payload::Pid(ProcessId(0))),
            obs_ev(80, 1, obs::TRUSTED, Payload::Pid(ProcessId(0))),
        ]);
        for name in [
            keys::CHAOS_EP_AFTER_FAULTS,
            keys::CHAOS_ES_AFTER_FAULTS,
            keys::CHAOS_OMEGA_AFTER_FAULTS,
            keys::CHAOS_CLASS_AFTER_FAULTS,
        ] {
            assert!(NAMED_CHECKS.contains(&name));
            run_named_check(name, &tr, 2, Time(1000))
                .expect("known name")
                .unwrap();
        }
    }
}

#[cfg(test)]
mod analytics_tests {
    use super::*;
    use fd_sim::{Payload, SimDuration, TraceEvent, TraceKind};

    fn obs_ev(at: u64, pid: usize, tag: &'static str, payload: Payload) -> TraceEvent {
        TraceEvent {
            at: Time(at),
            kind: TraceKind::Observation {
                pid: ProcessId(pid),
                tag,
                payload,
            },
        }
    }
    fn pids(ids: &[usize]) -> Payload {
        Payload::Pids(ids.iter().map(|&i| ProcessId(i)).collect())
    }
    fn crash_ev(at: u64, pid: usize) -> TraceEvent {
        TraceEvent {
            at: Time(at),
            kind: TraceKind::Crashed {
                pid: ProcessId(pid),
            },
        }
    }

    #[test]
    fn detection_latency_is_last_first_suspicion() {
        let tr = Trace::from_events(vec![
            crash_ev(100, 2),
            obs_ev(120, 0, obs::SUSPECTS, pids(&[2])),
            obs_ev(180, 1, obs::SUSPECTS, pids(&[2])),
        ]);
        let run = FdRun::new(&tr, 3, Time(1000));
        assert_eq!(run.detection_latency(ProcessId(2)), Some(SimDuration(80)));
        // Not crashed ⇒ no latency; never-suspecting observer ⇒ None.
        assert_eq!(run.detection_latency(ProcessId(0)), None);
    }

    #[test]
    fn detection_latency_requires_all_correct_observers() {
        let tr = Trace::from_events(vec![
            crash_ev(100, 2),
            obs_ev(120, 0, obs::SUSPECTS, pids(&[2])),
            // p1 never suspects p2.
            obs_ev(120, 1, obs::SUSPECTS, pids(&[])),
        ]);
        let run = FdRun::new(&tr, 3, Time(1000));
        assert_eq!(run.detection_latency(ProcessId(2)), None);
    }

    #[test]
    fn pre_crash_suspicions_do_not_count_as_detection() {
        // A false suspicion before the crash must not shorten the latency.
        let tr = Trace::from_events(vec![
            obs_ev(50, 0, obs::SUSPECTS, pids(&[2])),
            obs_ev(60, 0, obs::SUSPECTS, pids(&[])),
            crash_ev(100, 2),
            obs_ev(150, 0, obs::SUSPECTS, pids(&[2])),
            obs_ev(110, 1, obs::SUSPECTS, pids(&[2])),
        ]);
        let run = FdRun::new(&tr, 3, Time(1000));
        assert_eq!(run.detection_latency(ProcessId(2)), Some(SimDuration(50)));
    }

    #[test]
    fn suspicion_entries_count_transitions() {
        let tr = Trace::from_events(vec![
            obs_ev(10, 0, obs::SUSPECTS, pids(&[1])),
            obs_ev(20, 0, obs::SUSPECTS, pids(&[])),
            obs_ev(30, 0, obs::SUSPECTS, pids(&[1, 2])),
            obs_ev(40, 0, obs::SUSPECTS, pids(&[2])),
            obs_ev(50, 0, obs::SUSPECTS, pids(&[1, 2])),
        ]);
        let run = FdRun::new(&tr, 3, Time(100));
        assert_eq!(run.suspicion_entries(ProcessId(0), ProcessId(1)), 3);
        assert_eq!(run.suspicion_entries(ProcessId(0), ProcessId(2)), 1);
        assert_eq!(run.suspicion_entries(ProcessId(0), ProcessId(0)), 0);
    }

    #[test]
    fn leadership_changes_exclude_the_initial_report() {
        let tr = Trace::from_events(vec![
            obs_ev(0, 0, obs::TRUSTED, Payload::Pid(ProcessId(0))),
            obs_ev(10, 0, obs::TRUSTED, Payload::Pid(ProcessId(1))),
            obs_ev(20, 0, obs::TRUSTED, Payload::Pid(ProcessId(0))),
        ]);
        let run = FdRun::new(&tr, 2, Time(100));
        assert_eq!(run.leadership_changes(ProcessId(0)), 2);
        assert_eq!(run.leadership_changes(ProcessId(1)), 0);
    }

    #[test]
    fn first_suspicion_respects_custom_tags() {
        let tr = Trace::from_events(vec![
            obs_ev(10, 0, "custom.suspects", pids(&[1])),
            obs_ev(5, 0, obs::SUSPECTS, pids(&[1])),
        ]);
        let run = FdRun::new(&tr, 2, Time(100)).with_suspects_tag("custom.suspects");
        assert_eq!(
            run.first_suspicion_of(ProcessId(0), ProcessId(1)),
            Some(Time(10))
        );
    }
}
