//! Declarative chaos plans.
//!
//! A [`ChaosPlan`] is the serializable description of one fault
//! schedule: which detector runs, on how many processes, for how long,
//! and what the adversary does when. Plans are plain data — JSON
//! round-trippable, diffable, and small enough to paste into a bug
//! report — and are compiled down to kernel interventions by
//! [`compile`](crate::compile::compile) only at execution time.

use fd_core::FdClass;
use fd_sim::{LinkMangler, ProcessId, Time};
use serde::{Deserialize, Serialize};

/// Which failure-detector implementation a chaos run drives.
///
/// Each kind advertises the class its checker must uphold *relative to
/// the fault schedule* (see `fd_core`'s `chaos.class_after_faults`):
/// once the plan's last intervention has fired and the base network's
/// timing assumptions hold again, the detector's final outputs must
/// satisfy the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorKind {
    /// All-to-all heartbeats with adaptive timeouts — claims ◇P.
    Heartbeat,
    /// Ring polling with successor monitoring — claims ◇P.
    Ring,
    /// Stable-leader election over heartbeats — claims Ω.
    StableLeader,
}

impl DetectorKind {
    /// Every detector kind, in the order `generate`d plans cycle them.
    pub const ALL: [DetectorKind; 3] = [
        DetectorKind::Heartbeat,
        DetectorKind::Ring,
        DetectorKind::StableLeader,
    ];

    /// The class this detector claims membership of.
    pub fn expected_class(self) -> FdClass {
        match self {
            DetectorKind::Heartbeat | DetectorKind::Ring => FdClass::EventuallyPerfect,
            DetectorKind::StableLeader => FdClass::Omega,
        }
    }

    /// Index of [`expected_class`](DetectorKind::expected_class) into
    /// [`FdClass::ALL`] — the wire encoding used by the
    /// `chaos.expect_class` trace annotation.
    pub fn class_index(self) -> u64 {
        let class = self.expected_class();
        FdClass::ALL
            .iter()
            .position(|c| *c == class)
            .expect("expected_class comes from FdClass::ALL") as u64
    }
}

/// One scheduled adversary action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChaosKind {
    /// Cut every directed link between distinct groups (links inside a
    /// group keep their base model). Groups must be disjoint and
    /// non-empty; processes not listed in any group are unaffected.
    Partition {
        /// The partition's sides.
        groups: Vec<Vec<ProcessId>>,
    },
    /// Cut individual directed links — an asymmetric partition (`a` can
    /// reach `b` but not vice versa) that `Partition` cannot express.
    CutLinks {
        /// The directed links to kill.
        links: Vec<(ProcessId, ProcessId)>,
    },
    /// Restore every link cut by earlier `Partition`/`CutLinks` events
    /// to its base model. A heal with nothing cut only annotates the
    /// trace (this keeps plans valid under shrinking).
    Heal,
    /// Install a global message mangler (drop / duplicate / reorder /
    /// delay-skew), replacing any mangler already installed.
    Mangle(LinkMangler),
    /// Remove the installed mangler (no-op if none is installed).
    Unmangle,
    /// Crash a process (crash-stop, attributable to the plan).
    Crash {
        /// The victim.
        pid: ProcessId,
    },
    /// Warm-restart a previously crashed process: it keeps its actor
    /// state and RNG stream, drops pre-crash timers, and re-runs
    /// `on_start`. Must follow a `Crash` of the same process.
    Restart {
        /// The process to revive.
        pid: ProcessId,
    },
    /// Annotate the trace with the (scenario-chosen) global
    /// stabilization time. No state change — the base links encode
    /// their own GST — but the marker makes the fault schedule, and
    /// therefore the checkers' quiet point, explicit in the trace.
    GstMarker,
}

impl ChaosKind {
    /// Short label for shrinker logs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosKind::Partition { .. } => "partition",
            ChaosKind::CutLinks { .. } => "cut-links",
            ChaosKind::Heal => "heal",
            ChaosKind::Mangle(_) => "mangle",
            ChaosKind::Unmangle => "unmangle",
            ChaosKind::Crash { .. } => "crash",
            ChaosKind::Restart { .. } => "restart",
            ChaosKind::GstMarker => "gst",
        }
    }
}

/// A [`ChaosKind`] with its fire time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosEvent {
    /// When the intervention fires (simulated time).
    pub at: Time,
    /// What happens.
    pub kind: ChaosKind,
}

/// A complete, self-contained chaos schedule: everything `ecfd campaign
/// --scenario chaos --plan FILE` needs to reproduce a run except the
/// seed (which the campaign supplies).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Number of processes.
    pub n: usize,
    /// The detector under test (fixes the expected class).
    pub detector: DetectorKind,
    /// Run horizon. Must lie strictly after the last event, or the
    /// post-fault checkers have nothing to observe.
    pub horizon: Time,
    /// The fault schedule. Events need not be pre-sorted; compilation
    /// orders them by `(at, index)`.
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// An intervention-free plan: `detector` on `n` processes until
    /// `horizon`. Extend with [`push`](ChaosPlan::push).
    pub fn new(n: usize, detector: DetectorKind, horizon: Time) -> ChaosPlan {
        ChaosPlan {
            n,
            detector,
            horizon,
            events: Vec::new(),
        }
    }

    /// Append an event (builder style).
    pub fn push(mut self, at: Time, kind: ChaosKind) -> ChaosPlan {
        self.events.push(ChaosEvent { at, kind });
        self
    }

    /// The time of the last scheduled event — the point after which the
    /// network obeys its base model and liveness becomes checkable.
    pub fn quiet_point(&self) -> Option<Time> {
        self.events.iter().map(|e| e.at).max()
    }

    /// Every `(pid, crash time, restart time)` crash/restart pair, in
    /// restart order — the processes that exercise recovery. A crash
    /// with no later restart is not listed (the process stays down).
    /// Recovery-aware monitors (the `fd-kv` catch-up gate) use this to
    /// know exactly which processes must re-sync, and when.
    pub fn restarted(&self) -> Vec<(ProcessId, Time, Time)> {
        let mut down: Vec<(ProcessId, Time)> = Vec::new();
        let mut out = Vec::new();
        for ev in self.sorted_events() {
            match ev.kind {
                ChaosKind::Crash { pid } => down.push((pid, ev.at)),
                ChaosKind::Restart { pid } => {
                    if let Some(i) = down.iter().position(|&(p, _)| p == pid) {
                        let (_, crashed_at) = down.remove(i);
                        out.push((pid, crashed_at, ev.at));
                    }
                }
                // Network-shape events do not open or close down windows.
                ChaosKind::Partition { .. }
                | ChaosKind::CutLinks { .. }
                | ChaosKind::Heal
                | ChaosKind::Mangle(_)
                | ChaosKind::Unmangle
                | ChaosKind::GstMarker => {}
            }
        }
        out
    }

    /// The plan's events ordered by `(at, original index)` — the exact
    /// order compilation schedules them in.
    pub fn sorted_events(&self) -> Vec<&ChaosEvent> {
        let mut evs: Vec<&ChaosEvent> = self.events.iter().collect();
        evs.sort_by_key(|e| e.at); // stable: ties keep plan order
        evs
    }

    /// The shrinker's chaos move: every legal plan one event smaller,
    /// labelled. Dropping a crash takes its later restart along (it
    /// would be orphaned); candidates that fail [`validate`] are skipped.
    ///
    /// [`validate`]: ChaosPlan::validate
    pub fn drop_event_moves(&self) -> Vec<(String, ChaosPlan)> {
        let mut out = Vec::new();
        for (i, ev) in self.events.iter().enumerate() {
            let mut shrunk = self.clone();
            shrunk.events.remove(i);
            if let ChaosKind::Crash { pid } = ev.kind {
                shrunk
                    .events
                    .retain(|e| !(e.at >= ev.at && e.kind == (ChaosKind::Restart { pid })));
            }
            if shrunk.validate().is_ok() {
                out.push((format!("drop chaos {}@{}", ev.kind.label(), ev.at), shrunk));
            }
        }
        out
    }

    /// Validate the plan's internal consistency. Compilation refuses
    /// invalid plans; run this early to fail with a readable message
    /// instead of deep inside a campaign worker.
    pub fn validate(&self) -> Result<(), String> {
        if self.n < 2 {
            return Err(format!("n = {} — chaos needs at least 2 processes", self.n));
        }
        if self.n > fd_core::MAX_PROCESSES {
            return Err(format!(
                "n = {} exceeds MAX_PROCESSES = {}",
                self.n,
                fd_core::MAX_PROCESSES
            ));
        }
        if let Some(q) = self.quiet_point() {
            if q >= self.horizon {
                return Err(format!(
                    "horizon {} does not extend past the last event at {q}; \
                     the post-fault checkers would be vacuous",
                    self.horizon
                ));
            }
        }
        let in_range = |p: ProcessId| p.index() < self.n;
        let mut crashed = fd_core::ProcessSet::new();
        for ev in self.sorted_events() {
            match &ev.kind {
                ChaosKind::Partition { groups } => {
                    if groups.len() < 2 {
                        return Err("partition needs at least two groups".into());
                    }
                    let mut seen = fd_core::ProcessSet::new();
                    for g in groups {
                        if g.is_empty() {
                            return Err("partition group is empty".into());
                        }
                        for &p in g {
                            if !in_range(p) {
                                return Err(format!("partition names {p} but n = {}", self.n));
                            }
                            if !seen.insert(p) {
                                return Err(format!("partition groups overlap on {p}"));
                            }
                        }
                    }
                }
                ChaosKind::CutLinks { links } => {
                    if links.is_empty() {
                        return Err("cut-links lists no links".into());
                    }
                    for &(a, b) in links {
                        if a == b {
                            return Err(format!("cut-links names the loopback link of {a}"));
                        }
                        if !in_range(a) || !in_range(b) {
                            return Err(format!("cut-links names {a}->{b} but n = {}", self.n));
                        }
                    }
                }
                ChaosKind::Crash { pid } => {
                    if !in_range(*pid) {
                        return Err(format!("crash names {pid} but n = {}", self.n));
                    }
                    if !crashed.insert(*pid) {
                        return Err(format!("{pid} crashes twice without a restart between"));
                    }
                }
                ChaosKind::Restart { pid } => {
                    if !crashed.remove(*pid) {
                        return Err(format!("restart of {pid} without a preceding crash"));
                    }
                }
                ChaosKind::Mangle(m) => {
                    for (name, p) in [
                        ("drop", m.drop),
                        ("duplicate", m.duplicate),
                        ("reorder", m.reorder),
                    ] {
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("mangler {name} probability {p} outside [0, 1]"));
                        }
                    }
                }
                ChaosKind::Heal | ChaosKind::Unmangle | ChaosKind::GstMarker => {}
            }
        }
        if crashed.len() >= self.n {
            return Err("plan crashes every process".into());
        }
        Ok(())
    }
}

/// Where a chaos-driven scenario gets each seed's fault schedule: a
/// seed-indexed generator (the registry default) or one fixed,
/// validated plan run for every seed (`--plan FILE`).
pub enum PlanSource {
    /// Expand each seed into its own plan (a pure function of the seed).
    Generated(fn(u64) -> ChaosPlan),
    /// Run this plan for every seed; only the RNG streams vary.
    Fixed(ChaosPlan),
}

impl PlanSource {
    /// A fixed source. Errors if `plan` is internally inconsistent.
    pub fn fixed(plan: ChaosPlan) -> Result<PlanSource, String> {
        plan.validate()?;
        Ok(PlanSource::Fixed(plan))
    }

    /// The fault schedule of `seed`.
    pub fn plan(&self, seed: u64) -> ChaosPlan {
        match self {
            PlanSource::Generated(generate) => generate(seed),
            PlanSource::Fixed(plan) => plan.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::SimDuration;

    fn base() -> ChaosPlan {
        ChaosPlan::new(4, DetectorKind::Heartbeat, Time::from_secs(5))
    }

    #[test]
    fn class_indices_point_into_fd_class_all() {
        for kind in DetectorKind::ALL {
            let idx = kind.class_index() as usize;
            assert_eq!(FdClass::ALL[idx], kind.expected_class());
        }
        assert_eq!(DetectorKind::StableLeader.expected_class(), FdClass::Omega);
    }

    #[test]
    fn valid_plan_round_trips_through_json() {
        let plan = base()
            .push(
                Time::from_millis(100),
                ChaosKind::Partition {
                    groups: vec![vec![ProcessId(0)], vec![ProcessId(1), ProcessId(2)]],
                },
            )
            .push(Time::from_millis(300), ChaosKind::Heal)
            .push(
                Time::from_millis(400),
                ChaosKind::Mangle(LinkMangler {
                    drop: 0.1,
                    duplicate: 0.05,
                    reorder: 0.5,
                    skew: SimDuration::from_millis(2),
                }),
            )
            .push(Time::from_millis(700), ChaosKind::Unmangle)
            .push(
                Time::from_millis(500),
                ChaosKind::Crash { pid: ProcessId(3) },
            )
            .push(
                Time::from_millis(900),
                ChaosKind::Restart { pid: ProcessId(3) },
            );
        plan.validate().unwrap();
        assert_eq!(plan.quiet_point(), Some(Time::from_millis(900)));
        let json = serde_json::to_string(&plan).unwrap();
        let back: ChaosPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn sorted_events_orders_by_time_stably() {
        let plan = base()
            .push(Time(30), ChaosKind::GstMarker)
            .push(Time(10), ChaosKind::Heal)
            .push(Time(30), ChaosKind::Unmangle);
        let order: Vec<&'static str> = plan
            .sorted_events()
            .iter()
            .map(|e| e.kind.label())
            .collect();
        assert_eq!(order, vec!["heal", "gst", "unmangle"]);
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let cases: Vec<(ChaosPlan, &str)> = vec![
            (
                ChaosPlan::new(1, DetectorKind::Ring, Time(100)),
                "at least 2",
            ),
            (
                base().push(Time::from_secs(5), ChaosKind::GstMarker),
                "does not extend past",
            ),
            (
                base().push(
                    Time(10),
                    ChaosKind::Partition {
                        groups: vec![vec![ProcessId(0)]],
                    },
                ),
                "at least two groups",
            ),
            (
                base().push(
                    Time(10),
                    ChaosKind::Partition {
                        groups: vec![vec![ProcessId(0)], vec![ProcessId(0)]],
                    },
                ),
                "overlap",
            ),
            (
                base().push(
                    Time(10),
                    ChaosKind::Partition {
                        groups: vec![vec![ProcessId(0)], vec![ProcessId(9)]],
                    },
                ),
                "but n = 4",
            ),
            (
                base().push(
                    Time(10),
                    ChaosKind::CutLinks {
                        links: vec![(ProcessId(1), ProcessId(1))],
                    },
                ),
                "loopback",
            ),
            (
                base().push(Time(10), ChaosKind::Restart { pid: ProcessId(0) }),
                "without a preceding crash",
            ),
            (
                base()
                    .push(Time(10), ChaosKind::Crash { pid: ProcessId(0) })
                    .push(Time(20), ChaosKind::Crash { pid: ProcessId(0) }),
                "crashes twice",
            ),
            (
                base().push(
                    Time(10),
                    ChaosKind::Mangle(LinkMangler {
                        drop: 1.5,
                        duplicate: 0.0,
                        reorder: 0.0,
                        skew: SimDuration(1),
                    }),
                ),
                "outside [0, 1]",
            ),
        ];
        for (plan, needle) in cases {
            let err = plan.validate().unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn restarted_lists_crash_restart_pairs_only() {
        let plan = base()
            .push(Time(10), ChaosKind::Crash { pid: ProcessId(1) })
            .push(Time(50), ChaosKind::Restart { pid: ProcessId(1) })
            .push(Time(60), ChaosKind::Crash { pid: ProcessId(2) }); // never restarts
        assert_eq!(
            plan.restarted(),
            vec![(ProcessId(1), Time(10), Time(50))],
            "only the pid that actually comes back is listed"
        );
        assert!(base().restarted().is_empty());
    }

    #[test]
    fn restart_order_is_by_time_not_declaration() {
        // Declared restart-first, but it *fires* after the crash.
        let plan = base()
            .push(Time(50), ChaosKind::Restart { pid: ProcessId(1) })
            .push(Time(10), ChaosKind::Crash { pid: ProcessId(1) });
        plan.validate().unwrap();
    }
}
