//! Property-based detector tests: under arbitrary seeds, crash plans and
//! link jitter (within the models each algorithm assumes), every detector
//! satisfies its claimed class on a long-enough run.

use ecfd::prelude::*;
use fd_core::Standalone;
use fd_detectors::{
    FusedConfig, FusedDetector, HeartbeatConfig, HeartbeatDetector, LeaderConfig, LeaderDetector,
    RingConfig, RingDetector, StableLeaderConfig, StableLeaderDetector,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct FdPlan {
    n: usize,
    seed: u64,
    crashes: Vec<(usize, u64)>, // (victim, ms) — at most ⌈n/2⌉−1 victims
    jitter_max_ms: u64,
}

fn arb_plan() -> impl Strategy<Value = FdPlan> {
    (3usize..8, any::<u64>(), 1u64..5).prop_flat_map(|(n, seed, jitter)| {
        let f_max = (n - 1) / 2;
        prop::collection::vec((0..n, 50u64..400), 0..=f_max).prop_map(move |mut crashes| {
            crashes.sort();
            crashes.dedup_by_key(|c| c.0);
            FdPlan {
                n,
                seed,
                crashes,
                jitter_max_ms: jitter,
            }
        })
    })
}

fn run_plan<A: fd_sim::Actor>(
    plan: &FdPlan,
    make: impl FnMut(ProcessId, usize) -> A,
) -> (fd_sim::Trace, Time) {
    let net = NetworkConfig::new(plan.n).with_default(LinkModel::reliable_uniform(
        SimDuration::from_millis(1),
        SimDuration::from_millis(plan.jitter_max_ms.max(2)),
    ));
    let mut b = WorldBuilder::new(net).seed(plan.seed);
    for &(victim, at) in &plan.crashes {
        b = b.crash_at(ProcessId(victim), Time::from_millis(at));
    }
    let mut w = b.build(make);
    // Long horizon: timeouts must outgrow any jitter-induced mistakes and
    // the ring needs O(n) periods to circulate suspicion lists.
    let end = Time::from_secs(6);
    w.run_until_time(end);
    let (trace, _) = w.into_results();
    (trace, end)
}

fn class_or_fail(
    trace: &fd_sim::Trace,
    n: usize,
    end: Time,
    class: FdClass,
) -> Result<(), TestCaseError> {
    FdRun::new(trace, n, end)
        .check_class(class)
        .map_err(|v| TestCaseError::fail(format!("{v}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn heartbeat_is_always_ep(plan in arb_plan()) {
        let (trace, end) = run_plan(&plan, |pid, n| {
            Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default()))
        });
        class_or_fail(&trace, plan.n, end, FdClass::EventuallyPerfect)?;
    }

    #[test]
    fn ring_is_always_ep(plan in arb_plan()) {
        let (trace, end) = run_plan(&plan, |pid, n| {
            Standalone(RingDetector::new(pid, n, RingConfig::default()))
        });
        class_or_fail(&trace, plan.n, end, FdClass::EventuallyPerfect)?;
    }

    #[test]
    fn leader_detector_is_always_ec(plan in arb_plan()) {
        let (trace, end) = run_plan(&plan, |pid, n| {
            Standalone(LeaderDetector::new(pid, n, LeaderConfig::default()))
        });
        class_or_fail(&trace, plan.n, end, FdClass::EventuallyConsistent)?;
        // And the eventual leader is the first correct process.
        let run = FdRun::new(&trace, plan.n, end);
        let first_correct = run.correct().first().expect("someone survives");
        for p in run.correct().iter() {
            prop_assert_eq!(run.final_trusted(p), Some(first_correct));
        }
    }

    #[test]
    fn fused_detector_is_always_ep_and_ec(plan in arb_plan()) {
        let (trace, end) = run_plan(&plan, |pid, n| {
            Standalone(FusedDetector::new(pid, n, FusedConfig::default()))
        });
        class_or_fail(&trace, plan.n, end, FdClass::EventuallyPerfect)?;
        class_or_fail(&trace, plan.n, end, FdClass::EventuallyConsistent)?;
    }

    #[test]
    fn stable_detector_is_always_ec(plan in arb_plan()) {
        let (trace, end) = run_plan(&plan, |pid, n| {
            Standalone(StableLeaderDetector::new(pid, n, StableLeaderConfig::default()))
        });
        class_or_fail(&trace, plan.n, end, FdClass::EventuallyConsistent)?;
        class_or_fail(&trace, plan.n, end, FdClass::EventuallyPerfect)?;
    }

    #[test]
    fn ec_wrapper_preserves_ep_and_adds_leadership(plan in arb_plan()) {
        let (trace, end) = run_plan(&plan, |pid, n| {
            Standalone(LeaderByFirstNonSuspected::new(
                HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                n,
            ))
        });
        class_or_fail(&trace, plan.n, end, FdClass::EventuallyPerfect)?;
        class_or_fail(&trace, plan.n, end, FdClass::EventuallyConsistent)?;
    }
}

// ---------------------------------------------------------------------
// A timeout is a deadline (`fd_detectors::timeout::Watch`): the six
// timeout detectors suspect one tick past `last_heard + timeout` — never
// earlier, never later, and never by waking on a grid to look.
// ---------------------------------------------------------------------

use fd_core::Stack;
use fd_detectors::{EcToEp, EcToEpConfig, EP_SUSPECTS_OUT};
use fd_obs::keys;
use fd_sim::{DropReason, Intervention, Metrics};

/// The six detectors that raise suspicions by timeout.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Timed {
    Heartbeat,
    Ring,
    Leader,
    Stable,
    Fused,
    /// Fig. 2: `EcToEp` over `LeaderDetector`.
    Transform,
}

const TIMED: [Timed; 6] = [
    Timed::Heartbeat,
    Timed::Ring,
    Timed::Leader,
    Timed::Stable,
    Timed::Fused,
    Timed::Transform,
];

fn drive<A: fd_sim::Actor>(
    b: WorldBuilder,
    script: &[(Time, Intervention)],
    end: Time,
    make: impl FnMut(ProcessId, usize) -> A,
) -> (Trace, Metrics) {
    let mut w = b.build(make);
    for (at, iv) in script {
        w.schedule_intervention(*at, iv.clone());
    }
    w.run_until_time(end);
    w.into_results()
}

/// Run a world of `kind` detectors, default configurations, to `end`.
fn run_timed(
    kind: Timed,
    b: WorldBuilder,
    script: &[(Time, Intervention)],
    end: Time,
) -> (Trace, Metrics) {
    match kind {
        Timed::Heartbeat => drive(b, script, end, |pid, n| {
            Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default()))
        }),
        Timed::Ring => drive(b, script, end, |pid, n| {
            Standalone(RingDetector::new(pid, n, RingConfig::default()))
        }),
        Timed::Leader => drive(b, script, end, |pid, n| {
            Standalone(LeaderDetector::new(pid, n, LeaderConfig::default()))
        }),
        Timed::Stable => drive(b, script, end, |pid, n| {
            Standalone(StableLeaderDetector::new(
                pid,
                n,
                StableLeaderConfig::default(),
            ))
        }),
        Timed::Fused => drive(b, script, end, |pid, n| {
            Standalone(FusedDetector::new(pid, n, FusedConfig::default()))
        }),
        Timed::Transform => drive(b, script, end, |pid, n| {
            Stack::new(
                LeaderDetector::new(pid, n, LeaderConfig::default()),
                EcToEp::new(pid, n, EcToEpConfig::default()),
            )
        }),
    }
}

/// How one output of one detector turns silence into suspicion.
struct Deadlines {
    /// Observation tag carrying the output.
    out: &'static str,
    /// Message kind whose delivery from q restarts q's window at p.
    alive: &'static str,
    /// Initial timeout and increment, in ms.
    timeout_ms: (u64, u64),
    shape: Shape,
}

#[derive(Clone, Copy, PartialEq)]
enum Shape {
    /// `out` is the set of peers timed out, all watched all the time
    /// (heartbeat, stable): window and timeout in force are both known,
    /// so the suspicion instant is checked exactly.
    PerPeer,
    /// `out` is a suspect set fed by one watched target and by hearsay
    /// (ring): only entries not caused by a delivery are timeouts.
    Target,
    /// `out` is `fd.trusted`; a move to a higher id is the old
    /// candidate's timeout (leader, fused).
    Candidate,
    /// `out` is a suspect set that holds this process's own timeouts
    /// while it trusts itself (fused; Fig. 2, which learns leadership
    /// from the detector below the instant it changes).
    LeaderPeers,
}

impl Timed {
    fn deadlines(self) -> Vec<Deadlines> {
        let d = |out, alive, timeout_ms, shape| Deadlines {
            out,
            alive,
            timeout_ms,
            shape,
        };
        let (suspects, trusted) = (fd_core::obs::SUSPECTS, fd_core::obs::TRUSTED);
        match self {
            Timed::Heartbeat => vec![d(suspects, keys::HB_ALIVE, (30, 20), Shape::PerPeer)],
            Timed::Stable => vec![d(suspects, keys::STABLE_ALIVE, (40, 25), Shape::PerPeer)],
            Timed::Ring => vec![d(suspects, keys::RING_REPLY, (40, 25), Shape::Target)],
            Timed::Leader => vec![d(trusted, keys::LEADER_ALIVE, (40, 25), Shape::Candidate)],
            Timed::Fused => vec![
                d(trusted, keys::FUSED_LEADERLIST, (40, 25), Shape::Candidate),
                d(suspects, keys::FUSED_ALIVE, (40, 25), Shape::LeaderPeers),
            ],
            Timed::Transform => vec![
                d(trusted, keys::LEADER_ALIVE, (40, 25), Shape::Candidate),
                d(
                    EP_SUSPECTS_OUT,
                    keys::EP_ALIVE,
                    (40, 25),
                    Shape::LeaderPeers,
                ),
            ],
        }
    }
}

/// Check every timeout suspicion in `trace` against its deadline; returns
/// how many there were.
///
/// *Never early*: p never suspects q sooner than the timeout in force
/// (at least the initial one) after q's last delivery at p. *Never
/// late*: the suspicion instant is `window start + timeout + 1 tick`
/// for a window p really opened — its (re)start, a delivery from q, or
/// an instant at which p's own output moved (a new target, candidate or
/// leadership restarts the window) — and a timeout `initial + k ·
/// increment` (k is known for `PerPeer`). An instant on a polling grid
/// is none of those.
fn check_deadlines(trace: &Trace, n: usize, d: &Deadlines) -> Result<usize, String> {
    let timeout = |k: u64| SimDuration::from_millis(d.timeout_ms.0 + k * d.timeout_ms.1);
    let mut started = vec![Time::ZERO; n];
    let mut heard = vec![vec![Vec::<Time>::new(); n]; n];
    let mut moved = vec![Vec::<Time>::new(); n];
    let mut set = vec![ProcessSet::new(); n];
    let mut exits = vec![vec![0u64; n]; n];
    let mut trusted: Vec<Option<(ProcessId, Time)>> = vec![None; n];
    // The process whose delivery is being dispatched, if the entries
    // since are all its own.
    let mut delivering: Option<(ProcessId, Time)> = None;
    let mut checked = 0;
    for e in trace.events() {
        let (pid, tag, payload) = match &e.kind {
            TraceKind::Delivered { from, to, kind, .. } => {
                delivering = Some((*to, e.at));
                if *kind == d.alive {
                    heard[to.index()][from.index()].push(e.at);
                }
                continue;
            }
            TraceKind::Sent { from, .. } | TraceKind::Dropped { from, .. }
                if !matches!(
                    e.kind,
                    TraceKind::Dropped {
                        reason: DropReason::ReceiverCrashed,
                        ..
                    }
                ) =>
            {
                if delivering.map(|(p, _)| p) != Some(*from) {
                    delivering = None;
                }
                continue;
            }
            TraceKind::Observation { pid, tag, payload } if !tag.starts_with("chaos.") => {
                (*pid, *tag, payload)
            }
            other => {
                if let TraceKind::Observation { tag, payload, .. } = other {
                    if *tag == fd_sim::chaos::RESTART {
                        let p = payload.as_pid().expect("a restart names its process");
                        started[p.index()] = e.at;
                    }
                }
                delivering = None;
                continue;
            }
        };
        let p = pid.index();
        if delivering.map(|(to, _)| to) != Some(pid) {
            delivering = None;
        }
        let by_message = delivering == Some((pid, e.at));
        // The peers this observation times out, with the range of k.
        let mut timed_out: Vec<(ProcessId, u64, u64)> = Vec::new();
        if tag == fd_core::obs::TRUSTED {
            let next = payload.as_pid().expect("fd.trusted carries a pid");
            if let Some((old, _)) = trusted[p] {
                if d.shape == Shape::Candidate && next.index() > old.index() && !by_message {
                    timed_out.push((old, 0, 64));
                }
            }
            if trusted[p].map(|(q, _)| q) != Some(next) {
                trusted[p] = Some((next, e.at));
            }
        }
        if tag == d.out && d.shape != Shape::Candidate {
            let next: ProcessSet = payload.as_pids().expect("a suspect set").iter().collect();
            for q in (&set[p] - &next).iter() {
                exits[p][q.index()] += 1;
            }
            let leading_since = trusted[p]
                .filter(|(l, _)| *l == pid)
                .map(|(_, since)| since);
            let mine = match d.shape {
                Shape::PerPeer => true,
                Shape::Target => !by_message,
                // Past the switch from the adopted list to the local one.
                _ => !by_message && leading_since.is_some_and(|s| e.at >= s + timeout(0)),
            };
            if mine {
                for q in (&next - &set[p]).iter() {
                    let k = exits[p][q.index()];
                    let (lo, hi) = if d.shape == Shape::PerPeer {
                        (k, k)
                    } else {
                        (0, 64)
                    };
                    timed_out.push((q, lo, hi));
                }
            }
            set[p] = next;
        }
        for (q, lo, hi) in timed_out {
            checked += 1;
            let from_q = &heard[p][q.index()];
            let last = from_q.last().copied().unwrap_or(Time::ZERO).max(started[p]);
            let tick = SimDuration::from_ticks(1);
            if e.at < last + timeout(lo) + tick {
                return Err(format!(
                    "EARLY: {pid} suspects {q} at {}, heard it at {last}, timeout ≥ {}",
                    e.at,
                    timeout(lo)
                ));
            }
            let exact = d.shape == Shape::PerPeer;
            let on_a_deadline = (lo..=hi).any(|k| {
                let Some(w) = e.at.ticks().checked_sub((timeout(k) + tick).ticks()) else {
                    return false;
                };
                let w = Time(w);
                if exact {
                    w == last
                } else {
                    w == started[p] || from_q.contains(&w) || moved[p].contains(&w)
                }
            });
            if !on_a_deadline {
                return Err(format!(
                    "OFF ITS DEADLINE: {pid} suspects {q} at {}; last heard {last}, \
                     started {}, timeouts {}+k·{} ms, k in {lo}..={hi}",
                    e.at, started[p], d.timeout_ms.0, d.timeout_ms.1
                ));
            }
        }
        moved[p].push(e.at);
    }
    Ok(checked)
}

/// A seed's generated chaos schedule (partition, mangler, crash and
/// restart windows over pre-GST delays and loss), for any detector.
fn chaos_run(kind: Timed, seed: u64) -> (usize, Trace) {
    let plan = fd_chaos::generate_plan(seed);
    let net = fd_chaos::base_net(plan.n);
    let script = fd_chaos::compile(&plan, &net).expect("generated plans are legal");
    let (trace, _) = run_timed(
        kind,
        WorldBuilder::new(net).seed(seed),
        &script,
        plan.horizon,
    );
    (plan.n, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) never early and (b) never late, for all six detectors, over
    /// random delays, loss, partitions, crashes and warm restarts.
    #[test]
    fn timeouts_fire_on_their_deadlines(seed in any::<u64>()) {
        for kind in TIMED {
            let (n, trace) = chaos_run(kind, seed);
            for d in kind.deadlines() {
                check_deadlines(&trace, n, &d)
                    .map_err(|e| TestCaseError::fail(format!("{kind:?} seed {seed}: {e}")))?;
            }
        }
    }
}

/// A crash-free world of `n` over reliable links with 1–4 ms delays.
fn calm(n: usize, seed: u64) -> WorldBuilder {
    WorldBuilder::new(
        NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(4),
        )),
    )
    .seed(seed)
}

/// (d) Timers are not traced and draw no randomness, so a run in which
/// nobody is ever suspected is the run it was when these detectors
/// polled every 5 ms: `GOLDEN` was recorded at 8abc0df, the parent of
/// the deadline timer, by running this test there.
#[test]
fn crash_free_runs_kept_their_digests() {
    /// `(detector, Trace::digest(), messages sent)`.
    const GOLDEN: [(Timed, u64, u64); 6] = [
        (Timed::Heartbeat, 0xdcd2cb44177d6d5a, 2020),
        (Timed::Ring, 0x09e9e0ef214d71fd, 1005),
        (Timed::Leader, 0x4f30e0d5f0517cee, 404),
        (Timed::Stable, 0xbceb30eb3fb1b802, 2020),
        (Timed::Fused, 0x1d9fd19594174e9c, 804),
        (Timed::Transform, 0xedaa05b2fd59fd97, 1204),
    ];
    let mut drifted = String::new();
    for (kind, digest, sent) in GOLDEN {
        let (trace, metrics) = run_timed(kind, calm(5, 0xd16e57), &[], Time::from_secs(1));
        let got = (trace.digest(), metrics.sent_total());
        if got != (digest, sent) {
            drifted += &format!("        (Timed::{kind:?}, {:#018x}, {}),\n", got.0, got.1);
        }
    }
    assert!(drifted.is_empty(), "this run's rows:\n{drifted}");
}

/// (c) Never polling again: in a crash-free run a process fires its
/// periodic send timers and, per watch, one deadline timer every
/// `timeout − period` at most (a fire re-arms from a `last_heard` at
/// most one period old) — a third of what the 5 ms grid fired.
#[test]
fn a_quiet_process_fires_its_deadline_timer_once_per_window() {
    // (periodic timers, watches, initial timeout in ms) per process.
    let shape = |kind| match kind {
        Timed::Heartbeat => (1.0, 1.0, 30.0),
        Timed::Ring | Timed::Leader | Timed::Stable => (1.0, 1.0, 40.0),
        Timed::Fused => (2.0, 1.0, 40.0),
        Timed::Transform => (3.0, 2.0, 40.0),
    };
    for kind in TIMED {
        let net = NetworkConfig::new(5)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        let (_, m) = run_timed(
            kind,
            WorldBuilder::new(net).seed(3),
            &[],
            Time::from_secs(2),
        );
        // No crash, no loss, no intervention: what is not a delivery is
        // a timer.
        let fired = (m.events_processed() - m.delivered_total()) as f64 / (5.0 * 2.0);
        let (sends, watches, initial_ms) = shape(kind);
        let bound = sends * 100.0 + watches * 1000.0 / (initial_ms - 10.0) + 1.0;
        assert!(
            fired <= bound,
            "{kind:?}: {fired} timers per process-second, bound {bound}"
        );
    }
}

/// (c), where it stops holding: under loss a fire re-arms at the
/// next-stalest of n − 1 peers, so it chases every run of lost
/// heartbeats and the rate grows with n · loss — at n = 64 still under
/// the 200 a second of the grid it replaced, past it by n = 256 (338,
/// and 898 at n = 1,024: EXPERIMENTS.md "A timeout is a deadline").
/// Most of those fires are suspicions, and a suspicion on its deadline
/// costs an event per distinct deadline; the bounds are what this run
/// reads (78 and 142) plus a quarter, here so that growth is noticed.
#[test]
fn under_loss_deadline_fires_grow_with_n() {
    for (n, bound) in [(16, 98.0), (64, 178.0)] {
        let net = NetworkConfig::new(n).with_default(LinkModel::fair_lossy(
            SimDuration::from_millis(1),
            SimDuration::from_millis(8),
            0.15,
        ));
        let b = WorldBuilder::new(net)
            .seed(3)
            .trace_mode(fd_sim::TraceMode::ObsOnly);
        let (_, m) = run_timed(Timed::Heartbeat, b, &[], Time::from_millis(500));
        // Crash-free: what is not a delivery is a timer, 100 of them a
        // second the send timer.
        let timers = (m.events_processed() - m.delivered_total()) as f64;
        let fired = timers / (n as f64 * 0.5) - 100.0;
        assert!(
            fired <= bound,
            "n = {n}: {fired} deadline fires per process-second, bound {bound}"
        );
    }
}

/// Kill (`up = false`) or restore the directed link `from → to`.
fn link(at_ms: u64, from: usize, to: usize, up: bool) -> (Time, Intervention) {
    let model = if up {
        LinkModel::reliable_const(SimDuration::from_millis(1))
    } else {
        LinkModel::Dead
    };
    let iv = Intervention {
        tag: if up {
            fd_sim::chaos::HEAL
        } else {
            fd_sim::chaos::PARTITION
        },
        payload: Payload::Pids(vec![ProcessId(from), ProcessId(to)]),
        change: fd_sim::NetChange::SetLinks(vec![(ProcessId(from), ProcessId(to), model)]),
    };
    (Time::from_millis(at_ms), iv)
}

/// The instants at which `p` started suspecting `q`, in µs.
fn suspicions(trace: &Trace, p: usize, q: usize) -> Vec<u64> {
    let mut held = false;
    let mut at = Vec::new();
    for (t, payload) in trace.observations_of(ProcessId(p), fd_core::obs::SUSPECTS) {
        let holds = payload.as_pids().is_some_and(|s| s.contains(&ProcessId(q)));
        if holds && !held {
            at.push(t.ticks());
        }
        held = holds;
    }
    at
}

/// (b), first shape of a deadline moving *before* the armed timer: a
/// revoked peer whose timeout is smaller than the armed peer's.
#[test]
fn a_revoked_peer_is_not_held_to_a_slower_peers_timer() {
    let net =
        NetworkConfig::new(3).with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
    let script = [
        // Three mistakes about p1 grow its timeout at p0 to 90 ms.
        link(105, 1, 0, false),
        link(155, 1, 0, true),
        link(205, 1, 0, false),
        link(285, 1, 0, true),
        link(405, 1, 0, false),
        link(505, 1, 0, true),
        // p2 goes quiet for good at 605 but for one beat, delivered at
        // 741: p0's timer then sits at 811.001, armed for p1 (heard at
        // 721, 90 ms), and p2's new deadline is 741 + 50 ms.
        link(605, 2, 0, false),
        link(735, 2, 0, true),
        link(745, 2, 0, false),
    ];
    let (trace, _) = run_timed(
        Timed::Heartbeat,
        WorldBuilder::new(net).seed(1),
        &script,
        Time::from_secs(1),
    );
    assert_eq!(suspicions(&trace, 0, 1), vec![131_001, 251_001, 471_001]);
    assert_eq!(suspicions(&trace, 0, 2), vec![631_001, 791_001]);
    check_deadlines(&trace, 3, &Timed::Heartbeat.deadlines()[0]).unwrap();
}

/// (b), second shape: the ring's monitor steps onto a target with a
/// smaller timeout than the one its timer was armed for.
#[test]
fn the_ring_monitor_steps_onto_a_smaller_timeout() {
    let net =
        NetworkConfig::new(4).with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
    let script = [
        // p0 loses its predecessor p3 and monitors p2 instead …
        link(55, 3, 0, false),
        // … about which three mistakes grow the timeout to 115 ms.
        link(155, 2, 0, false),
        link(205, 2, 0, true),
        link(255, 2, 0, false),
        link(325, 2, 0, true),
        link(405, 2, 0, false),
        link(505, 2, 0, true),
        // One reply from p3 (a reintegration poll, answered at 662)
        // moves the monitor back onto it, 65 ms, under a timer armed at
        // 737.001 for p2; then p3 is silent again.
        link(655, 3, 0, true),
        link(665, 3, 0, false),
    ];
    let (trace, _) = run_timed(
        Timed::Ring,
        WorldBuilder::new(net).seed(1),
        &script,
        Time::from_secs(1),
    );
    assert_eq!(suspicions(&trace, 0, 2), vec![192_001, 317_001, 492_001]);
    assert_eq!(suspicions(&trace, 0, 3), vec![92_001, 727_001]);
    check_deadlines(&trace, 4, &Timed::Ring.deadlines()[0]).unwrap();
}

/// (b) across a KV crash and warm restart: `on_start` re-arms, the new
/// epoch drops the old timer, and the replicas around the victim still
/// suspect it — and it them, after it is back — on the deadline.
#[test]
fn a_kv_crash_restart_keeps_suspicions_on_their_deadlines() {
    use fd_campaign::Scenario as _;
    use fd_chaos::DetectorKind;
    let kinds = [
        (DetectorKind::Heartbeat, Timed::Heartbeat),
        (DetectorKind::Ring, Timed::Ring),
        (DetectorKind::StableLeader, Timed::Stable),
    ];
    for (detector, kind) in kinds {
        let sc = fd_kv::KvScenario::fixed(fd_kv::standard_plan(detector)).expect("a legal plan");
        let outcome = sc.make_executor().execute(&sc.plan(0x4b56), None);
        let checked = check_deadlines(&outcome.trace, 4, &kind.deadlines()[0])
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert!(checked >= 1, "{kind:?}: the crashed replica is suspected");
    }
}
