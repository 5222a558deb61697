//! The trace index against a linear scan.
//!
//! `Trace::{observations, observations_of, last_observation_of, crashes}`
//! and the two position lists read chains the trace keeps as events are
//! recorded. Every answer here is compared with a scan of
//! `Trace::events()` — the oracle lives only in this file — over random
//! traces of all five event kinds, tags of equal content at distinct
//! addresses, `from_events` and `Clone`, and worlds reused across runs
//! of different sizes and trace modes.

use fd_sim::chaos::{Intervention, NetChange, RESTART};
use fd_sim::{
    Actor, Context, DropReason, NetworkConfig, Payload, ProcessId, SimDuration, SimMessage, Time,
    TimerTag, Trace, TraceEvent, TraceKind, TraceMode, WorldCache,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::rc::Rc;

/// Tags the generators draw from: two of them twice, the second copy
/// leaked from a `String` so its address differs from the literal's.
fn tag_pool() -> Vec<&'static str> {
    vec![
        "fd.suspects",
        "kv.apply",
        "consensus.decide",
        "",
        String::from("kv.apply").leak(),
        String::from("fd.suspects").leak(),
    ]
}

/// The observations tagged `tag` (by content), with their positions.
fn scan(trace: &Trace, tag: &str) -> Vec<(usize, Time, ProcessId, Payload)> {
    trace
        .events()
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match &e.kind {
            TraceKind::Observation {
                pid,
                tag: t,
                payload,
            } if *t == tag => Some((i, e.at, *pid, payload.clone())),
            _ => None,
        })
        .collect()
}

/// Every indexed answer of `trace` equals the scan's, for each tag in
/// `tags` (and one never recorded) and each of `n` processes.
fn assert_matches_scan(trace: &Trace, tags: &[&str], n: usize, what: &str) {
    let crashes: Vec<(usize, ProcessId, Time)> = trace
        .events()
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e.kind {
            TraceKind::Crashed { pid } => Some((i, pid, e.at)),
            _ => None,
        })
        .collect();
    assert_eq!(
        trace.crashes(),
        crashes.iter().map(|&(_, p, t)| (p, t)).collect::<Vec<_>>(),
        "{what}: crashes"
    );
    assert_eq!(
        trace.crash_positions().collect::<Vec<_>>(),
        crashes.iter().map(|&(i, _, _)| i).collect::<Vec<_>>(),
        "{what}: crash positions"
    );
    // A query tag that is not 'static and lives at an address no event
    // uses: found by content.
    let owned: Vec<String> = tags.iter().map(|t| t.to_string()).collect();
    let queries = tags
        .iter()
        .copied()
        .chain(owned.iter().map(String::as_str))
        .chain(["never.recorded"]);
    for tag in queries {
        let want = scan(trace, tag);
        let got: Vec<(usize, Time, ProcessId, Payload)> = trace
            .observation_positions(tag)
            .zip(trace.observations(tag))
            .map(|(i, (t, p, pl))| (i, t, p, pl.clone()))
            .collect();
        assert_eq!(got, want, "{what}: observations of {tag:?}");
        assert_eq!(
            trace.observation_positions(tag).count(),
            want.len(),
            "{what}: positions of {tag:?}"
        );
        for pid in (0..n).map(ProcessId) {
            let mine: Vec<(Time, Payload)> = want
                .iter()
                .filter(|(_, _, p, _)| *p == pid)
                .map(|(_, t, _, pl)| (*t, pl.clone()))
                .collect();
            let got: Vec<(Time, Payload)> = trace
                .observations_of(pid, tag)
                .map(|(t, pl)| (t, pl.clone()))
                .collect();
            assert_eq!(got, mine, "{what}: {pid}'s {tag:?}");
            assert_eq!(
                trace
                    .last_observation_of(pid, tag)
                    .map(|(t, pl)| (t, pl.clone())),
                mine.last().cloned(),
                "{what}: {pid}'s last {tag:?}"
            );
        }
    }
}

fn random_event(rng: &mut SmallRng, at: u64, n: usize, tags: &[&'static str]) -> TraceEvent {
    let pid = |rng: &mut SmallRng| ProcessId(rng.gen_range(0..n));
    let kind = match rng.gen_range(0..5u32) {
        0 => TraceKind::Sent {
            from: pid(rng),
            to: pid(rng),
            kind: "m",
            round: Some(at),
        },
        1 => TraceKind::Delivered {
            from: pid(rng),
            to: pid(rng),
            kind: "m",
            round: None,
        },
        2 => TraceKind::Dropped {
            from: pid(rng),
            to: pid(rng),
            kind: "m",
            reason: DropReason::Link,
        },
        3 => TraceKind::Crashed { pid: pid(rng) },
        _ => TraceKind::Observation {
            pid: pid(rng),
            tag: tags[rng.gen_range(0..tags.len())],
            payload: Payload::U64(at),
        },
    };
    TraceEvent { at: Time(at), kind }
}

#[test]
fn random_traces_answer_like_a_scan() {
    let tags = tag_pool();
    let mut rng = SmallRng::seed_from_u64(11);
    for case in 0..300 {
        let n = rng.gen_range(1..6usize);
        let len = rng.gen_range(0..120u64);
        let events: Vec<TraceEvent> = (0..len)
            .map(|i| random_event(&mut rng, i, n, &tags))
            .collect();
        let trace = Trace::from_events(events);
        assert_matches_scan(&trace, &tags, n, &format!("case {case}"));
        let copy = trace.clone();
        assert_eq!(copy.digest(), trace.digest());
        assert_matches_scan(&copy, &tags, n, &format!("case {case}, cloned"));
        drop(trace);
        assert_matches_scan(&copy, &tags, n, &format!("case {case}, clone alone"));
    }
}

#[test]
fn tags_of_equal_content_share_one_chain() {
    let leaked: &'static str = String::from("kv.apply").leak();
    assert!(!std::ptr::eq(leaked.as_ptr(), "kv.apply".as_ptr()));
    let obs = |at: u64, tag: &'static str| TraceEvent {
        at: Time(at),
        kind: TraceKind::Observation {
            pid: ProcessId(at as usize % 2),
            tag,
            payload: Payload::U64(at),
        },
    };
    let trace = Trace::from_events(vec![
        obs(1, leaked),
        obs(2, "kv.apply"),
        obs(3, "other"),
        obs(4, leaked),
    ]);
    for tag in [leaked, "kv.apply"] {
        let times: Vec<u64> = trace.observations(tag).map(|(t, _, _)| t.0).collect();
        assert_eq!(times, [1, 2, 4]);
        let last = trace.last_observation_of(ProcessId(0), tag);
        assert_eq!(last.map(|(t, _)| t), Some(Time(4)));
        assert_eq!(
            trace.observation_positions(tag).collect::<Vec<_>>(),
            [0, 1, 3]
        );
    }
}

#[derive(Debug, Clone)]
struct Note;

impl SimMessage for Note {
    fn kind(&self) -> &'static str {
        "note"
    }
}

/// Every millisecond: observe a random tag, and send to a random peer.
struct Chatter {
    tags: Rc<Vec<&'static str>>,
}

const TICK: TimerTag = TimerTag::new(0, 0, 0);

impl Actor for Chatter {
    type Msg = Note;
    fn on_start(&mut self, ctx: &mut Context<'_, Note>) {
        ctx.set_timer(SimDuration::from_millis(1), TICK);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Note>, _: ProcessId, _: Note) {
        if ctx.rng().gen_bool(0.2) {
            let tag = self.tags[ctx.rng().gen_range(0..self.tags.len())];
            ctx.observe(tag, Payload::U64(ctx.now().0));
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Note>, _: TimerTag) {
        let tag = self.tags[ctx.rng().gen_range(0..self.tags.len())];
        ctx.observe(tag, Payload::Pid(ctx.me()));
        let n = ctx.n();
        let to = ProcessId(ctx.rng().gen_range(0..n));
        ctx.send(to, Note);
        ctx.set_timer(SimDuration::from_millis(1), TICK);
    }
}

/// One cache, many runs: sizes grow and shrink, and the trace mode
/// changes whenever the cache rebuilds (a different registry forces
/// that). After every run, whether its trace is taken or read in place
/// and reset under the next one, the index answers like a scan —
/// nothing of an earlier run leaks into a later one's chains.
#[test]
fn reused_worlds_index_each_run_afresh() {
    let tags = Rc::new(tag_pool());
    let mode = Rc::new(Cell::new(TraceMode::Full));
    let registry = fd_obs::Registry::new();
    let mut cache = WorldCache::new({
        let mode = Rc::clone(&mode);
        move |builder| builder.trace_mode(mode.get())
    });
    let runs = [
        (TraceMode::Full, false, 5),
        (TraceMode::Full, false, 2),
        (TraceMode::Full, false, 7),
        (TraceMode::ObsOnly, true, 3),
        (TraceMode::ObsOnly, true, 6),
        (TraceMode::Off, false, 4),
        (TraceMode::Full, true, 1),
        (TraceMode::Full, true, 4),
    ];
    for (run, &(m, observed, n)) in runs.iter().enumerate() {
        mode.set(m);
        let world = cache.arm(
            NetworkConfig::new(n),
            run as u64,
            observed.then_some(&registry),
            |_, _| Chatter {
                tags: Rc::clone(&tags),
            },
        );
        world.schedule_crash(ProcessId(n - 1), Time::from_millis(7));
        world.schedule_intervention(
            Time::from_millis(9),
            Intervention {
                tag: RESTART,
                payload: Payload::Pid(ProcessId(n - 1)),
                change: NetChange::Restart(ProcessId(n - 1)),
            },
        );
        world.schedule_crash(ProcessId(0), Time::from_millis(13));
        world.run_until_time(Time::from_millis(20));
        let what = format!("run {run} ({m:?}, n = {n})");
        let mut all_tags: Vec<&str> = tags.to_vec();
        all_tags.push(RESTART);
        // Every other run is read in place and not taken, so the next
        // reset clears a recorded trace rather than the empty one
        // `take_results` leaves behind.
        let taken;
        let trace = if run % 2 == 1 {
            world.trace()
        } else {
            taken = world.take_results().0;
            &taken
        };
        if m == TraceMode::Off {
            assert!(trace.is_empty(), "{what}");
        } else {
            assert!(!trace.crashes().is_empty(), "{what}: crashes recorded");
        }
        assert_matches_scan(trace, &all_tags, n, &what);
    }
}
