//! Adaptive per-peer timeouts, and the one timer that watches them.
//!
//! All the timeout-based detectors in this crate (and the Fig. 2
//! transformation's Task 4) rely on the same mechanism the paper's proofs
//! use: when a suspicion turns out to be a mistake, the timeout for that
//! peer is *increased*, so under partial synchrony each peer can be
//! falsely suspected only a bounded number of times — once the timeout
//! exceeds `2Φ + Δ` it never fires spuriously again (Theorem 1's
//! argument). [`TimeoutTable`] is that table; `Watch` turns "heard
//! nothing from q for `Δ_p(q)`" into what it is, a deadline, and keeps
//! one timer armed at the earliest.

use fd_core::{ProcessSet, SubCtx};
use fd_sim::{ProcessId, SimDuration, SimMessage, Time};

/// No timeout grows past this.
const CAP: SimDuration = SimDuration::from_secs(3600);

/// A table of per-peer timeout intervals (`Δ_p(q)` in Fig. 2).
///
/// Stored sparsely: every peer sits at `initial` until its first false
/// suspicion, and Theorem 1 bounds how many peers ever grow past it, so
/// only the grown entries are materialised. The obvious dense layout
/// (`vec![initial; n]` per actor) costs O(n²) memory across a world and
/// turns every steady-state `get` into a cold-cache load at large n —
/// measurably so at n ≥ 1024.
#[derive(Debug, Clone)]
pub struct TimeoutTable {
    n: usize,
    initial: SimDuration,
    /// Added after each false suspicion (the classic Chandra–Toueg scheme).
    increment: SimDuration,
    /// `(peer index, current timeout, increase count)` for peers whose
    /// timeout has been increased at least once.
    grown: Vec<(u32, SimDuration, u32)>,
}

impl TimeoutTable {
    /// A table for `n` peers, all starting at `initial` and growing by
    /// `increment`, never past an hour.
    pub fn additive(n: usize, initial: SimDuration, increment: SimDuration) -> TimeoutTable {
        assert!(initial > SimDuration::ZERO, "timeouts must be positive");
        assert!(CAP >= initial, "cap below initial timeout");
        TimeoutTable {
            n,
            initial,
            increment,
            grown: Vec::new(),
        }
    }

    /// The current timeout for `q`.
    pub fn get(&self, q: ProcessId) -> SimDuration {
        debug_assert!(q.index() < self.n, "peer index out of range");
        if self.grown.is_empty() {
            return self.initial;
        }
        let idx = q.index() as u32;
        self.grown
            .iter()
            .find(|e| e.0 == idx)
            .map_or(self.initial, |e| e.1)
    }

    /// Grow `q`'s timeout after a false suspicion. Returns the new value.
    pub fn increase(&mut self, q: ProcessId) -> SimDuration {
        debug_assert!(q.index() < self.n, "peer index out of range");
        let idx = q.index() as u32;
        let pos = match self.grown.iter().position(|e| e.0 == idx) {
            Some(p) => p,
            None => {
                self.grown.push((idx, self.initial, 0));
                self.grown.len() - 1
            }
        };
        // fd-lint: allow(HP001, reason = "pos is either a scan hit or the index of the entry just pushed")
        let (_, cur, count) = &mut self.grown[pos];
        let next = (*cur + self.increment).min(CAP);
        *cur = next;
        *count += 1;
        next
    }

    /// Total timeout increases across all peers — i.e. how many mistakes
    /// the detector made. Theorem 1's argument predicts this is bounded
    /// under partial synchrony.
    pub fn total_increases(&self) -> u64 {
        self.grown.iter().map(|e| e.2 as u64).sum()
    }
}

/// The silence deadlines of a set of watched peers, behind one timer.
///
/// "If p heard nothing from q for `Δ_p(q)`, suspect q" names an instant:
/// q is *due* at `last_heard[q] + Δ_p(q) + 1 tick`. A `Watch` owns what
/// the six timeout detectors share — who is watched, when each was last
/// heard, the [`TimeoutTable`] — and keeps a timer armed at the earliest
/// due instant. Hearing from a peer only moves its `last_heard`: the
/// timer is not cancelled and re-set but fires, finds nobody due, and
/// re-arms at the new minimum, at least `timeout − period` later.
///
/// Invariant after every call: **nothing is watched and nothing is
/// armed, or the armed instant ≤ every watched peer's due instant**, so
/// a peer is reported when it is due, never later. A peer that starts
/// being watched (a revoked suspicion, a new ring target) may be due
/// before a timer armed for a peer with a grown timeout: a second timer
/// is armed then and the first fires harmlessly — a fire is always
/// "report who is due, re-arm unless a timer is armed already".
#[derive(Debug)]
pub(crate) struct Watch {
    /// The peers' timeouts. Growing one only moves a deadline later.
    pub timeouts: TimeoutTable,
    watched: ProcessSet,
    /// One window per peer — or one in all, for a detector that watches
    /// one peer at a time (ring, leader): n per actor is the O(n²)
    /// layout [`TimeoutTable`] is sparse to avoid.
    last_heard: Vec<Time>,
    armed: Option<Time>,
}

impl Watch {
    /// The kind of the timer a watch arms, in its owner's namespace
    /// (owners number their own kinds from 0).
    pub const TIMER: u32 = u32::MAX;

    /// A watch over `n` peers with `slots` windows: `n` to watch any
    /// subset of them, 1 to watch one at a time.
    pub fn new(n: usize, slots: usize, initial: SimDuration, increment: SimDuration) -> Watch {
        Watch {
            timeouts: TimeoutTable::additive(n, initial, increment),
            watched: ProcessSet::new(),
            last_heard: vec![Time::ZERO; slots],
            armed: None,
        }
    }

    /// Where `q`'s window is: its own slot, or the only one.
    fn slot(&self, q: ProcessId) -> usize {
        debug_assert!(
            self.last_heard.len() > 1 || self.watched.len() <= 1,
            "several watched peers share one window"
        );
        q.index().min(self.last_heard.len() - 1)
    }

    /// The first instant at which `q`'s silence exceeds its timeout.
    fn due(&self, q: ProcessId) -> Time {
        // fd-lint: allow(HP001, reason = "last_heard holds n slots or one, never none; slot() is clamped to the last")
        self.last_heard[self.slot(q)] + self.timeouts.get(q) + SimDuration::from_ticks(1)
    }

    /// A message from `q` arrived at `now`. Ignored unless `q` is
    /// watched: an unwatched peer gets a fresh window when it is.
    pub fn heard(&mut self, q: ProcessId, now: Time) {
        if self.watched.contains(q) {
            let i = self.slot(q);
            // fd-lint: allow(HP001, reason = "last_heard holds n slots or one, never none; slot() is clamped to the last")
            self.last_heard[i] = now;
        }
    }

    /// Watch exactly `peers` — bar this process, which hears nothing
    /// from itself — from now on, each from a fresh window: `on_start`
    /// (a warm restart dropped whatever timer was armed, so `armed` is
    /// forgotten, not trusted) and every change of target. A timer still
    /// in flight fires harmlessly.
    pub fn watch_only<N: SimMessage, C>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, C>,
        peers: ProcessSet,
    ) {
        self.last_heard.fill(ctx.now());
        self.watched = peers;
        self.watched.remove(ctx.me());
        self.armed = None;
        self.arm(ctx);
    }

    /// Start watching `q` as well, from a fresh window.
    pub fn watch<N: SimMessage, C>(&mut self, ctx: &mut SubCtx<'_, '_, N, C>, q: ProcessId) {
        self.watched.insert(q);
        self.heard(q, ctx.now());
        self.arm(ctx);
    }

    /// The watch's timer fired: stop watching the peers that are due and
    /// return them.
    pub fn fire<N: SimMessage, C>(&mut self, ctx: &mut SubCtx<'_, '_, N, C>) -> ProcessSet {
        let now = ctx.now();
        if self.armed == Some(now) {
            self.armed = None;
        }
        let mut expired = ProcessSet::new();
        for q in self.watched.iter().filter(|&q| self.due(q) <= now) {
            expired.insert(q);
        }
        for q in expired.iter() {
            self.watched.remove(q);
        }
        self.arm(ctx);
        expired
    }

    /// Restore the invariant: arm a timer at the earliest due instant
    /// unless one is armed at or before it.
    fn arm<N: SimMessage, C>(&mut self, ctx: &mut SubCtx<'_, '_, N, C>) {
        match self.watched.iter().map(|q| self.due(q)).min() {
            None => self.armed = None,
            Some(due) if self.armed.is_some_and(|at| at <= due) => {}
            Some(due) => {
                ctx.set_timer(due.since(ctx.now()), Watch::TIMER, 0);
                self.armed = Some(due);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scripted::NoMsg;
    use fd_core::{Component, Standalone};
    use fd_sim::{NetworkConfig, World, WorldBuilder};

    #[test]
    fn additive_growth() {
        let mut t =
            TimeoutTable::additive(3, SimDuration::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(t.get(ProcessId(1)), SimDuration::from_millis(10));
        assert_eq!(t.increase(ProcessId(1)), SimDuration::from_millis(15));
        assert_eq!(t.increase(ProcessId(1)), SimDuration::from_millis(20));
        // Other peers are untouched.
        assert_eq!(t.get(ProcessId(0)), SimDuration::from_millis(10));
        assert_eq!(t.total_increases(), 2);
    }

    #[test]
    fn additive_growth_stops_at_the_cap() {
        let below_cap = |ms| SimDuration::from_ticks(CAP.ticks() - MS(ms).ticks());
        let mut t = TimeoutTable::additive(1, below_cap(10), MS(7));
        assert_eq!(t.increase(ProcessId(0)), below_cap(3));
        assert_eq!(t.increase(ProcessId(0)), CAP);
        assert_eq!(t.increase(ProcessId(0)), CAP);
    }

    #[test]
    fn eventually_exceeds_any_bound() {
        // The property Theorem 1 relies on: finitely many increases push
        // the timeout past 2Φ + Δ for any fixed Φ, Δ.
        let mut t =
            TimeoutTable::additive(1, SimDuration::from_millis(1), SimDuration::from_millis(7));
        let bound = SimDuration::from_millis(1000);
        let mut steps = 0;
        while t.get(ProcessId(0)) <= bound {
            t.increase(ProcessId(0));
            steps += 1;
            assert!(steps < 10_000);
        }
        assert!(t.get(ProcessId(0)) > bound);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_initial_rejected() {
        let _ = TimeoutTable::additive(1, SimDuration::ZERO, SimDuration::from_millis(1));
    }

    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

    impl Watch {
        /// Nothing is watched and nothing is armed, or the armed instant
        /// ≤ every watched peer's due instant.
        fn invariant_holds(&self) -> bool {
            match (self.watched.iter().map(|q| self.due(q)).min(), self.armed) {
                (None, None) => true,
                (Some(due), Some(at)) => at <= due,
                _ => false,
            }
        }
    }

    /// A component that is nothing but a [`Watch`] (10 ms timeouts,
    /// +5 ms per increase), driven from the test through `at`; it logs
    /// every fire and asserts the invariant after every callback.
    struct Probe {
        watch: Watch,
        /// Whom `on_start` watches.
        initially: ProcessSet,
        fires: Vec<(Time, Vec<ProcessId>)>,
    }

    impl Component for Probe {
        type Msg = NoMsg;
        fn ns(&self) -> u32 {
            99
        }
        fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, NoMsg>) {
            self.watch.watch_only(ctx, self.initially.clone());
        }
        fn on_message<N: SimMessage>(
            &mut self,
            _: &mut SubCtx<'_, '_, N, NoMsg>,
            _: ProcessId,
            msg: NoMsg,
        ) {
            match msg {}
        }
        fn on_timer<N: SimMessage>(
            &mut self,
            ctx: &mut SubCtx<'_, '_, N, NoMsg>,
            kind: u32,
            _: u64,
        ) {
            assert_eq!(kind, Watch::TIMER);
            let expired = self.watch.fire(ctx);
            self.fires.push((ctx.now(), expired.to_vec()));
            assert!(
                self.watch.invariant_holds(),
                "after a fire: {:?}",
                self.watch
            );
        }
    }

    fn probe(slots: usize, initially: &[usize]) -> World<Standalone<Probe>> {
        WorldBuilder::new(NetworkConfig::new(1)).build(|_, _| {
            Standalone(Probe {
                watch: Watch::new(4, slots, MS(10), MS(5)),
                initially: peers(initially),
                fires: Vec::new(),
            })
        })
    }

    /// Run to `ms`, then call `f` on the watch with a live context.
    fn at(
        w: &mut World<Standalone<Probe>>,
        ms: u64,
        f: impl FnOnce(&mut Watch, &mut SubCtx<'_, '_, NoMsg, NoMsg>),
    ) {
        w.run_until_time(Time::from_millis(ms));
        w.interact(ProcessId(0), |probe, ctx| {
            f(
                &mut probe.watch,
                &mut SubCtx::new(ctx, &std::convert::identity, 99),
            );
            assert!(
                probe.watch.invariant_holds(),
                "at {ms} ms: {:?}",
                probe.watch
            );
        });
    }

    /// The fires that reported somebody, as (µs, peers).
    fn reports(w: &World<Standalone<Probe>>) -> Vec<(u64, Vec<usize>)> {
        (w.actor(ProcessId(0)).fires.iter())
            .filter(|(_, who)| !who.is_empty())
            .map(|(t, who)| (t.ticks(), who.iter().map(|q| q.index()).collect()))
            .collect()
    }

    fn peers(ids: &[usize]) -> ProcessSet {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    #[test]
    fn a_silent_peer_is_reported_one_tick_past_its_timeout() {
        let mut w = probe(4, &[1, 2]);
        // p1 keeps talking every 4 ms, p2 says nothing after 3 ms.
        at(&mut w, 3, |watch, ctx| watch.heard(ProcessId(2), ctx.now()));
        for ms in [4, 8, 12, 16, 20] {
            at(&mut w, ms, |watch, ctx| {
                watch.heard(ProcessId(1), ctx.now())
            });
        }
        w.run_until_time(Time::from_millis(40));
        assert_eq!(
            reports(&w),
            vec![(13_001, vec![2]), (30_001, vec![1])],
            "each at last_heard + timeout + 1 tick"
        );
        // Lazily: hearing from a peer armed nothing. Four fires in all
        // (10.001 and 22.001 found nobody due), not one per message.
        assert_eq!(w.actor(ProcessId(0)).fires.len(), 4);
    }

    #[test]
    fn nothing_watched_means_nothing_armed() {
        let mut w = probe(4, &[]);
        w.run_until_time(Time::from_millis(50));
        assert!(w.actor(ProcessId(0)).fires.is_empty());
        // The last watched peer expires: no re-arm at a deadline already
        // past (which would be a zero-delay loop), and no fire after it.
        at(&mut w, 50, |watch, ctx| watch.watch(ctx, ProcessId(3)));
        w.run_until_time(Time::from_millis(200));
        assert_eq!(reports(&w), vec![(60_001, vec![3])]);
        assert_eq!(w.actor(ProcessId(0)).fires.len(), 1);
        // Watching again arms again.
        at(&mut w, 200, |watch, ctx| watch.watch(ctx, ProcessId(3)));
        w.run_until_time(Time::from_millis(300));
        assert_eq!(reports(&w).last(), Some(&(210_001, vec![3])));
    }

    #[test]
    fn a_newly_watched_peer_with_a_smaller_timeout_undercuts_the_armed_timer() {
        let mut w = probe(4, &[]);
        at(&mut w, 0, |watch, ctx| {
            for _ in 0..6 {
                watch.timeouts.increase(ProcessId(1)); // 40 ms
            }
            watch.watch(ctx, ProcessId(1));
        });
        // Armed at 40.001 for p1. p2 (10 ms) joins at 5 ms: due 15.001.
        at(&mut w, 5, |watch, ctx| watch.watch(ctx, ProcessId(2)));
        w.run_until_time(Time::from_millis(100));
        assert_eq!(
            reports(&w),
            vec![(15_001, vec![2]), (40_001, vec![1])],
            "p2 at its own deadline, not at the timer armed for p1"
        );
    }

    #[test]
    fn a_single_slot_watch_follows_its_target_onto_a_smaller_timeout() {
        let mut w = probe(1, &[]);
        at(&mut w, 0, |watch, ctx| {
            for _ in 0..6 {
                watch.timeouts.increase(ProcessId(3)); // 40 ms
            }
            watch.watch_only(ctx, peers(&[3]));
        });
        at(&mut w, 20, |watch, ctx| {
            watch.heard(ProcessId(3), ctx.now())
        });
        // The monitor steps from p3 (due 60.001) onto p2 (10 ms).
        at(&mut w, 25, |watch, ctx| watch.watch_only(ctx, peers(&[2])));
        // Messages from the old target no longer move the one slot.
        at(&mut w, 30, |watch, ctx| {
            watch.heard(ProcessId(3), ctx.now())
        });
        w.run_until_time(Time::from_millis(100));
        assert_eq!(reports(&w), vec![(35_001, vec![2])]);
        // The stale timers (40.001, re-armed nowhere) fired harmlessly.
        assert!(w.actor(ProcessId(0)).watch.armed.is_none());
    }

    #[test]
    fn a_restart_forgets_the_timer_the_epoch_dropped() {
        use fd_sim::chaos::{Intervention, NetChange, RESTART};
        let mut w = probe(4, &[1]);
        w.schedule_crash(ProcessId(0), Time::from_millis(4));
        let restart = Intervention {
            tag: RESTART,
            payload: fd_sim::Payload::Pid(ProcessId(0)),
            change: NetChange::Restart(ProcessId(0)),
        };
        w.schedule_intervention(Time::from_millis(6), restart);
        w.run_until_time(Time::from_millis(30));
        // The timer armed at 10.001 died with the old epoch; `on_start`
        // armed its own, whatever `armed` said.
        assert_eq!(
            w.actor(ProcessId(0)).fires,
            vec![(Time(16_001), peers(&[1]).to_vec())]
        );
    }
}
