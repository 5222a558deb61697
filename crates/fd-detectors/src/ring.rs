//! Ring-based detector in the style of Larrea, Arévalo & Fernández \[15\].
//!
//! Processes are arranged on a logical ring (identity order, wrapping).
//! Each process *polls* its nearest non-suspected predecessor once per
//! period; the predecessor answers with its current suspect list. A
//! target that stays silent past its adaptive timeout is suspected and the
//! poller moves one step further back; a reply from a suspected process
//! revokes the mistake and grows its timeout. Receivers adopt the
//! upstream list for everything outside the ring segment they vouch for
//! locally, so suspicion information circulates around the ring.
//!
//! Properties (checked by the tests and by experiments E4/E6/E7):
//!
//! * strong completeness — a crashed process is suspected by the first
//!   correct successor polling it, and the suspicion propagates with the
//!   circulating lists;
//! * eventual strong accuracy under partial synchrony — a falsely
//!   suspected process is polled directly by its monitor, so its reply
//!   clears the mistake at the source and the fix washes downstream;
//! * the guarantee §3 highlights: eventually the **first non-suspected
//!   process is the same at every correct process and is correct**, which
//!   makes this detector a ◇C base *with good accuracy* at no extra
//!   message cost (wrap it in [`LeaderByFirstNonSuspected`]).
//!
//! Cost: one poll plus one reply per process per period — the `2n`
//! periodic messages §4 quotes for this algorithm. Its *crash-detection
//! latency* is high (suspicion lists must travel the ring hop by hop),
//! which is exactly the drawback §4 attributes to it; experiment E4
//! measures that latency against the heartbeat and Fig. 2 detectors.
//!
//! [`LeaderByFirstNonSuspected`]: crate::omega::LeaderByFirstNonSuspected

use crate::timeout::Watch;
use fd_core::{Component, ProcessSet, SubCtx, SuspectOracle};
use fd_sim::{ProcessId, SimDuration, SimMessage};

/// Configuration of a [`RingDetector`].
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Poll period.
    pub period: SimDuration,
    /// Initial target timeout.
    pub initial_timeout: SimDuration,
    /// Additive timeout increment after a false suspicion.
    pub timeout_increment: SimDuration,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            period: SimDuration::from_millis(10),
            initial_timeout: SimDuration::from_millis(40),
            timeout_increment: SimDuration::from_millis(25),
        }
    }
}

/// Messages of the ring detector.
#[derive(Debug, Clone)]
pub enum RingMsg {
    /// "Are you alive?" — sent to the current monitored predecessor.
    Poll,
    /// Reply to a poll, carrying the responder's suspect list.
    Reply {
        /// The responder's current suspect list.
        suspects: Vec<ProcessId>,
    },
}

impl SimMessage for RingMsg {
    fn kind(&self) -> &'static str {
        match self {
            RingMsg::Poll => fd_obs::keys::RING_POLL,
            RingMsg::Reply { .. } => fd_obs::keys::RING_REPLY,
        }
    }
}

const TIMER_POLL: u32 = 0;

/// Ring-based ◇P-quality failure detector.
#[derive(Debug)]
pub struct RingDetector {
    me: ProcessId,
    n: usize,
    cfg: RingConfig,
    suspected: ProcessSet,
    /// Watches the monitored predecessor, one target at a time.
    watch: Watch,
}

impl RingDetector {
    /// Create the detector for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, cfg: RingConfig) -> RingDetector {
        RingDetector {
            me,
            n,
            watch: Watch::new(n, 1, cfg.initial_timeout, cfg.timeout_increment),
            cfg,
            suspected: ProcessSet::new(),
        }
    }

    /// The nearest predecessor (going backwards on the ring) that this
    /// process does not suspect — the process it currently polls.
    pub fn monitored_predecessor(&self) -> ProcessId {
        let mut p = self.me.predecessor(self.n);
        while p != self.me && self.suspected.contains(p) {
            p = p.predecessor(self.n);
        }
        p
    }

    /// The processes strictly between `from` and `me` going forward on the
    /// ring — the segment this process vouches for locally (its failed
    /// predecessor candidates).
    fn between(&self, from: ProcessId) -> ProcessSet {
        let mut set = ProcessSet::new();
        let mut p = from.successor(self.n);
        while p != self.me {
            set.insert(p);
            p = p.successor(self.n);
        }
        set
    }

    fn emit<N: SimMessage>(&self, ctx: &mut SubCtx<'_, '_, N, RingMsg>) {
        ctx.observe(
            fd_core::obs::SUSPECTS,
            // fd-lint: allow(HP002, reason = "emit fires only when the suspect set changes, not per message")
            fd_sim::Payload::Pids(self.suspected.to_vec()),
        );
    }

    fn poll_target<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, RingMsg>) {
        let target = self.monitored_predecessor();
        if target != self.me {
            ctx.send(target, RingMsg::Poll);
        }
        // Reintegration retry: also poll the suspected processes this
        // detector skipped over on its way back to `target`. A falsely
        // suspected process proves itself alive by answering, but any
        // single Poll or Reply can be lost pre-GST — without a retry on
        // every poll tick, one dropped repair message leaves the false
        // suspicion in place forever and ◇-accuracy fails. Crash-free
        // steady state has an empty skipped segment, so the paper's
        // 2n-messages-per-period cost is unchanged.
        //
        // When `target == me` the detector suspects *every* other
        // process (e.g. it just sat out a total partition); the skipped
        // segment is then everyone, and polling them is the only way
        // out — only a Reply revokes a suspicion, and Replies only
        // answer Polls. Bailing out here instead deadlocks the view
        // permanently, and worse, the wedged list then recirculates to
        // downstream adopters. Found by the chaos campaign (see
        // fd-chaos CATALOG.md, "minority partition" entry).
        for q in self.between(target).iter() {
            ctx.send(q, RingMsg::Poll);
        }
    }

    fn adopt_list<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, RingMsg>,
        from: ProcessId,
        list: Vec<ProcessId>,
    ) {
        // Keep the local view for the ring segment we monitor ourselves
        // (the processes strictly between the responder and us); adopt the
        // upstream view for everyone else. Never suspect ourselves or the
        // (evidently alive) responder. In steady state the responder is
        // the direct predecessor and its list is ours: nothing to merge.
        if list.iter().copied().eq(self.suspected.iter()) {
            return;
        }
        // fd-lint: allow(HP002, reason = "one set per poll reply, paced by the poll timer")
        let upstream: ProcessSet = list.iter().collect();
        let local_segment = self.between(from);
        let mut next = (upstream - &local_segment) | (&self.suspected & &local_segment);
        next.remove(self.me);
        next.remove(from);
        if next != self.suspected {
            self.suspected = next;
            self.emit(ctx);
        }
    }
}

impl SuspectOracle for RingDetector {
    fn suspected(&self) -> ProcessSet {
        self.suspected.clone()
    }
}

impl Component for RingDetector {
    type Msg = RingMsg;

    fn ns(&self) -> u32 {
        crate::ns::RING
    }

    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, RingMsg>) {
        self.poll_target(ctx);
        ctx.set_timer(self.cfg.period, TIMER_POLL, 0);
        self.watch
            .watch_only(ctx, ProcessSet::singleton(self.monitored_predecessor()));
        self.emit(ctx);
    }

    // fd-lint: hot_path
    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, RingMsg>,
        from: ProcessId,
        msg: RingMsg,
    ) {
        match msg {
            RingMsg::Poll => {
                ctx.send(
                    from,
                    RingMsg::Reply {
                        // fd-lint: allow(HP002, reason = "one suspect snapshot per poll reply, paced by the poll timer")
                        suspects: self.suspected.to_vec(),
                    },
                );
            }
            RingMsg::Reply { suspects } => {
                if self.suspected.remove(from) {
                    // False suspicion revoked: grow the timeout so the
                    // mistake is eventually never repeated (the
                    // ◇-accuracy mechanism).
                    self.watch.timeouts.increase(from);
                    // Moving the monitor forward again: fresh window.
                    self.watch
                        .watch_only(ctx, ProcessSet::singleton(self.monitored_predecessor()));
                    self.emit(ctx);
                }
                if self.monitored_predecessor() == from {
                    self.watch.heard(from, ctx.now());
                    self.adopt_list(ctx, from, suspects);
                }
            }
        }
    }

    // fd-lint: hot_path
    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, RingMsg>,
        kind: u32,
        _data: u64,
    ) {
        match kind {
            TIMER_POLL => {
                self.poll_target(ctx);
                ctx.set_timer(self.cfg.period, TIMER_POLL, 0);
            }
            Watch::TIMER => {
                if let Some(target) = self.watch.fire(ctx).first() {
                    self.suspected.insert(target);
                    // Give the next candidate a fresh monitoring window
                    // and poll it immediately.
                    self.watch
                        .watch_only(ctx, ProcessSet::singleton(self.monitored_predecessor()));
                    self.poll_target(ctx);
                    self.emit(ctx);
                }
            }
            // fd-lint: allow(HP001, reason = "timer kinds are set only by this detector; an unknown kind is a corrupted world and must halt loudly")
            _ => unreachable!("unknown ring timer kind {kind}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{FdClass, FdRun, Standalone};
    use fd_sim::{LinkModel, NetworkConfig, Time, WorldBuilder};

    fn run_ring(
        n: usize,
        crashes: &[(usize, u64)],
        horizon_ms: u64,
        seed: u64,
    ) -> (fd_sim::Trace, fd_sim::Metrics, Time) {
        let net = NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
        ));
        let mut b = WorldBuilder::new(net).seed(seed);
        for &(pid, at) in crashes {
            b = b.crash_at(ProcessId(pid), Time::from_millis(at));
        }
        let mut w = b.build(|pid, n| Standalone(RingDetector::new(pid, n, RingConfig::default())));
        let end = Time::from_millis(horizon_ms);
        w.run_until_time(end);
        let (trace, metrics) = w.into_results();
        (trace, metrics, end)
    }

    #[test]
    fn ring_topology_helpers() {
        let mut d = RingDetector::new(ProcessId(2), 5, RingConfig::default());
        assert_eq!(d.monitored_predecessor(), ProcessId(1));
        d.suspected.insert(ProcessId(1));
        assert_eq!(d.monitored_predecessor(), ProcessId(0));
        // between(4) for me=2 wraps: {0, 1}.
        let seg = d.between(ProcessId(4));
        assert_eq!(seg.to_vec(), vec![ProcessId(0), ProcessId(1)]);
        assert!(d.between(ProcessId(1)).is_empty());
    }

    #[test]
    fn crash_free_run_is_eventually_perfect() {
        let (trace, _, end) = run_ring(5, &[], 1000, 21);
        FdRun::new(&trace, 5, end)
            .check_class(FdClass::EventuallyPerfect)
            .unwrap();
    }

    #[test]
    fn single_crash_propagates_to_everyone() {
        let (trace, _, end) = run_ring(6, &[(3, 150)], 2000, 22);
        let run = FdRun::new(&trace, 6, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        for p in [0usize, 1, 2, 4, 5] {
            assert_eq!(
                run.final_suspects(ProcessId(p)),
                ProcessSet::singleton(ProcessId(3)),
                "p{p} final view"
            );
        }
    }

    #[test]
    fn adjacent_crashes_are_skipped_over() {
        // p1 and p2 crash: p3 must walk its monitor back to p0 and the
        // whole ring must converge on {p1, p2}.
        let (trace, _, end) = run_ring(5, &[(1, 100), (2, 120)], 3000, 23);
        let run = FdRun::new(&trace, 5, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        let expected: ProcessSet = [ProcessId(1), ProcessId(2)].into_iter().collect();
        for p in [0usize, 3, 4] {
            assert_eq!(run.final_suspects(ProcessId(p)), expected, "p{p}");
        }
    }

    #[test]
    fn crash_just_behind_a_crash_converges() {
        // The regression that motivated the poll design: a correct process
        // sandwiched after a crashed one must not stay suspected forever.
        let (trace, _, end) = run_ring(6, &[(0, 100), (2, 150)], 4000, 24);
        let run = FdRun::new(&trace, 6, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        let expected: ProcessSet = [ProcessId(0), ProcessId(2)].into_iter().collect();
        for p in [1usize, 3, 4, 5] {
            assert_eq!(run.final_suspects(ProcessId(p)), expected, "p{p}");
        }
    }

    #[test]
    fn steady_state_cost_is_2n_per_period() {
        let n = 6;
        let net = NetworkConfig::new(n)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(2)));
        let mut w = WorldBuilder::new(net)
            .seed(25)
            .build(|pid, n| Standalone(RingDetector::new(pid, n, RingConfig::default())));
        w.run_until_time(Time::from_millis(500));
        let before = w.metrics().sent_total();
        w.run_until_time(Time::from_millis(1500));
        let per_period = (w.metrics().sent_total() - before) as f64 / 100.0;
        let expected = 2.0 * n as f64;
        assert!(
            (per_period - expected).abs() <= expected * 0.15,
            "measured {per_period} msgs/period, expected ≈{expected} (the paper's 2n)"
        );
    }

    #[test]
    fn first_non_suspected_is_common_and_correct() {
        // The §3 property that makes the ring a good ◇C base.
        let (trace, _, end) = run_ring(6, &[(0, 100), (2, 150)], 4000, 25);
        let run = FdRun::new(&trace, 6, end);
        let mut firsts = Vec::new();
        for p in run.correct().iter() {
            let first = run.final_suspects(p).complement(6).first().unwrap();
            firsts.push(first);
        }
        firsts.dedup();
        assert_eq!(
            firsts,
            vec![ProcessId(1)],
            "all correct agree on first non-suspected"
        );
    }

    #[test]
    fn survives_partial_synchrony_chaos() {
        let n = 4;
        let net = NetworkConfig::partially_synchronous(
            n,
            Time::from_millis(400),
            SimDuration::from_millis(4),
            SimDuration::from_millis(150),
            0.4,
        );
        let mut w = WorldBuilder::new(net)
            .seed(26)
            .crash_at(ProcessId(1), Time::from_millis(700))
            .build(|pid, n| Standalone(RingDetector::new(pid, n, RingConfig::default())));
        let end = Time::from_secs(5);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        FdRun::new(&trace, n, end)
            .check_class(FdClass::EventuallyPerfect)
            .unwrap();
    }

    /// Regression for the total-isolation deadlock found by the chaos
    /// campaign: a process cut off from everyone comes to suspect the
    /// whole ring, at which point `monitored_predecessor() == me`. If
    /// the poller bails out in that state it sends no Polls, receives
    /// no Replies, and can never revoke a suspicion again — its wedged
    /// list then recirculates via `adopt_list` to its downstream
    /// monitor, which re-suspects correct processes forever.
    #[test]
    fn total_isolation_heals_after_partition() {
        use fd_sim::chaos::{self, Intervention, NetChange};
        let n = 4;
        let isolated = ProcessId(3);
        let net = NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
        ));
        let cut: Vec<_> = (0..n)
            .filter(|&p| p != isolated.index())
            .flat_map(|p| {
                [
                    (ProcessId(p), isolated, LinkModel::Dead),
                    (isolated, ProcessId(p), LinkModel::Dead),
                ]
            })
            .collect();
        let heal: Vec<_> = cut
            .iter()
            .map(|&(a, b, _)| {
                (
                    a,
                    b,
                    LinkModel::reliable_uniform(
                        SimDuration::from_millis(1),
                        SimDuration::from_millis(3),
                    ),
                )
            })
            .collect();
        let mut w = WorldBuilder::new(net)
            .seed(27)
            .build(|pid, n| Standalone(RingDetector::new(pid, n, RingConfig::default())));
        w.schedule_intervention(
            Time::from_millis(200),
            Intervention {
                tag: chaos::PARTITION,
                payload: fd_sim::Payload::None,
                change: NetChange::SetLinks(cut),
            },
        );
        w.schedule_intervention(
            Time::from_millis(600),
            Intervention {
                tag: chaos::HEAL,
                payload: fd_sim::Payload::None,
                change: NetChange::SetLinks(heal),
            },
        );
        let end = Time::from_secs(4);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        let run = FdRun::new(&trace, n, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        for p in 0..n {
            assert!(
                run.final_suspects(ProcessId(p)).is_empty(),
                "p{p} still suspects {:?} long after the heal",
                run.final_suspects(ProcessId(p))
            );
        }
    }

    /// Regression for the post-GST reintegration liveness bug: a false
    /// suspicion is revoked by a Reply from the suspect, but pre-GST the
    /// network may drop that Reply (or the Poll that would elicit it).
    /// `poll_target` must therefore re-poll the skipped segment every
    /// period — with only a single repair attempt, one lost message
    /// leaves the false suspicion in place forever and strong accuracy
    /// never becomes permanent.
    #[test]
    fn reintegration_retries_after_dropped_repair() {
        for seed in [7u64, 26, 91, 123, 4096] {
            let n = 4;
            let net = NetworkConfig::partially_synchronous(
                n,
                Time::from_millis(400),
                SimDuration::from_millis(4),
                SimDuration::from_millis(150),
                0.4,
            );
            let mut w = WorldBuilder::new(net)
                .seed(seed)
                .crash_at(ProcessId(1), Time::from_millis(700))
                .build(|pid, n| Standalone(RingDetector::new(pid, n, RingConfig::default())));
            let end = Time::from_secs(5);
            w.run_until_time(end);
            let (trace, _) = w.into_results();
            FdRun::new(&trace, n, end)
                .check_class(FdClass::EventuallyPerfect)
                .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        }
    }
}
