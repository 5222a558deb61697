//! Stable leader election, in the style of Aguilera, Delporte-Gallet,
//! Fauconnier & Toueg \[2\] (*Stable leader election*, DISC 2001), which
//! §1.1 highlights: "once a leader is elected, it remains the leader for
//! as long as it does not crash and its links behave well."
//!
//! The candidate detector of \[16\] ([`LeaderDetector`]) always trusts the
//! *smallest-id* unsuspected process, so a falsely suspected p₀ snatches
//! leadership back the moment communication recovers — every flap costs
//! the consensus layer a coordinator change. The stable variant ranks
//! candidates by **(punish-count, id)**: every false suspicion of a
//! process permanently demotes it, so a leader that keeps its links
//! healthy is never displaced by a lower-id process with a spottier
//! history.
//!
//! Mechanics: all-to-all heartbeats (n(n−1) per period — stability is
//! bought with the ◇P-grade communication pattern) carrying the
//! sender's punish vector; receivers merge vectors element-wise by max
//! (counters are monotone, so gossip converges); a timeout on q bumps
//! `punish[q]`; `leader = argmin (punish[q], q)` over currently
//! unsuspected processes. The suspect output is the timeout set, so the
//! module is a full ◇C (indeed ◇P-quality) detector with stability on
//! top. Experiment E9 measures the flap-rate difference.
//!
//! [`LeaderDetector`]: crate::leader::LeaderDetector

use crate::timeout::Watch;
use fd_core::{Component, LeaderOracle, ProcessSet, SubCtx, SuspectOracle};
use fd_sim::{ProcessId, SimDuration, SimMessage};
use std::rc::Rc;

/// Configuration of a [`StableLeaderDetector`].
#[derive(Debug, Clone)]
pub struct StableLeaderConfig {
    /// Heartbeat period.
    pub period: SimDuration,
    /// Initial per-peer timeout.
    pub initial_timeout: SimDuration,
    /// Additive timeout increment after a false suspicion.
    pub timeout_increment: SimDuration,
}

impl Default for StableLeaderConfig {
    fn default() -> Self {
        StableLeaderConfig {
            period: SimDuration::from_millis(10),
            initial_timeout: SimDuration::from_millis(40),
            timeout_increment: SimDuration::from_millis(25),
        }
    }
}

/// Heartbeat carrying the sender's punish vector.
#[derive(Debug, Clone)]
pub struct StableAlive {
    /// The sender's current (gossiped) punish counters, indexed by
    /// process id. Shared by every copy of the broadcast and by the
    /// sender, which replaces its vector when a counter rises.
    pub punish: Rc<[u64]>,
}

impl SimMessage for StableAlive {
    fn kind(&self) -> &'static str {
        fd_obs::keys::STABLE_ALIVE
    }
}

const TIMER_SEND: u32 = 0;

/// Stable Ω/◇C detector: leadership ranked by `(punish, id)`.
#[derive(Debug)]
pub struct StableLeaderDetector {
    me: ProcessId,
    n: usize,
    cfg: StableLeaderConfig,
    punish: Rc<[u64]>,
    suspected: ProcessSet,
    watch: Watch,
    leader: ProcessId,
    /// Leadership changes observed locally (instrumentation for E9).
    changes: u64,
}

impl StableLeaderDetector {
    /// Create the detector for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, cfg: StableLeaderConfig) -> StableLeaderDetector {
        StableLeaderDetector {
            me,
            n,
            watch: Watch::new(n, n, cfg.initial_timeout, cfg.timeout_increment),
            cfg,
            punish: vec![0; n].into(),
            suspected: ProcessSet::new(),
            leader: ProcessId(0),
            changes: 0,
        }
    }

    /// Number of local leadership changes so far.
    pub fn leadership_changes(&self) -> u64 {
        self.changes
    }

    fn compute_leader(&self) -> ProcessId {
        // argmin (punish, id) over unsuspected processes; fall back to
        // self if everything is suspected (cannot happen for `me`).
        (0..self.n)
            .map(ProcessId)
            .filter(|q| !self.suspected.contains(*q))
            .min_by_key(|q| (self.punish[q.index()], q.index()))
            .unwrap_or(self.me)
    }

    fn refresh_leader<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, StableAlive>) {
        let next = self.compute_leader();
        if next != self.leader {
            self.leader = next;
            self.changes += 1;
            ctx.observe(fd_core::obs::TRUSTED, fd_sim::Payload::Pid(next));
        }
    }

    fn emit_suspects<N: SimMessage>(&self, ctx: &mut SubCtx<'_, '_, N, StableAlive>) {
        ctx.observe(
            fd_core::obs::SUSPECTS,
            fd_sim::Payload::Pids(self.suspected.to_vec()),
        );
    }
}

impl SuspectOracle for StableLeaderDetector {
    fn suspected(&self) -> ProcessSet {
        self.suspected.clone()
    }
}

impl LeaderOracle for StableLeaderDetector {
    fn trusted(&self) -> ProcessId {
        self.leader
    }
}

impl Component for StableLeaderDetector {
    type Msg = StableAlive;

    fn ns(&self) -> u32 {
        crate::ns::STABLE_LEADER
    }

    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, StableAlive>) {
        self.leader = self.compute_leader();
        ctx.observe(fd_core::obs::TRUSTED, fd_sim::Payload::Pid(self.leader));
        self.emit_suspects(ctx);
        ctx.send_to_others(StableAlive {
            punish: self.punish.clone(),
        });
        ctx.set_timer(self.cfg.period, TIMER_SEND, 0);
        self.watch
            .watch_only(ctx, self.suspected.complement(self.n));
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, StableAlive>,
        from: ProcessId,
        msg: StableAlive,
    ) {
        self.watch.heard(from, ctx.now());
        // Merge punish vectors (monotone max-gossip). The leader is a
        // function of the counters and the suspect set: it is looked
        // for again only when one of them moved.
        let both = || msg.punish.iter().zip(self.punish.iter());
        let raised = both().any(|(theirs, mine)| theirs > mine);
        if raised {
            self.punish = both().map(|(theirs, mine)| *theirs.max(mine)).collect();
        }
        let revoked = self.suspected.remove(from);
        if revoked {
            self.watch.timeouts.increase(from);
            self.watch.watch(ctx, from);
            self.emit_suspects(ctx);
        }
        if raised || revoked {
            self.refresh_leader(ctx);
        }
    }

    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, StableAlive>,
        kind: u32,
        _data: u64,
    ) {
        match kind {
            TIMER_SEND => {
                ctx.send_to_others(StableAlive {
                    punish: self.punish.clone(),
                });
                ctx.set_timer(self.cfg.period, TIMER_SEND, 0);
            }
            Watch::TIMER => {
                let expired = self.watch.fire(ctx);
                if !expired.is_empty() {
                    self.suspected.extend(expired.iter());
                    // The demotion that buys stability: a process
                    // that ever times out is permanently ranked
                    // behind every process that never did.
                    let punish = Rc::make_mut(&mut self.punish);
                    for q in expired.iter() {
                        punish[q.index()] += 1;
                    }
                    self.emit_suspects(ctx);
                    self.refresh_leader(ctx);
                }
            }
            _ => unreachable!("unknown stable-leader timer kind {kind}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{FdClass, FdRun, Standalone};
    use fd_sim::{LinkModel, NetworkConfig, Time, WorldBuilder};

    impl StableLeaderDetector {
        /// The punish count currently recorded for `q`.
        fn punish_count(&self, q: ProcessId) -> u64 {
            self.punish[q.index()]
        }
    }

    fn jitter_net(n: usize) -> NetworkConfig {
        NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
        ))
    }

    #[test]
    fn stable_detector_is_ec_and_ep() {
        let n = 5;
        let mut w = WorldBuilder::new(jitter_net(n))
            .seed(91)
            .crash_at(ProcessId(0), Time::from_millis(200))
            .build(|pid, n| {
                Standalone(StableLeaderDetector::new(
                    pid,
                    n,
                    StableLeaderConfig::default(),
                ))
            });
        let end = Time::from_secs(4);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        let run = FdRun::new(&trace, n, end);
        run.check_class(FdClass::EventuallyConsistent).unwrap();
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        for p in 1..n {
            assert_eq!(run.final_trusted(ProcessId(p)), Some(ProcessId(1)));
        }
    }

    #[test]
    fn flaky_leader_is_demoted_permanently() {
        // p0's outgoing links lose 80% of messages: its heartbeats arrive
        // in streaky gaps and it times out at the others repeatedly. The
        // stable detector must settle on a leader with healthy links (p1)
        // and NOT flap back to p0.
        let n = 4;
        let lossy = LinkModel::fair_lossy(
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
            0.8,
        );
        let mut net = jitter_net(n);
        for i in 1..n {
            net = net.with_link(ProcessId(0), ProcessId(i), lossy.clone());
        }
        let mut w = WorldBuilder::new(net).seed(92).build(|pid, n| {
            Standalone(StableLeaderDetector::new(
                pid,
                n,
                StableLeaderConfig::default(),
            ))
        });
        w.run_until_time(Time::from_secs(10));
        // Someone punished p0 at least once and gossip spread it.
        let punished = (1..n).all(|i| w.actor(ProcessId(i)).punish_count(ProcessId(0)) >= 1);
        if punished {
            for i in 1..n {
                assert_eq!(
                    w.actor(ProcessId(i)).trusted(),
                    ProcessId(1),
                    "leadership must settle on the healthy p1"
                );
            }
        }
        // Either way the run must end with a common leader.
        let leaders: Vec<ProcessId> = (1..n).map(|i| w.actor(ProcessId(i)).trusted()).collect();
        assert!(
            leaders.windows(2).all(|w| w[0] == w[1]),
            "split leadership: {leaders:?}"
        );
    }

    #[test]
    fn punish_counters_gossip_by_max() {
        let n = 3;
        let mut w = WorldBuilder::new(jitter_net(n))
            .seed(93)
            .crash_at(ProcessId(2), Time::from_millis(100))
            .build(|pid, n| {
                Standalone(StableLeaderDetector::new(
                    pid,
                    n,
                    StableLeaderConfig::default(),
                ))
            });
        w.run_until_time(Time::from_secs(2));
        // Both survivors punished the crashed p2 and agree via gossip.
        let a = w.actor(ProcessId(0)).punish_count(ProcessId(2));
        let b = w.actor(ProcessId(1)).punish_count(ProcessId(2));
        assert!(a >= 1 && b >= 1);
        assert_eq!(a, b, "max-gossip must converge");
    }

    #[test]
    fn stability_beats_the_plain_candidate_detector_under_flaps() {
        // Same spiky-p0 scenario, both detectors: the stable one changes
        // leaders at most a handful of times; the plain one flaps back to
        // p0 after every recovery.
        use crate::leader::{LeaderConfig, LeaderDetector};
        let n = 4;
        let lossy = LinkModel::fair_lossy(
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
            0.8,
        );
        let mk_net = || {
            let mut net = jitter_net(n);
            for i in 1..n {
                net = net.with_link(ProcessId(0), ProcessId(i), lossy.clone());
            }
            net
        };
        let end = Time::from_secs(30);

        let mut w = WorldBuilder::new(mk_net()).seed(94).build(|pid, n| {
            Standalone(StableLeaderDetector::new(
                pid,
                n,
                StableLeaderConfig::default(),
            ))
        });
        w.run_until_time(end);
        let (stable_trace, _) = w.into_results();

        let mut w = WorldBuilder::new(mk_net())
            .seed(94)
            .build(|pid, n| Standalone(LeaderDetector::new(pid, n, LeaderConfig::default())));
        w.run_until_time(end);
        let (plain_trace, _) = w.into_results();

        let changes = |trace: &fd_sim::Trace| -> usize {
            (1..n)
                .map(|i| {
                    FdRun::new(trace, n, end)
                        .trusted_history(ProcessId(i))
                        .len()
                })
                .sum()
        };
        let stable_changes = changes(&stable_trace);
        let plain_changes = changes(&plain_trace);
        assert!(
            stable_changes < plain_changes,
            "stable detector must flap less: stable={stable_changes} plain={plain_changes}"
        );
    }
}
