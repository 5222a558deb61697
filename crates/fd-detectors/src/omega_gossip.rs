//! Ω from any ◇W/◇S detector by accusation-counter gossip — the
//! reduction of Chandra, Hadzilacos & Toueg \[5\] / Chu \[7\] that §3 cites
//! and criticizes: "expensive in the number of messages exchanged, since
//! they require that every process send messages periodically to all
//! processes in the system."
//!
//! Every period, each process increments an *accusation counter* for
//! every process its local detector currently suspects, then broadcasts
//! its counter vector; receivers merge element-wise by max. The leader
//! is `argmin (counter[q], q)`:
//!
//! * a crashed process is eventually permanently suspected by **some**
//!   correct process (weak completeness suffices!), so its counter grows
//!   without bound and it eventually loses to every correct process;
//! * the eventually-unsuspected correct process of ◇W/◇S accuracy has a
//!   bounded counter;
//! * max-gossip makes all correct processes see the same monotone
//!   counter sequences, so the argmin eventually stabilizes to the same
//!   correct process everywhere — Property 1.
//!
//! Cost: `n(n−1)` messages per period, versus `n−1` for the candidate
//! algorithm of \[16\] — experiment E10 measures the gap that motivates
//! the paper's "fortunately, there are ◇S failure detectors that can be
//! used to build a ◇C failure detector at no additional cost."

use fd_core::{LeaderOracle, Over, SubCtx, SuspectOracle};
use fd_sim::{ProcessId, SimDuration, SimMessage, TimerTag};

/// Configuration of the [`OmegaGossip`] reduction.
#[derive(Debug, Clone)]
pub struct OmegaGossipConfig {
    /// Accusation + gossip period.
    pub period: SimDuration,
}

impl Default for OmegaGossipConfig {
    fn default() -> Self {
        OmegaGossipConfig {
            period: SimDuration::from_millis(10),
        }
    }
}

/// Gossip message carrying accusation counters.
#[derive(Debug, Clone)]
pub struct GossipMsg(pub Vec<u64>);

impl SimMessage for GossipMsg {
    fn kind(&self) -> &'static str {
        fd_obs::keys::OMEGA_GOSSIP
    }
}

const TIMER_GOSSIP: u32 = 0;

/// The counter-gossip Ω module: the upper half of a
/// [`Stack`](fd_core::Stack) over any suspect-based detector `D` — suspects
/// from `D`, `trusted` from the gossip, together a ◇C detector.
#[derive(Debug)]
pub struct OmegaGossip {
    me: ProcessId,
    n: usize,
    cfg: OmegaGossipConfig,
    counters: Vec<u64>,
    leader: ProcessId,
    emitted_initial: bool,
}

impl OmegaGossip {
    /// Create the module for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, cfg: OmegaGossipConfig) -> OmegaGossip {
        OmegaGossip {
            me,
            n,
            cfg,
            counters: vec![0; n],
            leader: ProcessId(0),
            emitted_initial: false,
        }
    }

    /// The accusation counter currently recorded for `q`.
    pub fn counter(&self, q: ProcessId) -> u64 {
        self.counters[q.index()]
    }

    fn compute_leader(&self) -> ProcessId {
        (0..self.n)
            .map(ProcessId)
            .min_by_key(|q| (self.counters[q.index()], q.index()))
            .expect("n > 0")
    }

    fn refresh<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, GossipMsg>) {
        let next = self.compute_leader();
        if next != self.leader || !self.emitted_initial {
            self.leader = next;
            self.emitted_initial = true;
            ctx.observe(fd_core::obs::TRUSTED, fd_sim::Payload::Pid(next));
        }
    }
}

impl<D: SuspectOracle> Over<D> for OmegaGossip {
    type Msg = GossipMsg;

    fn ns(&self) -> u32 {
        crate::ns::OMEGA_GOSSIP
    }

    /// Startup: arm the gossip timer.
    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, GossipMsg>, _fd: &D) {
        ctx.set_timer(self.cfg.period, TIMER_GOSSIP, 0);
        self.refresh(ctx);
    }

    /// Merge a peer's counters.
    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, GossipMsg>,
        _from: ProcessId,
        msg: GossipMsg,
        _fd: &D,
    ) {
        for (mine, theirs) in self.counters.iter_mut().zip(msg.0.iter()) {
            *mine = (*mine).max(*theirs);
        }
        self.refresh(ctx);
    }

    /// Periodic accusation of everyone the local detector currently
    /// suspects, then gossip.
    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, GossipMsg>,
        tag: TimerTag,
        fd: &D,
    ) {
        debug_assert_eq!(tag.kind, TIMER_GOSSIP);
        for q in fd.suspected().iter() {
            if q != self.me {
                self.counters[q.index()] += 1;
            }
        }
        ctx.send_to_others(GossipMsg(self.counters.clone()));
        ctx.set_timer(self.cfg.period, TIMER_GOSSIP, 0);
        self.refresh(ctx);
    }
}

impl LeaderOracle for OmegaGossip {
    fn trusted(&self) -> ProcessId {
        self.leader
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heartbeat::{HeartbeatConfig, HeartbeatDetector};
    use fd_core::{FdClass, FdRun, ProcessSet, Stack};
    use fd_sim::{LinkModel, NetworkConfig, Time, WorldBuilder};

    type Node = Stack<HeartbeatDetector, OmegaGossip>;

    fn jitter_net(n: usize) -> NetworkConfig {
        NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
        ))
    }

    /// Ω over a full heartbeat ◇P source.
    fn ep_node(pid: ProcessId, n: usize) -> Node {
        Stack::new(
            HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
            OmegaGossip::new(pid, n, OmegaGossipConfig::default()),
        )
    }

    /// Ω over a neighbour-monitoring ◇W source (weak completeness only).
    fn weak_node(pid: ProcessId, n: usize) -> Node {
        Stack::new(
            HeartbeatDetector::restricted(
                pid,
                n,
                HeartbeatConfig::default(),
                ProcessSet::singleton(pid.predecessor(n)),
                ProcessSet::singleton(pid.successor(n)),
            ),
            OmegaGossip::new(pid, n, OmegaGossipConfig::default()),
        )
    }

    #[test]
    fn gossip_omega_over_a_strong_source() {
        let n = 5;
        let mut w = WorldBuilder::new(jitter_net(n))
            .seed(101)
            .crash_at(ProcessId(0), Time::from_millis(200))
            .build(ep_node);
        let end = Time::from_secs(5);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        let run = FdRun::new(&trace, n, end);
        run.check_class(FdClass::Omega).unwrap();
        run.check_class(FdClass::EventuallyConsistent).unwrap();
        for p in 1..n {
            assert_eq!(run.final_trusted(ProcessId(p)), Some(ProcessId(1)));
        }
    }

    #[test]
    fn gossip_omega_works_from_weak_completeness_alone() {
        // The source only gives weak completeness — only p1 (the ring
        // monitor) ever suspects the crashed p2 — but the accusation
        // counters still drive p2's rank up everywhere.
        let n = 5;
        let mut w = WorldBuilder::new(jitter_net(n))
            .seed(102)
            .crash_at(ProcessId(0), Time::from_millis(150))
            .build(weak_node);
        let end = Time::from_secs(5);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        let run = FdRun::new(&trace, n, end);
        run.check_class(FdClass::Omega).unwrap();
        for p in 1..n {
            assert_eq!(run.final_trusted(ProcessId(p)), Some(ProcessId(1)));
        }
    }

    #[test]
    fn crashed_processes_accumulate_unbounded_accusations() {
        let n = 4;
        let mut w = WorldBuilder::new(jitter_net(n))
            .seed(103)
            .crash_at(ProcessId(2), Time::from_millis(100))
            .build(ep_node);
        w.run_until_time(Time::from_secs(1));
        let at_1s = w.actor(ProcessId(0)).above.counter(ProcessId(2));
        w.run_until_time(Time::from_secs(3));
        let at_3s = w.actor(ProcessId(0)).above.counter(ProcessId(2));
        assert!(at_3s > at_1s, "a crashed process's counter keeps growing");
        // While the eventual leader's counter is bounded (0 here).
        assert_eq!(w.actor(ProcessId(1)).above.counter(ProcessId(0)), 0);
    }

    #[test]
    fn gossip_cost_is_quadratic_the_sec3_complaint() {
        let n = 8;
        let net = NetworkConfig::new(n)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(2)));
        let mut w = WorldBuilder::new(net).seed(104).build(ep_node);
        w.run_until_time(Time::from_millis(500));
        let before = w.metrics().sent_of_kind("omega.gossip");
        w.run_until_time(Time::from_millis(1500));
        let per_period = (w.metrics().sent_of_kind("omega.gossip") - before) as f64 / 100.0;
        let expected = (n * (n - 1)) as f64;
        assert!(
            (per_period - expected).abs() <= expected * 0.1,
            "gossip alone costs ≈n(n−1)={expected}/period, measured {per_period}"
        );
    }
}
