//! The "extremely efficient" fused ◇C + ◇P detector of §4.
//!
//! The paper observes that when the underlying ◇C is built on the
//! candidate algorithm of \[16\] — whose leader already broadcasts a
//! periodic message — the Fig. 2 suspect list can be *piggybacked* on that
//! broadcast, so the whole stack (leader election + ◇P lists) costs
//! `2(n−1)` periodic messages: the leader's broadcast (now carrying the
//! list) plus everyone's `I-AM-ALIVE` towards the leader. This "compares
//! favorably to the implementation of ◇P proposed by Chandra and Toueg,
//! which has a cost of n²" and beats the `2n` ring ◇P without its
//! detection-latency penalty.
//!
//! [`FusedDetector`] implements exactly that fusion as a single component:
//!
//! * candidate selection and leader liveness as in
//!   [`LeaderDetector`](crate::leader::LeaderDetector);
//! * the leader monitors everyone through the `I-AM-ALIVE` stream
//!   (Tasks 3–4 of Fig. 2) and piggybacks its list on the broadcast
//!   (Task 1 merged with the election heartbeat);
//! * non-leaders adopt the list (Task 5).
//!
//! Outputs: `trusted` (Ω) and a ◇P-quality `suspected` list.

use crate::timeout::Watch;
use fd_core::{Component, LeaderOracle, ProcessSet, SubCtx, SuspectOracle};
use fd_sim::{ProcessId, SimDuration, SimMessage};

/// Configuration of the [`FusedDetector`].
#[derive(Debug, Clone)]
pub struct FusedConfig {
    /// Leader broadcast period (carries the suspect list).
    pub period: SimDuration,
    /// I-AM-ALIVE period.
    pub alive_period: SimDuration,
    /// Initial timeout for both tables.
    pub initial_timeout: SimDuration,
    /// Additive increment after mistakes.
    pub timeout_increment: SimDuration,
}

impl Default for FusedConfig {
    fn default() -> Self {
        FusedConfig {
            period: SimDuration::from_millis(10),
            alive_period: SimDuration::from_millis(10),
            initial_timeout: SimDuration::from_millis(40),
            timeout_increment: SimDuration::from_millis(25),
        }
    }
}

/// Messages of the fused detector.
#[derive(Debug, Clone)]
pub enum FusedMsg {
    /// Leader broadcast with its piggybacked suspect list.
    LeaderList(Vec<ProcessId>),
    /// I-AM-ALIVE from a process to its current candidate.
    Alive,
}

impl SimMessage for FusedMsg {
    fn kind(&self) -> &'static str {
        match self {
            FusedMsg::LeaderList(_) => fd_obs::keys::FUSED_LEADERLIST,
            FusedMsg::Alive => fd_obs::keys::FUSED_ALIVE,
        }
    }
}

const TIMER_BROADCAST: u32 = 0;
const TIMER_ALIVE: u32 = 1;

/// Fused Ω + ◇P detector at `2(n−1)` messages per period.
#[derive(Debug)]
pub struct FusedDetector {
    me: ProcessId,
    n: usize,
    cfg: FusedConfig,
    // --- candidate election state (as in LeaderDetector) ---
    timed_out: ProcessSet,
    candidate: ProcessId,
    /// Watches the candidate, unless that is this process.
    leader_watch: Watch,
    // --- ◇P list state (as in EcToEp) ---
    local_list: ProcessSet,
    adopted: ProcessSet,
    /// Watches every unsuspected peer while this process leads. The two
    /// watches share one timer kind: either may own a given fire.
    peer_watch: Watch,
    was_leader: bool,
    last_emitted_suspects: Option<ProcessSet>,
}

impl FusedDetector {
    /// Create the detector for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, cfg: FusedConfig) -> FusedDetector {
        let (initial, increment) = (cfg.initial_timeout, cfg.timeout_increment);
        FusedDetector {
            me,
            n,
            cfg,
            timed_out: ProcessSet::new(),
            candidate: ProcessId(0),
            leader_watch: Watch::new(n, 1, initial, increment),
            local_list: ProcessSet::new(),
            adopted: ProcessSet::new(),
            peer_watch: Watch::new(n, n, initial, increment),
            was_leader: false,
            last_emitted_suspects: None,
        }
    }

    /// Whether this process currently considers itself the leader.
    pub fn is_self_leader(&self) -> bool {
        self.candidate == self.me
    }

    /// Whom each watch covers under the current candidate: the
    /// candidate itself, or — when that is this process — every peer it
    /// does not suspect.
    fn watched(&self) -> (ProcessSet, ProcessSet) {
        if !self.is_self_leader() {
            return (ProcessSet::singleton(self.candidate), ProcessSet::new());
        }
        (ProcessSet::new(), self.local_list.complement(self.n))
    }

    fn recompute_candidate<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, FusedMsg>) {
        self.timed_out.remove(self.me);
        let next = self.timed_out.complement(self.n).first().unwrap_or(self.me);
        if next != self.candidate {
            self.candidate = next;
            // A new candidate, and a fresh leader's peers, start from a
            // full timeout window.
            let (candidate, peers) = self.watched();
            self.leader_watch.watch_only(ctx, candidate);
            if self.is_self_leader() != self.was_leader {
                self.peer_watch.watch_only(ctx, peers);
            }
            ctx.observe(fd_core::obs::TRUSTED, fd_sim::Payload::Pid(next));
        }
        self.was_leader = self.is_self_leader();
    }

    fn emit_suspects_if_changed<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, FusedMsg>) {
        let out = self.suspected();
        if self.last_emitted_suspects.as_ref() != Some(&out) {
            ctx.observe(fd_core::obs::SUSPECTS, fd_sim::Payload::Pids(out.to_vec()));
            self.last_emitted_suspects = Some(out);
        }
    }
}

impl LeaderOracle for FusedDetector {
    fn trusted(&self) -> ProcessId {
        self.candidate
    }
}

impl SuspectOracle for FusedDetector {
    fn suspected(&self) -> ProcessSet {
        if self.was_leader {
            self.local_list.clone()
        } else {
            self.adopted.clone()
        }
    }
}

impl Component for FusedDetector {
    type Msg = FusedMsg;

    fn ns(&self) -> u32 {
        crate::ns::FUSED
    }

    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, FusedMsg>) {
        self.candidate = self.timed_out.complement(self.n).first().unwrap_or(self.me);
        self.was_leader = self.is_self_leader();
        let (candidate, peers) = self.watched();
        self.leader_watch.watch_only(ctx, candidate);
        self.peer_watch.watch_only(ctx, peers);
        ctx.observe(fd_core::obs::TRUSTED, fd_sim::Payload::Pid(self.candidate));
        self.emit_suspects_if_changed(ctx);
        if self.was_leader {
            ctx.send_to_others(FusedMsg::LeaderList(Vec::new()));
        }
        ctx.set_timer(self.cfg.period, TIMER_BROADCAST, 0);
        ctx.set_timer(self.cfg.alive_period, TIMER_ALIVE, 0);
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, FusedMsg>,
        from: ProcessId,
        msg: FusedMsg,
    ) {
        match msg {
            FusedMsg::LeaderList(list) => {
                if self.timed_out.remove(from) {
                    self.leader_watch.timeouts.increase(from);
                }
                self.recompute_candidate(ctx);
                if from == self.candidate {
                    self.leader_watch.heard(from, ctx.now());
                    // Task 5: adopt the leader's list.
                    self.adopted = list.iter().collect();
                    self.adopted.remove(self.me);
                }
            }
            FusedMsg::Alive => {
                // Tasks 3–4 input: the leader tracks everyone.
                self.peer_watch.heard(from, ctx.now());
                if self.local_list.remove(from) {
                    self.peer_watch.timeouts.increase(from);
                    if self.is_self_leader() {
                        self.peer_watch.watch(ctx, from);
                    }
                }
            }
        }
        self.emit_suspects_if_changed(ctx);
    }

    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, FusedMsg>,
        kind: u32,
        _data: u64,
    ) {
        match kind {
            TIMER_BROADCAST => {
                if self.is_self_leader() {
                    let list = self.local_list.to_vec();
                    for i in 0..self.n {
                        let q = ProcessId(i);
                        if q != self.me {
                            ctx.send(q, FusedMsg::LeaderList(list.clone()));
                        }
                    }
                }
                ctx.set_timer(self.cfg.period, TIMER_BROADCAST, 0);
            }
            TIMER_ALIVE => {
                if !self.is_self_leader() {
                    ctx.send(self.candidate, FusedMsg::Alive);
                }
                ctx.set_timer(self.cfg.alive_period, TIMER_ALIVE, 0);
            }
            Watch::TIMER => {
                // Leader liveness.
                if let Some(silent) = self.leader_watch.fire(ctx).first() {
                    self.timed_out.insert(silent);
                    self.recompute_candidate(ctx);
                }
                // Peer monitoring (leader only).
                let silent = self.peer_watch.fire(ctx);
                self.local_list.extend(silent.iter());
            }
            _ => unreachable!("unknown fused timer kind {kind}"),
        }
        self.emit_suspects_if_changed(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{FdClass, FdRun, Standalone};
    use fd_sim::{LinkModel, NetworkConfig, Time, WorldBuilder};

    fn run_fused(
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
        let mut w =
            b.build(|pid, n| Standalone(FusedDetector::new(pid, n, FusedConfig::default())));
        let end = Time::from_millis(horizon_ms);
        w.run_until_time(end);
        let (trace, metrics) = w.into_results();
        (trace, metrics, end)
    }

    #[test]
    fn fused_detector_is_eventually_perfect_and_consistent() {
        let (trace, _, end) = run_fused(5, &[(2, 200)], 3000, 61);
        let run = FdRun::new(&trace, 5, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        run.check_class(FdClass::EventuallyConsistent).unwrap();
        for p in [0usize, 1, 3, 4] {
            assert_eq!(
                run.final_suspects(ProcessId(p)),
                ProcessSet::singleton(ProcessId(2)),
                "p{p}"
            );
            assert_eq!(run.final_trusted(ProcessId(p)), Some(ProcessId(0)));
        }
    }

    #[test]
    fn leader_crash_rebuilds_list_at_new_leader() {
        let (trace, _, end) = run_fused(5, &[(0, 300)], 4000, 62);
        let run = FdRun::new(&trace, 5, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        for p in 1..5usize {
            assert_eq!(run.final_trusted(ProcessId(p)), Some(ProcessId(1)), "p{p}");
        }
    }

    #[test]
    fn cost_is_two_n_minus_one_per_period() {
        let n = 8;
        let net = NetworkConfig::new(n)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(2)));
        let mut w = WorldBuilder::new(net)
            .seed(63)
            .build(|pid, n| Standalone(FusedDetector::new(pid, n, FusedConfig::default())));
        w.run_until_time(Time::from_millis(500));
        let before = w.metrics().sent_total();
        w.run_until_time(Time::from_millis(1500));
        let sent = w.metrics().sent_total() - before;
        let per_period = sent as f64 / 100.0;
        let expected = 2.0 * (n as f64 - 1.0);
        assert!(
            (per_period - expected).abs() <= expected * 0.15,
            "measured {per_period} msgs/period, expected ≈{expected}"
        );
    }
}
