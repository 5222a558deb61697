//! The ◇C → ◇P transformation of the paper's Fig. 2 (§4, Theorem 1).
//!
//! Given any detector `D ∈ ◇C` (in fact only its `trusted` output is
//! used, so any Ω works — the paper notes this), the transformation
//! builds a ◇P-quality suspect list under partial synchrony:
//!
//! * **Task 1** — each process that considers itself leader
//!   (`D.trusted_p = p`) periodically sends its list of suspected
//!   processes to the rest;
//! * **Task 2** — every process periodically sends `I-AM-ALIVE` to its
//!   trusted process;
//! * **Task 3** — each leader builds its local suspect list with per-peer
//!   adaptive timeouts;
//! * **Task 4** — on `I-AM-ALIVE` from a suspected `q`, the leader stops
//!   suspecting `q` and increases `Δ_p(q)`;
//! * **Task 5** — on a suspect list from its trusted process, a process
//!   adopts the list as its own.
//!
//! Requirements (encoded in the experiments): the leader's *input* links
//! must be eventually timely and its *output* links fair-lossy; nothing is
//! assumed about other links — eventually only the leader's links carry
//! messages (2(n−1) per period).
//!
//! [`EcToEp`] is the upper half of a [`Stack`](fd_core::Stack): every
//! callback receives the co-located detector `D` and reads `D.trusted`
//! on its first line — exactly the paper's "the algorithm only uses
//! detector D to query for its trusted process" — and a change of
//! `D`'s output is a callback of its own, so leadership is noticed when
//! it moves rather than at the next task timer.

use crate::timeout::Watch;
use fd_core::{LeaderOracle, Over, ProcessSet, SubCtx, SuspectOracle};
use fd_sim::{ProcessId, SimDuration, SimMessage, TimerTag};

/// Observation tag under which the transformation publishes its ◇P
/// output (distinct from the inner ◇C detector's `fd.suspects`).
pub use fd_obs::keys::EP_SUSPECTS_OUT;

/// Configuration of the [`EcToEp`] transformation.
#[derive(Debug, Clone)]
pub struct EcToEpConfig {
    /// Task 1 period: leader's list broadcast.
    pub list_period: SimDuration,
    /// Task 2 period (`Φ`): I-AM-ALIVE towards the trusted process.
    pub alive_period: SimDuration,
    /// Initial per-peer timeout (`Δ_p(q)`).
    pub initial_timeout: SimDuration,
    /// Additive increment applied by Task 4.
    pub timeout_increment: SimDuration,
}

impl Default for EcToEpConfig {
    fn default() -> Self {
        EcToEpConfig {
            list_period: SimDuration::from_millis(10),
            alive_period: SimDuration::from_millis(10),
            initial_timeout: SimDuration::from_millis(40),
            timeout_increment: SimDuration::from_millis(25),
        }
    }
}

/// Messages of the transformation.
#[derive(Debug, Clone)]
pub enum EpMsg {
    /// Task 2: I-AM-ALIVE.
    Alive,
    /// Task 1: the leader's suspect list.
    Suspects(Vec<ProcessId>),
}

impl SimMessage for EpMsg {
    fn kind(&self) -> &'static str {
        match self {
            EpMsg::Alive => fd_obs::keys::EP_ALIVE,
            EpMsg::Suspects(_) => fd_obs::keys::EP_SUSPECTS,
        }
    }
}

const TIMER_LIST: u32 = 0;
const TIMER_ALIVE: u32 = 1;

/// The Fig. 2 transformation component.
#[derive(Debug)]
pub struct EcToEp {
    me: ProcessId,
    n: usize,
    cfg: EcToEpConfig,
    /// Task 3's local list (meaningful while this process leads).
    local_list: ProcessSet,
    /// Task 5's adopted list (meaningful while another process leads).
    adopted: ProcessSet,
    /// Task 3's deadlines: every unsuspected peer while this process
    /// leads, nobody otherwise.
    watch: Watch,
    /// Leadership view at the last callback, to detect transitions.
    was_leader: bool,
    last_emitted: Option<ProcessSet>,
}

impl EcToEp {
    /// Create the transformation module for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, cfg: EcToEpConfig) -> EcToEp {
        EcToEp {
            me,
            n,
            watch: Watch::new(n, n, cfg.initial_timeout, cfg.timeout_increment),
            cfg,
            local_list: ProcessSet::new(),
            adopted: ProcessSet::new(),
            was_leader: false,
            last_emitted: None,
        }
    }

    /// Total Task-4 timeout increases (mistakes) so far. Theorem 1's
    /// argument bounds this under partial synchrony.
    pub fn mistakes(&self) -> u64 {
        self.watch.timeouts.total_increases()
    }

    fn output(&self) -> ProcessSet {
        if self.was_leader {
            self.local_list.clone()
        } else {
            self.adopted.clone()
        }
    }

    /// The peers Task 3 watches under `leader`: as leader, everyone
    /// this process does not suspect; otherwise nobody.
    fn watched_under(&self, leader: ProcessId) -> ProcessSet {
        if leader != self.me {
            return ProcessSet::new();
        }
        self.local_list.complement(self.n)
    }

    fn note_leadership<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EpMsg>,
        leader: ProcessId,
    ) {
        let is_leader = leader == self.me;
        if is_leader != self.was_leader {
            // Fresh leadership: give every peer a full timeout window
            // before Task 3 may suspect it. Lost: watch nobody.
            self.watch.watch_only(ctx, self.watched_under(leader));
        }
        self.was_leader = is_leader;
    }

    fn emit_if_changed<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, EpMsg>) {
        let out = self.output();
        if self.last_emitted.as_ref() != Some(&out) {
            ctx.observe(EP_SUSPECTS_OUT, fd_sim::Payload::Pids(out.to_vec()));
            self.last_emitted = Some(out);
        }
    }
}

impl<D: LeaderOracle> Over<D> for EcToEp {
    type Msg = EpMsg;

    fn ns(&self) -> u32 {
        crate::ns::EC_TO_EP
    }

    /// Startup: arm the three periodic tasks.
    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, EpMsg>, fd: &D) {
        let leader = fd.trusted();
        self.was_leader = leader == self.me;
        ctx.set_timer(self.cfg.list_period, TIMER_LIST, 0);
        ctx.set_timer(self.cfg.alive_period, TIMER_ALIVE, 0);
        self.watch.watch_only(ctx, self.watched_under(leader));
        self.emit_if_changed(ctx);
    }

    /// Message handler (Tasks 4 and 5).
    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EpMsg>,
        from: ProcessId,
        msg: EpMsg,
        fd: &D,
    ) {
        let leader = fd.trusted();
        self.note_leadership(ctx, leader);
        match msg {
            EpMsg::Alive => {
                // Task 4: revoke mistakes and grow the timeout.
                self.watch.heard(from, ctx.now());
                if self.local_list.remove(from) {
                    self.watch.timeouts.increase(from);
                    if self.was_leader {
                        self.watch.watch(ctx, from);
                    }
                }
            }
            EpMsg::Suspects(list) => {
                // Task 5: adopt the list if it comes from our trusted
                // process (a late list from a deposed leader is ignored).
                if from == leader {
                    self.adopted = list.iter().collect();
                    self.adopted.remove(self.me);
                }
            }
        }
        self.emit_if_changed(ctx);
    }

    /// Timer handler (Tasks 1, 2 and 3).
    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, EpMsg>,
        tag: TimerTag,
        fd: &D,
    ) {
        let leader = fd.trusted();
        self.note_leadership(ctx, leader);
        match tag.kind {
            TIMER_LIST => {
                // Task 1: only self-believed leaders broadcast.
                if self.was_leader {
                    let list = self.local_list.to_vec();
                    for i in 0..self.n {
                        let q = ProcessId(i);
                        if q != self.me {
                            ctx.send(q, EpMsg::Suspects(list.clone()));
                        }
                    }
                }
                ctx.set_timer(self.cfg.list_period, TIMER_LIST, 0);
            }
            TIMER_ALIVE => {
                // Task 2: everyone reports to its trusted process.
                if leader != self.me {
                    ctx.send(leader, EpMsg::Alive);
                }
                ctx.set_timer(self.cfg.alive_period, TIMER_ALIVE, 0);
            }
            Watch::TIMER => {
                // Task 3: the leader suspects silent peers (never itself;
                // a process that stopped leading watches nobody).
                let silent = self.watch.fire(ctx);
                self.local_list.extend(silent.iter());
            }
            _ => unreachable!("unknown ec_to_ep timer kind {}", tag.kind),
        }
        self.emit_if_changed(ctx);
    }

    /// `D.trusted` moved: a fresh leader opens its Task 3 window now,
    /// not at its next task timer.
    fn on_fd_change<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, EpMsg>, fd: &D) {
        self.note_leadership(ctx, fd.trusted());
        self.emit_if_changed(ctx);
    }
}

impl SuspectOracle for EcToEp {
    fn suspected(&self) -> ProcessSet {
        self.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leader::{LeaderConfig, LeaderDetector};
    use fd_core::{Component, FdClass, FdRun, Stack};
    use fd_sim::{LinkModel, NetworkConfig, Time, WorldBuilder};

    type Node = Stack<LeaderDetector, EcToEp>;

    fn build_node(pid: ProcessId, n: usize) -> Node {
        Stack::new(
            LeaderDetector::new(pid, n, LeaderConfig::default()),
            EcToEp::new(pid, n, EcToEpConfig::default()),
        )
    }

    /// The paper's link requirements: eventually timely into the eventual
    /// leader, fair-lossy out of it, defaults elsewhere.
    fn paper_links(n: usize, leader: ProcessId, out_drop: f64) -> NetworkConfig {
        NetworkConfig::new(n)
            .with_default(LinkModel::reliable_uniform(
                SimDuration::from_millis(1),
                SimDuration::from_millis(4),
            ))
            .with_links_into(
                leader,
                LinkModel::eventually_timely(
                    Time::from_millis(200),
                    SimDuration::from_millis(5),
                    SimDuration::from_millis(100),
                    0.3,
                ),
            )
            .with_links_out_of(
                leader,
                LinkModel::fair_lossy(
                    SimDuration::from_millis(1),
                    SimDuration::from_millis(4),
                    out_drop,
                ),
            )
    }

    fn check_ep(n: usize, crashes: &[(usize, u64)], horizon_ms: u64, seed: u64, out_drop: f64) {
        // With the candidate-based ◇C, the eventual leader is the first
        // correct process.
        let crashed: Vec<usize> = crashes.iter().map(|&(p, _)| p).collect();
        let leader = (0..n).find(|i| !crashed.contains(i)).unwrap();
        let mut b = WorldBuilder::new(paper_links(n, ProcessId(leader), out_drop)).seed(seed);
        for &(pid, at) in crashes {
            b = b.crash_at(ProcessId(pid), Time::from_millis(at));
        }
        let mut w = b.build(build_node);
        let end = Time::from_millis(horizon_ms);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        let run = FdRun::new(&trace, n, end).with_suspects_tag(EP_SUSPECTS_OUT);
        run.check_class(FdClass::EventuallyPerfect)
            .unwrap_or_else(|v| panic!("{v} (n={n}, crashes={crashes:?}, seed={seed})"));
        // All correct processes converge to exactly the crashed set.
        let crashed_set: ProcessSet = crashes.iter().map(|&(p, _)| ProcessId(p)).collect();
        for p in run.correct().iter() {
            assert_eq!(run.final_suspects(p), crashed_set, "at {p}");
        }
    }

    #[test]
    fn failure_free_converges_to_empty_list() {
        check_ep(4, &[], 2000, 51, 0.0);
    }

    #[test]
    fn single_crash_detected_by_all_via_the_leader() {
        check_ep(5, &[(3, 300)], 3000, 52, 0.0);
    }

    #[test]
    fn leader_crash_hands_over_and_still_converges() {
        // p0 leads, then crashes; p1 takes over both leadership and the
        // transformation duties.
        let n = 5;
        let net = NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(4),
        ));
        let mut w = WorldBuilder::new(net)
            .seed(53)
            .crash_at(ProcessId(0), Time::from_millis(400))
            .crash_at(ProcessId(4), Time::from_millis(800))
            .build(build_node);
        let end = Time::from_secs(4);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        let run = FdRun::new(&trace, n, end).with_suspects_tag(EP_SUSPECTS_OUT);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        let expect: ProcessSet = [ProcessId(0), ProcessId(4)].into_iter().collect();
        for p in [1usize, 2, 3] {
            assert_eq!(run.final_suspects(ProcessId(p)), expect, "p{p}");
        }
    }

    #[test]
    fn tolerates_fair_lossy_output_links() {
        // Half the leader's outgoing messages are lost; Task 1 repeats
        // forever, so lists still get through (the fairness assumption).
        check_ep(4, &[(2, 300)], 6000, 54, 0.5);
    }

    #[test]
    fn mistakes_are_bounded_under_partial_synchrony() {
        let n = 4;
        let mut w = WorldBuilder::new(paper_links(n, ProcessId(0), 0.2))
            .seed(55)
            .build(build_node);
        w.run_until_time(Time::from_secs(2));
        let mistakes_2s = w.actor(ProcessId(0)).above.mistakes();
        w.run_until_time(Time::from_secs(6));
        let mistakes_6s = w.actor(ProcessId(0)).above.mistakes();
        // After GST (200ms) + timeout growth, no new mistakes accumulate.
        assert_eq!(
            mistakes_2s, mistakes_6s,
            "mistakes kept growing after stabilization"
        );
    }

    #[test]
    fn steady_state_message_cost_is_2_n_minus_1_per_period() {
        let n = 6;
        let net = NetworkConfig::new(n)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(2)));
        let mut w = WorldBuilder::new(net).seed(56).build(build_node);
        // Let it stabilize first, then measure a window.
        w.run_until_time(Time::from_millis(500));
        let before_alive = w.metrics().sent_of_kind("ep.alive");
        let before_list = w.metrics().sent_of_kind("ep.suspects");
        w.run_until_time(Time::from_millis(1500));
        let alive = w.metrics().sent_of_kind("ep.alive") - before_alive;
        let list = w.metrics().sent_of_kind("ep.suspects") - before_list;
        // 100 periods of 10ms in the window: n−1 ALIVE + n−1 list each.
        let per_period = (alive + list) as f64 / 100.0;
        let expected = 2.0 * (n as f64 - 1.0);
        assert!(
            (per_period - expected).abs() <= expected * 0.15,
            "measured {per_period} msgs/period, expected ≈{expected}"
        );
    }

    #[test]
    #[should_panic(expected = "distinct timer namespaces")]
    fn namespace_collision_is_rejected() {
        struct BadNs(LeaderDetector);
        impl LeaderOracle for BadNs {
            fn trusted(&self) -> ProcessId {
                self.0.trusted()
            }
        }
        impl Component for BadNs {
            type Msg = crate::leader::LeaderAlive;
            fn ns(&self) -> u32 {
                crate::ns::EC_TO_EP
            }
            fn on_start<N: SimMessage>(&mut self, _: &mut SubCtx<'_, '_, N, Self::Msg>) {}
            fn on_message<N: SimMessage>(
                &mut self,
                _: &mut SubCtx<'_, '_, N, Self::Msg>,
                _: ProcessId,
                _: Self::Msg,
            ) {
            }
            fn on_timer<N: SimMessage>(
                &mut self,
                _: &mut SubCtx<'_, '_, N, Self::Msg>,
                _: u32,
                _: u64,
            ) {
            }
        }
        let _ = Stack::new(
            BadNs(LeaderDetector::new(
                ProcessId(0),
                3,
                LeaderConfig::default(),
            )),
            EcToEp::new(ProcessId(0), 3, EcToEpConfig::default()),
        );
    }
}
