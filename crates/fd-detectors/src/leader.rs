//! Candidate-based leader detector in the style of Larrea, Fernández &
//! Arévalo \[16\] ("Optimal implementation of the weakest failure detector
//! for solving consensus").
//!
//! Every process maintains a *candidate*: the first process (in the total
//! order `p₀ < p₁ < …`) it has not locally timed out. A process that is
//! its own candidate considers itself leader and periodically broadcasts
//! `LEADER-ALIVE` to everyone else; every other process monitors its
//! candidate by adaptive timeout and moves to the next process when the
//! candidate stays silent.
//!
//! Outputs, as the paper describes for this family (§3):
//!
//! * `trusted = candidate` — eventually the first correct process at every
//!   correct process (the Ω property);
//! * `suspected = Π \ {candidate}` — trivially strongly complete, and
//!   eventually weakly accurate because the eventual candidate is correct
//!   and unsuspected. Accuracy is deliberately minimal (this is the
//!   Ω→◇C construction §3 calls "very poor accuracy"); contrast with the
//!   ring detector, whose suspect sets converge to exactly the crashed
//!   processes.
//!
//! Steady-state cost: `n−1` messages per period (only the leader sends) —
//! the figure §4 quotes when it builds ◇C "on top of the ◇S algorithm
//! proposed in \[16\]".

use crate::timeout::Watch;
use fd_core::{Component, LeaderOracle, ProcessSet, SubCtx, SuspectOracle};
use fd_sim::{ProcessId, SimDuration, SimMessage};

/// Configuration of a [`LeaderDetector`].
#[derive(Debug, Clone)]
pub struct LeaderConfig {
    /// Leader broadcast period.
    pub period: SimDuration,
    /// Initial candidate timeout.
    pub initial_timeout: SimDuration,
    /// Additive timeout increment after a false suspicion.
    pub timeout_increment: SimDuration,
}

impl Default for LeaderConfig {
    fn default() -> Self {
        LeaderConfig {
            period: SimDuration::from_millis(10),
            initial_timeout: SimDuration::from_millis(40),
            timeout_increment: SimDuration::from_millis(25),
        }
    }
}

/// The leader's periodic announcement.
#[derive(Debug, Clone)]
pub struct LeaderAlive;

impl SimMessage for LeaderAlive {
    fn kind(&self) -> &'static str {
        fd_obs::keys::LEADER_ALIVE
    }
}

const TIMER_SEND: u32 = 0;

/// Candidate-based Ω/◇C detector.
#[derive(Debug)]
pub struct LeaderDetector {
    me: ProcessId,
    n: usize,
    cfg: LeaderConfig,
    /// Processes locally timed out as candidates.
    timed_out: ProcessSet,
    candidate: ProcessId,
    /// Watches the candidate, unless that is this process.
    watch: Watch,
}

impl LeaderDetector {
    /// Create the detector for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, cfg: LeaderConfig) -> LeaderDetector {
        LeaderDetector {
            me,
            n,
            watch: Watch::new(n, 1, cfg.initial_timeout, cfg.timeout_increment),
            cfg,
            timed_out: ProcessSet::new(),
            candidate: ProcessId(0),
        }
    }

    fn first_candidate(&self) -> ProcessId {
        self.timed_out
            .complement(self.n)
            .first()
            // All processes timed out (impossible for `me` itself — we
            // never time ourselves out, see `recompute`).
            .unwrap_or(self.me)
    }

    fn recompute<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, LeaderAlive>) {
        // Never time ourselves out: a process is always willing to lead.
        self.timed_out.remove(self.me);
        let next = self.first_candidate();
        if next != self.candidate {
            self.candidate = next;
            self.watch
                .watch_only(ctx, ProcessSet::singleton(self.candidate));
            ctx.observe(fd_core::obs::TRUSTED, fd_sim::Payload::Pid(next));
            self.emit_suspects(ctx);
        }
    }

    fn emit_suspects<N: SimMessage>(&self, ctx: &mut SubCtx<'_, '_, N, LeaderAlive>) {
        let suspects = ProcessSet::singleton(self.candidate).complement(self.n);
        ctx.observe(
            fd_core::obs::SUSPECTS,
            fd_sim::Payload::Pids(suspects.to_vec()),
        );
    }

    /// Whether this process currently considers itself the leader.
    pub fn is_self_leader(&self) -> bool {
        self.candidate == self.me
    }
}

impl LeaderOracle for LeaderDetector {
    fn trusted(&self) -> ProcessId {
        self.candidate
    }
}

impl SuspectOracle for LeaderDetector {
    /// `Π \ {candidate}` — the Ω-grade suspect set (§3).
    fn suspected(&self) -> ProcessSet {
        ProcessSet::singleton(self.candidate).complement(self.n)
    }
}

impl Component for LeaderDetector {
    type Msg = LeaderAlive;

    fn ns(&self) -> u32 {
        crate::ns::LEADER
    }

    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, LeaderAlive>) {
        self.candidate = self.first_candidate();
        self.watch
            .watch_only(ctx, ProcessSet::singleton(self.candidate));
        ctx.observe(fd_core::obs::TRUSTED, fd_sim::Payload::Pid(self.candidate));
        self.emit_suspects(ctx);
        if self.is_self_leader() {
            ctx.send_to_others(LeaderAlive);
        }
        ctx.set_timer(self.cfg.period, TIMER_SEND, 0);
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LeaderAlive>,
        from: ProcessId,
        _msg: LeaderAlive,
    ) {
        if self.timed_out.remove(from) {
            // We had wrongly demoted `from`: grow its timeout so the
            // mistake is not repeated forever.
            self.watch.timeouts.increase(from);
        }
        self.recompute(ctx);
        self.watch.heard(from, ctx.now());
    }

    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, LeaderAlive>,
        kind: u32,
        _data: u64,
    ) {
        match kind {
            TIMER_SEND => {
                if self.is_self_leader() {
                    ctx.send_to_others(LeaderAlive);
                }
                ctx.set_timer(self.cfg.period, TIMER_SEND, 0);
            }
            Watch::TIMER => {
                if let Some(silent) = self.watch.fire(ctx).first() {
                    self.timed_out.insert(silent);
                    self.recompute(ctx);
                }
            }
            _ => unreachable!("unknown leader timer kind {kind}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{FdClass, FdRun, Standalone};
    use fd_sim::{LinkModel, NetworkConfig, Time, WorldBuilder};

    fn run_leader(
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
            b.build(|pid, n| Standalone(LeaderDetector::new(pid, n, LeaderConfig::default())));
        let end = Time::from_millis(horizon_ms);
        w.run_until_time(end);
        let (trace, metrics) = w.into_results();
        (trace, metrics, end)
    }

    #[test]
    fn failure_free_run_elects_p0() {
        let (trace, _, end) = run_leader(5, &[], 500, 31);
        let run = FdRun::new(&trace, 5, end);
        run.check_class(FdClass::Omega).unwrap();
        run.check_class(FdClass::EventuallyConsistent).unwrap();
        for p in 0..5 {
            assert_eq!(run.final_trusted(ProcessId(p)), Some(ProcessId(0)));
        }
    }

    #[test]
    fn leadership_passes_to_first_correct_process() {
        let (trace, _, end) = run_leader(5, &[(0, 100), (1, 150)], 1500, 32);
        let run = FdRun::new(&trace, 5, end);
        run.check_class(FdClass::EventuallyConsistent).unwrap();
        for p in [2usize, 3, 4] {
            assert_eq!(run.final_trusted(ProcessId(p)), Some(ProcessId(2)), "p{p}");
        }
    }

    #[test]
    fn suspect_sets_are_omega_grade() {
        // Accuracy is poor by construction: everyone but the leader is
        // suspected (the §3 Ω→◇C observation).
        let (trace, _, end) = run_leader(4, &[], 500, 33);
        let run = FdRun::new(&trace, 4, end);
        for p in 0..4 {
            let s = run.final_suspects(ProcessId(p));
            assert_eq!(s.len(), 3);
            assert!(!s.contains(ProcessId(0)));
        }
        // Still formally ◇S: strongly complete (vacuously here) and
        // weakly accurate (p0 unsuspected).
        run.check_class(FdClass::EventuallyStrong).unwrap();
    }

    #[test]
    fn steady_state_cost_is_n_minus_one_per_period() {
        let n = 8;
        let (_, metrics, _) = run_leader(n, &[], 1000, 34);
        // ~100 periods of 10ms; allow the initial churn a 25% margin.
        let per_period = metrics.sent_of_kind("leader.alive") as f64 / 100.0;
        let expected = (n - 1) as f64;
        assert!(
            (per_period - expected).abs() <= expected * 0.25,
            "measured {per_period} msgs/period, expected ≈{expected}"
        );
    }

    #[test]
    fn recovers_from_pre_gst_false_suspicions() {
        let n = 4;
        let net = NetworkConfig::partially_synchronous(
            n,
            Time::from_millis(400),
            SimDuration::from_millis(4),
            SimDuration::from_millis(200),
            0.5,
        );
        let mut w = WorldBuilder::new(net)
            .seed(35)
            .build(|pid, n| Standalone(LeaderDetector::new(pid, n, LeaderConfig::default())));
        let end = Time::from_secs(4);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        let run = FdRun::new(&trace, n, end);
        run.check_class(FdClass::EventuallyConsistent).unwrap();
        for p in 0..n {
            assert_eq!(run.final_trusted(ProcessId(p)), Some(ProcessId(0)));
        }
    }

    #[test]
    fn self_leader_flag_tracks_candidate() {
        let d = LeaderDetector::new(ProcessId(0), 3, LeaderConfig::default());
        assert!(d.is_self_leader());
        let d2 = LeaderDetector::new(ProcessId(1), 3, LeaderConfig::default());
        assert!(!d2.is_self_leader());
        assert_eq!(d2.trusted(), ProcessId(0));
        assert_eq!(d2.suspected().to_vec(), vec![ProcessId(1), ProcessId(2)]);
    }
}
