//! All-to-all heartbeat detector — the classic ◇P implementation of
//! Chandra and Toueg \[6\].
//!
//! Every process periodically sends `HEARTBEAT` to the peers in its
//! `send_to` set and monitors the peers in its `monitor` set: a peer that
//! stays silent past its adaptive timeout is suspected, at its deadline
//! (`timeout::Watch`); a heartbeat from a suspected peer revokes the
//! suspicion and grows that peer's timeout.
//!
//! With the default full sets this implements ◇P under partial synchrony
//! at a cost of `n(n−1)` messages per period — the baseline the paper's
//! §4 cost comparison quotes as `n²`. Restricting `monitor`/`send_to`
//! (e.g. to ring neighbours) yields detectors with only weak completeness,
//! used as the ◇W source for the completeness-amplification
//! transformation.

use crate::timeout::Watch;
use fd_core::{Component, ProcessSet, SubCtx, SuspectOracle};
use fd_sim::{ProcessId, SimDuration, SimMessage};

/// Configuration of a [`HeartbeatDetector`].
#[derive(Debug, Clone)]
pub struct HeartbeatConfig {
    /// Heartbeat send period (`Φ` in the paper's analysis).
    pub period: SimDuration,
    /// Initial per-peer timeout.
    pub initial_timeout: SimDuration,
    /// Additive timeout increment applied after each false suspicion.
    pub timeout_increment: SimDuration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            period: SimDuration::from_millis(10),
            initial_timeout: SimDuration::from_millis(30),
            timeout_increment: SimDuration::from_millis(20),
        }
    }
}

/// The heartbeat message.
#[derive(Debug, Clone)]
pub struct HeartbeatMsg;

impl SimMessage for HeartbeatMsg {
    fn kind(&self) -> &'static str {
        fd_obs::keys::HB_ALIVE
    }
}

const TIMER_SEND: u32 = 0;

/// All-to-all (or restricted) heartbeat failure detector.
#[derive(Debug)]
pub struct HeartbeatDetector {
    #[allow(dead_code)] // identity kept for debugging/Display purposes
    me: ProcessId,
    #[allow(dead_code)]
    n: usize,
    cfg: HeartbeatConfig,
    ns: u32,
    send_to: ProcessSet,
    /// Whether `send_to` is exactly "everyone else" — the full detector.
    /// Beats then go out as one kernel broadcast (same per-destination
    /// order, metrics, and trace as the explicit loop, but one action
    /// instead of n−1) so large-n worlds don't fill the action scratch
    /// with thousands of identical sends per period.
    full_fanout: bool,
    monitor: ProcessSet,
    watch: Watch,
    suspected: ProcessSet,
    started: bool,
}

impl HeartbeatDetector {
    /// Full ◇P detector: monitor and beat to every other process.
    pub fn new(me: ProcessId, n: usize, cfg: HeartbeatConfig) -> HeartbeatDetector {
        let others = ProcessSet::singleton(me).complement(n);
        HeartbeatDetector::restricted(me, n, cfg, others.clone(), others)
    }

    /// Restricted detector: beat only to `send_to`, monitor only
    /// `monitor`. Used to build weaker classes (e.g. ◇W sources).
    pub fn restricted(
        me: ProcessId,
        n: usize,
        cfg: HeartbeatConfig,
        send_to: ProcessSet,
        monitor: ProcessSet,
    ) -> HeartbeatDetector {
        assert!(!monitor.contains(me), "a process does not monitor itself");
        let full_fanout = send_to == ProcessSet::singleton(me).complement(n);
        HeartbeatDetector {
            me,
            n,
            watch: Watch::new(n, n, cfg.initial_timeout, cfg.timeout_increment),
            cfg,
            ns: crate::ns::HEARTBEAT,
            send_to,
            full_fanout,
            monitor,
            suspected: ProcessSet::new(),
            started: false,
        }
    }

    /// Total timeout increases — the number of mistakes made so far.
    pub fn mistakes(&self) -> u64 {
        self.watch.timeouts.total_increases()
    }

    fn beat<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, HeartbeatMsg>) {
        if self.full_fanout {
            ctx.send_to_others(HeartbeatMsg);
        } else {
            for q in self.send_to.iter() {
                ctx.send(q, HeartbeatMsg);
            }
        }
    }

    fn emit<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, HeartbeatMsg>) {
        ctx.observe(
            fd_core::obs::SUSPECTS,
            // fd-lint: allow(HP002, reason = "emit fires only when the suspect set changes, not per message")
            fd_sim::Payload::Pids(self.suspected.to_vec()),
        );
    }
}

impl SuspectOracle for HeartbeatDetector {
    fn suspected(&self) -> ProcessSet {
        self.suspected.clone()
    }
}

impl Component for HeartbeatDetector {
    type Msg = HeartbeatMsg;

    fn ns(&self) -> u32 {
        self.ns
    }

    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, HeartbeatMsg>) {
        self.started = true;
        self.beat(ctx);
        ctx.set_timer(self.cfg.period, TIMER_SEND, 0);
        self.watch.watch_only(ctx, &self.monitor - &self.suspected);
        self.emit(ctx);
    }

    // fd-lint: hot_path
    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, HeartbeatMsg>,
        from: ProcessId,
        _msg: HeartbeatMsg,
    ) {
        self.watch.heard(from, ctx.now());
        if self.suspected.remove(from) {
            // Mistake: grow the timeout so `from` is eventually never
            // falsely suspected again (the ◇-accuracy mechanism).
            self.watch.timeouts.increase(from);
            self.watch.watch(ctx, from);
            self.emit(ctx);
        }
    }

    // fd-lint: hot_path
    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, HeartbeatMsg>,
        kind: u32,
        _data: u64,
    ) {
        match kind {
            TIMER_SEND => {
                self.beat(ctx);
                ctx.set_timer(self.cfg.period, TIMER_SEND, 0);
            }
            Watch::TIMER => {
                let expired = self.watch.fire(ctx);
                if !expired.is_empty() {
                    self.suspected.extend(expired.iter());
                    self.emit(ctx);
                }
            }
            // fd-lint: allow(HP001, reason = "timer kinds are set only by this detector; an unknown kind is a corrupted world and must halt loudly")
            _ => unreachable!("unknown heartbeat timer kind {kind}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{FdClass, FdRun, Standalone};
    use fd_sim::{LinkModel, NetworkConfig, Time, WorldBuilder};

    fn run_world(
        n: usize,
        crashes: &[(usize, u64)],
        horizon_ms: u64,
        seed: u64,
    ) -> (fd_sim::Trace, Time) {
        let net = NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(4),
        ));
        let mut builder = WorldBuilder::new(net).seed(seed);
        for &(pid, at) in crashes {
            builder = builder.crash_at(ProcessId(pid), Time::from_millis(at));
        }
        let mut w = builder
            .build(|pid, n| Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default())));
        let end = Time::from_millis(horizon_ms);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        (trace, end)
    }

    #[test]
    fn crash_free_run_is_eventually_accurate() {
        let (trace, end) = run_world(4, &[], 500, 11);
        let run = FdRun::new(&trace, 4, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
    }

    #[test]
    fn crashes_are_detected_by_everyone() {
        let (trace, end) = run_world(5, &[(2, 100), (4, 150)], 800, 12);
        let run = FdRun::new(&trace, 5, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        run.check_stable_margin(SimDuration::from_millis(300))
            .unwrap();
        // Exactly the crashed processes are suspected.
        let crashed: ProcessSet = [ProcessId(2), ProcessId(4)].into_iter().collect();
        for p in [0usize, 1, 3] {
            assert_eq!(run.final_suspects(ProcessId(p)), crashed);
        }
    }

    #[test]
    fn detector_survives_pre_gst_chaos() {
        // Messages before GST are delayed up to 200ms and half are lost;
        // the adaptive timeout must absorb the resulting mistakes.
        let n = 3;
        let net = NetworkConfig::partially_synchronous(
            n,
            Time::from_millis(300),
            SimDuration::from_millis(5),
            SimDuration::from_millis(200),
            0.5,
        );
        let mut w = WorldBuilder::new(net)
            .seed(13)
            .crash_at(ProcessId(2), Time::from_millis(600))
            .build(|pid, n| Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default())));
        let end = Time::from_secs(3);
        w.run_until_time(end);
        let mistakes: u64 = (0..n).map(|i| w.actor(ProcessId(i)).mistakes()).sum();
        let (trace, _) = w.into_results();
        let run = FdRun::new(&trace, n, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        // Mistakes happened (pre-GST) but were finite and absorbed.
        assert!(mistakes > 0, "expected pre-GST false suspicions");
    }

    #[test]
    fn restricted_monitoring_gives_weak_completeness_only() {
        // Each process monitors only its successor: p0→p1→p2→p3→p0.
        let n = 4;
        let net = NetworkConfig::new(n);
        let mut w = WorldBuilder::new(net)
            .seed(14)
            .crash_at(ProcessId(2), Time::from_millis(100))
            .build(|pid, n| {
                let succ = pid.successor(n);
                Standalone(HeartbeatDetector::restricted(
                    pid,
                    n,
                    HeartbeatConfig::default(),
                    ProcessSet::singleton(pid.predecessor(n)),
                    ProcessSet::singleton(succ),
                ))
            });
        let end = Time::from_millis(600);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        let run = FdRun::new(&trace, n, end);
        // p1 (the monitor of p2) suspects it; p0 and p3 do not.
        run.check_weak_completeness().unwrap();
        assert!(run.check_strong_completeness().is_err());
        assert!(run.final_suspects(ProcessId(1)).contains(ProcessId(2)));
        assert!(!run.final_suspects(ProcessId(0)).contains(ProcessId(2)));
    }

    #[test]
    fn message_cost_is_n_times_n_minus_one_per_period() {
        let n = 6;
        let net = NetworkConfig::new(n)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        let mut w = WorldBuilder::new(net)
            .seed(15)
            .build(|pid, n| Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default())));
        // 100ms horizon with a 10ms period → 10-11 send rounds per process.
        w.run_until_time(Time::from_millis(100));
        let sent = w.metrics().sent_of_kind("hb.alive");
        let per_period = sent as f64 / 10.0;
        let expected = (n * (n - 1)) as f64;
        assert!(
            (per_period - expected).abs() <= expected * 0.2,
            "measured {per_period} msgs/period, expected ≈{expected}"
        );
    }
}
