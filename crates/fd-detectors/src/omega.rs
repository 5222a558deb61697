//! The §3 class constructions: local, message-free adapters between
//! detector classes.
//!
//! * [`LeaderByFirstNonSuspected`] — build a ◇C (or plain Ω) detector on
//!   top of any suspect-based detector whose first non-suspected process
//!   eventually stabilizes to the same correct process everywhere. The
//!   paper applies this to ◇P ("any ◇P … trivially used to implement
//!   ◇C") and to the ring ◇S of \[15\] ("at no additional cost").
//! * [`SuspectAllButLeader`] — build a ◇C detector from any Ω detector:
//!   trust the Ω output and suspect everyone else. "Very simple and
//!   efficient (no extra messages are needed). However, it offers very
//!   poor accuracy."
//!
//! Both are [`Component`] wrappers that piggyback on the inner detector's
//! message traffic: they add zero messages, only a local recomputation and
//! trace observation after an inner callback that changed the inner
//! output — one that announced it on [`fd_core::obs`] — and nothing after
//! the heartbeats and probes that changed nothing.

use fd_core::{Component, LeaderOracle, ProcessSet, SubCtx, SuspectOracle};
use fd_sim::{ProcessId, SimMessage};

/// ◇C from a suspect-list detector: `trusted = first non-suspected`.
#[derive(Debug)]
pub struct LeaderByFirstNonSuspected<D> {
    inner: D,
    n: usize,
    trusted: ProcessId,
}

impl<D: SuspectOracle> LeaderByFirstNonSuspected<D> {
    /// Wrap `inner`, which runs at one process of an `n`-process system.
    pub fn new(inner: D, n: usize) -> Self {
        let trusted = Self::compute(&inner, n);
        LeaderByFirstNonSuspected { inner, n, trusted }
    }

    /// Access the wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    fn compute(inner: &D, n: usize) -> ProcessId {
        // First process (in the paper's total order) not suspected; if the
        // detector momentarily suspects everyone, fall back to p0 — any
        // deterministic choice preserves the eventual guarantees.
        inner
            .suspected()
            .complement(n)
            .first()
            .unwrap_or(ProcessId(0))
    }

    /// Recompute the leader if the inner callback that queued everything
    /// after `mark` changed the suspected set.
    fn refresh<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, D::Msg>, mark: usize)
    where
        D: Component,
    {
        if !ctx.observed_since(mark, &[fd_core::obs::SUSPECTS]) {
            return;
        }
        let next = Self::compute(&self.inner, self.n);
        if next != self.trusted {
            self.trusted = next;
            ctx.observe(fd_core::obs::TRUSTED, fd_sim::Payload::Pid(next));
        }
    }
}

impl<D: SuspectOracle> SuspectOracle for LeaderByFirstNonSuspected<D> {
    fn suspected(&self) -> ProcessSet {
        self.inner.suspected()
    }
}

impl<D: SuspectOracle> LeaderOracle for LeaderByFirstNonSuspected<D> {
    fn trusted(&self) -> ProcessId {
        self.trusted
    }
}

impl<D: Component + SuspectOracle> Component for LeaderByFirstNonSuspected<D> {
    type Msg = D::Msg;

    fn ns(&self) -> u32 {
        self.inner.ns()
    }

    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, D::Msg>) {
        self.inner.on_start(ctx);
        // Emit the initial leader unconditionally so traces always have a
        // baseline TRUSTED observation.
        self.trusted = Self::compute(&self.inner, self.n);
        ctx.observe(fd_core::obs::TRUSTED, fd_sim::Payload::Pid(self.trusted));
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, D::Msg>,
        from: ProcessId,
        msg: D::Msg,
    ) {
        let mark = ctx.mark();
        self.inner.on_message(ctx, from, msg);
        self.refresh(ctx, mark);
    }

    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, D::Msg>,
        kind: u32,
        data: u64,
    ) {
        let mark = ctx.mark();
        self.inner.on_timer(ctx, kind, data);
        self.refresh(ctx, mark);
    }
}

/// ◇C from an Ω detector: `suspected = Π \ {trusted}`.
#[derive(Debug)]
pub struct SuspectAllButLeader<D> {
    inner: D,
    n: usize,
    last_emitted: Option<ProcessSet>,
}

impl<D: LeaderOracle> SuspectAllButLeader<D> {
    /// Wrap `inner`, which runs at one process of an `n`-process system.
    pub fn new(inner: D, n: usize) -> Self {
        SuspectAllButLeader {
            inner,
            n,
            last_emitted: None,
        }
    }

    /// Access the wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Re-derive the suspected set if the inner callback that queued
    /// everything after `mark` announced a leader (every Ω announces its
    /// first at the start).
    fn refresh<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, D::Msg>, mark: usize)
    where
        D: Component,
    {
        if !ctx.observed_since(mark, &[fd_core::obs::TRUSTED]) {
            return;
        }
        let set = self.suspected();
        if self.last_emitted.as_ref() != Some(&set) {
            ctx.observe(fd_core::obs::SUSPECTS, fd_sim::Payload::Pids(set.to_vec()));
            self.last_emitted = Some(set);
        }
    }
}

impl<D: LeaderOracle> SuspectOracle for SuspectAllButLeader<D> {
    fn suspected(&self) -> ProcessSet {
        ProcessSet::singleton(self.inner.trusted()).complement(self.n)
    }
}

impl<D: LeaderOracle> LeaderOracle for SuspectAllButLeader<D> {
    fn trusted(&self) -> ProcessId {
        self.inner.trusted()
    }
}

impl<D: Component + LeaderOracle> Component for SuspectAllButLeader<D> {
    type Msg = D::Msg;

    fn ns(&self) -> u32 {
        self.inner.ns()
    }

    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, D::Msg>) {
        let mark = ctx.mark();
        self.inner.on_start(ctx);
        self.refresh(ctx, mark);
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, D::Msg>,
        from: ProcessId,
        msg: D::Msg,
    ) {
        let mark = ctx.mark();
        self.inner.on_message(ctx, from, msg);
        self.refresh(ctx, mark);
    }

    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, D::Msg>,
        kind: u32,
        data: u64,
    ) {
        let mark = ctx.mark();
        self.inner.on_timer(ctx, kind, data);
        self.refresh(ctx, mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heartbeat::{HeartbeatConfig, HeartbeatDetector};
    use crate::ring::{RingConfig, RingDetector};
    use fd_core::{FdClass, FdRun, Standalone};
    use fd_sim::{LinkModel, NetworkConfig, SimDuration, Time, WorldBuilder};

    fn fast_net(n: usize) -> NetworkConfig {
        NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
        ))
    }

    #[test]
    fn ec_from_heartbeat_ep_satisfies_definition_1() {
        let n = 5;
        let mut w = WorldBuilder::new(fast_net(n))
            .seed(41)
            .crash_at(ProcessId(0), Time::from_millis(120))
            .build(|pid, n| {
                Standalone(LeaderByFirstNonSuspected::new(
                    HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                    n,
                ))
            });
        let end = Time::from_millis(1200);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        let run = FdRun::new(&trace, n, end);
        run.check_class(FdClass::EventuallyConsistent).unwrap();
        // With a ◇P base, accuracy is strong, not just weak.
        run.check_eventual_strong_accuracy().unwrap();
        // Leadership lands on the first correct process.
        for p in 1..n {
            assert_eq!(run.final_trusted(ProcessId(p)), Some(ProcessId(1)));
        }
    }

    #[test]
    fn ec_from_ring_es_is_the_no_extra_cost_construction() {
        let n = 5;
        let mut w = WorldBuilder::new(fast_net(n))
            .seed(42)
            .crash_at(ProcessId(1), Time::from_millis(150))
            .build(|pid, n| {
                Standalone(LeaderByFirstNonSuspected::new(
                    RingDetector::new(pid, n, RingConfig::default()),
                    n,
                ))
            });
        let end = Time::from_secs(3);
        w.run_until_time(end);
        let (trace, metrics) = w.into_results();
        let run = FdRun::new(&trace, n, end);
        run.check_class(FdClass::EventuallyConsistent).unwrap();
        // No new message kinds beyond the ring's own traffic.
        assert_eq!(metrics.kinds(), vec!["ring.poll", "ring.reply"]);
    }

    #[test]
    fn leader_fallback_when_everyone_is_suspected() {
        struct AllSuspects(usize);
        impl SuspectOracle for AllSuspects {
            fn suspected(&self) -> ProcessSet {
                ProcessSet::full(self.0)
            }
        }
        let a = LeaderByFirstNonSuspected::new(AllSuspects(4), 4);
        assert_eq!(a.trusted(), ProcessId(0));
    }

    #[test]
    fn suspect_all_but_leader_shape() {
        struct FixedLeader(ProcessId);
        impl LeaderOracle for FixedLeader {
            fn trusted(&self) -> ProcessId {
                self.0
            }
        }
        let a = SuspectAllButLeader::new(FixedLeader(ProcessId(2)), 5);
        assert_eq!(a.trusted(), ProcessId(2));
        let s = a.suspected();
        assert_eq!(s.len(), 4);
        assert!(!s.contains(ProcessId(2)));
    }
}
