//! Completeness amplification: ◇W → ◇S (Chandra–Toueg \[6\], cited in §3).
//!
//! Every process periodically broadcasts its *local* suspect information;
//! on receiving `S_q` from `q`, a process merges `S_q` into its own view
//! and removes `q` (the message proves `q` alive at sending time). If the
//! input provides weak completeness — every crashed process eventually
//! suspected by *some* correct process — the gossip spreads each suspicion
//! to *every* correct process, yielding strong completeness, while the
//! `\ {sender}` rule preserves eventual weak accuracy: the eventual
//! unsuspected-by-its-monitor process keeps being cleared everywhere each
//! time its own gossip arrives.
//!
//! The amplifier is the upper half of a [`Stack`](fd_core::Stack) over
//! any source detector `D` and reads `D.suspected` — the local (weak)
//! view — on every callback; the tests pair it with a
//! neighbour-monitoring restricted heartbeat, the canonical ◇W example.

// fd-lint: allow(API001, reason = "the §3 ◇W→◇S construction of the class hierarchy: no stack needs it, tests/class_hierarchy.rs checks it")
use fd_core::{Over, ProcessSet, SubCtx, SuspectOracle};
use fd_sim::{ProcessId, SimDuration, SimMessage, TimerTag};

/// Observation tag under which the amplifier publishes its ◇S output.
pub use fd_obs::keys::W2S_SUSPECTS_OUT;

/// Configuration of the [`WeakToStrong`] amplifier.
#[derive(Debug, Clone)]
pub struct WeakToStrongConfig {
    /// Gossip period.
    pub period: SimDuration,
}

impl Default for WeakToStrongConfig {
    fn default() -> Self {
        WeakToStrongConfig {
            period: SimDuration::from_millis(10),
        }
    }
}

/// Gossip message carrying the sender's current (amplified) suspect set.
#[derive(Debug, Clone)]
pub struct W2sMsg(pub Vec<ProcessId>);

impl SimMessage for W2sMsg {
    fn kind(&self) -> &'static str {
        fd_obs::keys::W2S_SUSPECTS_OUT
    }
}

const TIMER_GOSSIP: u32 = 0;

/// The ◇W → ◇S completeness amplifier.
#[derive(Debug)]
pub struct WeakToStrong {
    me: ProcessId,
    cfg: WeakToStrongConfig,
    /// The amplified view: local weak input ∪ gossip, minus evidence.
    output: ProcessSet,
    last_emitted: Option<ProcessSet>,
}

impl WeakToStrong {
    /// Create the amplifier for process `me`.
    pub fn new(me: ProcessId, cfg: WeakToStrongConfig) -> WeakToStrong {
        WeakToStrong {
            me,
            cfg,
            output: ProcessSet::new(),
            last_emitted: None,
        }
    }

    fn absorb_local(&mut self, local: ProcessSet) {
        self.output = &self.output | &local;
        self.output.remove(self.me);
    }

    fn emit_if_changed<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, W2sMsg>) {
        if self.last_emitted.as_ref() != Some(&self.output) {
            ctx.observe(
                W2S_SUSPECTS_OUT,
                fd_sim::Payload::Pids(self.output.to_vec()),
            );
            self.last_emitted = Some(self.output.clone());
        }
    }
}

impl<D: SuspectOracle> Over<D> for WeakToStrong {
    type Msg = W2sMsg;

    fn ns(&self) -> u32 {
        crate::ns::WEAK_TO_STRONG
    }

    /// Startup: arm the gossip timer.
    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, W2sMsg>, weak: &D) {
        self.absorb_local(weak.suspected());
        ctx.set_timer(self.cfg.period, TIMER_GOSSIP, 0);
        self.emit_if_changed(ctx);
    }

    /// Merge a peer's gossip.
    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, W2sMsg>,
        from: ProcessId,
        msg: W2sMsg,
        weak: &D,
    ) {
        let theirs: ProcessSet = msg.0.iter().collect();
        self.output = &self.output | &theirs;
        // The message itself is evidence `from` is alive; and the local
        // (weak) detector's current view re-enters so revoked local
        // suspicions don't linger via our own earlier gossip.
        self.output.remove(from);
        self.output.remove(self.me);
        self.absorb_local(weak.suspected());
        self.emit_if_changed(ctx);
    }

    /// Periodic gossip.
    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, W2sMsg>,
        tag: TimerTag,
        weak: &D,
    ) {
        debug_assert_eq!(tag.kind, TIMER_GOSSIP);
        self.absorb_local(weak.suspected());
        ctx.send_to_others(W2sMsg(self.output.to_vec()));
        ctx.set_timer(self.cfg.period, TIMER_GOSSIP, 0);
        self.emit_if_changed(ctx);
    }
}

impl SuspectOracle for WeakToStrong {
    fn suspected(&self) -> ProcessSet {
        self.output.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heartbeat::{HeartbeatConfig, HeartbeatDetector};
    use fd_core::{FdRun, Stack};
    use fd_sim::{LinkModel, NetworkConfig, Time, WorldBuilder};

    /// Each process monitors only its ring successor — weak completeness
    /// only (see the heartbeat tests).
    fn neighbour_weak(pid: ProcessId, n: usize) -> HeartbeatDetector {
        HeartbeatDetector::restricted(
            pid,
            n,
            HeartbeatConfig::default(),
            ProcessSet::singleton(pid.predecessor(n)),
            ProcessSet::singleton(pid.successor(n)),
        )
    }

    fn node(pid: ProcessId, n: usize) -> Stack<HeartbeatDetector, WeakToStrong> {
        Stack::new(
            neighbour_weak(pid, n),
            WeakToStrong::new(pid, WeakToStrongConfig::default()),
        )
    }

    #[test]
    fn amplifier_upgrades_weak_to_strong_completeness() {
        let n = 5;
        let net = NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
        ));
        let mut w = WorldBuilder::new(net)
            .seed(71)
            .crash_at(ProcessId(2), Time::from_millis(150))
            .crash_at(ProcessId(4), Time::from_millis(200))
            .build(node);
        let end = Time::from_secs(2);
        w.run_until_time(end);
        let (trace, _) = w.into_results();

        // The weak source alone does NOT satisfy strong completeness...
        let weak_run = FdRun::new(&trace, n, end);
        assert!(weak_run.check_strong_completeness().is_err());
        weak_run.check_weak_completeness().unwrap();

        // ...but the amplified output does, and stays weakly accurate.
        let amp_run = FdRun::new(&trace, n, end).with_suspects_tag(W2S_SUSPECTS_OUT);
        amp_run.check_strong_completeness().unwrap();
        amp_run.check_eventual_weak_accuracy().unwrap();
        let expected: ProcessSet = [ProcessId(2), ProcessId(4)].into_iter().collect();
        for p in [0usize, 1, 3] {
            assert_eq!(amp_run.final_suspects(ProcessId(p)), expected, "p{p}");
        }
    }

    #[test]
    fn gossip_does_not_suspect_live_senders() {
        let n = 4;
        let net = NetworkConfig::new(n);
        let mut w = WorldBuilder::new(net).seed(72).build(node);
        let end = Time::from_millis(800);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        let amp_run = FdRun::new(&trace, n, end).with_suspects_tag(W2S_SUSPECTS_OUT);
        amp_run.check_eventual_strong_accuracy().unwrap();
    }

    #[test]
    fn leader_recipe_on_amplified_output() {
        let n = 4;
        let net = NetworkConfig::new(n);
        let mut w = WorldBuilder::new(net)
            .seed(73)
            .crash_at(ProcessId(0), Time::from_millis(100))
            .build(node);
        w.run_until_time(Time::from_secs(2));
        // The §3 leader recipe applied to the amplified output.
        for p in 1..n {
            let amplified = w.actor(ProcessId(p)).above.suspected();
            assert_eq!(amplified.complement(n).first(), Some(ProcessId(1)));
        }
    }
}
