//! Choice traces and their deterministic replay.
//!
//! An exploration run is identified by its *choice trace*: the sequence
//! of decisions taken at the recorded choice points, in order. The
//! [`Replayer`] scheduler plays a script of such choices and then falls
//! back to the canonical `(time, seq)` order, recording every genuine
//! choice point it passes — which is exactly what the DFS driver needs
//! to enumerate the siblings of the run it just executed. Replaying the
//! same script over the same target world is byte-identical: same trace
//! digest, same metrics, same violations.

use fd_sim::{ChoicePoint, ProcessId, SchedChoice, Scheduler, Time};

/// One decision at a recorded choice point: the kernel's own
/// [`SchedChoice`]. Indices refer to the canonical `(time, seq)` order of
/// the enabled set at that point, so a choice trace is meaningful only
/// relative to the world and the choices before it.
pub use fd_sim::SchedChoice as Choice;

/// One explorable option at a recorded choice point, with the
/// content digest and footprint the DFS keys its sleep sets on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptionRec {
    /// The decision this option stands for.
    pub choice: Choice,
    /// Content digest of the underlying event (stable across
    /// interleavings, unlike the kernel's seq numbers).
    pub key: u64,
    /// The single process the option mutates, if any — `None` for
    /// crashes and interventions, which conservatively depend on
    /// everything.
    pub target: Option<ProcessId>,
}

/// A recorded choice point: where the run was, what it could have done.
#[derive(Debug, Clone)]
pub struct CpRecord {
    /// The instant being scheduled.
    pub now: Time,
    /// The world's state digest entering the choice point (present when
    /// the target world was built with `track_state(true)`).
    pub digest: Option<u64>,
    /// Forced losses already spent entering this choice point. Part of
    /// the visited-set key: the digest captures the *world*, but the
    /// drop budget is scheduler state — two visits to the same digest
    /// with different remaining budgets do not cover each other.
    pub drops_used: usize,
    /// Every explorable option, canonical event picks first (index 0 is
    /// the canonical choice), then in-budget drops.
    pub options: Vec<OptionRec>,
}

/// A [`Scheduler`] that plays a choice script, then canonical order.
///
/// Only *genuine* choice points — more than one in-budget option — are
/// recorded and consume script entries; single-option calls auto-play
/// the canonical event so that scripts stay stable as budgets change.
/// Once `depth` choice points have been recorded, the rest of the run
/// is canonical (and [`Replayer::depth_capped`] is set, so the driver
/// knows the state space was truncated rather than exhausted).
#[derive(Debug)]
pub struct Replayer<'a> {
    script: &'a [Choice],
    pos: usize,
    depth: usize,
    drop_budget: usize,
    drops_used: usize,
    /// Every recorded choice point, in execution order.
    pub log: Vec<CpRecord>,
    /// Set when a genuine choice point was passed canonically because
    /// the depth budget was exhausted.
    pub depth_capped: bool,
}

impl<'a> Replayer<'a> {
    /// A replayer for `script` under the given depth and drop budgets.
    pub fn new(script: &'a [Choice], depth: usize, drop_budget: usize) -> Replayer<'a> {
        Replayer {
            script,
            pos: 0,
            depth,
            drop_budget,
            drops_used: 0,
            log: Vec::new(),
            depth_capped: false,
        }
    }

    fn options(&self, cp: &ChoicePoint<'_>) -> Vec<OptionRec> {
        let mut opts = Vec::with_capacity(cp.enabled.len() * 2);
        for (i, ev) in cp.enabled.iter().enumerate() {
            opts.push(OptionRec {
                choice: Choice::Event(i),
                key: ev.key,
                target: ev.target(),
            });
        }
        if self.drops_used < self.drop_budget {
            for (i, ev) in cp.enabled.iter().enumerate() {
                if ev.is_deliver() {
                    opts.push(OptionRec {
                        choice: Choice::Drop(i),
                        key: ev.key,
                        target: ev.target(),
                    });
                }
            }
        }
        opts
    }
}

impl Scheduler for Replayer<'_> {
    fn choose(&mut self, cp: &ChoicePoint<'_>) -> SchedChoice {
        let opts = self.options(cp);
        if opts.len() <= 1 {
            return SchedChoice::Event(0);
        }
        if self.log.len() >= self.depth {
            self.depth_capped = true;
            return SchedChoice::Event(0);
        }
        // A scripted choice the enabled set does not offer (a script cut
        // by the shrinker) plays the canonical event instead.
        let scripted = self.script.get(self.pos).copied();
        self.pos += 1;
        let choice = scripted
            .filter(|c| opts.iter().any(|o| o.choice == *c))
            .unwrap_or(Choice::Event(0));
        self.log.push(CpRecord {
            now: cp.now,
            digest: cp.state_digest,
            drops_used: self.drops_used,
            options: opts,
        });
        if choice.is_drop() {
            self.drops_used += 1;
        }
        choice
    }
}
