//! The scenario abstraction: seed in, deterministic run out.

use crate::monitor::Monitor;
use crate::plan::{RunOutcome, RunPlan};

/// A deterministic, seed-indexed workload.
///
/// The contract that makes campaigns, replays, and shrinking work:
///
/// * [`Scenario::plan`] must be a **pure function of the seed** — no
///   ambient randomness, no wall-clock.
/// * [`SeedExecutor::execute`] must be a **pure function of the plan** —
///   two executions of the same plan produce byte-identical traces (the
///   engine asserts this indirectly by hashing traces), whatever the
///   executor ran before and whether or not it is instrumented.
///
/// Everything the run depends on therefore lives in the serializable
/// [`RunPlan`], so a failing seed can be shipped as a JSON artifact and
/// re-executed — possibly mutated by the shrinker — anywhere.
pub trait Scenario: Send + Sync {
    /// Registry name (`ecfd campaign --scenario <name>`).
    fn name(&self) -> &str;

    /// Expand a seed into a full run plan.
    fn plan(&self, seed: u64) -> RunPlan;

    /// The properties checked against every run, in order; the first
    /// violation fails the seed.
    fn monitors(&self) -> Vec<Box<dyn Monitor>>;

    /// Scenario-specific shrinker moves: single-step simplifications of
    /// `plan` beyond the generic ones (drop a crash, shorten the
    /// horizon, …) that the shrinker tries in addition. Implement this
    /// when the interesting structure lives in [`RunPlan::params`] — the
    /// generic moves never touch params, so without this hook a
    /// params-driven counterexample cannot shrink. Each entry is a
    /// human-readable label plus the candidate plan; candidates must be
    /// *valid* plans (the shrinker executes them verbatim). The default
    /// returns nothing.
    fn shrink_plan(&self, plan: &RunPlan) -> Vec<(String, RunPlan)> {
        let _ = plan;
        Vec::new()
    }

    /// Reject a plan no executor arm can run. Artifacts are outside input:
    /// `replay` and `shrink` ask this before executing one, so a stale or
    /// hand-edited params value is an `Err`, not a panic or some other
    /// run than the one it names. The default accepts every plan.
    fn check_plan(&self, plan: &RunPlan) -> Result<(), String> {
        let _ = plan;
        Ok(())
    }

    /// Build a plan runner: the one way a plan of this scenario executes.
    ///
    /// Sweep workers, replay, and the shrinker each call this once and
    /// feed the executor every plan they run, so implementations cache
    /// expensive state across runs — typically an [`fd_sim::WorldCache`]
    /// per actor type, re-armed between plans.
    fn make_executor(&self) -> Box<dyn SeedExecutor + '_>;
}

/// A reusable, stateful plan runner.
///
/// `&mut self` is what allows a cached `World` to live inside and be
/// reset instead of rebuilt for every plan. Executors never cross
/// threads: each worker makes its own.
pub trait SeedExecutor {
    /// Execute a plan to completion. When `obs` is given, the kernel
    /// records events processed, queue depth high-water mark, and
    /// per-callback timing into it (see `fd_sim::WorldObs`) —
    /// instrumentation may read clocks but must never touch simulation
    /// state, so the outcome is byte-identical either way.
    fn execute(&mut self, plan: &RunPlan, obs: Option<&fd_obs::Registry>) -> RunOutcome;
}
