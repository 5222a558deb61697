//! Scenario runner: build a world of consensus nodes, propose, run to
//! decision, and collect everything the experiments need.

use crate::api::{DecidePayload, RoundProtocol};
use crate::node::ConsensusNode;
use fd_core::Component;
use fd_core::{LeaderOracle, SuspectOracle};
use fd_sim::{Metrics, NetworkConfig, ProcessId, QueueImpl, Time, Trace, WorldCache};

/// A consensus workload description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Run seed.
    pub seed: u64,
    /// Scheduled crashes.
    pub crashes: Vec<(ProcessId, Time)>,
    /// The value proposed by each process (`proposals[i]` for `p_i`).
    pub proposals: Vec<u64>,
    /// Give up (and report non-termination) at this time.
    pub horizon: Time,
}

impl Scenario {
    /// A failure-free scenario where process `i` proposes `100 + i`.
    pub fn failure_free(n: usize, seed: u64, horizon: Time) -> Scenario {
        Scenario {
            seed,
            crashes: Vec::new(),
            proposals: (0..n).map(|i| 100 + i as u64).collect(),
            horizon,
        }
    }

    /// Add a crash.
    pub fn with_crash(mut self, pid: ProcessId, at: Time) -> Scenario {
        self.crashes.push((pid, at));
        self
    }
}

/// Everything observable about a finished consensus run.
#[derive(Debug)]
pub struct RunResult {
    /// Full event trace (feed to [`fd_core::ConsensusRun`]).
    pub trace: Trace,
    /// Message metrics.
    pub metrics: Metrics,
    /// Whether every correct process decided before the horizon.
    pub all_decided: bool,
    /// The time the last correct process decided, if all did.
    pub decide_time: Option<Time>,
    /// Per-process decision `(value, round)`.
    pub decisions: Vec<Option<DecidePayload>>,
    /// Per-process final round counter.
    pub final_rounds: Vec<u64>,
    /// Number of processes.
    pub n: usize,
}

/// Run a consensus scenario over `net` with nodes assembled by `mk_node`.
pub fn run_scenario<D, P>(
    net: NetworkConfig,
    sc: &Scenario,
    mk_node: impl FnMut(ProcessId, usize) -> ConsensusNode<D, P>,
) -> RunResult
where
    D: Component + SuspectOracle + LeaderOracle,
    P: RoundProtocol,
{
    ConsensusRunner::new().run(net, sc, mk_node, None)
}

/// A reusable consensus-scenario runner.
///
/// Keeps one [`World`](fd_sim::World) of `ConsensusNode<D, P>` alive
/// across runs (an [`fd_sim::WorldCache`]), so a seed sweep pays the
/// queue/actor/trace allocations once instead of once per seed. Runs
/// through a reused runner are byte-identical to fresh-world runs.
pub struct ConsensusRunner<D, P>
where
    D: Component + SuspectOracle + LeaderOracle,
    P: RoundProtocol,
{
    world: WorldCache<ConsensusNode<D, P>>,
}

impl<D, P> Default for ConsensusRunner<D, P>
where
    D: Component + SuspectOracle + LeaderOracle,
    P: RoundProtocol,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<D, P> ConsensusRunner<D, P>
where
    D: Component + SuspectOracle + LeaderOracle,
    P: RoundProtocol,
{
    /// A runner on the default event-queue implementation.
    pub fn new() -> Self {
        ConsensusRunner {
            world: WorldCache::default(),
        }
    }

    /// A runner on an explicit event-queue implementation. Exists for
    /// the golden-digest suite, which proves the timer wheel and the
    /// classic binary heap schedule byte-identical runs.
    pub fn with_queue_impl(queue: QueueImpl) -> Self {
        ConsensusRunner {
            world: WorldCache::new(move |builder| builder.queue_impl(queue)),
        }
    }

    /// Run one scenario, reusing the cached world when possible.
    pub fn run(
        &mut self,
        net: NetworkConfig,
        sc: &Scenario,
        mk_node: impl FnMut(ProcessId, usize) -> ConsensusNode<D, P>,
        obs: Option<&fd_obs::Registry>,
    ) -> RunResult {
        let n = net.n();
        assert_eq!(sc.proposals.len(), n, "one proposal per process");
        let world = self.world.arm(net, sc.seed, obs, mk_node);
        for &(pid, at) in &sc.crashes {
            world.schedule_crash(pid, at);
        }

        for (i, &v) in sc.proposals.iter().enumerate() {
            world.interact(ProcessId(i), |node, ctx| {
                node.with_above(ctx, |decider, ctx, _| decider.propose(ctx, v))
            });
        }

        // The predicate runs after every event, so it must not allocate:
        // scan processes in place instead of materializing `correct()`.
        let decided = world.run_until(sc.horizon, |w| {
            (0..w.n()).all(|i| {
                let p = ProcessId(i);
                w.is_crashed(p) || w.actor(p).above.decision().is_some()
            })
        });
        let decide_time = decided.then(|| world.now());
        let decisions: Vec<Option<DecidePayload>> = (0..n)
            .map(|i| world.actor(ProcessId(i)).above.decision())
            .collect();
        let final_rounds: Vec<u64> = (0..n)
            .map(|i| world.actor(ProcessId(i)).above.cons.round())
            .collect();
        let all_decided = decided;
        let (trace, metrics) = world.take_results();
        RunResult {
            trace,
            metrics,
            all_decided,
            decide_time,
            decisions,
            final_rounds,
            n,
        }
    }
}

impl RunResult {
    /// The common decided value (panics if the run did not decide or
    /// decided inconsistently — use the property checkers for diagnosis).
    pub fn decided_value(&self) -> u64 {
        let mut vals = self.decisions.iter().flatten().map(|(v, _)| *v);
        let first = vals.next().expect("no process decided");
        assert!(vals.all(|v| v == first), "inconsistent decisions");
        first
    }

    /// The largest round in which any process decided.
    pub fn max_decision_round(&self) -> Option<u64> {
        self.decisions.iter().flatten().map(|(_, r)| *r).max()
    }

    /// Messages sent per consensus round, for the §5.4 accounting,
    /// restricted to the given kind prefix (e.g. `"ec."`).
    pub fn messages_with_prefix(&self, prefix: &str) -> u64 {
        self.metrics
            .kinds()
            .iter()
            .filter(|k| k.starts_with(prefix))
            .map(|k| self.metrics.sent_of_kind(k))
            .sum()
    }

    /// Messages of one protocol round (by round tag), restricted to the
    /// given kind prefix. This is the paper's per-round accounting:
    /// traffic that processes optimistically send for *later* rounds
    /// before the decision broadcast reaches them is not charged to the
    /// deciding round.
    pub fn messages_in_round(&self, prefix: &str, round: u64) -> u64 {
        self.metrics
            .kinds()
            .iter()
            .filter(|k| k.starts_with(prefix))
            .map(|k| self.metrics.sent_of_kind_in_round(k, round))
            .sum()
    }
}

/// The default network used by consensus tests and experiments: reliable
/// links with 1–4ms jitter.
pub fn default_net(n: usize) -> NetworkConfig {
    use fd_sim::{LinkModel, SimDuration};
    NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
        SimDuration::from_millis(1),
        SimDuration::from_millis(4),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::Time;

    #[test]
    fn failure_free_scenario_shape() {
        let sc = Scenario::failure_free(4, 7, Time::from_secs(1));
        assert_eq!(sc.proposals, vec![100, 101, 102, 103]);
        assert_eq!(sc.seed, 7);
        assert!(sc.crashes.is_empty());
        let sc = sc.with_crash(ProcessId(2), Time::from_millis(5));
        assert_eq!(sc.crashes, vec![(ProcessId(2), Time::from_millis(5))]);
    }

    #[test]
    fn run_result_accessors() {
        // Drive a tiny real run and sanity-check the accessors.
        let sc = Scenario::failure_free(3, 9, Time::from_secs(5));
        let r = run_scenario(default_net(3), &sc, crate::ec_node_hb);
        assert!(r.all_decided);
        assert!(sc.proposals.contains(&r.decided_value()));
        assert_eq!(r.max_decision_round(), Some(1));
        assert!(r.messages_with_prefix("ec.") >= r.messages_in_round("ec.", 1));
        assert!(r.messages_with_prefix("nope.") == 0);
        assert_eq!(r.decisions.len(), 3);
        assert_eq!(r.final_rounds.len(), 3);
    }

    #[test]
    #[should_panic(expected = "one proposal per process")]
    fn proposal_count_mismatch_rejected() {
        let mut sc = Scenario::failure_free(3, 1, Time::from_secs(1));
        sc.proposals.pop();
        let _ = run_scenario(default_net(3), &sc, crate::ec_node_hb);
    }
}
