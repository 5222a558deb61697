//! The `kv` campaign scenario: an open-loop client workload over the
//! replicated KV service, under generated crash/restart + partition
//! chaos.
//!
//! Follows the `chaos` scenario's shape so every campaign facility —
//! sweeps, `--jobs` determinism, fd-obs instrumentation, repro
//! artifacts, plan-aware shrinking — applies unchanged:
//!
//! * **Generated** (the registry default): each seed expands into a
//!   [`ChaosPlan`] (system size, detector class, an optional healed
//!   minority partition, and — usually — a crash/restart pair) *plus* a
//!   deterministic open-loop arrival schedule of get/put/cas commands
//!   ([`generate_workload`]). Both are pure functions of the seed.
//! * **Fixed** ([`KvScenario::fixed`], `ecfd campaign --scenario kv
//!   --plan FILE`): every seed runs the same hand-written chaos plan;
//!   only the workload and RNG streams vary per seed.
//!
//! Three trace-only monitors check every run (trace-only so replay from
//! a JSON artifact works): replicas never disagree on an applied slot's
//! digest, every op submitted at a never-crashed replica commits, and
//! every restarted replica finishes snapshot/log catch-up.

use crate::command::{encode, KvOp};
use crate::replica::{obs, Kv, KvConfig, KvReplica};
use fd_campaign::scenario::SeedExecutor;
use fd_campaign::{run_plan, Monitor, RunOutcome, RunPlan, Scenario};
use fd_chaos::{
    base_net, compile, push_minority_partition, ChaosKind, ChaosPlan, DetectorKind, PlanSource,
};
use fd_core::{Stack, Violation};
use fd_detectors::{
    HeartbeatConfig, HeartbeatDetector, LeaderByFirstNonSuspected, RingConfig, RingDetector,
    StableLeaderConfig, StableLeaderDetector,
};
use fd_sim::{ProcessId, SimDuration, Time, Trace, WorldCache};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Registry name of [`KvScenario`].
pub const KV: &str = "kv";

/// Horizon of generated `kv` plans: chaos lands before ~1.9 s, arrivals
/// stop at half the horizon, and the rest is calm network in which
/// every surviving replica's queue must drain and commit.
const KV_HORIZON: Time = Time::from_secs(8);

/// The open-loop client workload of one run: `(replica, arrival, cmd)`
/// per operation, uid = position in the list.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct KvWorkload {
    /// One entry per operation.
    pub ops: Vec<(usize, Time, u64)>,
}

impl KvWorkload {
    /// Split into per-replica arrival schedules (the form
    /// [`Kv::new`] takes). An op addressed to a replica at or past `n`
    /// is dropped: the campaign shrinker cuts `n` without knowing the
    /// workload, and the executor runs such a desynced candidate for
    /// the same-property guard to judge.
    pub fn schedules(&self, n: usize) -> Vec<Vec<(Time, u64)>> {
        let mut out = vec![Vec::new(); n];
        for &(pid, at, cmd) in &self.ops {
            if let Some(schedule) = out.get_mut(pid) {
                schedule.push((at, cmd));
            }
        }
        out
    }
}

/// Everything a `kv` run depends on, carried in `RunPlan::params` under
/// the `"kv"` key so artifacts are self-contained and replayable.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct KvRunSpec {
    /// The fault schedule (also fixes `n`, detector class, horizon).
    pub chaos: ChaosPlan,
    /// The client workload.
    pub workload: KvWorkload,
    /// Replica tuning.
    pub cfg: KvConfig,
}

/// Recover the embedded [`KvRunSpec`] from a run plan's params.
pub fn kv_spec_of(plan: &RunPlan) -> Result<KvRunSpec, String> {
    serde_json::from_value(plan.params.field("kv"))
        .map_err(|e| format!("run plan carries no valid kv spec: {e}"))
}

/// Expand `seed` into this run's fault schedule: n ∈ 3..=5, the
/// detector class cycling with the seed, a GST marker, an optional
/// healed minority partition, and (usually) one crash/restart pair —
/// the scenario exists to exercise recovery, so churn is the common
/// case, not the rare one.
pub fn generate_kv_chaos(seed: u64) -> ChaosPlan {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6b76_c4a0_5bad);
    let n = rng.gen_range(3..=5);
    let detector = DetectorKind::ALL[(seed % 3) as usize];
    let mut plan =
        ChaosPlan::new(n, detector, KV_HORIZON).push(Time::from_millis(300), ChaosKind::GstMarker);

    if rng.gen_bool(0.4) {
        plan = push_minority_partition(plan, &mut rng, 600);
    }

    if rng.gen_bool(0.85) {
        // Crash one replica mid-workload and bring it back: the
        // restart must recover via snapshot + WAL + peer catch-up.
        let pid = ProcessId(rng.gen_range(0..n));
        let at = Time::from_millis(rng.gen_range(400..=1000));
        let back = at + SimDuration::from_millis(rng.gen_range(400..=900));
        plan = plan
            .push(at, ChaosKind::Crash { pid })
            .push(back, ChaosKind::Restart { pid });
    }

    debug_assert!(plan.validate().is_ok(), "generated kv plan must be legal");
    plan
}

/// Expand `seed` into the open-loop workload: 6–12 operations with
/// uniform arrivals over the first half of the horizon, random target
/// replicas, small key space (so cas contention actually happens).
pub fn generate_workload(seed: u64, n: usize, horizon: Time) -> KvWorkload {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6b76_1d0a_7e55);
    let count = rng.gen_range(6..=12);
    let last_arrival = (horizon.ticks() / 2000).max(100);
    let mut ops = Vec::with_capacity(count);
    for uid in 0..count as u64 {
        let pid = rng.gen_range(0..n);
        let at = Time::from_millis(rng.gen_range(50..=last_arrival));
        let key = rng.gen_range(0..8u16);
        let op = match rng.gen_range(0..3u32) {
            0 => KvOp::Get { key },
            1 => KvOp::Put {
                key,
                value: rng.gen_range(1..=99),
            },
            _ => KvOp::Cas {
                key,
                expect: rng.gen_range(0..=3),
                new: rng.gen_range(1..=99),
            },
        };
        ops.push((pid, at, encode(uid, op)));
    }
    KvWorkload { ops }
}

/// The kv scenario (registry name `"kv"`).
pub struct KvScenario {
    source: PlanSource,
}

impl KvScenario {
    /// Seed-generated chaos plans (the registry default).
    pub fn generated() -> KvScenario {
        KvScenario {
            source: PlanSource::Generated(generate_kv_chaos),
        }
    }

    /// Run `plan`'s fault schedule for every seed (`--plan FILE`);
    /// the workload still varies per seed. Errors if the plan is
    /// internally inconsistent.
    pub fn fixed(plan: ChaosPlan) -> Result<KvScenario, String> {
        PlanSource::fixed(plan).map(|source| KvScenario { source })
    }
}

/// The `RunPlan::params` object embedding `spec`.
fn kv_params(spec: &KvRunSpec) -> serde::Value {
    serde::Value::Obj(vec![("kv".to_string(), serde_json::to_value(spec))])
}

impl Scenario for KvScenario {
    fn name(&self) -> &str {
        KV
    }

    fn plan(&self, seed: u64) -> RunPlan {
        let chaos = self.source.plan(seed);
        let workload = generate_workload(seed, chaos.n, chaos.horizon);
        RunPlan::new(seed, chaos.horizon, base_net(chaos.n)).with_params(kv_params(&KvRunSpec {
            chaos,
            workload,
            cfg: KvConfig::default(),
        }))
    }

    fn monitors(&self) -> Vec<Box<dyn Monitor>> {
        vec![
            Box::new(LogAgreementMonitor),
            Box::new(CommittedMonitor),
            Box::new(RecoveryMonitor),
        ]
    }

    fn shrink_plan(&self, plan: &RunPlan) -> Vec<(String, RunPlan)> {
        let Ok(spec) = kv_spec_of(plan) else {
            return Vec::new();
        };
        let with_spec = |spec: &KvRunSpec| plan.clone().with_params(kv_params(spec));
        let mut out = Vec::new();
        for (label, chaos) in spec.chaos.drop_event_moves() {
            let shrunk = KvRunSpec {
                chaos,
                ..spec.clone()
            };
            out.push((label, with_spec(&shrunk)));
        }
        // Drop individual client operations.
        for i in 0..spec.workload.ops.len() {
            let mut shrunk = spec.clone();
            let (pid, at, _) = shrunk.workload.ops.remove(i);
            out.push((format!("drop op #{i} (p{pid}@{at})"), with_spec(&shrunk)));
        }
        out
    }

    fn make_executor(&self) -> Box<dyn SeedExecutor + '_> {
        Box::new(KvExecutor::default())
    }
}

/// Replica type aliases per detector class (suspect-list detectors gain
/// a leader view via the first-non-suspected transformation, exactly as
/// the consensus harness does).
type HbReplica = KvReplica<LeaderByFirstNonSuspected<HeartbeatDetector>>;
type RingReplica = KvReplica<LeaderByFirstNonSuspected<RingDetector>>;
type LeaderReplica = KvReplica<StableLeaderDetector>;

/// Executor: one reusable world per detector family, like the chaos
/// executor's.
#[derive(Default)]
pub struct KvExecutor {
    hb: WorldCache<HbReplica>,
    ring: WorldCache<RingReplica>,
    leader: WorldCache<LeaderReplica>,
}

impl SeedExecutor for KvExecutor {
    fn execute(&mut self, plan: &RunPlan, obs: Option<&fd_obs::Registry>) -> RunOutcome {
        let spec = kv_spec_of(plan).expect("kv scenario run plan");
        // Desynced shrink candidates run with no interventions; the
        // recovery monitor then has nothing to demand and the shrinker's
        // same-property guard discards the candidate (mirrors chaos).
        let interventions = compile(&spec.chaos, &plan.net).unwrap_or_default();
        let schedules = spec.workload.schedules(plan.n());
        let cfg = spec.cfg;
        let (net, seed) = (plan.net.clone(), plan.seed);
        let kv = |pid: ProcessId, n| Kv::new(pid, n, cfg, schedules[pid.index()].clone());
        let mut outcome = match spec.chaos.detector {
            DetectorKind::Heartbeat => {
                let world = self.hb.arm(net, seed, obs, |pid, n| {
                    let hb = HeartbeatDetector::new(pid, n, HeartbeatConfig::default());
                    Stack::new(LeaderByFirstNonSuspected::new(hb, n), kv(pid, n))
                });
                run_plan(world, plan, &interventions)
            }
            DetectorKind::Ring => {
                let world = self.ring.arm(net, seed, obs, |pid, n| {
                    let ring = RingDetector::new(pid, n, RingConfig::default());
                    Stack::new(LeaderByFirstNonSuspected::new(ring, n), kv(pid, n))
                });
                run_plan(world, plan, &interventions)
            }
            DetectorKind::StableLeader => {
                let world = self.leader.arm(net, seed, obs, |pid, n| {
                    let leader = StableLeaderDetector::new(pid, n, StableLeaderConfig::default());
                    Stack::new(leader, kv(pid, n))
                });
                run_plan(world, plan, &interventions)
            }
        };
        outcome.decision_latency = commit_latencies(&outcome.trace)
            .into_iter()
            .map(|(_, _, d)| d)
            .max();
        outcome
    }
}

/// Match every `kv.commit` back to its `kv.submit` (same replica, same
/// uid): `(pid, uid, latency)` per committed op. The commit fires at the
/// group-commit fsync, so the latency covers consensus *and* the disk.
pub fn commit_latencies(trace: &Trace) -> Vec<(ProcessId, u64, SimDuration)> {
    let mut submits: BTreeMap<(usize, u64), Time> = BTreeMap::new();
    for (t, pid, payload) in trace.observations(obs::SUBMIT) {
        if let Some((uid, _)) = payload.as_u64_pair() {
            submits.entry((pid.index(), uid)).or_insert(t);
        }
    }
    let mut out = Vec::new();
    for (t, pid, payload) in trace.observations(obs::COMMIT) {
        if let Some((uid, _)) = payload.as_u64_pair() {
            if let Some(&at) = submits.get(&(pid.index(), uid)) {
                out.push((pid, uid, t.since(at)));
            }
        }
    }
    out
}

/// Replicas never disagree on the digest of an applied slot.
struct LogAgreementMonitor;

impl Monitor for LogAgreementMonitor {
    fn property(&self) -> &str {
        fd_obs::keys::KV_LOG_AGREEMENT
    }

    fn check(&self, outcome: &RunOutcome) -> Result<(), Violation> {
        let mut seen: BTreeMap<u64, (u64, ProcessId)> = BTreeMap::new();
        for (_, pid, payload) in outcome.trace.observations(obs::APPLY) {
            let Some((slot, digest)) = payload.as_u64_pair() else {
                continue;
            };
            match seen.get(&slot) {
                None => {
                    seen.insert(slot, (digest, pid));
                }
                Some(&(first, by)) if first != digest => {
                    return Err(Violation {
                        property: fd_obs::keys::KV_LOG_AGREEMENT,
                        detail: format!(
                            "slot {slot}: {by} applied digest {first:#x}, \
                             {pid} applied {digest:#x}"
                        ),
                    });
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// Every op submitted at a replica that never crashed either commits
/// there before the horizon (liveness of the full stack: consensus
/// decides, the WAL fsyncs, the ack fires) or is *explicitly* abandoned
/// (`kv.abandon`: the replica fell behind a snapshot horizon and the
/// op's fate is hidden inside the adopted image). Silent loss is the
/// violation; abandonment is a visible, at-most-once outcome.
struct CommittedMonitor;

impl Monitor for CommittedMonitor {
    fn property(&self) -> &str {
        fd_obs::keys::KV_COMMITTED
    }

    fn check(&self, outcome: &RunOutcome) -> Result<(), Violation> {
        let crashed: Vec<ProcessId> = outcome
            .trace
            .crashes()
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        let mut resolved: BTreeMap<(usize, u64), bool> = BTreeMap::new();
        for tag in [obs::COMMIT, obs::ABANDON] {
            for (_, pid, payload) in outcome.trace.observations(tag) {
                if let Some((uid, _)) = payload.as_u64_pair() {
                    resolved.insert((pid.index(), uid), true);
                }
            }
        }
        for (_, pid, payload) in outcome.trace.observations(obs::SUBMIT) {
            if crashed.contains(&pid) {
                continue; // ops at a crashed replica may be lost
            }
            let Some((uid, _)) = payload.as_u64_pair() else {
                continue;
            };
            if !resolved.contains_key(&(pid.index(), uid)) {
                return Err(Violation {
                    property: fd_obs::keys::KV_COMMITTED,
                    detail: format!("op uid {uid} submitted at {pid} never committed or abandoned"),
                });
            }
        }
        Ok(())
    }
}

/// Every restarted replica finishes catch-up (`kv.sync_done` after its
/// restart) — the recovery path must terminate, not just not crash.
struct RecoveryMonitor;

impl Monitor for RecoveryMonitor {
    fn property(&self) -> &str {
        fd_obs::keys::KV_RECOVERY
    }

    fn check(&self, outcome: &RunOutcome) -> Result<(), Violation> {
        let restarts: Vec<(Time, ProcessId)> = outcome
            .trace
            .observations(fd_sim::chaos::RESTART)
            .filter_map(|(t, _, payload)| payload.as_pid().map(|p| (t, p)))
            .collect();
        for (at, pid) in restarts {
            let caught_up = outcome
                .trace
                .observations_of(pid, obs::SYNC_DONE)
                .any(|(t, _)| t >= at);
            if !caught_up {
                return Err(Violation {
                    property: fd_obs::keys::KV_RECOVERY,
                    detail: format!("{pid} restarted at {at} but never finished catch-up"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        let sc = KvScenario::generated();
        for seed in 0..30 {
            let a = sc.plan(seed);
            let b = sc.plan(seed);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap()
            );
            let spec = kv_spec_of(&a).unwrap();
            spec.chaos.validate().unwrap();
            assert!(!spec.workload.ops.is_empty());
        }
    }

    #[test]
    fn seed_layout_cycles_all_detectors() {
        let kinds: Vec<DetectorKind> = (0..3).map(|s| generate_kv_chaos(s).detector).collect();
        assert_eq!(kinds, DetectorKind::ALL.to_vec());
    }

    #[test]
    fn generated_seeds_uphold_all_kv_properties() {
        let sc = KvScenario::generated();
        let monitors = sc.monitors();
        let mut ex = sc.make_executor();
        for seed in 0..12 {
            let outcome = ex.execute(&sc.plan(seed), None);
            for m in &monitors {
                m.check(&outcome)
                    .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            }
            assert!(outcome.messages > 0, "seed {seed} moved no messages");
        }
    }

    #[test]
    fn restarted_replicas_catch_up_with_bounded_replay() {
        // Find generated seeds whose plan has a crash/restart pair and
        // check the recovery observations directly: the WAL replay after
        // the crash must be bounded by the snapshot cadence, not by the
        // length of the decided log.
        let sc = KvScenario::generated();
        let mut ex = sc.make_executor();
        let mut checked = 0;
        for seed in 0..24 {
            let plan = sc.plan(seed);
            let spec = kv_spec_of(&plan).unwrap();
            if spec.chaos.restarted().is_empty() {
                continue;
            }
            let outcome = ex.execute(&plan, None);
            for (pid, _, _) in spec.chaos.restarted() {
                let Some((_, payload)) = outcome.trace.last_observation_of(pid, obs::RECOVERY)
                else {
                    panic!("seed {seed}: {pid} restarted without a recovery record");
                };
                let (replayed, _) = payload.as_u64_pair().unwrap();
                assert!(
                    replayed <= spec.cfg.snapshot_every + 2,
                    "seed {seed}: {pid} replayed {replayed} WAL records, \
                     snapshot cadence is {}",
                    spec.cfg.snapshot_every
                );
            }
            checked += 1;
        }
        assert!(checked >= 5, "only {checked} crash/restart seeds in range");
    }

    #[test]
    fn overlapping_recoveries_wait_for_an_authoritative_peer() {
        // p1 and p2 crash, then restart together behind a partition
        // that hides the only replica which kept serving: until the
        // heal, each can only hear the *other recovering* replica's
        // frontier claim — which must not end its catch-up (two blank
        // recoveries talking each other out of syncing is how globally
        // decided slots get re-opened).
        let heal = Time::from_millis(2000);
        let plan = ChaosPlan::new(3, DetectorKind::Heartbeat, Time::from_secs(8))
            .push(Time::from_millis(300), ChaosKind::GstMarker)
            .push(
                Time::from_millis(600),
                ChaosKind::Crash { pid: ProcessId(1) },
            )
            .push(
                Time::from_millis(700),
                ChaosKind::Crash { pid: ProcessId(2) },
            )
            .push(
                Time::from_millis(1100),
                ChaosKind::Partition {
                    groups: vec![vec![ProcessId(0)], vec![ProcessId(1), ProcessId(2)]],
                },
            )
            .push(
                Time::from_millis(1200),
                ChaosKind::Restart { pid: ProcessId(1) },
            )
            .push(
                Time::from_millis(1300),
                ChaosKind::Restart { pid: ProcessId(2) },
            )
            .push(heal, ChaosKind::Heal);
        let sc = KvScenario::fixed(plan).unwrap();
        let monitors = sc.monitors();
        let mut ex = sc.make_executor();
        for seed in 0..6 {
            let outcome = ex.execute(&sc.plan(seed), None);
            for m in &monitors {
                m.check(&outcome)
                    .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            }
            for pid in [ProcessId(1), ProcessId(2)] {
                let done: Vec<Time> = outcome
                    .trace
                    .observations_of(pid, obs::SYNC_DONE)
                    .map(|(t, _)| t)
                    .collect();
                assert!(
                    !done.is_empty(),
                    "seed {seed}: {pid} never finished catch-up"
                );
                assert!(
                    done.iter().all(|&t| t >= heal),
                    "seed {seed}: {pid} finished catch-up at {done:?}, \
                     before the heal exposed an authoritative peer"
                );
            }
        }
    }

    #[test]
    fn whole_cluster_restart_escapes_catchup_deadlock() {
        // Every replica crashes and recovers: no authoritative peer
        // will ever answer, so catch-up must end through the all-peers-
        // lagging escape hatch instead of wedging the cluster forever.
        // The recovery monitor demands a `kv.sync_done` per restart.
        let plan = ChaosPlan::new(3, DetectorKind::Heartbeat, Time::from_secs(8))
            .push(Time::from_millis(300), ChaosKind::GstMarker)
            .push(
                Time::from_millis(500),
                ChaosKind::Crash { pid: ProcessId(0) },
            )
            .push(
                Time::from_millis(600),
                ChaosKind::Crash { pid: ProcessId(1) },
            )
            .push(
                Time::from_millis(700),
                ChaosKind::Crash { pid: ProcessId(2) },
            )
            .push(
                Time::from_millis(1400),
                ChaosKind::Restart { pid: ProcessId(0) },
            )
            .push(
                Time::from_millis(1500),
                ChaosKind::Restart { pid: ProcessId(1) },
            )
            .push(
                Time::from_millis(1600),
                ChaosKind::Restart { pid: ProcessId(2) },
            );
        let sc = KvScenario::fixed(plan).unwrap();
        let monitors = sc.monitors();
        let mut ex = sc.make_executor();
        for seed in 0..6 {
            let outcome = ex.execute(&sc.plan(seed), None);
            for m in &monitors {
                m.check(&outcome)
                    .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            }
        }
    }

    #[test]
    fn shrink_moves_drop_events_and_ops() {
        let sc = KvScenario::generated();
        // Seed 1 has both chaos events and ops (pure function, so this
        // is stable).
        let plan = sc.plan(1);
        let spec = kv_spec_of(&plan).unwrap();
        let moves = sc.shrink_plan(&plan);
        assert!(moves.len() >= spec.workload.ops.len());
        for (label, candidate) in &moves {
            let shrunk = kv_spec_of(candidate).unwrap();
            shrunk
                .chaos
                .validate()
                .unwrap_or_else(|e| panic!("candidate {label:?} invalid: {e}"));
            assert!(
                shrunk.chaos.events.len() < spec.chaos.events.len()
                    || shrunk.workload.ops.len() < spec.workload.ops.len()
            );
        }
    }

    /// ROADMAP item 3, recorded not fixed: p0, cut off from the rest,
    /// joins slot 0 alone (its WAL `Join` marker is durable), crashes,
    /// and restarts after the heal with slot 0 quarantined — it will
    /// never vote there again. But it is the lowest pid, so once it is
    /// back every process trusts it: the one replica that will never
    /// coordinate slot 0. The pipeline is depth 1, so no later slot
    /// opens and nothing submitted anywhere commits for the rest of the
    /// run. The fix is a protocol decision — a quarantined replica must
    /// stop being its slot's leader, or remember its rounds. Found as
    /// seed 2787 of `ecfd campaign --scenario kv --seeds 0..3000`.
    #[test]
    #[ignore = "ROADMAP 3: quarantined leader"]
    fn a_quarantined_leader_does_not_wedge_the_service() {
        let p0 = ProcessId(0);
        let rest = vec![ProcessId(1), ProcessId(2), ProcessId(3)];
        let plan = ChaosPlan::new(4, DetectorKind::Heartbeat, KV_HORIZON)
            .push(
                Time::from_millis(200),
                ChaosKind::Partition {
                    groups: vec![vec![p0], rest],
                },
            )
            .push(Time::from_millis(300), ChaosKind::GstMarker)
            .push(Time::from_millis(400), ChaosKind::Crash { pid: p0 })
            .push(Time::from_millis(600), ChaosKind::Heal)
            .push(Time::from_millis(900), ChaosKind::Restart { pid: p0 });
        let sc = KvScenario::fixed(plan).unwrap();
        let plan = sc.plan(0);
        let mut spec = kv_spec_of(&plan).unwrap();
        spec.workload.ops = vec![
            (0, Time::from_millis(300), encode(0, KvOp::Get { key: 0 })),
            (2, Time::from_millis(1500), encode(1, KvOp::Get { key: 0 })),
        ];
        let outcome = sc
            .make_executor()
            .execute(&plan.with_params(kv_params(&spec)), None);
        CommittedMonitor.check(&outcome).unwrap();
    }

    /// The campaign shrinker cuts `n` knowing nothing of the workload.
    /// A candidate whose ops address the removed replica must run and
    /// be judged — here discarded: without the op nothing is violated —
    /// not index out of bounds.
    #[test]
    fn shrinking_a_four_replica_artifact_survives_the_cut_to_three() {
        let calm = ChaosPlan::new(4, DetectorKind::Heartbeat, KV_HORIZON)
            .push(Time::from_millis(300), ChaosKind::GstMarker);
        let sc = KvScenario::fixed(calm).unwrap();
        let plan = sc.plan(0);
        let mut spec = kv_spec_of(&plan).unwrap();
        // One op, at the last replica, a millisecond before the horizon:
        // too late to commit whatever the protocol does.
        let late = Time(KV_HORIZON.ticks() - 1_000);
        spec.workload.ops = vec![(3, late, encode(0, KvOp::Get { key: 0 }))];
        let plan = plan.with_params(kv_params(&spec));
        let outcome = sc.make_executor().execute(&plan, None);
        let violation = CommittedMonitor
            .check(&outcome)
            .expect_err("the late op cannot commit");
        let artifact = fd_campaign::Artifact {
            scenario: KV.to_string(),
            seed: 0,
            property: violation.property.to_string(),
            detail: violation.to_string(),
            digest: outcome.trace.digest(),
            plan,
        };
        let shrunk = fd_campaign::shrink(&sc, &artifact).expect("the artifact violates");
        assert_eq!(shrunk.artifact.plan.n(), 4, "{}", shrunk.render());
        assert_eq!(shrunk.artifact.property, fd_obs::keys::KV_COMMITTED);
    }

    /// Overload order: 300 ops/s for one second at four heartbeat-class
    /// replicas with no faults is six times what one command per
    /// decision carries. Every op must still commit, promptly, and no
    /// replica may be served at another's expense: a backlog drains
    /// longest queue first, not by which command word ranks highest.
    /// (One command per slot, contended slots going to the largest raw
    /// word — `Cas` over `Put` over `Get`, then the highest uid — had a
    /// p99 of 2.8–3.1 s here, with one replica's worst op at 83 ms and
    /// another's at 2.8 s in the same run.)
    #[test]
    fn a_backlog_commits_promptly_and_fairly() {
        let n = 4;
        let calm = ChaosPlan::new(n, DetectorKind::Heartbeat, KV_HORIZON)
            .push(Time::from_millis(300), ChaosKind::GstMarker);
        let sc = KvScenario::fixed(calm).unwrap();
        let monitors = sc.monitors();
        let mut ex = sc.make_executor();
        for seed in 0..4 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let ops = (0..300u64)
                .map(|uid| {
                    let op = match uid % 3 {
                        0 => KvOp::Get {
                            key: uid as u16 % 8,
                        },
                        1 => KvOp::Put {
                            key: uid as u16 % 8,
                            value: uid as u16,
                        },
                        _ => KvOp::Cas {
                            key: uid as u16 % 8,
                            expect: 0,
                            new: uid as u16,
                        },
                    };
                    let due = Time(500_000 + uid * 1_000_000 / 300);
                    (rng.gen_range(0..n), due, encode(uid, op))
                })
                .collect();
            let mut plan = sc.plan(seed);
            let mut spec = kv_spec_of(&plan).unwrap();
            spec.workload = KvWorkload { ops };
            plan = plan.with_params(kv_params(&spec));
            let outcome = ex.execute(&plan, None);
            for m in &monitors {
                m.check(&outcome)
                    .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            }
            let latencies = commit_latencies(&outcome.trace);
            assert_eq!(latencies.len(), 300, "seed {seed}: ops left uncommitted");
            let mut all: Vec<u64> = latencies.iter().map(|(_, _, d)| d.ticks()).collect();
            all.sort_unstable();
            let p99 = all[all.len() * 99 / 100];
            assert!(p99 <= 250_000, "seed {seed}: commit p99 {p99} us");
            let worst_at = |pid| {
                latencies
                    .iter()
                    .filter(|(p, _, _)| p.index() == pid)
                    .map(|(_, _, d)| d.ticks())
                    .max()
                    .expect("every replica got ops")
            };
            let worst: Vec<u64> = (0..n).map(worst_at).collect();
            let (lo, hi) = (worst.iter().min().unwrap(), worst.iter().max().unwrap());
            assert!(
                *hi <= 3 * *lo,
                "seed {seed}: per-replica worst latencies {worst:?} us"
            );
        }
    }
}
