//! A detector's output is an event. `fd_core::Stack` hands the module
//! above a detector the news that the detector's output changed
//! (`Over::on_fd_change`) by reading the `fd.suspects` / `fd.trusted`
//! observations of each detector callback, and the consensus shell waits
//! on that news instead of polling. Two facts carry the design, and each
//! is pinned here:
//!
//! * every detector a stack hosts announces every change of its output
//!   in the callback that makes it — checked over generated chaos plans;
//! * a run whose detector output never changes between the proposals and
//!   the decisions is the run it was when every instance polled on a 2 ms
//!   timer: poll timers are not traced and draw no randomness. `GOLDEN`
//!   was recorded at a74e3be, the parent of the change, by running
//!   `crash_free_runs_kept_their_digests` there.

use ecfd::prelude::*;
use fd_campaign::Scenario as _;
use fd_chaos::{ChaosKind, ChaosPlan, DetectorKind};
use fd_detectors::{
    FusedConfig, FusedDetector, LeaderConfig, LeaderDetector, StableLeaderConfig,
    StableLeaderDetector, VCubeConfig, VCubeDetector,
};
use fd_kv::{encode, kv_spec_of, KvOp, KvScenario, KvWorkload};
use fd_sim::SimMessage;
use proptest::prelude::*;

/// Runs `D` and fails the run if a callback changed `D`'s output without
/// announcing the change on [`obs::OUTPUT`].
struct Announced<D>(D);

impl<D: Component + SuspectOracle + LeaderOracle> Announced<D> {
    fn watch<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, D::Msg>,
        what: &str,
        callback: impl FnOnce(&mut D, &mut SubCtx<'_, '_, N, D::Msg>),
    ) {
        let (before, mark) = (self.0.output(), ctx.mark());
        callback(&mut self.0, ctx);
        let after = self.0.output();
        assert!(
            before == after || ctx.observed_since(mark, &obs::OUTPUT),
            "{} at {}: {what} moved the output {before:?} -> {after:?} unannounced",
            ctx.me(),
            ctx.now()
        );
    }
}

impl<D: Component + SuspectOracle + LeaderOracle> Component for Announced<D> {
    type Msg = D::Msg;

    fn ns(&self) -> u32 {
        self.0.ns()
    }

    /// A (re)start is not watched: the module above reads the output
    /// afresh in its own `on_start`.
    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, D::Msg>) {
        self.0.on_start(ctx);
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, D::Msg>,
        from: ProcessId,
        msg: D::Msg,
    ) {
        self.watch(ctx, "a message", |d, ctx| d.on_message(ctx, from, msg));
    }

    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, D::Msg>,
        kind: u32,
        data: u64,
    ) {
        self.watch(ctx, "a timer", |d, ctx| d.on_timer(ctx, kind, data));
    }
}

/// A seed's generated chaos schedule (partitions, manglers, a crash and
/// a warm restart), run over `make`'s detectors to the plan's horizon.
fn chaos_run<D: Component + SuspectOracle + LeaderOracle>(
    seed: u64,
    make: impl Fn(ProcessId, usize) -> D,
) {
    let plan = fd_chaos::generate_plan(seed);
    let net = fd_chaos::base_net(plan.n);
    let script = fd_chaos::compile(&plan, &net).expect("generated plans are legal");
    let mut w = WorldBuilder::new(net)
        .seed(seed)
        .build(|pid, n| Standalone(Announced(make(pid, n))));
    for (at, iv) in script {
        w.schedule_intervention(at, iv);
    }
    w.run_until_time(plan.horizon);
}

fn ec_over<D: SuspectOracle>(inner: D, n: usize) -> LeaderByFirstNonSuspected<D> {
    LeaderByFirstNonSuspected::new(inner, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every detector a `Stack` hosts announces exactly what it changes:
    /// a callback that moved `output()` observed `fd.suspects` or
    /// `fd.trusted`.
    #[test]
    fn every_output_change_is_announced(seed in any::<u64>()) {
        chaos_run(seed, |p, n| ec_over(HeartbeatDetector::new(p, n, HeartbeatConfig::default()), n));
        chaos_run(seed, |p, n| ec_over(RingDetector::new(p, n, RingConfig::default()), n));
        chaos_run(seed, |p, n| ec_over(VCubeDetector::new(p, n, VCubeConfig::default()), n));
        chaos_run(seed, |p, n| LeaderDetector::new(p, n, LeaderConfig::default()));
        chaos_run(seed, |p, n| StableLeaderDetector::new(p, n, StableLeaderConfig::default()));
        chaos_run(seed, |p, n| FusedDetector::new(p, n, FusedConfig::default()));
        chaos_run(seed, |p, n| {
            SuspectAllButLeader::new(LeaderDetector::new(p, n, LeaderConfig::default()), n)
        });
        let settles = Time::from_millis(200 + seed % 400);
        chaos_run(seed, |p, n| {
            ScriptedDetector::chaos_then_leader(p, n, settles, ProcessId(seed as usize % n))
        });
    }
}

/// The E8 sweep's run of `seed`: its digest and message count.
fn e8(seed: u64) -> (u64, u64) {
    let sc = fd_bench::campaign::E8Scenario;
    let plan = sc.plan(seed);
    assert!(plan.crashes.is_empty(), "seed {seed} crashes someone");
    let outcome = sc.make_executor().execute(&plan, None);
    (outcome.trace.digest(), outcome.messages)
}

/// A `kv-ramp`-shaped run: four heartbeat-class replicas, no faults, an
/// open-loop client at 100 ops/s for two seconds, every replica a target.
fn kv_ramp() -> (u64, u64) {
    let calm = ChaosPlan::new(4, DetectorKind::Heartbeat, Time::from_secs(3))
        .push(Time::from_millis(300), ChaosKind::GstMarker);
    let sc = KvScenario::fixed(calm).expect("a legal plan");
    let mut plan = sc.plan(0x4a3f);
    let mut spec = kv_spec_of(&plan).expect("the scenario embeds its spec");
    spec.workload = KvWorkload {
        ops: (0..200u64)
            .map(|uid| {
                let op = KvOp::Put {
                    key: (uid % 8) as u16,
                    value: (uid % 97 + 1) as u16,
                };
                (
                    uid as usize % 4,
                    Time::from_millis(500 + 10 * uid),
                    encode(uid, op),
                )
            })
            .collect(),
    };
    plan.params = serde::Value::Obj(vec![("kv".to_string(), serde_json::to_value(&spec))]);
    let outcome = sc.make_executor().execute(&plan, None);
    (outcome.trace.digest(), outcome.messages)
}

#[test]
fn crash_free_runs_kept_their_digests() {
    /// `(run, Trace::digest(), messages sent)`: crash-free E8 seeds (◇C,
    /// CT and MR at each of the sweep's three sizes) and the
    /// `kv-ramp`-shaped run.
    const GOLDEN: [(&str, u64, u64); 10] = [
        ("e8-3", 0x688082ec831bb33b, 48),
        ("e8-13", 0xcf7e47eb1b63089c, 76),
        ("e8-24", 0x38a40da6975f28ef, 150),
        ("e8-41", 0xaad5df724cf32278, 40),
        ("e8-53", 0x706d6b14f1f80001, 84),
        ("e8-67", 0x929cf73d0c5dfad3, 162),
        ("e8-72", 0xa897ef9a457feb0d, 51),
        ("e8-87", 0xda74db9f8325ffc7, 84),
        ("e8-96", 0xff8f196c8ee00400, 174),
        ("kv-ramp", 0xbe5ed1e7eba7d5eb, 8933),
    ];
    // The first crash-free seed of each of the nine (protocol, n) cells.
    let crash_free = |seed: &u64| {
        fd_bench::campaign::E8Scenario
            .plan(*seed)
            .crashes
            .is_empty()
    };
    let mut got: Vec<(String, (u64, u64))> = (0..9u64)
        .map(|cell| {
            let seed = (cell * 12..cell * 12 + 12)
                .find(crash_free)
                .expect("a crash-free seed");
            (format!("e8-{seed}"), e8(seed))
        })
        .collect();
    got.push(("kv-ramp".to_string(), kv_ramp()));
    let mut drifted = String::new();
    for (name, (digest, sent)) in &got {
        if !GOLDEN.contains(&(name.as_str(), *digest, *sent)) {
            drifted += &format!("    (\"{name}\", {digest:#018x}, {sent}),\n");
        }
    }
    assert!(
        drifted.is_empty(),
        "digest or message count moved; this run's rows:\n{drifted}"
    );
}
