//! Golden-digest equivalence of the two kernel event-queue
//! implementations.
//!
//! The timer wheel replaced the classic `BinaryHeap` on the hot path;
//! its correctness contract is not "approximately the same schedule" but
//! *byte-identical runs*: every event pops in the same `(time, seq)`
//! order, so traces, digests, message counts, and event counts match the
//! classic queue exactly. These tests pin that contract across the full
//! E8 surface (all three protocols × all sizes × seed-derived crash
//! plans) and on a lossy-link topology, where drop sampling makes any
//! divergence in RNG-stream consumption order immediately visible.

use ecfd::bench::campaign::E8Scenario;
use ecfd::campaign::Scenario as CampaignScenario;
use ecfd::consensus::{ct_node_hb, ec_node_hb, mr_node_leader, ConsensusRunner, RunResult};
use ecfd::sim::{LinkModel, NetworkConfig, ProcessId, QueueImpl, SimDuration, Time};

mod large_n {
    //! Large-n equivalence: at n = 512 a single detector period lands
    //! hundreds of events on one instant and broadcasts push into the
    //! instant being drained constantly — the regime where a wheel
    //! ordering bug would hide from the small-n consensus sweeps. The
    //! all-to-all heartbeat at n = 128 is the n² message load, and the
    //! wheel's cascades carry most of its events.

    use ecfd::core::Standalone;
    use ecfd::detectors::{
        HeartbeatConfig, HeartbeatDetector, RingConfig, RingDetector, VCubeConfig, VCubeDetector,
    };
    use ecfd::sim::{
        LinkModel, NetworkConfig, ProcessId, QueueImpl, SimDuration, Time, TraceMode, WorldBuilder,
    };

    fn lossy_net(n: usize) -> NetworkConfig {
        NetworkConfig::new(n).with_default(LinkModel::fair_lossy(
            SimDuration::from_millis(1),
            SimDuration::from_millis(8),
            0.15,
        ))
    }

    /// Digest plus kernel counters of one n = 512 run.
    fn run<A: ecfd::sim::Actor>(
        queue: QueueImpl,
        mk: impl Fn(ProcessId, usize) -> A + Copy,
    ) -> (u64, u64, u64) {
        run_n(queue, 512, &[(100, 120)], mk)
    }

    /// Digest plus kernel counters of one run of `n` processes, crashing
    /// each `(pid, ms)` of `crashes`.
    fn run_n<A: ecfd::sim::Actor>(
        queue: QueueImpl,
        n: usize,
        crashes: &[(usize, u64)],
        mk: impl Fn(ProcessId, usize) -> A + Copy,
    ) -> (u64, u64, u64) {
        let mut b = WorldBuilder::new(lossy_net(n))
            .seed(99)
            .queue_impl(queue)
            .trace_mode(TraceMode::ObsOnly);
        for &(pid, ms) in crashes {
            b = b.crash_at(ProcessId(pid), Time::from_millis(ms));
        }
        let mut w = b.build(mk);
        w.run_until_time(Time::from_millis(400));
        let events = w.metrics().events_processed();
        let messages = w.metrics().sent_total();
        let (trace, _) = w.into_results();
        (trace.digest(), events, messages)
    }

    #[test]
    fn wheel_and_classic_queues_agree_at_n_512() {
        let ring = |pid, n| Standalone(RingDetector::new(pid, n, RingConfig::default()));
        assert_eq!(
            run(QueueImpl::Wheel, ring),
            run(QueueImpl::Classic, ring),
            "ring digests/counters must match across queue implementations"
        );
        let vcube = |pid, n| Standalone(VCubeDetector::new(pid, n, VCubeConfig::default()));
        assert_eq!(
            run(QueueImpl::Wheel, vcube),
            run(QueueImpl::Classic, vcube),
            "vcube digests/counters must match across queue implementations"
        );
    }

    #[test]
    fn wheel_and_classic_queues_agree_on_heartbeat_at_n_128() {
        let hb = |pid, n| Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default()));
        let crashes = [(17, 90), (64, 230)];
        let wheel = run_n(QueueImpl::Wheel, 128, &crashes, hb);
        assert_eq!(
            wheel,
            run_n(QueueImpl::Classic, 128, &crashes, hb),
            "heartbeat digests/counters must match across queue implementations"
        );
        assert!(wheel.2 > 500_000, "an n² load: {} messages", wheel.2);
    }
}

/// Run one E8 plan under the given queue implementation.
fn run_e8_seed(seed: u64, queue: QueueImpl) -> RunResult {
    let plan = E8Scenario.plan(seed);
    let sc = ecfd::consensus::Scenario {
        seed: plan.seed,
        crashes: plan.crashes.clone(),
        proposals: (0..plan.n()).map(|i| 100 + i as u64).collect(),
        horizon: plan.horizon,
    };
    let net = plan.net.clone();
    match plan.params.field("proto").as_str() {
        Some("ct") => ConsensusRunner::with_queue_impl(queue).run(net, &sc, ct_node_hb, None),
        Some("mr") => ConsensusRunner::with_queue_impl(queue).run(net, &sc, mr_node_leader, None),
        _ => ConsensusRunner::with_queue_impl(queue).run(net, &sc, ec_node_hb, None),
    }
}

fn assert_identical(seed: u64, wheel: &RunResult, classic: &RunResult) {
    assert_eq!(
        wheel.trace.digest(),
        classic.trace.digest(),
        "seed {seed}: wheel and classic queues must produce byte-identical traces"
    );
    assert_eq!(wheel.trace.events(), classic.trace.events(), "seed {seed}");
    assert_eq!(
        wheel.metrics.sent_total(),
        classic.metrics.sent_total(),
        "seed {seed}: message counts"
    );
    assert_eq!(
        wheel.metrics.events_processed(),
        classic.metrics.events_processed(),
        "seed {seed}: kernel event counts"
    );
    assert_eq!(wheel.decide_time, classic.decide_time, "seed {seed}");
}

#[test]
fn wheel_and_classic_queues_agree_across_the_e8_sweep() {
    // 0..108 covers every (protocol, n) cell twelve times over (the
    // cell layout repeats every 108 seeds); run a full block plus a
    // spill into the second block.
    for seed in 0..120 {
        let wheel = run_e8_seed(seed, QueueImpl::Wheel);
        let classic = run_e8_seed(seed, QueueImpl::Classic);
        assert_identical(seed, &wheel, &classic);
    }
}

#[test]
fn wheel_and_classic_queues_agree_on_lossy_links() {
    // Fair-lossy links consult the loss RNG once per transmission, so a
    // queue that consumed RNG streams in a different order — or fanned a
    // broadcast out in a different destination order — would diverge
    // within a few deliveries.
    for seed in [3, 17, 42] {
        let n = 5;
        let net = NetworkConfig::new(n).with_default(LinkModel::fair_lossy(
            SimDuration::from_millis(1),
            SimDuration::from_millis(8),
            0.15,
        ));
        let sc = ecfd::consensus::Scenario {
            seed,
            crashes: vec![(ProcessId(1), Time::from_millis(120))],
            proposals: (0..n).map(|i| 100 + i as u64).collect(),
            horizon: Time::from_secs(30),
        };
        let run =
            |queue| ConsensusRunner::with_queue_impl(queue).run(net.clone(), &sc, ec_node_hb, None);
        let (wheel, classic) = (run(QueueImpl::Wheel), run(QueueImpl::Classic));
        assert_identical(seed, &wheel, &classic);
        assert!(
            wheel
                .trace
                .events()
                .iter()
                .any(|e| { matches!(e.kind, ecfd::sim::TraceKind::Dropped { .. }) }),
            "seed {seed}: the lossy scenario should actually drop messages"
        );
    }
}
