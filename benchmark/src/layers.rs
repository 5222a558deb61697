//! Isolated drivers of single layers, timed from outside.
//!
//! Each driver runs a fixed, deterministic amount of work through one
//! layer's public functions and reports the minimum wall time of a few
//! reps, divided by the work done. Inputs are fixed (these numbers
//! compare commits, not seeds). Every driver has *home* workloads —
//! the ones whose end-to-end numbers it should move — and runs in the
//! traced run of exactly those; elsewhere its metrics read 0.

use crate::detector::{lossy_net, stable_net};
use fd_bench::mc::{protocol_target, McProtocol};
use fd_campaign::{Campaign, Scenario, Stats};
use fd_chaos::DetectorKind;
use fd_consensus::{ConsensusRunner, RunResult};
use fd_core::{Component, Standalone};
use fd_detectors::{
    HeartbeatConfig, HeartbeatDetector, RingConfig, RingDetector, StableLeaderConfig,
    StableLeaderDetector, VCubeConfig, VCubeDetector,
};
use fd_kv::{wal, KvOp, KvStore, WalRecord};
use fd_sim::bench::{dispatch_flood, queue_churn, trace_fill};
use fd_sim::{
    Actor, LinkModel, NetworkConfig, ProcessId, QueueImpl, SimDisk, Time, TraceMode, WorldBuilder,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

type Metrics = Vec<(String, f64)>;

/// Minimum wall time, in nanoseconds, of `reps` calls of `work`.
fn min_ns(reps: usize, mut work: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            work();
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The isolated drivers homed at `workload`.
pub fn measure(workload: &str, quick: bool) -> Metrics {
    // `--quick` divides every driver's work by this.
    let k = if quick { 20 } else { 1 };
    let mut out = Metrics::new();
    match workload {
        "e8-sweep" => {
            trace_layer(&mut out, k);
            consensus_layer(&mut out, k);
            campaign_layer(&mut out, k);
        }
        "ring-1024" => {
            queue_layer(&mut out, k);
            world_layer(&mut out, k);
            let ring = detector_cell("ring", stable_net(256), 4000 / k, ring_actor);
            out.push(("fd-detectors.ring_ns_per_event".into(), ring));
            let big = scale_cell(stable_net(4096 / k as usize), 600, ring_actor);
            out.push(("scale.ring-stable-n4096.ns_per_event".into(), big));
            mc_layer(&mut out, quick);
        }
        "heartbeat-64" => {
            dispatch_layer(&mut out, k);
            link_draws(&mut out, "fd-sim.link.reliable_ns", &stable_net(2), k);
            let cell = detector_cell("heartbeat", stable_net(256), 200 / k, heartbeat_actor);
            out.push(("fd-detectors.heartbeat_ns_per_event".into(), cell));
            out.push(("scale.heartbeat-stable-n256.ns_per_event".into(), cell));
            let big = scale_cell(stable_net(1024 / k as usize), 30, heartbeat_actor);
            out.push(("scale.heartbeat-stable-n1024.ns_per_event".into(), big));
        }
        "vcube-lossy-256" => {
            link_draws(&mut out, "fd-sim.link.lossy_ns", &lossy_net(2), k);
            let cell = detector_cell("vcube", stable_net(256), 1000 / k, vcube_actor);
            out.push(("fd-detectors.vcube_ns_per_event".into(), cell));
            out.push(("scale.vcube-stable-n256.ns_per_event".into(), cell));
            let lossy = detector_cell("vcube-lossy", lossy_net(256), 500 / k, vcube_actor);
            out.push(("fd-detectors.vcube_lossy_ns_per_event".into(), lossy));
            let n = 1024 / k as usize;
            let big = scale_cell(stable_net(n), 500, vcube_actor);
            out.push(("scale.vcube-stable-n1024.ns_per_event".into(), big));
            let big = scale_cell(lossy_net(n), 250, vcube_actor);
            out.push(("scale.vcube-lossy-n1024.ns_per_event".into(), big));
        }
        "kv-ramp" => kv_layer(&mut out, k),
        "kv-failover" => {
            chaos_layer(&mut out, k);
            // Every process heartbeats to every other, as in `heartbeat`:
            // five periods are 0.66 M events.
            let cell = detector_cell("stable-leader", stable_net(256), 50, leader_actor);
            out.push(("fd-detectors.stable_leader_ns_per_event".into(), cell));
        }
        _ => {}
    }
    out
}

fn ring_actor(pid: ProcessId, n: usize) -> Standalone<RingDetector> {
    Standalone(RingDetector::new(pid, n, RingConfig::default()))
}

fn heartbeat_actor(pid: ProcessId, n: usize) -> Standalone<HeartbeatDetector> {
    Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default()))
}

fn vcube_actor(pid: ProcessId, n: usize) -> Standalone<VCubeDetector> {
    Standalone(VCubeDetector::new(pid, n, VCubeConfig::default()))
}

fn leader_actor(pid: ProcessId, n: usize) -> Standalone<StableLeaderDetector> {
    Standalone(StableLeaderDetector::new(
        pid,
        n,
        StableLeaderConfig::default(),
    ))
}

/// `fd-sim` event queue: timer-wheel and the classic heap on the same
/// churn (bursts of pushes, draining pops).
fn queue_layer(out: &mut Metrics, k: u64) {
    let events = 400_000 / k;
    for (name, imp) in [
        ("fd-sim.queue.wheel_ns_per_op", QueueImpl::Wheel),
        ("fd-sim.queue.classic_ns_per_op", QueueImpl::Classic),
    ] {
        let ns = min_ns(5, || {
            black_box(queue_churn(imp, events));
        });
        out.push((name.into(), ns / events as f64));
    }
}

/// `fd-sim` dispatch: a seven-process broadcast flood.
fn dispatch_layer(out: &mut Metrics, k: u64) {
    let mut events = 0;
    let ns = min_ns(5, || events = black_box(dispatch_flood(7, 2000 / k)));
    out.push((
        "fd-sim.dispatch.flood_ns_per_event".into(),
        ns / events as f64,
    ));
}

/// `fd-chaos`: compiling the standard crash/restart plan.
fn chaos_layer(out: &mut Metrics, k: u64) {
    let plan = fd_kv::standard_plan(DetectorKind::Heartbeat);
    let net = fd_chaos::base_net(plan.n);
    let rounds = 10_000 / k;
    let ns = min_ns(5, || {
        for _ in 0..rounds {
            black_box(fd_chaos::compile(black_box(&plan), &net).expect("legal plan"));
        }
    });
    out.push(("fd-chaos.compile_us".into(), ns / 1e3 / rounds as f64));
}

/// `fd-sim` trace recording plus digest (two fills per call).
fn trace_layer(out: &mut Metrics, k: u64) {
    let events = 200_000 / k;
    let ns = min_ns(5, || {
        black_box(trace_fill(events));
    });
    out.push((
        "fd-sim.trace.fill_ns_per_event".into(),
        ns / (2 * events) as f64,
    ));
}

/// `fd-sim` link model: one delivery verdict per draw.
fn link_draws(out: &mut Metrics, name: &str, net: &NetworkConfig, k: u64) {
    let link: LinkModel = net.link(ProcessId(0), ProcessId(1)).clone();
    let draws = 1_000_000 / k;
    let ns = min_ns(5, || {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut acc = 0u64;
        for i in 0..draws {
            if let Some(t) = link.deliver_at(Time(i), &mut rng) {
                acc = acc.wrapping_add(t.ticks());
            }
        }
        black_box(acc);
    });
    out.push((name.into(), ns / draws as f64));
}

/// `fd-sim` world construction and re-arming at n = 1024.
fn world_layer(out: &mut Metrics, k: u64) {
    let n = 1024 / k as usize;
    let build = |seed| {
        WorldBuilder::new(stable_net(n))
            .seed(seed)
            .trace_mode(TraceMode::ObsOnly)
            .build(ring_actor)
    };
    let ns = min_ns(5, || {
        black_box(build(1));
    });
    out.push(("fd-sim.world.build_us_per_proc".into(), ns / 1e3 / n as f64));
    let mut world = build(1);
    world.run_until_time(Time::from_millis(50));
    let ns = min_ns(5, || world.reset(stable_net(n), 2, ring_actor));
    out.push(("fd-sim.world.reset_us_per_proc".into(), ns / 1e3 / n as f64));
}

/// One standalone-detector cell: a reused world, reset per rep, run for
/// `millis` of simulated time; host nanoseconds per kernel event.
fn detector_cell<D: Component>(
    label: &str,
    net: NetworkConfig,
    millis: u64,
    make: fn(ProcessId, usize) -> Standalone<D>,
) -> f64
where
    Standalone<D>: Actor,
{
    let horizon = Time::from_millis(millis.max(20));
    let mut world = WorldBuilder::new(net.clone())
        .trace_mode(TraceMode::ObsOnly)
        .build(make);
    world.run_until_time(horizon);
    let mut events = 0;
    let ns = min_ns(3, || {
        world.reset(net.clone(), 1, make);
        world.run_until_time(horizon);
        events = world.metrics().events_processed();
    });
    assert!(events > 0, "{label}: the cell processed no events");
    ns / events as f64
}

/// One cell of the scale table: a fresh world per rep (these are too
/// big to keep two of), only `run_until_time` timed, best of two.
fn scale_cell<D: Component>(
    net: NetworkConfig,
    millis: u64,
    make: fn(ProcessId, usize) -> Standalone<D>,
) -> f64
where
    Standalone<D>: Actor,
{
    let horizon = Time::from_millis(millis);
    let victim = ProcessId(net.n() / 3);
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let mut world = WorldBuilder::new(net.clone())
            .seed(1)
            .trace_mode(TraceMode::ObsOnly)
            .crash_at(victim, Time::from_millis(millis * 2 / 5))
            .build(make);
        let t0 = Instant::now();
        world.run_until_time(horizon);
        let ns = t0.elapsed().as_nanos() as f64;
        best = best.min(ns / world.metrics().events_processed() as f64);
    }
    best
}

/// `fd-consensus`: each protocol deciding failure-free at n = 5 over
/// the default network, through its world-reusing runner.
fn consensus_layer(out: &mut Metrics, k: u64) {
    let seeds = 500 / k;
    fn sweep<D, P>(
        out: &mut Metrics,
        key: &str,
        prefix: &str,
        seeds: u64,
        make: impl Fn(ProcessId, usize) -> fd_consensus::ConsensusNode<D, P> + Copy,
    ) where
        D: Component + fd_core::SuspectOracle + fd_core::LeaderOracle,
        P: fd_consensus::RoundProtocol,
    {
        let mut runner: ConsensusRunner<D, P> = ConsensusRunner::new();
        let mut run = |seed| -> RunResult {
            let sc = fd_consensus::Scenario::failure_free(5, seed, Time::from_secs(30));
            runner.run(fd_consensus::default_net(5), &sc, make, None)
        };
        run(0);
        let (mut messages, mut rounds) = (0, 0);
        let ns = min_ns(3, || {
            (messages, rounds) = (0, 0);
            for seed in 0..seeds {
                let r = run(seed);
                assert!(r.all_decided, "{key}: seed {seed} did not decide");
                messages += r.messages_with_prefix(prefix);
                rounds += r.max_decision_round().unwrap_or(0);
            }
        });
        let per = |x: u64| x as f64 / seeds as f64;
        out.push((
            format!("fd-consensus.{key}_us_per_decision"),
            ns / 1e3 / seeds as f64,
        ));
        out.push((
            format!("fd-consensus.{key}_msgs_per_decision"),
            per(messages),
        ));
        if key == "ec" {
            out.push(("fd-consensus.ec_rounds_per_decision".into(), per(rounds)));
        }
    }
    sweep(out, "ec", "ec.", seeds, fd_consensus::ec_node_hb);
    sweep(out, "ct", "ct.", seeds, fd_consensus::ct_node_hb);
    sweep(out, "mr", "mr.", seeds, fd_consensus::mr_node_leader);
    sweep(
        out,
        "paxos",
        "paxos.",
        seeds,
        fd_consensus::paxos_node_leader,
    );
}

/// `fd-campaign` and `fd-core`: what a sweep costs beyond its bare
/// executor, order statistics, and the E8 property checks.
fn campaign_layer(out: &mut Metrics, k: u64) {
    let sc = fd_bench::campaign::E8Scenario;
    let seeds = 2160 / k; // twenty cycles of E8's 108-seed cell layout
    let sweep_ns = min_ns(3, || {
        black_box(Campaign::new(&sc, 0..seeds).jobs(1).run());
    });
    let plans: Vec<_> = (0..seeds).map(|s| sc.plan(s)).collect();
    let mut executor = sc.make_executor();
    let bare_ns = min_ns(3, || {
        for plan in &plans {
            black_box(executor.execute(plan, None));
        }
    });
    out.push((
        "fd-campaign.overhead_us_per_seed".into(),
        (sweep_ns - bare_ns) / 1e3 / seeds as f64,
    ));

    let samples: Vec<u64> = (0..100_000 / k)
        .map(|i| i.wrapping_mul(2654435761) >> 7)
        .collect();
    let ns = min_ns(5, || {
        black_box(Stats::from_samples(black_box(samples.clone())));
    });
    out.push((
        "fd-campaign.stats_ns_per_sample".into(),
        ns / samples.len() as f64,
    ));

    // Seed 30 is an n = 7 cell: E8's largest trace.
    let outcome = executor.execute(&sc.plan(30), None);
    let rounds = 2000 / k;
    let ns = min_ns(5, || {
        for _ in 0..rounds {
            for check in [
                fd_obs::keys::CONSENSUS_SAFETY,
                fd_obs::keys::CONSENSUS_TERMINATION,
            ] {
                let verdict =
                    fd_core::run_named_check(check, &outcome.trace, outcome.n, outcome.end);
                assert_eq!(black_box(verdict), Some(Ok(())), "{check}");
            }
        }
    });
    out.push(("fd-core.check_us_per_run".into(), ns / 1e3 / rounds as f64));
}

/// `fd-kv` storage pieces and the disk model beneath them.
fn kv_layer(out: &mut Metrics, k: u64) {
    let records = 100_000 / k;
    let ns = min_ns(5, || {
        let mut disk = SimDisk::new();
        for i in 0..records {
            disk.append(&[0xa5; 25]);
            disk.fsync();
            black_box(i);
        }
        black_box(disk.fsyncs());
    });
    out.push(("fd-sim.disk.append_fsync_ns".into(), ns / records as f64));

    let ns = min_ns(5, || {
        let mut disk = SimDisk::new();
        for i in 0..records {
            wal::append(&mut disk, WalRecord::Apply(i, i ^ 0x5a5a));
        }
        black_box(disk.pending_len());
    });
    out.push(("fd-kv.wal.append_ns".into(), ns / records as f64));

    let log: Vec<WalRecord> = (0..records)
        .map(|i| WalRecord::Apply(i, i ^ 0x5a5a))
        .collect();
    let image = wal::encode_log(&log);
    let ns = min_ns(5, || {
        let (recovered, len) = wal::recover(black_box(&image));
        assert_eq!((recovered.len(), len), (log.len(), image.len()));
    });
    out.push((
        "fd-kv.wal.recover_ns_per_record".into(),
        ns / records as f64,
    ));

    let ops = 1_000_000 / k;
    let ns = min_ns(5, || {
        let mut store = KvStore::new();
        let mut acc = 0u16;
        for i in 0..ops {
            let key = (i % 64) as u16;
            acc ^= store.apply(match i % 3 {
                0 => KvOp::Put {
                    key,
                    value: i as u16,
                },
                1 => KvOp::Get { key },
                _ => KvOp::Cas {
                    key,
                    expect: acc,
                    new: i as u16,
                },
            });
        }
        black_box(acc);
    });
    out.push(("fd-kv.store.apply_ns".into(), ns / ops as f64));

    let mut store = KvStore::new();
    for key in 0..1000u16 {
        store.apply(KvOp::Put {
            key,
            value: key ^ 0x0f0f,
        });
    }
    let rounds = 2000 / k;
    let ns = min_ns(5, || {
        for i in 0..rounds {
            let image = store.encode_snapshot(i, i ^ 0xd1d1);
            let back = KvStore::decode_snapshot(black_box(&image)).expect("own snapshot");
            assert_eq!(back.0.len(), store.len());
        }
    });
    out.push((
        "fd-kv.snapshot.roundtrip_us".into(),
        ns / 1e3 / rounds as f64,
    ));
}

/// `fd-mc`: exhaustive exploration of the replicated log at n = 3 — the
/// only user of `run_scheduled_until` and `track_state`.
fn mc_layer(out: &mut Metrics, quick: bool) {
    let target = protocol_target(McProtocol::Multi, 3, Time::from_millis(300));
    let cfg = fd_mc::McConfig {
        depth: if quick { 3 } else { 6 },
        ..fd_mc::McConfig::default()
    };
    let t0 = Instant::now();
    let report = fd_mc::explore(&target, &cfg);
    let seconds = t0.elapsed().as_secs_f64();
    assert!(report.violations.is_empty(), "fd-mc found a violation");
    out.push((
        "fd-mc.multi_n3_runs_per_s".into(),
        report.stats.runs as f64 / seconds,
    ));
    out.push((
        "fd-mc.multi_n3_states".into(),
        report.stats.distinct_states as f64,
    ));
}
