//! The three standalone-detector workloads.
//!
//! Operation = one simulated second of the whole system, so
//! `host_us_per_op` is host microseconds per simulated second and
//! `msgs_per_op` the paper's §4 message cost per second. Latency is
//! detection time: from a crash to the first instant at or after it at
//! which a correct observer's suspect set holds the victim, over the
//! (observer, victim) pairs not already suspecting at the crash. A pair
//! that never gets there by the horizon is late, not wrong.
//!
//! * `ring-1024` — timer-wheel/kernel-bound with trivial actor code: the
//!   workload where a queue or run-loop change shows and an actor,
//!   consensus or KV change must not.
//! * `heartbeat-64` — message-bound (`Action::Broadcast` fan-out, one
//!   link draw and one delivery per destination) yet cache-resident;
//!   uses the kernel the opposite way from `ring-1024`.
//! * `vcube-lossy-256` — actor-bound (per-ack news snapshot, linear
//!   scans) and the only gated user of the lossy link path: ROADMAP
//!   1(c)'s cliff at a size that still repeats.
//!
//! Each world is built once and re-armed with `World::reset` per rep;
//! the `--seed` drives every RNG stream of the world (link delays and
//! drops), the crash schedule is fixed.

use crate::spans::Tracer;
use crate::stats::percentile;
use crate::workload::{Exact, Options, RepOutput, Workload};
use fd_core::{Component, Standalone};
use fd_detectors::{
    HeartbeatConfig, HeartbeatDetector, RingConfig, RingDetector, VCubeConfig, VCubeDetector,
};
use fd_sim::{
    Actor, LinkModel, Metrics, NetworkConfig, ProcessId, SimDuration, Time, Trace, TraceKind,
    TraceMode, World, WorldBuilder, WorldObs,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Reliable links, 1–4 ms uniform delay.
pub fn stable_net(n: usize) -> NetworkConfig {
    NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
        SimDuration::from_millis(1),
        SimDuration::from_millis(4),
    ))
}

/// Fair-lossy links: 1–8 ms delay, 15 % independent drops.
pub fn lossy_net(n: usize) -> NetworkConfig {
    NetworkConfig::new(n).with_default(LinkModel::fair_lossy(
        SimDuration::from_millis(1),
        SimDuration::from_millis(8),
        0.15,
    ))
}

/// Four crashes, at pids n/5 … 4n/5 and 0.3 … 0.6 of the horizon.
///
/// Timeout detectors notice a crash a fixed delay after the victim's
/// last heartbeat, so detection time is set by where in the 10 ms
/// heartbeat period the crash falls. The four crashes therefore sit at
/// four phases 2.5 ms apart (their detection times stay in one order),
/// and `seed` moves each by under a millisecond — enough that another
/// seed is another input, too little to reorder them.
pub fn four_crashes(n: usize, horizon: Time, seed: u64) -> Vec<(ProcessId, Time)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0c4a_54e5);
    (1..=4u64)
        .map(|k| {
            let pid = ProcessId(n * k as usize / 5);
            let phase = k * 2500 + rng.gen_range(0..1000u64);
            (pid, Time(horizon.ticks() * (2 + k) / 10 + phase))
        })
        .collect()
}

/// Which detector quality-of-service figure a workload's latency is.
#[derive(Clone, Copy, PartialEq)]
enum Qos {
    /// Detection time: crash → an observer first suspects the victim.
    /// On reliable links nothing is ever suspected wrongly, and this is
    /// the figure the detectors differ in (the paper's §4 trade-off).
    Detection,
    /// Mistake duration: a live process enters an observer's suspect
    /// set → it leaves again. On lossy links this is what the loss
    /// costs, with ~400 k samples a run; detection time there hangs on
    /// four crashes whose news spreads as one cluster each, and moved
    /// 22–35 % between seeds however many crashes were added.
    MistakeDuration,
}

pub struct DetectorWorkload<D: Component> {
    qos: Qos,
    world: World<Standalone<D>>,
    net: NetworkConfig,
    seed: u64,
    horizon: Time,
    crashes: Vec<(ProcessId, Time)>,
    make: fn(ProcessId, usize) -> Standalone<D>,
}

impl<D: Component> DetectorWorkload<D>
where
    Standalone<D>: Actor,
{
    fn new(
        qos: Qos,
        net: NetworkConfig,
        seed: u64,
        horizon: Time,
        obs: Option<&fd_obs::Registry>,
        make: fn(ProcessId, usize) -> Standalone<D>,
    ) -> DetectorWorkload<D> {
        let mut builder = WorldBuilder::new(net.clone())
            .seed(seed)
            .trace_mode(TraceMode::ObsOnly);
        if let Some(registry) = obs {
            builder = builder.observe(WorldObs::new(registry));
        }
        DetectorWorkload {
            qos,
            world: builder.build(make),
            crashes: four_crashes(net.n(), horizon, seed),
            net,
            seed,
            horizon,
            make,
        }
    }
}

impl<D: Component> DetectorWorkload<D>
where
    Standalone<D>: Actor,
{
    /// Re-arm the world and run it to `until`.
    fn simulate(&mut self, net: NetworkConfig, until: Time) -> (Trace, Metrics) {
        self.world.reset(net, self.seed, self.make);
        for &(pid, at) in &self.crashes {
            self.world.schedule_crash(pid, at);
        }
        self.world.run_until_time(until);
        self.world.take_results()
    }
}

impl<D: Component> Workload for DetectorWorkload<D>
where
    Standalone<D>: Actor,
{
    fn warm_up(&mut self) {
        self.simulate(self.net.clone(), Time(self.horizon.ticks() / 16));
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOutput {
        let n = self.net.n();
        let net = tr.span("plan", || self.net.clone());
        let (trace, metrics) = tr.span("execute", || self.simulate(net, self.horizon));
        let verdict = tr.span("check", || {
            fd_core::run_named_check(fd_obs::keys::FD_WEAK_COMPLETENESS, &trace, n, self.horizon)
                .expect("a registered check")
        });
        let exact = tr.span("extract", || {
            let mut d = detections(&trace, n);
            let seconds = self.horizon.ticks() as f64 / 1e6;
            let ms = |us: Option<u64>| us.unwrap_or(0) as f64 / 1e3;
            let detail = vec![
                (
                    "fd-detectors.false_suspicions_per_proc_s".to_string(),
                    d.false_suspicions as f64 / (n as f64 * seconds),
                ),
                (
                    "fd-detectors.detect_p50_ms".to_string(),
                    ms(percentile(&mut d.latency_us, 50.0)),
                ),
                (
                    "fd-detectors.detected_share".to_string(),
                    d.latency_us.len() as f64 / d.pairs.max(1) as f64,
                ),
            ];
            let (attempted, latency_us) = match self.qos {
                Qos::Detection => (d.pairs, d.latency_us),
                Qos::MistakeDuration => (d.false_suspicions, d.mistake_us),
            };
            let mut exact = Exact {
                digest: trace.digest(),
                events: metrics.events_processed(),
                messages: metrics.sent_total(),
                ops: self.horizon.ticks() / 1_000_000,
                attempted,
                late: attempted - latency_us.len() as u64,
                latency_us,
                detail,
                ..Exact::default()
            };
            if let Err(v) = verdict {
                exact.violations = 1;
                exact.violation_notes.push(v.to_string());
            }
            exact
        });
        let traced_detail = if tr.is_on() {
            let sent = metrics.sent_total().max(1) as f64;
            vec![(
                "drop_share".to_string(),
                metrics.dropped_total() as f64 / sent,
            )]
        } else {
            Vec::new()
        };
        RepOutput {
            exact,
            traced_detail,
        }
    }

    fn tail_percentile(&self) -> f64 {
        // A few hundred to a few thousand pairs: p95 leaves at least
        // ten samples beyond it, p99 would not on the smaller worlds.
        95.0
    }
}

/// Detection statistics of one detector run, read from its trace.
#[derive(Debug, PartialEq)]
pub struct Detections {
    /// (correct observer, victim) pairs not suspecting at the crash.
    pub pairs: u64,
    /// Crash → first suspicion, per pair that got there.
    pub latency_us: Vec<u64>,
    /// Entries of a live process into some observer's suspect set.
    pub false_suspicions: u64,
    /// Entry → exit of each of those that was revoked while the target
    /// was still alive.
    pub mistake_us: Vec<u64>,
}

/// One pass over an observation trace (events are in time order).
pub fn detections(trace: &Trace, n: usize) -> Detections {
    let crashes = trace.crashes();
    let is_victim = |p: ProcessId| crashes.iter().any(|(v, _)| *v == p);
    // Per victim: which observers suspect it right now, which already
    // did when it crashed (those pairs are left out), which are timed.
    let mut suspecting = vec![vec![false; n]; crashes.len()];
    let mut already = vec![vec![false; n]; crashes.len()];
    let mut timed = vec![vec![false; n]; crashes.len()];
    let mut dead = vec![false; n];
    // Per observer: who is in its suspect set, and since when.
    let mut open: Vec<Vec<(ProcessId, Time)>> = vec![Vec::new(); n];
    // Scratch, indexed by target and valid where the stamp matches:
    // the entry time in the observer's previous set, and membership of
    // its new one. Keeps each observation O(its size).
    let mut entered = vec![(0u64, Time::ZERO); n];
    let mut in_set = vec![0u64; n];
    let mut stamp = 0u64;
    let mut spare: Vec<(ProcessId, Time)> = Vec::new();
    let mut mistake_us = Vec::new();
    let mut latency_us = Vec::new();
    let mut false_suspicions = 0;
    for e in trace.events() {
        match &e.kind {
            TraceKind::Crashed { pid } => {
                let v = crashes
                    .iter()
                    .position(|(p, _)| p == pid)
                    .expect("listed crash");
                dead[pid.index()] = true;
                already[v] = suspecting[v].clone();
            }
            TraceKind::Observation { pid, tag, payload } if *tag == fd_core::obs::SUSPECTS => {
                let Some(set) = payload.as_pids() else {
                    continue;
                };
                let me = pid.index();
                stamp += 1;
                for (q, since) in &open[me] {
                    entered[q.index()] = (stamp, *since);
                }
                // `spare` and `open[me]` trade buffers, so steady state
                // allocates nothing.
                let mut now = std::mem::take(&mut spare);
                now.clear();
                for q in set {
                    in_set[q.index()] = stamp;
                    let (seen, since) = entered[q.index()];
                    if seen == stamp {
                        now.push((*q, since));
                    } else {
                        now.push((*q, e.at));
                        if !dead[q.index()] {
                            false_suspicions += 1;
                        }
                    }
                }
                for (q, since) in &open[me] {
                    if in_set[q.index()] != stamp && !dead[q.index()] {
                        mistake_us.push(e.at.since(*since).ticks());
                    }
                }
                spare = std::mem::replace(&mut open[me], now);
                for (v, (victim, at)) in crashes.iter().enumerate() {
                    let holds = in_set[victim.index()] == stamp;
                    suspecting[v][me] = holds;
                    if holds && dead[victim.index()] && !already[v][me] && !timed[v][me] {
                        timed[v][me] = true;
                        if !is_victim(*pid) {
                            latency_us.push(e.at.since(*at).ticks());
                        }
                    }
                }
            }
            _ => {}
        }
    }
    let pairs = already
        .iter()
        .map(|row| {
            (0..n)
                .filter(|&p| !row[p] && !is_victim(ProcessId(p)))
                .count() as u64
        })
        .sum();
    Detections {
        pairs,
        latency_us,
        false_suspicions,
        mistake_us,
    }
}

/// (n, horizon) of a workload, full size and `--quick`.
fn size(opt: Options, full: (usize, u64), quick: (usize, u64)) -> (usize, Time) {
    let (n, ms) = if opt.quick { quick } else { full };
    (n, Time::from_millis(ms))
}

pub fn ring<'r>(opt: Options, obs: Option<&'r fd_obs::Registry>) -> Box<dyn Workload + 'r> {
    let (n, horizon) = size(opt, (1024, 4000), (128, 1600));
    Box::new(DetectorWorkload::new(
        Qos::Detection,
        stable_net(n),
        opt.seed,
        horizon,
        obs,
        |pid, n| Standalone(RingDetector::new(pid, n, RingConfig::default())),
    ))
}

pub fn heartbeat<'r>(opt: Options, obs: Option<&'r fd_obs::Registry>) -> Box<dyn Workload + 'r> {
    let (n, horizon) = size(opt, (64, 8000), (16, 6000));
    Box::new(DetectorWorkload::new(
        Qos::Detection,
        stable_net(n),
        opt.seed,
        horizon,
        obs,
        |pid, n| Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default())),
    ))
}

pub fn vcube_lossy<'r>(opt: Options, obs: Option<&'r fd_obs::Registry>) -> Box<dyn Workload + 'r> {
    let (n, horizon) = size(opt, (256, 1000), (32, 1000));
    Box::new(DetectorWorkload::new(
        Qos::MistakeDuration,
        lossy_net(n),
        opt.seed,
        horizon,
        obs,
        |pid, n| Standalone(VCubeDetector::new(pid, n, VCubeConfig::default())),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::{Payload, TraceEvent};

    fn suspects(at: u64, pid: usize, set: &[usize]) -> TraceEvent {
        TraceEvent {
            at: Time(at),
            kind: TraceKind::Observation {
                pid: ProcessId(pid),
                tag: fd_core::obs::SUSPECTS,
                payload: Payload::pids(set.iter().map(|&p| ProcessId(p))),
            },
        }
    }

    #[test]
    fn detection_pairs_latencies_and_false_suspicions() {
        // n = 4, p3 crashes at t = 100. p0 already (falsely) suspected it,
        // p1 detects at 150 and re-detects at 400, p2 never does.
        let trace = Trace::from_events(vec![
            suspects(50, 0, &[3]),
            TraceEvent {
                at: Time(100),
                kind: TraceKind::Crashed { pid: ProcessId(3) },
            },
            suspects(150, 1, &[3]),
            suspects(200, 1, &[]),
            suspects(300, 2, &[0]),
            suspects(360, 2, &[]),
            suspects(400, 1, &[3]),
        ]);
        let d = detections(&trace, 4);
        // p0 is excluded; (p1, p3) and (p2, p3) remain.
        assert_eq!(d.pairs, 2);
        assert_eq!(d.latency_us, vec![50]);
        // p0's early suspicion of live p3, and p2's of live p0 — which p2
        // takes back 60 µs later. Dropping dead p3 at 200 is no mistake.
        assert_eq!(d.false_suspicions, 2);
        assert_eq!(d.mistake_us, vec![60]);
    }

    #[test]
    fn crash_schedule_is_inside_the_horizon_and_distinct() {
        let horizon = Time::from_secs(4);
        let c = four_crashes(1024, horizon, 7);
        assert_eq!(c, four_crashes(1024, horizon, 7));
        assert_ne!(c, four_crashes(1024, horizon, 8));
        let pids: Vec<usize> = c.iter().map(|(p, _)| p.index()).collect();
        assert_eq!(pids, vec![204, 409, 614, 819]);
        for (k, (_, at)) in c.iter().enumerate() {
            let base = 1200 + 400 * k as u64;
            let phase = at.ticks() - base * 1000;
            let lo = 2500 * (k as u64 + 1);
            assert!((lo..lo + 1000).contains(&phase), "crash {k} at {at:?}");
        }
    }
}
