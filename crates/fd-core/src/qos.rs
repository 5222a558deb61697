//! Detector quality of service, read from a run's suspect-set trace.
//!
//! The class checkers in [`crate::properties`] say *whether* a detector
//! ends up right; these numbers say how fast and how often it is wrong
//! on the way — the Chen–Toueg–Aguilera triple:
//!
//! * **detection time** — from a crash to the first instant at or after
//!   it at which a correct observer's suspect set holds the victim, over
//!   the (observer, victim) pairs not already suspecting at the crash. A
//!   pair that never gets there by the horizon is undetected, not wrong;
//! * **mistake rate** — entries of a *live* process into some observer's
//!   suspect set, per process-second;
//! * **mistake duration** — entry → exit of each of those that was
//!   revoked while the target was still alive.

use crate::properties::FdRun;
use fd_sim::{ProcessId, Time, TraceKind};

/// What [`FdRun::qos`] measures (module docs). The sample vectors are
/// sorted, ready for [`nearest_rank`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorQos {
    /// (correct observer, victim) pairs not suspecting at the crash.
    pub pairs: u64,
    /// Crash → first suspicion in µs, per pair that got there.
    pub detection_us: Vec<u64>,
    /// Entries of a live process into some observer's suspect set.
    pub false_suspicions: u64,
    /// Entry → exit in µs of each false suspicion revoked while its
    /// target was alive.
    pub mistake_us: Vec<u64>,
    /// Processes × simulated seconds observed: the base of the rate.
    process_seconds: f64,
}

impl DetectorQos {
    /// Share of the timed pairs whose observer suspected the victim
    /// before the horizon (1 when nothing crashed).
    pub fn detected_share(&self) -> f64 {
        self.detection_us.len() as f64 / self.pairs.max(1) as f64
    }

    /// False suspicions per process-second.
    pub fn mistake_rate(&self) -> f64 {
        self.false_suspicions as f64 / self.process_seconds
    }
}

/// Nearest-rank percentile of sorted samples: the one at rank
/// `ceil(per_mille/1000 · n)`, 1-based — the rule `fd_campaign::Stats`
/// uses. `None` on an empty set.
pub fn nearest_rank(sorted: &[u64], per_mille: usize) -> Option<u64> {
    let rank = (per_mille * sorted.len()).div_ceil(1000).max(1);
    sorted.get(rank - 1).copied()
}

impl FdRun<'_> {
    /// The run's detector QoS, in one pass over the trace that costs
    /// each suspect-set observation its own size (events are in time
    /// order).
    pub fn qos(&self) -> DetectorQos {
        let n = self.n;
        let crashes = self.trace.crashes();
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
        // the entry time in the observer's previous set, and membership
        // of its new one.
        let mut entered = vec![(0u64, Time::ZERO); n];
        let mut in_set = vec![0u64; n];
        let mut stamp = 0u64;
        let mut spare: Vec<(ProcessId, Time)> = Vec::new();
        let mut qos = DetectorQos {
            pairs: 0,
            detection_us: Vec::new(),
            false_suspicions: 0,
            mistake_us: Vec::new(),
            process_seconds: n as f64 * self.end.ticks() as f64 / 1e6,
        };
        for e in self.trace.events() {
            match &e.kind {
                TraceKind::Crashed { pid } => {
                    dead[pid.index()] = true;
                    if let Some(v) = crashes.iter().position(|(p, _)| p == pid) {
                        already[v] = suspecting[v].clone();
                    }
                }
                TraceKind::Observation { pid, tag, payload } if *tag == self.suspects_tag => {
                    let Some(set) = payload.as_pids() else {
                        continue;
                    };
                    let me = pid.index();
                    stamp += 1;
                    for (q, since) in &open[me] {
                        entered[q.index()] = (stamp, *since);
                    }
                    // `spare` and `open[me]` trade buffers, so steady
                    // state allocates nothing.
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
                                qos.false_suspicions += 1;
                            }
                        }
                    }
                    for (q, since) in &open[me] {
                        if in_set[q.index()] != stamp && !dead[q.index()] {
                            qos.mistake_us.push(e.at.since(*since).ticks());
                        }
                    }
                    spare = std::mem::replace(&mut open[me], now);
                    for (v, (victim, at)) in crashes.iter().enumerate() {
                        let holds = in_set[victim.index()] == stamp;
                        suspecting[v][me] = holds;
                        if holds && dead[victim.index()] && !already[v][me] && !timed[v][me] {
                            timed[v][me] = true;
                            if !is_victim(*pid) {
                                qos.detection_us.push(e.at.since(*at).ticks());
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        qos.pairs = already
            .iter()
            .map(|row| {
                (0..n)
                    .filter(|&p| !row[p] && !is_victim(ProcessId(p)))
                    .count() as u64
            })
            .sum();
        qos.detection_us.sort_unstable();
        qos.mistake_us.sort_unstable();
        qos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::{Payload, Trace, TraceEvent};

    fn suspects(at: u64, pid: usize, set: &[usize]) -> TraceEvent {
        TraceEvent {
            at: Time(at),
            kind: TraceKind::Observation {
                pid: ProcessId(pid),
                tag: crate::obs::SUSPECTS,
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
        let q = FdRun::new(&trace, 4, Time(500)).qos();
        // p0 is excluded; (p1, p3) and (p2, p3) remain.
        assert_eq!(q.pairs, 2);
        assert_eq!(q.detection_us, vec![50]);
        assert_eq!(q.detected_share(), 0.5);
        // p0's early suspicion of live p3, and p2's of live p0 — which p2
        // takes back 60 µs later. Dropping dead p3 at 200 is no mistake.
        assert_eq!(q.false_suspicions, 2);
        assert_eq!(q.mistake_us, vec![60]);
        // Two mistakes over 4 processes × 500 µs.
        assert_eq!(q.mistake_rate(), 1000.0);
    }

    #[test]
    fn nearest_rank_takes_the_sample_at_the_ceiling_rank() {
        assert_eq!(nearest_rank(&[], 500), None);
        assert_eq!(nearest_rank(&[7], 0), Some(7));
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(nearest_rank(&v, 500), Some(10));
        assert_eq!(nearest_rank(&v, 950), Some(19));
        assert_eq!(nearest_rank(&v, 951), Some(20));
        assert_eq!(nearest_rank(&v, 1000), Some(20));
    }
}
