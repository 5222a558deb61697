//! Benchmark drivers over the kernel's crate-private hot paths.
//!
//! The `benchmark/` package's per-layer metrics (`fd-sim.queue.*`,
//! `fd-sim.dispatch.flood_ns_per_event`, `fd-sim.trace.fill_ns_per_event`)
//! need to time the event queue, the dispatch loop, and trace recording
//! in isolation, but those internals are deliberately not public API. This
//! module exposes narrow *workload drivers* instead: each runs a fixed,
//! deterministic amount of work through one subsystem and returns a
//! checksum so the optimizer cannot discard it. Callers time the whole
//! call and divide by the reported operation count.

use crate::actor::{Actor, Context, SimMessage, TimerTag};
use crate::event::{EventKind, EventQueue, QueueImpl};
use crate::link::LinkModel;
use crate::process::ProcessId;
use crate::time::{SimDuration, Time};
use crate::topology::NetworkConfig;
use crate::trace::{Trace, TraceHwm, TraceKind, CHUNK};
use crate::world::WorldBuilder;

/// A tiny deterministic LCG — the benches must not consume the workspace
/// RNG (and must not depend on it), they just need a fixed scatter of
/// delays that mimics the heartbeat workload: mostly near-future, an
/// occasional far-future outlier that lands in the overflow path.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Knuth's MMIX multiplier; low bits are fine for bucketing tests.
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Push/pop `events` timer events through an `EventQueue` of the chosen
/// implementation, interleaving bursts of pushes with draining pops the
/// way the kernel does (schedule a handful of sends and timers, then
/// consume). Delays are mostly within the wheel horizon with a 1-in-64
/// far-future outlier. Returns a fold of the pop order (time ⊕ seq) so
/// two implementations can also be cross-checked for identical ordering.
pub fn queue_churn(imp: QueueImpl, events: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::with_impl(imp);
    let mut rng = Lcg(0x5eed);
    let mut now = Time::ZERO;
    let mut pushed = 0u64;
    let mut acc = 0u64;
    while pushed < events || !q.is_empty() {
        // Burst of up to 4 pushes relative to the current front.
        for _ in 0..4 {
            if pushed >= events {
                break;
            }
            let r = rng.next();
            let delay = if r.is_multiple_of(64) {
                // Past the wheel horizon: exercises the overflow heap.
                1 << 20
            } else {
                r % 4096
            };
            q.push(
                Time(now.0 + delay),
                EventKind::Timer {
                    pid: ProcessId((r % 7) as usize),
                    id: crate::actor::TimerId(pushed),
                    tag: TimerTag::new(0, 0, pushed),
                    epoch: 0,
                },
            );
            pushed += 1;
        }
        if let Some(ev) = q.pop_due(Time::MAX) {
            now = ev.at;
            acc = acc
                .rotate_left(7)
                .wrapping_add(ev.at.0)
                .wrapping_add(ev.seq.wrapping_mul(0x9e37_79b9));
        }
    }
    acc
}

#[derive(Clone, Debug)]
struct Beat(u64);

impl SimMessage for Beat {
    fn kind(&self) -> &'static str {
        "beat"
    }
}

/// A heartbeat-flood actor: broadcasts on a fixed period and counts
/// deliveries — the densest all-to-all dispatch pattern the detectors
/// generate, with none of their protocol logic in the way.
struct Flooder {
    beats: u64,
    seen: u64,
}

const FLOOD_TICK: TimerTag = TimerTag::new(0xbe, 0, 0);

impl Actor for Flooder {
    type Msg = Beat;

    fn on_start(&mut self, ctx: &mut Context<'_, Beat>) {
        ctx.set_timer(SimDuration::from_millis(1), FLOOD_TICK);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Beat>, _from: ProcessId, msg: Beat) {
        self.seen = self.seen.wrapping_add(msg.0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Beat>, _tag: TimerTag) {
        self.beats += 1;
        ctx.send_to_others(Beat(self.beats));
        ctx.set_timer(SimDuration::from_millis(1), FLOOD_TICK);
    }
}

/// Run an `n`-process broadcast flood for `millis` of simulated time and
/// return the kernel events processed. Times the full dispatch path —
/// queue, rc-shared broadcast fan-out, callback, action drain — under a
/// message-dominated load.
pub fn dispatch_flood(n: usize, millis: u64) -> u64 {
    let net =
        NetworkConfig::new(n).with_default(LinkModel::reliable_const(SimDuration::from_ticks(100)));
    let mut w = WorldBuilder::new(net)
        .seed(7)
        .build(|_, _| Flooder { beats: 0, seen: 0 });
    w.run_until_time(Time::from_millis(millis));
    let (_, metrics) = w.into_results();
    metrics.events_processed()
}

/// Append `events` synthetic trace events into one reused [`Trace`]
/// (reset between fills exercises the arena-reuse path) and return the
/// digest of the final fill — the exact per-event recording plus digest
/// cost the campaign pays.
pub fn trace_fill(events: u64) -> u64 {
    let mut trace = Trace::default();
    let mut digest = 0u64;
    for round in 0..2u64 {
        trace.reset_with_capacity(TraceHwm {
            events: events as usize,
            chunks: (events.div_ceil(3) as usize).div_ceil(CHUNK),
            tags: 0,
        });
        for i in 0..events {
            let from = ProcessId((i % 5) as usize);
            let to = ProcessId(((i + 1) % 5) as usize);
            let kind = match i % 3 {
                0 => TraceKind::Sent {
                    from,
                    to,
                    kind: "beat",
                    round: Some(round),
                },
                1 => TraceKind::Delivered {
                    from,
                    to,
                    kind: "beat",
                    round: Some(round),
                },
                _ => {
                    trace.push_indexed(Time(i * 100), TraceKind::Crashed { pid: from });
                    continue;
                }
            };
            trace.push(Time(i * 100), kind);
        }
        digest = trace.digest();
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_churn_orders_identically_across_impls() {
        for events in [64, 1000, 5000] {
            assert_eq!(
                queue_churn(QueueImpl::Wheel, events),
                queue_churn(QueueImpl::Classic, events),
                "pop-order checksums must match at {events} events"
            );
        }
    }

    #[test]
    fn dispatch_flood_processes_the_expected_load() {
        let events = dispatch_flood(5, 20);
        // 5 processes × ~20 ticks × (1 timer + 4 deliveries) plus starts.
        assert!(events > 400, "flood should be message-dominated: {events}");
        assert_eq!(events, dispatch_flood(5, 20), "deterministic");
    }

    #[test]
    fn trace_fill_is_deterministic_and_nonzero() {
        assert_ne!(trace_fill(100), 0);
        assert_eq!(trace_fill(100), trace_fill(100));
    }
}
