//! The open-loop client generator of the KV workloads, and the rule
//! that reads a knee off a rate ramp.
//!
//! Open loop: operations are due on a fixed schedule whether or not the
//! service keeps up, so a stall delays everything queued behind it and
//! that wait is counted — latency runs from an operation's *due time*,
//! not from when the replica got round to submitting it.

use fd_kv::{encode, KvOp, KvWorkload, MAX_UID};
use fd_sim::Time;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// First due time.
pub const ARRIVALS_FROM: Time = Time::from_millis(500);
/// End of the arrival window (exclusive).
pub const ARRIVALS_UNTIL: Time = Time::from_millis(4500);

/// `rate` operations per simulated second, evenly spaced over
/// [`ARRIVALS_FROM`, `ARRIVALS_UNTIL`); target replica, key and
/// operation drawn from `seed`. The uid of an operation is its position.
pub fn generate(seed: u64, n: usize, rate: u32) -> KvWorkload {
    let span = ARRIVALS_UNTIL.since(ARRIVALS_FROM).ticks();
    let count = u64::from(rate) * span / 1_000_000;
    assert!(
        count > 0 && count - 1 <= MAX_UID,
        "{count} ops do not fit the uid field"
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0be7_100b_6e7e);
    let ops = (0..count)
        .map(|uid| {
            let at = Time(ARRIVALS_FROM.ticks() + uid * span / count);
            let pid = rng.gen_range(0..n);
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
            (pid, at, encode(uid, op))
        })
        .collect();
    KvWorkload { ops }
}

/// The latency limit a ramp step must meet at p99, simulated.
pub const LIMIT_US: u64 = 250_000;
/// The share of due operations a ramp step must commit by the horizon.
pub const MIN_COMMITTED_SHARE: f64 = 0.99;

/// One ramp step's pooled result.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered rate, operations per simulated second.
    pub rate: u32,
    /// p99 of due → commit over the step's committed operations.
    pub p99_us: u64,
    /// Committed by the horizon / due.
    pub committed_share: f64,
}

impl Step {
    fn ok(&self) -> bool {
        self.p99_us <= LIMIT_US && self.committed_share >= MIN_COMMITTED_SHARE
    }
}

/// The highest rate such that its step and every lower step meet both
/// conditions; 0 when the first step already misses. `steps` is in
/// ascending rate order.
pub fn max_rate_ok(steps: &[Step]) -> u32 {
    steps
        .iter()
        .take_while(|s| s.ok())
        .last()
        .map_or(0, |s| s.rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_kv::uid_of;

    #[test]
    fn same_seed_same_plan_and_uids_fit() {
        let a = generate(9, 4, 300);
        assert_eq!(a, generate(9, 4, 300));
        assert_eq!(a.ops.len(), 1200);
        for (i, &(pid, at, cmd)) in a.ops.iter().enumerate() {
            assert!(pid < 4);
            assert!(at >= ARRIVALS_FROM && at < ARRIVALS_UNTIL);
            assert_eq!(uid_of(cmd), i as u64);
            assert!(uid_of(cmd) <= MAX_UID);
        }
        // Evenly spaced: 300/s is one op every 3333 µs (rounded down).
        assert_eq!(a.ops[0].1, ARRIVALS_FROM);
        assert_eq!(a.ops[3].1, Time(ARRIVALS_FROM.ticks() + 10_000));
    }

    #[test]
    fn another_seed_draws_other_targets_but_the_same_schedule() {
        let a = generate(1, 4, 50);
        let b = generate(2, 4, 50);
        let due = |w: &KvWorkload| w.ops.iter().map(|o| o.1).collect::<Vec<_>>();
        let targets = |w: &KvWorkload| w.ops.iter().map(|o| (o.0, o.2)).collect::<Vec<_>>();
        // Due times depend on the rate alone; who gets what op does not.
        assert_eq!(due(&a), due(&b));
        assert_ne!(targets(&a), targets(&b));
        // Another rate is another due-time stream.
        assert_ne!(due(&a), due(&generate(1, 4, 75)));
    }

    fn step(rate: u32, p99_us: u64, committed_share: f64) -> Step {
        Step {
            rate,
            p99_us,
            committed_share,
        }
    }

    #[test]
    fn max_rate_ok_is_the_end_of_the_passing_prefix() {
        // Both conditions must hold …
        assert_eq!(max_rate_ok(&[step(25, 250_000, 0.99)]), 25);
        assert_eq!(max_rate_ok(&[step(25, 250_001, 1.0)]), 0);
        assert_eq!(max_rate_ok(&[step(25, 10, 0.989)]), 0);
        // … and a passing step above a failing one does not count.
        let ramp = [
            step(25, 40_000, 1.0),
            step(50, 60_000, 1.0),
            step(75, 900_000, 1.0),
            step(100, 100_000, 1.0),
        ];
        assert_eq!(max_rate_ok(&ramp), 50);
        assert_eq!(max_rate_ok(&ramp[..2]), 50);
        assert_eq!(max_rate_ok(&[]), 0);
    }
}
