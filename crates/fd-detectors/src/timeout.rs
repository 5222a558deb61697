//! Adaptive per-peer timeouts.
//!
//! All the timeout-based detectors in this crate (and the Fig. 2
//! transformation's Task 4) rely on the same mechanism the paper's proofs
//! use: when a suspicion turns out to be a mistake, the timeout for that
//! peer is *increased*, so under partial synchrony each peer can be
//! falsely suspected only a bounded number of times — once the timeout
//! exceeds `2Φ + Δ` it never fires spuriously again (Theorem 1's
//! argument).

use fd_sim::{ProcessId, SimDuration};

/// How a timeout grows after a false suspicion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowthPolicy {
    /// Add a fixed increment (the classic Chandra–Toueg scheme).
    Additive(SimDuration),
    /// Double the current value (faster convergence, coarser bound).
    Exponential,
}

/// A table of per-peer timeout intervals (`Δ_p(q)` in Fig. 2).
///
/// Stored sparsely: every peer sits at `initial` until its first false
/// suspicion, and Theorem 1 bounds how many peers ever grow past it, so
/// only the grown entries are materialised. The obvious dense layout
/// (`vec![initial; n]` per actor) costs O(n²) memory across a world and
/// turns every steady-state `get` into a cold-cache load at large n —
/// measurably so at n ≥ 1024.
#[derive(Debug, Clone)]
pub struct TimeoutTable {
    n: usize,
    initial: SimDuration,
    policy: GrowthPolicy,
    cap: SimDuration,
    /// `(peer index, current timeout, increase count)` for peers whose
    /// timeout has been increased at least once.
    grown: Vec<(u32, SimDuration, u32)>,
}

impl TimeoutTable {
    /// A table for `n` peers, all starting at `initial`, growing per
    /// `policy`, never exceeding `cap`.
    pub fn new(
        n: usize,
        initial: SimDuration,
        policy: GrowthPolicy,
        cap: SimDuration,
    ) -> TimeoutTable {
        assert!(initial > SimDuration::ZERO, "timeouts must be positive");
        assert!(cap >= initial, "cap below initial timeout");
        TimeoutTable {
            n,
            initial,
            policy,
            cap,
            grown: Vec::new(),
        }
    }

    /// A table with the common additive policy and a generous cap.
    pub fn additive(n: usize, initial: SimDuration, increment: SimDuration) -> TimeoutTable {
        TimeoutTable::new(
            n,
            initial,
            GrowthPolicy::Additive(increment),
            SimDuration::from_secs(3600),
        )
    }

    /// The current timeout for `q`.
    pub fn get(&self, q: ProcessId) -> SimDuration {
        debug_assert!(q.index() < self.n, "peer index out of range");
        if self.grown.is_empty() {
            return self.initial;
        }
        let idx = q.index() as u32;
        self.grown
            .iter()
            .find(|e| e.0 == idx)
            .map_or(self.initial, |e| e.1)
    }

    /// Grow `q`'s timeout after a false suspicion. Returns the new value.
    pub fn increase(&mut self, q: ProcessId) -> SimDuration {
        debug_assert!(q.index() < self.n, "peer index out of range");
        let idx = q.index() as u32;
        let pos = match self.grown.iter().position(|e| e.0 == idx) {
            Some(p) => p,
            None => {
                self.grown.push((idx, self.initial, 0));
                self.grown.len() - 1
            }
        };
        // fd-lint: allow(HP001, reason = "pos is either a scan hit or the index of the entry just pushed")
        let (_, cur, count) = &mut self.grown[pos];
        let next = match self.policy {
            GrowthPolicy::Additive(inc) => *cur + inc,
            GrowthPolicy::Exponential => cur.saturating_mul(2),
        };
        let next = next.min(self.cap);
        *cur = next;
        *count += 1;
        next
    }

    /// Total timeout increases across all peers — i.e. how many mistakes
    /// the detector made. Theorem 1's argument predicts this is bounded
    /// under partial synchrony.
    pub fn total_increases(&self) -> u64 {
        self.grown.iter().map(|e| e.2 as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_growth() {
        let mut t =
            TimeoutTable::additive(3, SimDuration::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(t.get(ProcessId(1)), SimDuration::from_millis(10));
        assert_eq!(t.increase(ProcessId(1)), SimDuration::from_millis(15));
        assert_eq!(t.increase(ProcessId(1)), SimDuration::from_millis(20));
        // Other peers are untouched.
        assert_eq!(t.get(ProcessId(0)), SimDuration::from_millis(10));
        assert_eq!(t.total_increases(), 2);
    }

    #[test]
    fn exponential_growth_hits_cap() {
        let mut t = TimeoutTable::new(
            1,
            SimDuration::from_millis(10),
            GrowthPolicy::Exponential,
            SimDuration::from_millis(35),
        );
        assert_eq!(t.increase(ProcessId(0)), SimDuration::from_millis(20));
        assert_eq!(t.increase(ProcessId(0)), SimDuration::from_millis(35));
        assert_eq!(t.increase(ProcessId(0)), SimDuration::from_millis(35));
    }

    #[test]
    fn eventually_exceeds_any_bound() {
        // The property Theorem 1 relies on: finitely many increases push
        // the timeout past 2Φ + Δ for any fixed Φ, Δ.
        let mut t =
            TimeoutTable::additive(1, SimDuration::from_millis(1), SimDuration::from_millis(7));
        let bound = SimDuration::from_millis(1000);
        let mut steps = 0;
        while t.get(ProcessId(0)) <= bound {
            t.increase(ProcessId(0));
            steps += 1;
            assert!(steps < 10_000);
        }
        assert!(t.get(ProcessId(0)) > bound);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_initial_rejected() {
        let _ = TimeoutTable::additive(1, SimDuration::ZERO, SimDuration::from_millis(1));
    }
}
