//! Run metrics: message and event counters.
//!
//! Metrics are always collected (they are cheap, unlike full traces) and
//! drive the paper's message-complexity experiments: messages per round
//! per protocol (§5.4) and periodic messages per interval for the failure
//! detectors and the Fig. 2 transformation (§4).
//!
//! `record_sent` runs once per message on the kernel hot path, so the
//! backing structures are chosen for that path: per-kind counts live in
//! a small vector scanned with a pointer-equality fast path (a run sees
//! a handful of distinct `&'static str` labels), per-process counts are
//! a plain index, and only the sparse per-round table is a hash map —
//! with a multiply-xor hasher instead of the default SipHash.

use crate::process::ProcessId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, non-cryptographic multiply-xor hasher (FxHash-style) for the
/// kernel's internal tables and the trace readers above it. Not
/// DoS-resistant — keys are protocol labels, round numbers and
/// operation ids, never attacker-controlled. Iteration order over an
/// Fx-hashed map is not part of any result: use them for lookups.
#[derive(Default)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut last = 0u64;
        for &b in chunks.remainder() {
            last = (last << 8) | b as u64;
        }
        self.add(last ^ ((bytes.len() as u64) << 56));
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.add(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`FxHasher`]'s `BuildHasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Label equality with a pointer fast path: kind labels are `&'static
/// str` literals, so repeat sends of the same kind compare in two
/// integer comparisons; content equality is the correctness fallback
/// for distinct instantiations of the same literal.
#[inline]
fn label_eq(a: &'static str, b: &'static str) -> bool {
    (std::ptr::eq(a.as_ptr(), b.as_ptr()) && a.len() == b.len()) || a == b
}

/// Counters accumulated over one run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    sent_total: u64,
    delivered_total: u64,
    dropped_total: u64,
    events_processed: u64,
    mangled_dropped: u64,
    duplicated: u64,
    reordered: u64,
    /// `(kind, count)`, insertion-ordered; a run sees few distinct kinds.
    sent_by_kind: Vec<(&'static str, u64)>,
    sent_by_kind_round: HashMap<(&'static str, u64), u64, FxBuildHasher>,
    /// Indexed by process id.
    sent_by_process: Vec<u64>,
}

impl Metrics {
    /// Pre-size the per-process counters for an `n`-process world, so
    /// the hot path never resizes mid-run. Safe to skip — `record_sent`
    /// still grows on demand — but at n = 4096 the demand-growth would
    /// land in the first heartbeat burst.
    pub(crate) fn presize(&mut self, n: usize) {
        if self.sent_by_process.len() < n {
            self.sent_by_process.resize(n, 0);
        }
    }

    pub(crate) fn record_sent(&mut self, from: ProcessId, kind: &'static str, round: Option<u64>) {
        self.sent_total += 1;
        match self
            .sent_by_kind
            .iter_mut()
            .find(|(k, _)| label_eq(k, kind))
        {
            Some(slot) => slot.1 += 1,
            None => self.sent_by_kind.push((kind, 1)),
        }
        let idx = from.index();
        if idx >= self.sent_by_process.len() {
            self.sent_by_process.resize(idx + 1, 0);
        }
        // fd-lint: allow(HP001, reason = "the branch above just resized sent_by_process to idx + 1")
        self.sent_by_process[idx] += 1;
        if let Some(r) = round {
            *self.sent_by_kind_round.entry((kind, r)).or_default() += 1;
        }
    }

    pub(crate) fn record_delivered(&mut self) {
        self.delivered_total += 1;
    }

    pub(crate) fn record_dropped(&mut self) {
        self.dropped_total += 1;
    }

    pub(crate) fn record_event(&mut self) {
        self.events_processed += 1;
    }

    pub(crate) fn record_mangled_dropped(&mut self) {
        self.dropped_total += 1;
        self.mangled_dropped += 1;
    }

    pub(crate) fn record_duplicated(&mut self) {
        self.duplicated += 1;
    }

    pub(crate) fn record_reordered(&mut self) {
        self.reordered += 1;
    }

    /// Total messages sent.
    pub fn sent_total(&self) -> u64 {
        self.sent_total
    }

    /// Total messages delivered.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Total messages lost (link drops + deliveries to crashed processes).
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total
    }

    /// Total kernel events processed.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Messages dropped by the installed message mangler (a subset of
    /// [`dropped_total`](Metrics::dropped_total)).
    pub fn mangled_dropped_total(&self) -> u64 {
        self.mangled_dropped
    }

    /// Extra deliveries enqueued by the mangler's duplication.
    pub fn duplicated_total(&self) -> u64 {
        self.duplicated
    }

    /// Deliveries whose arrival time the mangler skewed.
    pub fn reordered_total(&self) -> u64 {
        self.reordered
    }

    /// Messages sent with the given kind label.
    pub fn sent_of_kind(&self, kind: &str) -> u64 {
        self.sent_by_kind
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Messages sent with the given kind label in the given round.
    pub fn sent_of_kind_in_round(&self, kind: &str, round: u64) -> u64 {
        self.sent_by_kind_round
            // fd-lint: allow(ND001, reason = "order-insensitive sum over the FxHashMap kept for the per-send hot path; the fold is commutative")
            .iter()
            .filter(|((k, r), _)| *k == kind && *r == round)
            .map(|(_, v)| *v)
            .sum()
    }

    /// All round numbers that appear in round-tagged sends, sorted.
    pub fn rounds(&self) -> Vec<u64> {
        // fd-lint: allow(ND001, reason = "projection of the hot-path FxHashMap is sorted and deduped before anyone observes it")
        let mut rs: Vec<u64> = self.sent_by_kind_round.keys().map(|(_, r)| *r).collect();
        rs.sort_unstable();
        rs.dedup();
        rs
    }

    /// Messages sent by one process.
    pub fn sent_by(&self, pid: ProcessId) -> u64 {
        self.sent_by_process.get(pid.index()).copied().unwrap_or(0)
    }

    /// All message kinds seen, sorted by label.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut ks: Vec<&'static str> = self.sent_by_kind.iter().map(|(k, _)| *k).collect();
        ks.sort_unstable();
        ks.dedup();
        ks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.record_sent(ProcessId(0), "hb", None);
        m.record_sent(ProcessId(0), "est", Some(1));
        m.record_sent(ProcessId(1), "est", Some(1));
        m.record_sent(ProcessId(1), "est", Some(2));
        m.record_delivered();
        m.record_dropped();
        m.record_event();

        assert_eq!(m.sent_total(), 4);
        assert_eq!(m.delivered_total(), 1);
        assert_eq!(m.dropped_total(), 1);
        assert_eq!(m.events_processed(), 1);
        assert_eq!(m.sent_of_kind("hb"), 1);
        assert_eq!(m.sent_of_kind("est"), 3);
        assert_eq!(m.sent_of_kind_in_round("est", 1), 2);
        assert_eq!(m.sent_of_kind_in_round("est", 2), 1);
        assert_eq!(m.rounds(), vec![1, 2]);
        assert_eq!(m.sent_by(ProcessId(1)), 2);
        assert_eq!(m.sent_by(ProcessId(9)), 0);
        assert_eq!(m.kinds(), vec!["est", "hb"]);
    }

    /// Kind labels with equal content but (potentially) distinct static
    /// addresses must aggregate into one counter — the pointer compare
    /// is a fast path, never the semantics.
    #[test]
    fn kind_labels_compare_by_content() {
        let a: &'static str = "same";
        // Force a second str with identical bytes via a leaked box, so
        // the addresses genuinely differ.
        let b: &'static str = Box::leak("same".to_string().into_boxed_str());
        assert!(!std::ptr::eq(a.as_ptr(), b.as_ptr()));
        let mut m = Metrics::default();
        m.record_sent(ProcessId(0), a, None);
        m.record_sent(ProcessId(0), b, None);
        assert_eq!(m.sent_of_kind("same"), 2);
        assert_eq!(m.kinds(), vec!["same"]);
    }

    #[test]
    fn fx_hasher_is_deterministic_and_spreads() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_eq!(h(b"ec.estimate"), h(b"ec.estimate"));
        assert_ne!(h(b"ec.estimate"), h(b"ec.ack"));
        assert_ne!(h(b"a"), h(b"aa"));
        assert_ne!(h(b""), h(b"\0"));
    }
}
