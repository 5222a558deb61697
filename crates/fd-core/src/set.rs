//! Compact process sets.
//!
//! Failure-detector outputs are sets of processes; protocols intersect,
//! union and scan them constantly. [`ProcessSet`] is a hybrid bitset:
//! identities below [`INLINE_PROCESSES`] live in an inline `u128` (O(1)
//! set algebra, allocation-free clones — every experiment in the paper
//! fits here), and the first larger identity spills the set to a heap
//! word vector so the same code drives the large-n worlds (n = 1024,
//! 4096, …) the scale campaigns sweep. The spill is per-set and lazy: a
//! small set in a 4096-process system never allocates.

use fd_sim::ProcessId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{BitAnd, BitOr, Sub};

/// Identities below this bound are stored inline (no heap allocation).
pub const INLINE_PROCESSES: usize = 128;

/// Sanity bound on system size accepted by the tools (CLI, world
/// builders). Sets themselves grow past this; the cap only guards
/// against absurd `--n` typos allocating unbounded per-process state.
pub const MAX_PROCESSES: usize = 8192;

const WORD_BITS: usize = 64;
const INLINE_WORDS: usize = INLINE_PROCESSES / WORD_BITS;

/// The storage of a [`ProcessSet`].
#[derive(Debug, Clone)]
enum Repr {
    /// All members below [`INLINE_PROCESSES`]: one inline `u128`.
    Small(u128),
    /// At least one member has (or had) an identity ≥ 128: heap words,
    /// little-endian (word `i` holds identities `64i..64i+64`). Trailing
    /// zero words are permitted; equality and hashing ignore them.
    Big(Vec<u64>),
}

/// A set of processes, as a bitset over identities.
///
/// ```
/// use fd_core::ProcessSet;
/// use fd_sim::ProcessId;
///
/// let crashed: ProcessSet = [ProcessId(1), ProcessId(3)].into_iter().collect();
/// let correct = crashed.complement(5);
/// assert_eq!(correct.to_vec(), vec![ProcessId(0), ProcessId(2), ProcessId(4)]);
/// assert_eq!(correct.first(), Some(ProcessId(0))); // the paper's leader pick
///
/// // Identities ≥ 128 spill transparently to heap storage.
/// let mut big = ProcessSet::new();
/// big.insert(ProcessId(4095));
/// assert!(big.contains(ProcessId(4095)));
/// ```
#[derive(Debug, Clone)]
pub struct ProcessSet {
    repr: Repr,
}

impl Default for ProcessSet {
    fn default() -> ProcessSet {
        ProcessSet::EMPTY
    }
}

impl ProcessSet {
    /// The empty set.
    pub const EMPTY: ProcessSet = ProcessSet {
        repr: Repr::Small(0),
    };

    /// The empty set.
    pub fn new() -> ProcessSet {
        ProcessSet::EMPTY
    }

    /// The set `{p_0, …, p_{n-1}}` of all processes in an `n`-process system.
    pub fn full(n: usize) -> ProcessSet {
        if n <= INLINE_PROCESSES {
            let bits = if n == INLINE_PROCESSES {
                u128::MAX
            } else {
                (1u128 << n) - 1
            };
            ProcessSet {
                repr: Repr::Small(bits),
            }
        } else {
            let words = n.div_ceil(WORD_BITS);
            let mut v = vec![u64::MAX; words];
            let spare = words * WORD_BITS - n;
            if spare > 0 {
                v[words - 1] = u64::MAX >> spare;
            }
            ProcessSet { repr: Repr::Big(v) }
        }
    }

    /// A singleton set.
    pub fn singleton(p: ProcessId) -> ProcessSet {
        let mut s = ProcessSet::new();
        s.insert(p);
        s
    }

    /// Logical word `i` (zero beyond the stored width).
    #[inline]
    fn word(&self, i: usize) -> u64 {
        match &self.repr {
            Repr::Small(bits) => {
                if i < INLINE_WORDS {
                    (bits >> (i * WORD_BITS)) as u64
                } else {
                    0
                }
            }
            Repr::Big(v) => v.get(i).copied().unwrap_or(0),
        }
    }

    /// Number of stored words (logical width; trailing zeros included).
    #[inline]
    fn word_len(&self) -> usize {
        match &self.repr {
            Repr::Small(_) => INLINE_WORDS,
            Repr::Big(v) => v.len(),
        }
    }

    /// Switch to heap storage wide enough for identity `idx`.
    fn spill(&mut self, idx: usize) {
        let need = idx / WORD_BITS + 1;
        match &mut self.repr {
            Repr::Small(bits) => {
                let mut v = Vec::with_capacity(need.max(INLINE_WORDS));
                v.push(*bits as u64);
                v.push((*bits >> WORD_BITS) as u64);
                v.resize(need.max(INLINE_WORDS), 0);
                self.repr = Repr::Big(v);
            }
            Repr::Big(v) => {
                if v.len() < need {
                    v.resize(need, 0);
                }
            }
        }
    }

    /// Add `p`; returns whether the set changed.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let idx = p.index();
        if let Repr::Small(bits) = &mut self.repr {
            if idx < INLINE_PROCESSES {
                let b = 1u128 << idx;
                let changed = *bits & b == 0;
                *bits |= b;
                return changed;
            }
            self.spill(idx);
        } else if idx / WORD_BITS >= self.word_len() {
            self.spill(idx);
        }
        let Repr::Big(v) = &mut self.repr else {
            unreachable!("spill always yields Big");
        };
        let (w, b) = (idx / WORD_BITS, 1u64 << (idx % WORD_BITS));
        let changed = v[w] & b == 0;
        v[w] |= b;
        changed
    }

    /// Remove `p`; returns whether the set changed.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let idx = p.index();
        match &mut self.repr {
            Repr::Small(bits) => {
                if idx >= INLINE_PROCESSES {
                    return false;
                }
                let b = 1u128 << idx;
                let changed = *bits & b != 0;
                *bits &= !b;
                changed
            }
            Repr::Big(v) => {
                let w = idx / WORD_BITS;
                if w >= v.len() {
                    return false;
                }
                let b = 1u64 << (idx % WORD_BITS);
                let changed = v[w] & b != 0;
                v[w] &= !b;
                changed
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, p: ProcessId) -> bool {
        let idx = p.index();
        self.word(idx / WORD_BITS) & (1u64 << (idx % WORD_BITS)) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Small(bits) => bits.count_ones() as usize,
            Repr::Big(v) => v.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Small(bits) => *bits == 0,
            Repr::Big(v) => v.iter().all(|&w| w == 0),
        }
    }

    /// The member with the smallest identity — the "first" process in the
    /// paper's total order, used to pick leaders deterministically.
    pub fn first(&self) -> Option<ProcessId> {
        match &self.repr {
            Repr::Small(bits) => {
                if *bits == 0 {
                    None
                } else {
                    Some(ProcessId(bits.trailing_zeros() as usize))
                }
            }
            Repr::Big(v) => v.iter().enumerate().find_map(|(i, &w)| {
                if w == 0 {
                    None
                } else {
                    Some(ProcessId(i * WORD_BITS + w.trailing_zeros() as usize))
                }
            }),
        }
    }

    /// Iterate members in identity order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let words = self.word_len();
        let mut w = 0usize;
        let mut cur = self.word(0);
        std::iter::from_fn(move || loop {
            if cur != 0 {
                let i = cur.trailing_zeros() as usize;
                cur &= cur - 1;
                return Some(ProcessId(w * WORD_BITS + i));
            }
            w += 1;
            if w >= words {
                return None;
            }
            cur = self.word(w);
        })
    }

    /// `self ⊆ other`.
    pub fn is_subset_of(&self, other: &ProcessSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a & !b == 0,
            _ => {
                let n = self.word_len().max(other.word_len());
                (0..n).all(|i| self.word(i) & !other.word(i) == 0)
            }
        }
    }

    /// The complement within an `n`-process system.
    pub fn complement(&self, n: usize) -> ProcessSet {
        ProcessSet::full(n) - self
    }

    /// Members as a sorted `Vec` (for trace payloads).
    pub fn to_vec(&self) -> Vec<ProcessId> {
        // `iter` is a `from_fn` with no size hint: collecting it grows
        // the buffer by doubling, five times for a 42-member set.
        let mut members = Vec::with_capacity(self.len());
        members.extend(self.iter());
        members
    }

    /// Wordwise combination with the small/small fast path; collapses a
    /// heap result whose high words are all zero back to inline storage,
    /// so transient spills do not pin later algebra on the slow path.
    fn combine(&self, rhs: &ProcessSet, small: fn(u128, u128) -> u128) -> ProcessSet {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            return ProcessSet {
                repr: Repr::Small(small(*a, *b)),
            };
        }
        let n = self.word_len().max(rhs.word_len());
        let mut v = Vec::with_capacity(n);
        for i in (0..n).step_by(2) {
            let a = self.word(i) as u128 | ((self.word(i + 1) as u128) << WORD_BITS);
            let b = rhs.word(i) as u128 | ((rhs.word(i + 1) as u128) << WORD_BITS);
            let c = small(a, b);
            v.push(c as u64);
            if i + 1 < n {
                v.push((c >> WORD_BITS) as u64);
            }
        }
        if v.iter().skip(INLINE_WORDS).all(|&w| w == 0) {
            let bits = v[0] as u128 | ((v.get(1).copied().unwrap_or(0) as u128) << WORD_BITS);
            return ProcessSet {
                repr: Repr::Small(bits),
            };
        }
        ProcessSet { repr: Repr::Big(v) }
    }
}

macro_rules! impl_set_op {
    ($trait:ident, $method:ident, $f:expr) => {
        impl $trait<&ProcessSet> for &ProcessSet {
            type Output = ProcessSet;
            fn $method(self, rhs: &ProcessSet) -> ProcessSet {
                self.combine(rhs, $f)
            }
        }
        impl $trait<ProcessSet> for &ProcessSet {
            type Output = ProcessSet;
            fn $method(self, rhs: ProcessSet) -> ProcessSet {
                self.combine(&rhs, $f)
            }
        }
        impl $trait<&ProcessSet> for ProcessSet {
            type Output = ProcessSet;
            fn $method(self, rhs: &ProcessSet) -> ProcessSet {
                self.combine(rhs, $f)
            }
        }
        impl $trait<ProcessSet> for ProcessSet {
            type Output = ProcessSet;
            fn $method(self, rhs: ProcessSet) -> ProcessSet {
                self.combine(&rhs, $f)
            }
        }
    };
}

impl_set_op!(BitOr, bitor, |a, b| a | b);
impl_set_op!(BitAnd, bitand, |a, b| a & b);
impl_set_op!(Sub, sub, |a, b| a & !b);

impl PartialEq for ProcessSet {
    fn eq(&self, other: &ProcessSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a == b,
            _ => {
                let n = self.word_len().max(other.word_len());
                (0..n).all(|i| self.word(i) == other.word(i))
            }
        }
    }
}

impl Eq for ProcessSet {}

impl Hash for ProcessSet {
    /// Representation-independent: a spilled set whose members all fit
    /// inline hashes identically to its inline form.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut hi = 0;
        for i in 0..self.word_len() {
            if self.word(i) != 0 {
                hi = i + 1;
            }
        }
        state.write_usize(hi);
        for i in 0..hi {
            state.write_u64(self.word(i));
        }
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<T: IntoIterator<Item = ProcessId>>(iter: T) -> Self {
        let mut s = ProcessSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl<'a> FromIterator<&'a ProcessId> for ProcessSet {
    fn from_iter<T: IntoIterator<Item = &'a ProcessId>>(iter: T) -> Self {
        iter.into_iter().copied().collect()
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<T: IntoIterator<Item = ProcessId>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl Serialize for ProcessSet {
    /// Sorted identity list, the same shape [`ProcessSet::to_vec`]
    /// produces for trace payloads.
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![(
            "pids".to_string(),
            serde::Value::Arr(
                self.iter()
                    .map(|p| serde::Value::U128(p.index() as u128))
                    .collect(),
            ),
        )])
    }
}

impl Deserialize for ProcessSet {
    fn from_value(v: &serde::Value) -> Result<ProcessSet, serde::Error> {
        // Current format: {"pids": [...]}; legacy inline format: {"bits": N}.
        if let serde::Value::Obj(fields) = v {
            for (k, fv) in fields {
                match (k.as_str(), fv) {
                    ("pids", serde::Value::Arr(items)) => {
                        let mut s = ProcessSet::new();
                        for it in items {
                            match it {
                                serde::Value::U128(x) => {
                                    s.insert(ProcessId(usize::try_from(*x).map_err(|_| {
                                        serde::Error::msg("process identity overflows usize")
                                    })?));
                                }
                                other => {
                                    return Err(serde::Error::msg(format!(
                                        "expected process identity, got {other:?}"
                                    )))
                                }
                            }
                        }
                        return Ok(s);
                    }
                    ("bits", serde::Value::U128(bits)) => {
                        return Ok(ProcessSet {
                            repr: Repr::Small(*bits),
                        });
                    }
                    // Tolerant reader: unknown or mistyped fields fall
                    // through to the trailing type error below.
                    _ => {}
                }
            }
        }
        Err(serde::Error::msg(format!(
            "expected a process set object, got {v:?}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[usize]) -> ProcessSet {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcessSet::new();
        assert!(s.insert(ProcessId(3)));
        assert!(!s.insert(ProcessId(3)));
        assert!(s.contains(ProcessId(3)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(ProcessId(3)));
        assert!(!s.remove(ProcessId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn full_and_complement() {
        let full = ProcessSet::full(5);
        assert_eq!(full.len(), 5);
        let s = set(&[0, 2]);
        assert_eq!(s.complement(5), set(&[1, 3, 4]));
        assert_eq!(
            ProcessSet::full(INLINE_PROCESSES).len(),
            INLINE_PROCESSES,
            "the inline/heap boundary itself"
        );
    }

    #[test]
    fn first_respects_total_order() {
        assert_eq!(set(&[4, 2, 7]).first(), Some(ProcessId(2)));
        assert_eq!(ProcessSet::new().first(), None);
    }

    #[test]
    fn algebra() {
        let a = set(&[0, 1, 2]);
        let b = set(&[2, 3]);
        assert_eq!(&a | &b, set(&[0, 1, 2, 3]));
        assert_eq!(&a & &b, set(&[2]));
        assert_eq!(&a - &b, set(&[0, 1]));
        assert!(set(&[1]).is_subset_of(&a));
        assert!(!b.is_subset_of(&a));
    }

    #[test]
    fn iteration_is_sorted() {
        let s = set(&[9, 1, 5]);
        assert_eq!(s.to_vec(), vec![ProcessId(1), ProcessId(5), ProcessId(9)]);
    }

    #[test]
    fn display() {
        assert_eq!(set(&[0, 2]).to_string(), "{p0,p2}");
        assert_eq!(ProcessSet::new().to_string(), "{}");
    }

    // ---- the large-n surface: everything past the inline boundary ----

    #[test]
    fn spills_past_the_inline_boundary_and_back() {
        let mut s = set(&[0, 127]);
        assert!(s.insert(ProcessId(128)), "first spilled identity");
        assert!(s.insert(ProcessId(4095)));
        assert!(!s.insert(ProcessId(4095)));
        assert_eq!(s.len(), 4);
        assert_eq!(s.to_vec().last(), Some(&ProcessId(4095)));
        assert!(s.contains(ProcessId(127)) && s.contains(ProcessId(128)));
        assert!(!s.contains(ProcessId(4094)));
        assert!(s.remove(ProcessId(4095)) && s.remove(ProcessId(128)));
        assert_eq!(s, set(&[0, 127]), "spilled == inline once high bits clear");
    }

    #[test]
    fn full_at_large_n() {
        for n in [129, 1024, 4095, 4096] {
            let full = ProcessSet::full(n);
            assert_eq!(full.len(), n, "n = {n}");
            assert!(full.contains(ProcessId(n - 1)));
            assert!(!full.contains(ProcessId(n)));
            assert_eq!(full.first(), Some(ProcessId(0)));
        }
    }

    #[test]
    fn complement_at_large_n() {
        let n = 4096;
        let crashed = set(&[0, 129, 4095]);
        let correct = crashed.complement(n);
        assert_eq!(correct.len(), n - 3);
        assert!(!correct.contains(ProcessId(129)));
        assert!(correct.contains(ProcessId(4094)));
        assert_eq!(&correct | &crashed, ProcessSet::full(n));
        assert_eq!(&correct & &crashed, ProcessSet::new());
    }

    #[test]
    fn algebra_mixes_inline_and_spilled_operands() {
        let small = set(&[1, 100]);
        let big = set(&[100, 1000]);
        assert_eq!(&small | &big, set(&[1, 100, 1000]));
        assert_eq!(&small & &big, set(&[100]));
        assert_eq!(&big - &small, set(&[1000]));
        assert_eq!(&small - &big, set(&[1]));
        assert!(small.is_subset_of(&(&small | &big)));
        assert!(set(&[1000]).is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
    }

    #[test]
    fn mixed_representation_equality_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        let inline = set(&[3, 77]);
        let mut spilled = inline.clone();
        spilled.insert(ProcessId(500));
        spilled.remove(ProcessId(500));
        assert_eq!(inline, spilled);
        let h = |s: &ProcessSet| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&inline), h(&spilled));
        // An op on spilled-but-low operands collapses back inline, so
        // the fast path keeps serving subsequent algebra.
        let collapsed = &spilled | &set(&[4]);
        assert!(matches!(collapsed.repr, Repr::Small(_)));
    }

    #[test]
    fn serde_round_trips_both_representations() {
        for s in [set(&[0, 2, 127]), set(&[1, 128, 4095]), ProcessSet::new()] {
            let v = s.to_value();
            let back = ProcessSet::from_value(&v).unwrap();
            assert_eq!(s, back);
        }
        // Legacy inline format still deserializes.
        let legacy = serde::Value::Obj(vec![("bits".to_string(), serde::Value::U128(0b101))]);
        assert_eq!(ProcessSet::from_value(&legacy).unwrap(), set(&[0, 2]));
    }
}
