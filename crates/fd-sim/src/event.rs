//! The kernel event queue.
//!
//! Two interchangeable implementations live behind `EventQueue`, both
//! delivering events in strict `(time, sequence)` order — the
//! monotonically increasing sequence number breaks ties
//! deterministically, so two events scheduled for the same instant fire
//! in scheduling order and identical seeds always replay identical runs.
//!
//! * [`QueueImpl::Wheel`] (the default) is a timer wheel tuned for the
//!   workload heartbeat protocols generate: almost every event lands
//!   within a few milliseconds of *now*. Events are bucketed by coarse
//!   time spans; the active span is kept sorted and consumed in place,
//!   future spans stay unsorted until activated, and events beyond the
//!   wheel horizon overflow into a binary heap that is migrated back as
//!   the wheel turns.
//! * [`QueueImpl::Classic`] is the original `BinaryHeap` — kept so the
//!   golden-digest tests can prove the wheel produces byte-identical
//!   traces, and as a fallback for pathological schedules.

use crate::actor::{TimerId, TimerTag};
use crate::process::ProcessId;
use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// A delivery payload: owned for unicast sends, reference-counted for
/// broadcast fan-out so an all-to-all send shares one message allocation
/// instead of cloning per destination.
#[derive(Debug)]
pub(crate) enum MsgSlot<M> {
    /// The queue owns the only copy.
    Inline(M),
    /// One of several deliveries sharing the same broadcast payload.
    /// `Rc` (not `Arc`) is deliberate: a `World` is single-threaded;
    /// campaign workers each own their worlds outright.
    Shared(Rc<M>),
}

impl<M> MsgSlot<M> {
    /// Borrow the payload (for metrics/trace labels).
    pub fn get(&self) -> &M {
        match self {
            MsgSlot::Inline(m) => m,
            MsgSlot::Shared(m) => m,
        }
    }

    /// Take the payload, cloning only if other deliveries still share it
    /// (the last delivery of a broadcast moves the message out).
    pub fn take(self) -> M
    where
        M: Clone,
    {
        match self {
            MsgSlot::Inline(m) => m,
            MsgSlot::Shared(rc) => Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone()),
        }
    }
}

/// What a scheduled event does when it fires.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver `msg` from `from` to `to`.
    Deliver {
        from: ProcessId,
        to: ProcessId,
        msg: MsgSlot<M>,
    },
    /// Fire timer `id` with `tag` at `pid` — but only if the process is
    /// still in the timer's `epoch`. A warm restart advances the
    /// process's epoch, so timer chains armed before a crash die
    /// silently instead of resurrecting alongside the restarted actor.
    Timer {
        pid: ProcessId,
        id: TimerId,
        tag: TimerTag,
        epoch: u32,
    },
    /// Crash `pid` (crash-stop).
    Crash { pid: ProcessId },
    /// Apply a scheduled fault-injection intervention (see
    /// [`crate::chaos`]). Boxed: interventions are rare and can carry
    /// link-model vectors, so they should not widen the hot variants.
    Intervention(Box<crate::chaos::Intervention>),
}

/// One scheduled event: its due time, a tie-breaking sequence number
/// (FIFO among events at the same instant), and the payload.
#[derive(Debug)]
pub(crate) struct QueuedEvent<M> {
    /// Simulated due time.
    pub at: Time,
    /// Insertion order, for deterministic same-time ordering.
    pub seq: u64,
    /// What happens when the event fires.
    pub kind: EventKind<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}

impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Which event-queue implementation a world runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueImpl {
    /// Timer wheel with overflow heap (the default).
    #[default]
    Wheel,
    /// The original binary heap, for golden-digest comparison runs.
    Classic,
}

/// Ticks per bucket, as a shift: 2^10 = 1024 ticks ≈ 1ms per span.
const BUCKET_SHIFT: u32 = 10;
/// Number of wheel slots (power of two). Horizon = 256 × 1024 ticks
/// ≈ 262ms, comfortably past the heartbeat periods and link delays the
/// protocols schedule; only far-future timers and late crash plans
/// overflow.
const BUCKET_COUNT: usize = 256;
const BUCKET_MASK: usize = BUCKET_COUNT - 1;
const WORDS: usize = BUCKET_COUNT / 64;

fn bucket_of(at: Time) -> u64 {
    at.0 >> BUCKET_SHIFT
}

/// The timer-wheel implementation.
///
/// Ordering invariants (what makes pops come out in exact `(at, seq)`
/// order, matching the classic heap event for event):
///
/// * `current` holds the active span sorted ascending by `(at, seq)`;
///   `cur_head` is the consumption point. Pushes that land at or before
///   the active span go into the `inserts` min-heap instead of being
///   spliced into `current` — a large-n broadcast scheduling thousands
///   of same-span deliveries would otherwise pay O(span) per push via
///   `Vec::insert`. Pops merge the two sorted sources by `(at, seq)`.
///   The kernel never schedules into the past, so inserted keys are
///   always at or after the consumption point.
/// * `buckets[b & MASK]` holds the events of absolute bucket `b` for
///   `cur_bucket < b < cur_bucket + BUCKET_COUNT`, unsorted; a bucket is
///   sorted once, when it becomes the active span. Sequence numbers are
///   unique, so the sort order is total and deterministic.
/// * `overflow` holds everything at or beyond the horizon in a min-heap.
///   Overflow times are always at or beyond every wheel time, so the
///   wheel is exhausted first; on each span advance, overflow events
///   that fell inside the new horizon migrate into their buckets.
///   Span advance happens only when `current` *and* `inserts` are both
///   exhausted, so `inserts` is empty at every `activate`.
pub(crate) struct TimerWheel<M> {
    current: Vec<QueuedEvent<M>>,
    cur_head: usize,
    cur_bucket: u64,
    buckets: Vec<Vec<QueuedEvent<M>>>,
    occupied: [u64; WORDS],
    inserts: BinaryHeap<QueuedEvent<M>>,
    overflow: BinaryHeap<QueuedEvent<M>>,
    len: usize,
    next_seq: u64,
}

impl<M> TimerWheel<M> {
    fn new() -> Self {
        TimerWheel {
            current: Vec::new(),
            cur_head: 0,
            cur_bucket: 0,
            buckets: (0..BUCKET_COUNT).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            inserts: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    // fd-lint: hot_path
    fn push(&mut self, at: Time, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let ev = QueuedEvent { at, seq, kind };
        let b = bucket_of(at);
        if b <= self.cur_bucket {
            // Into (or before) the active span: heap-ordered side table,
            // merged against `current` at pop time. O(log inserts) beats
            // the old O(span) `Vec::insert` when a broadcast lands
            // thousands of deliveries in the active span.
            self.inserts.push(ev);
        } else if b - self.cur_bucket < BUCKET_COUNT as u64 {
            let slot = (b as usize) & BUCKET_MASK;
            // fd-lint: allow(HP001, reason = "slot is masked with BUCKET_MASK, always within buckets")
            self.buckets[slot].push(ev);
            // fd-lint: allow(HP001, reason = "slot >> 6 < WORDS because slot < BUCKET_COUNT")
            self.occupied[slot >> 6] |= 1u64 << (slot & 63);
        } else {
            self.overflow.push(ev);
        }
    }

    /// Whether the next event comes from `inserts` rather than `current`.
    /// Caller guarantees at least one of the two is non-empty.
    fn next_is_insert(&self) -> bool {
        match (self.current.get(self.cur_head), self.inserts.peek()) {
            (Some(c), Some(i)) => (i.at, i.seq) < (c.at, c.seq),
            (Some(_), None) => false,
            (None, _) => true,
        }
    }

    /// Take the head of `current`, advancing the consumption point.
    fn take_current_head(&mut self) -> QueuedEvent<M> {
        let dummy = QueuedEvent {
            at: Time(0),
            seq: 0,
            kind: EventKind::Crash { pid: ProcessId(0) },
        };
        // fd-lint: allow(HP001, reason = "take_current_head is only called after peeking Some at cur_head")
        let ev = std::mem::replace(&mut self.current[self.cur_head], dummy);
        self.cur_head += 1;
        if self.cur_head == self.current.len() {
            self.current.clear();
            self.cur_head = 0;
        }
        ev
    }

    // fd-lint: hot_path
    fn pop(&mut self) -> Option<QueuedEvent<M>> {
        if !self.ensure_current() {
            return None;
        }
        self.len -= 1;
        if self.next_is_insert() {
            let ev = self
                .inserts
                .pop()
                // fd-lint: allow(UH002, HP001, reason = "next_is_insert returned true, so the inserts heap is non-empty")
                .expect("next_is_insert implies non-empty");
            return Some(ev);
        }
        Some(self.take_current_head())
    }

    /// Drain every event due at the earliest pending timestamp into
    /// `out`, provided that timestamp is at or before `bound`. Returns
    /// the number of events appended. One span/heap resolution serves
    /// the whole same-instant batch — the kernel's per-timestamp
    /// processing loop calls this instead of `pop_due` per event.
    fn pop_due_batch(&mut self, bound: Time, out: &mut Vec<QueuedEvent<M>>) -> usize {
        // An empty queue is the `(None, None)` arm below.
        self.ensure_current();
        let t = match (self.current.get(self.cur_head), self.inserts.peek()) {
            (Some(c), Some(i)) => c.at.min(i.at),
            (Some(c), None) => c.at,
            (None, Some(i)) => i.at,
            (None, None) => return 0,
        };
        if t > bound {
            return 0;
        }
        let start = out.len();
        loop {
            let cur_due = self.current.get(self.cur_head).is_some_and(|e| e.at == t);
            let ins_due = self.inserts.peek().is_some_and(|e| e.at == t);
            let ev = match (cur_due, ins_due) {
                (true, false) => self.take_current_head(),
                (false, true) => {
                    // fd-lint: allow(UH002, HP001, reason = "ins_due peeked a non-empty heap")
                    self.inserts.pop().expect("ins_due implies non-empty")
                }
                (true, true) => {
                    if self.next_is_insert() {
                        // fd-lint: allow(UH002, HP001, reason = "ins_due peeked a non-empty heap")
                        self.inserts.pop().expect("ins_due implies non-empty")
                    } else {
                        self.take_current_head()
                    }
                }
                (false, false) => break,
            };
            out.push(ev);
        }
        let drained = out.len() - start;
        self.len -= drained;
        drained
    }

    fn peek_time(&mut self) -> Option<Time> {
        if !self.ensure_current() {
            return None;
        }
        let cur = self.current.get(self.cur_head).map(|e| e.at);
        let ins = self.inserts.peek().map(|e| e.at);
        match (cur, ins) {
            (Some(c), Some(i)) => Some(c.min(i)),
            (c, i) => c.or(i),
        }
    }

    /// Advance spans until the active one is non-empty. Returns `false`
    /// iff the queue is empty.
    fn ensure_current(&mut self) -> bool {
        loop {
            if self.cur_head < self.current.len() || !self.inserts.is_empty() {
                return true;
            }
            if self.len == 0 {
                return false;
            }
            self.current.clear();
            self.cur_head = 0;
            match self.next_occupied_bucket() {
                Some(abs) => self.activate(abs),
                None => {
                    // Everything pending lives beyond the horizon.
                    // fd-lint: allow(UH002, HP001, reason = "ensure_current checked len > 0, so an empty wheel implies a non-empty overflow heap; a panic here is a broken queue invariant, not an input")
                    let at = self.overflow.peek().expect("len > 0 but wheel empty").at;
                    self.activate(bucket_of(at));
                }
            }
        }
    }

    /// Make absolute bucket `abs` the active span: migrate overflow
    /// events that fell inside the new horizon, then sort the bucket's
    /// events into `current`.
    fn activate(&mut self, abs: u64) {
        self.cur_bucket = abs;
        while let Some(e) = self.overflow.peek() {
            let b = bucket_of(e.at);
            debug_assert!(b >= abs, "overflow behind the wheel");
            if b - abs >= BUCKET_COUNT as u64 {
                break;
            }
            let Some(e) = self.overflow.pop() else { break };
            let slot = (b as usize) & BUCKET_MASK;
            // fd-lint: allow(HP001, reason = "slot is masked with BUCKET_MASK, always within buckets")
            self.buckets[slot].push(e);
            // fd-lint: allow(HP001, reason = "slot >> 6 < WORDS because slot < BUCKET_COUNT")
            self.occupied[slot >> 6] |= 1u64 << (slot & 63);
        }
        let slot = (abs as usize) & BUCKET_MASK;
        // fd-lint: allow(HP001, reason = "slot >> 6 < WORDS because slot < BUCKET_COUNT")
        self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
        // fd-lint: allow(HP001, reason = "slot is masked with BUCKET_MASK, always within buckets")
        std::mem::swap(&mut self.current, &mut self.buckets[slot]);
        self.current.sort_unstable_by_key(|e| (e.at, e.seq));
        self.cur_head = 0;
    }

    /// The nearest occupied bucket strictly after `cur_bucket`, as an
    /// absolute bucket index, via a circular bitmap scan.
    fn next_occupied_bucket(&self) -> Option<u64> {
        let start = ((self.cur_bucket as usize) + 1) & BUCKET_MASK;
        let first_word = start >> 6;
        for k in 0..=WORDS {
            let wi = (first_word + k) % WORDS;
            // fd-lint: allow(HP001, reason = "wi is reduced mod WORDS by the circular scan")
            let mut w = self.occupied[wi];
            if k == 0 {
                w &= !0u64 << (start & 63);
            }
            if k == WORDS {
                w &= !(!0u64 << (start & 63));
            }
            if w != 0 {
                let slot = (wi << 6) | w.trailing_zeros() as usize;
                let delta = (slot + BUCKET_COUNT - start) & BUCKET_MASK;
                return Some(self.cur_bucket + 1 + delta as u64);
            }
        }
        None
    }

    fn clear(&mut self) {
        self.current.clear();
        self.cur_head = 0;
        self.cur_bucket = 0;
        for (wi, word) in self.occupied.iter_mut().enumerate() {
            let mut w = *word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                self.buckets[(wi << 6) | bit].clear();
                w &= w - 1;
            }
            *word = 0;
        }
        self.inserts.clear();
        self.overflow.clear();
        self.len = 0;
        self.next_seq = 0;
    }
}

/// Deterministic event queue (see module docs for the two variants).
pub(crate) enum EventQueue<M> {
    Wheel(TimerWheel<M>),
    Classic {
        heap: BinaryHeap<QueuedEvent<M>>,
        next_seq: u64,
    },
}

impl<M> EventQueue<M> {
    /// An empty queue backed by the chosen implementation.
    pub fn with_impl(imp: QueueImpl) -> Self {
        match imp {
            QueueImpl::Wheel => EventQueue::Wheel(TimerWheel::new()),
            QueueImpl::Classic => EventQueue::Classic {
                heap: BinaryHeap::new(),
                next_seq: 0,
            },
        }
    }

    /// Schedule `kind` at time `at`, after everything already scheduled
    /// at that instant.
    // fd-lint: hot_path
    pub fn push(&mut self, at: Time, kind: EventKind<M>) {
        match self {
            EventQueue::Wheel(w) => w.push(at, kind),
            EventQueue::Classic { heap, next_seq } => {
                let seq = *next_seq;
                *next_seq += 1;
                heap.push(QueuedEvent { at, seq, kind });
            }
        }
    }

    /// Remove and return the earliest event, FIFO among ties.
    // fd-lint: hot_path
    pub fn pop(&mut self) -> Option<QueuedEvent<M>> {
        match self {
            EventQueue::Wheel(w) => w.pop(),
            EventQueue::Classic { heap, .. } => heap.pop(),
        }
    }

    /// The time of the next event without removing it. Takes `&mut self`
    /// because the wheel advances to the next occupied span to answer.
    pub fn peek_time(&mut self) -> Option<Time> {
        match self {
            EventQueue::Wheel(w) => w.peek_time(),
            EventQueue::Classic { heap, .. } => heap.peek().map(|e| e.at),
        }
    }

    /// Events currently scheduled.
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Wheel(w) => w.len,
            EventQueue::Classic { heap, .. } => heap.len(),
        }
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pop the earliest event only if it is due at or before `bound`.
    /// The peek-then-pop pair lives here so callers never need a
    /// "peeked therefore non-empty" unwrap.
    pub fn pop_due(&mut self, bound: Time) -> Option<QueuedEvent<M>> {
        match self.peek_time() {
            Some(t) if t <= bound => self.pop(),
            _ => None,
        }
    }

    /// Drain every event due at the earliest pending timestamp (if that
    /// timestamp is at or before `bound`) into `out`, preserving strict
    /// `(at, seq)` order. Returns the number of events appended — 0 means
    /// nothing is due. The kernel's `run_until_time` loop uses this to
    /// amortize queue bookkeeping over a whole same-instant batch: at
    /// large n a single broadcast makes thousands of deliveries share one
    /// timestamp.
    pub fn pop_due_batch(&mut self, bound: Time, out: &mut Vec<QueuedEvent<M>>) -> usize {
        match self {
            EventQueue::Wheel(w) => w.pop_due_batch(bound, out),
            EventQueue::Classic { heap, .. } => {
                let Some(first) = heap.peek() else { return 0 };
                if first.at > bound {
                    return 0;
                }
                let t = first.at;
                let start = out.len();
                while let Some(e) = heap.peek() {
                    if e.at != t {
                        break;
                    }
                    // fd-lint: allow(UH002, HP001, reason = "peek just returned Some on the same heap")
                    out.push(heap.pop().expect("peeked non-empty"));
                }
                out.len() - start
            }
        }
    }

    /// Empty the queue and restart sequence numbering, keeping span,
    /// bucket, and heap capacity warm for the next run.
    pub fn reset(&mut self) {
        match self {
            EventQueue::Wheel(w) => w.clear(),
            EventQueue::Classic { heap, next_seq } => {
                heap.clear();
                *next_seq = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(pid: usize) -> EventKind<()> {
        EventKind::Crash {
            pid: ProcessId(pid),
        }
    }

    fn both() -> [EventQueue<()>; 2] {
        [
            EventQueue::with_impl(QueueImpl::Wheel),
            EventQueue::with_impl(QueueImpl::Classic),
        ]
    }

    fn drain_pids(q: &mut EventQueue<()>) -> Vec<(Time, usize)> {
        std::iter::from_fn(|| {
            q.pop().map(|e| match e.kind {
                EventKind::Crash { pid } => (e.at, pid.index()),
                _ => unreachable!(),
            })
        })
        .collect()
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both() {
            q.push(Time(30), crash(0));
            q.push(Time(10), crash(1));
            q.push(Time(20), crash(2));
            let order: Vec<Time> = std::iter::from_fn(|| q.pop().map(|e| e.at)).collect();
            assert_eq!(order, vec![Time(10), Time(20), Time(30)]);
        }
    }

    #[test]
    fn ties_break_by_insertion_order() {
        for mut q in both() {
            for i in 0..5 {
                q.push(Time(7), crash(i));
            }
            let pids: Vec<usize> = drain_pids(&mut q).into_iter().map(|(_, p)| p).collect();
            assert_eq!(pids, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn peek_matches_pop() {
        for mut q in both() {
            assert_eq!(q.peek_time(), None);
            q.push(Time(5), crash(0));
            q.push(Time(3), crash(1));
            assert_eq!(q.peek_time(), Some(Time(3)));
            assert_eq!(q.len(), 2);
            q.pop();
            assert_eq!(q.peek_time(), Some(Time(5)));
            q.pop();
            assert!(q.is_empty());
        }
    }

    /// Interleaved push/pop with ties at span boundaries, across the
    /// wheel/overflow horizon: the wheel must agree with the classic
    /// heap event for event.
    #[test]
    fn interleaved_push_pop_matches_classic() {
        let horizon = (BUCKET_COUNT as u64) << BUCKET_SHIFT;
        // A deterministic but irregular schedule touching every regime:
        // same-tick ties, same-span inserts, far-future overflow events,
        // and pops interleaved with pushes.
        let mut wheel = EventQueue::with_impl(QueueImpl::Wheel);
        let mut classic = EventQueue::with_impl(QueueImpl::Classic);
        let mut pid = 0usize;
        let mut x = 0x243f_6a88_85a3_08d3u64; // deterministic LCG-ish stream
        let mut nextx = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        let mut now = 0u64;
        let mut log_wheel = Vec::new();
        let mut log_classic = Vec::new();
        for round in 0..2000 {
            let r = nextx();
            let burst = (r % 4) as usize;
            for _ in 0..=burst {
                let delta = match nextx() % 10 {
                    0 => 0,                           // same-tick tie
                    1..=5 => 1 + nextx() % 4096,      // near future (in-wheel)
                    6..=8 => nextx() % (horizon / 2), // mid wheel
                    _ => horizon + nextx() % horizon, // beyond the horizon
                };
                wheel.push(Time(now + delta), crash(pid));
                classic.push(Time(now + delta), crash(pid));
                pid += 1;
            }
            if round % 3 != 0 {
                let a = wheel.pop();
                let b = classic.pop();
                match (a, b) {
                    (Some(ea), Some(eb)) => {
                        assert_eq!((ea.at, ea.seq), (eb.at, eb.seq), "round {round}");
                        now = ea.at.0;
                        log_wheel.push((ea.at, ea.seq));
                        log_classic.push((eb.at, eb.seq));
                    }
                    (None, None) => {}
                    other => panic!("one queue empty, the other not: {other:?}"),
                }
            }
            assert_eq!(wheel.len(), classic.len(), "round {round}");
        }
        // Drain the rest.
        loop {
            match (wheel.pop(), classic.pop()) {
                (Some(ea), Some(eb)) => assert_eq!((ea.at, ea.seq), (eb.at, eb.seq)),
                (None, None) => break,
                other => panic!("length mismatch at drain: {other:?}"),
            }
        }
        assert_eq!(log_wheel, log_classic);
    }

    /// Seq tie-breaks survive crossing the wheel/overflow boundary: two
    /// events at the same far-future tick, pushed in order, must pop in
    /// order after migrating from the overflow heap into the wheel.
    #[test]
    fn overflow_migration_preserves_seq_ties() {
        let horizon = (BUCKET_COUNT as u64) << BUCKET_SHIFT;
        let far = Time(horizon * 3 + 17);
        for mut q in both() {
            for i in 0..8 {
                q.push(far, crash(i));
            }
            // A near event first, so the wheel turns before the far ones.
            q.push(Time(1), crash(100));
            let order = drain_pids(&mut q);
            assert_eq!(order[0], (Time(1), 100));
            let far_order: Vec<usize> = order[1..].iter().map(|&(_, p)| p).collect();
            assert_eq!(far_order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        }
    }

    /// Pushing into the already-active span (e.g. a loopback delivery
    /// one tick from now) keeps order against events already there.
    #[test]
    fn same_span_insert_keeps_order() {
        for mut q in both() {
            q.push(Time(10), crash(0));
            q.push(Time(30), crash(1));
            assert_eq!(q.peek_time(), Some(Time(10)));
            let first = q.pop().unwrap();
            assert_eq!(first.at, Time(10));
            // Now push between the popped event and the pending one,
            // plus a tie with the pending one (must lose by seq).
            q.push(Time(20), crash(2));
            q.push(Time(30), crash(3));
            let order = drain_pids(&mut q);
            assert_eq!(order, vec![(Time(20), 2), (Time(30), 1), (Time(30), 3)]);
        }
    }

    #[test]
    fn reset_restarts_sequence_numbering() {
        for mut q in both() {
            q.push(Time(5), crash(0));
            q.push(Time(900_000_000), crash(1)); // deep overflow
            q.pop();
            q.reset();
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            // Ties after reset break exactly as in a fresh queue.
            q.push(Time(7), crash(10));
            q.push(Time(7), crash(11));
            let order = drain_pids(&mut q);
            assert_eq!(order, vec![(Time(7), 10), (Time(7), 11)]);
        }
    }

    /// Events landing at exactly the horizon boundary (`now + 256×1024`
    /// ticks) must overflow, events one tick inside must bucket, and the
    /// three groups must still pop in strict `(at, seq)` order. This is
    /// the off-by-one regime a `<` vs `<=` slip in `push` would corrupt.
    #[test]
    fn horizon_boundary_is_exact() {
        let horizon = (BUCKET_COUNT as u64) << BUCKET_SHIFT;
        for mut q in both() {
            // just inside (last in-wheel bucket), exactly at, just past
            q.push(Time(horizon - 1), crash(0));
            q.push(Time(horizon), crash(1));
            q.push(Time(horizon + 1), crash(2));
            // ties straddling the boundary, pushed out of time order
            q.push(Time(horizon), crash(3));
            q.push(Time(horizon - 1), crash(4));
            let order = drain_pids(&mut q);
            assert_eq!(
                order,
                vec![
                    (Time(horizon - 1), 0),
                    (Time(horizon - 1), 4),
                    (Time(horizon), 1),
                    (Time(horizon), 3),
                    (Time(horizon + 1), 2),
                ]
            );
        }
    }

    /// Large-n regime: thousands of same-instant events (one broadcast's
    /// deliveries) pushed while the target span is already active, with
    /// a tail beyond the horizon. Wheel must match classic exactly.
    #[test]
    fn large_n_same_instant_burst_matches_classic() {
        let horizon = (BUCKET_COUNT as u64) << BUCKET_SHIFT;
        let mut wheel = EventQueue::with_impl(QueueImpl::Wheel);
        let mut classic = EventQueue::with_impl(QueueImpl::Classic);
        for q in [&mut wheel, &mut classic] {
            q.push(Time(5), crash(9999));
            q.pop(); // activate span 0
            for i in 0..4096 {
                q.push(Time(7), crash(i)); // same-span burst (the old O(span) path)
            }
            for i in 0..64 {
                q.push(Time(horizon + 7), crash(10000 + i)); // overflow ties
            }
            q.push(Time(6), crash(8888)); // lands before the burst
        }
        let a = drain_pids(&mut wheel);
        let b = drain_pids(&mut classic);
        assert_eq!(a, b);
        assert_eq!(a[0], (Time(6), 8888));
        assert_eq!(a[1], (Time(7), 0));
        assert_eq!(a[4096], (Time(7), 4095));
        assert_eq!(a[4097], (Time(horizon + 7), 10000));
    }

    /// `pop_due_batch` drains exactly the earliest timestamp's events, in
    /// seq order, and agrees between the two implementations — including
    /// when the batch is split across `current` and `inserts`.
    #[test]
    fn pop_due_batch_matches_pop_due() {
        for mut q in both() {
            q.push(Time(10), crash(0));
            q.push(Time(10), crash(1));
            q.push(Time(20), crash(2));
            // Activate the span, then land more ties at t=10 (these go
            // through the wheel's insert path).
            q.pop(); // (10, 0)
            q.push(Time(10), crash(3));
            q.push(Time(10), crash(4));
            let mut out = Vec::new();
            assert_eq!(q.pop_due_batch(Time(15), &mut out), 3);
            let pids: Vec<usize> = out
                .iter()
                .map(|e| match e.kind {
                    EventKind::Crash { pid } => pid.index(),
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(pids, vec![1, 3, 4]);
            // t=20 is beyond the bound: nothing more drains.
            out.clear();
            assert_eq!(q.pop_due_batch(Time(15), &mut out), 0);
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop_due_batch(Time(20), &mut out), 1);
            assert!(q.is_empty());
        }
    }

    /// A randomized cross-check: a long interleaved schedule drained
    /// entirely through `pop_due_batch` must equal the classic heap's
    /// event order.
    #[test]
    fn batch_drain_matches_classic_order() {
        let horizon = (BUCKET_COUNT as u64) << BUCKET_SHIFT;
        let mut wheel = EventQueue::with_impl(QueueImpl::Wheel);
        let mut classic = EventQueue::with_impl(QueueImpl::Classic);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut nextx = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        let mut now = 0u64;
        let mut pid = 0usize;
        for _ in 0..500 {
            for _ in 0..(nextx() % 6) {
                let delta = match nextx() % 8 {
                    0 => 0,
                    1..=4 => nextx() % 2048,
                    5..=6 => nextx() % horizon,
                    _ => horizon + nextx() % (horizon / 4),
                };
                let at = Time(now + delta);
                wheel.push(at, crash(pid));
                classic.push(at, crash(pid));
                pid += 1;
            }
            let mut wa = Vec::new();
            let mut ca = Vec::new();
            let bound = Time(now + nextx() % 4096);
            wheel.pop_due_batch(bound, &mut wa);
            classic.pop_due_batch(bound, &mut ca);
            let keys =
                |v: &Vec<QueuedEvent<()>>| v.iter().map(|e| (e.at, e.seq)).collect::<Vec<_>>();
            assert_eq!(keys(&wa), keys(&ca));
            if let Some(e) = wa.last() {
                now = e.at.0;
            } else {
                now += 1024;
            }
            assert_eq!(wheel.len(), classic.len());
        }
    }

    /// Reset must drop pending active-span inserts too — a stale insert
    /// surviving into the next run would corrupt replay determinism.
    #[test]
    fn reset_clears_active_span_inserts() {
        let mut q = EventQueue::with_impl(QueueImpl::Wheel);
        q.push(Time(5), crash(0));
        q.pop(); // span 0 active
        q.push(Time(6), crash(1)); // goes to the inserts heap
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time(7), crash(2));
        let order = drain_pids(&mut q);
        assert_eq!(order, vec![(Time(7), 2)]);
    }

    #[test]
    fn msg_slot_shares_and_takes() {
        let slot: MsgSlot<String> = MsgSlot::Inline("a".into());
        assert_eq!(slot.get(), "a");
        assert_eq!(slot.take(), "a");
        let rc = Rc::new("b".to_string());
        let s1 = MsgSlot::Shared(Rc::clone(&rc));
        let s2 = MsgSlot::Shared(rc);
        assert_eq!(s1.get(), "b");
        assert_eq!(s1.take(), "b"); // clones: s2 still shares
        assert_eq!(s2.take(), "b"); // last holder: moves out
    }

    #[test]
    fn the_wheel_is_the_default_queue() {
        assert_eq!(QueueImpl::default(), QueueImpl::Wheel);
    }
}
