//! The kernel event queue.
//!
//! Two interchangeable implementations live behind `EventQueue`, both
//! delivering events in strict `(time, sequence)` order — the
//! monotonically increasing sequence number breaks ties
//! deterministically, so two events scheduled for the same instant fire
//! in scheduling order and identical seeds always replay identical runs.
//!
//! * [`QueueImpl::Wheel`] (the default) is a hierarchical timing wheel
//!   (Varghese & Lauck, SOSP 1987) whose level-0 slots are single ticks:
//!   six levels of 64 slots, slot width 64ˡ ticks at level l, and a
//!   binary heap for events beyond the wheel's 2³⁶-tick block. A level-0
//!   slot holds one instant in push order and a higher slot is re-filed
//!   in order before anything can be pushed into its range, so the wheel
//!   never compares two events: it pops in `(time, seq)` order without
//!   sorting. `TimerWheel` states the invariants.
//! * [`QueueImpl::Classic`] is the original `BinaryHeap` — kept so the
//!   golden-digest tests can prove the wheel produces byte-identical
//!   traces.
//!
//! **The kernel contract.** Both queues are drained up to a `bound`:
//! `pop_due` and `pop_due_batch` hand out only events due at or before
//! it. The wheel's clock moves only to slot starts at or before the bound
//! of the drain that moves it, never past the instant that drain hands
//! out; in return the kernel never schedules before the bound of its last
//! drain — or, if that drain handed out instant `t`, before `t`. `World`
//! keeps its side by scheduling at or after `now`: after a drain `now` is
//! the instant handed out, or at least the bound when nothing was.
//! `TimerWheel::push` `debug_assert`s it.

use crate::actor::{TimerId, TimerTag};
use crate::process::ProcessId;
use crate::time::Time;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
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

/// Bits of an event's time that one wheel level resolves: 64 slots.
const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS;
const LEVELS: usize = 6;
/// The wheel holds the 2³⁶-tick block (≈ 19 simulated hours) containing
/// its clock; later blocks wait in the overflow heap.
const HORIZON_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// The hierarchical timing wheel.
///
/// Ordering invariants (what makes pops come out in exact `(at, seq)`
/// order, matching the classic heap event for event, with no sort):
///
/// * **Level.** Every pending event has `at ≥ elapsed`. One whose `at`
///   shares every bit from 2³⁶ up with `elapsed` is filed at the level
///   of the highest 6-bit digit in which the two differ (level 0 when
///   they agree above the lowest digit), in the slot of its own digit
///   there. A level-l event therefore agrees with `elapsed` above digit
///   l and exceeds it at digit l, so every level-0 event is due before
///   every level-1 event, and so on; within a level the lowest occupied
///   slot holds the earliest events. A level-0 slot holds exactly one
///   instant.
/// * **FIFO.** Within every slot, events of the same instant sit in
///   `seq` order. A push appends the highest `seq` yet. When `elapsed`
///   reaches the start of a higher slot, that slot is re-filed, front to
///   back, into the levels below it (a *cascade*). Those levels are empty
///   then — the slot held the earliest pending events — and until then
///   every push into the slot's range landed in the slot itself, whose
///   digit still differed from `elapsed`'s. So a level-0 slot holds its
///   instant in push order through every cascade it came by, and pushes
///   at the instant being drained join its back.
/// * **Overflow.** An event in a later 2³⁶-tick block than `elapsed`
///   waits in `overflow`, a min-heap, and is later than every wheel
///   event. Only when the wheel is empty does `elapsed` move to the start
///   of the earliest overflow event's block, and that block's events
///   then leave the heap in `(at, seq)` order into their slots.
/// * **Clock.** `elapsed` moves only inside a drain, only to the start of
///   the slot (or block) holding the earliest pending event, and only if
///   that start is at or before the drain's bound (module docs: the
///   kernel contract). `ready` holds, last first, what is left of the
///   instant `elapsed` after `pop_due` began it.
pub(crate) struct TimerWheel<M> {
    /// Bit `d` of `occupied[l]` ⇔ `slots[l][d]` is non-empty.
    occupied: [u64; LEVELS],
    slots: Box<[[Vec<QueuedEvent<M>>; SLOTS]; LEVELS]>,
    elapsed: u64,
    ready: Vec<QueuedEvent<M>>,
    overflow: BinaryHeap<QueuedEvent<M>>,
    len: usize,
    next_seq: u64,
}

impl<M> TimerWheel<M> {
    fn new() -> Self {
        TimerWheel {
            occupied: [0; LEVELS],
            slots: Box::new(std::array::from_fn(|_| std::array::from_fn(|_| Vec::new()))),
            elapsed: 0,
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    // fd-lint: hot_path
    fn push(&mut self, at: Time, kind: EventKind<M>) {
        debug_assert!(
            at.0 >= self.elapsed,
            "event at {} scheduled behind the wheel's clock {}: the kernel \
             never schedules before the bound of its last drain",
            at.0,
            self.elapsed
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.file(QueuedEvent { at, seq, kind });
    }

    /// File `ev` by the level invariant: at the highest digit in which
    /// its time differs from `elapsed`, or in the overflow heap.
    fn file(&mut self, ev: QueuedEvent<M>) {
        let diff = ev.at.0 ^ self.elapsed;
        if diff >> HORIZON_BITS != 0 {
            self.overflow.push(ev);
            return;
        }
        let level = ((u64::BITS - 1 - (diff | 1).leading_zeros()) / LEVEL_BITS) as usize;
        let digit = (ev.at.0 >> (level as u32 * LEVEL_BITS)) as usize % SLOTS;
        // `diff < 2^36` keeps `level` below LEVELS; `% SLOTS` bounds `digit`.
        if let (Some(word), Some(slot)) = (
            self.occupied.get_mut(level),
            self.slots.get_mut(level).and_then(|l| l.get_mut(digit)),
        ) {
            *word |= 1 << digit;
            slot.push(ev);
        }
    }

    /// Move `elapsed` to the earliest pending instant, cascading every
    /// slot on the way, but never past `bound`. Returns the instant's
    /// level-0 slot, or `None` if nothing is due by `bound`.
    fn advance(&mut self, bound: Time) -> Option<usize> {
        loop {
            let Some(level) = self.occupied.iter().position(|&word| word != 0) else {
                let block = self.overflow.peek()?.at.0 >> HORIZON_BITS;
                if block << HORIZON_BITS > bound.0 {
                    return None;
                }
                self.elapsed = block << HORIZON_BITS;
                while self
                    .overflow
                    .peek()
                    .is_some_and(|e| e.at.0 >> HORIZON_BITS == block)
                {
                    let Some(ev) = self.overflow.pop() else { break };
                    self.file(ev);
                }
                continue;
            };
            let word = self.occupied.get_mut(level)?;
            let digit = word.trailing_zeros() as usize;
            let shift = level as u32 * LEVEL_BITS;
            let above = shift + LEVEL_BITS;
            let start = (self.elapsed >> above << above) | (digit as u64) << shift;
            if start > bound.0 {
                return None;
            }
            self.elapsed = start;
            if level == 0 {
                return Some(digit);
            }
            *word &= !(1 << digit);
            let slot = self.slots.get_mut(level)?.get_mut(digit)?;
            let mut cascade = std::mem::take(slot);
            for ev in cascade.drain(..) {
                self.file(ev);
            }
            // Hand the emptied buffer back so the slot keeps its capacity.
            if let Some(slot) = self.slots.get_mut(level).and_then(|l| l.get_mut(digit)) {
                *slot = cascade;
            }
        }
    }

    /// Take level-0 slot `digit` — the instant `elapsed` — appending it to
    /// `out`, by swapping buffers when `out` is empty: the slot keeps
    /// `out`'s emptied capacity.
    fn take_instant(&mut self, digit: usize, out: &mut Vec<QueuedEvent<M>>) {
        let (Some(word), Some(slot)) = (
            self.occupied.first_mut(),
            self.slots.first_mut().and_then(|l| l.get_mut(digit)),
        ) else {
            return;
        };
        *word &= !(1 << digit);
        if out.is_empty() {
            std::mem::swap(out, slot);
        } else {
            out.append(slot);
        }
    }

    /// Remove and return the earliest event if it is due at or before
    /// `bound`, FIFO among ties.
    // fd-lint: hot_path
    fn pop_due(&mut self, bound: Time) -> Option<QueuedEvent<M>> {
        if self.ready.is_empty() {
            let digit = self.advance(bound)?;
            let mut ready = std::mem::take(&mut self.ready);
            self.take_instant(digit, &mut ready);
            ready.reverse();
            self.ready = ready;
        } else if self.elapsed > bound.0 {
            return None;
        }
        let ev = self.ready.pop()?;
        self.len -= 1;
        Some(ev)
    }

    /// Append every event due at the earliest pending instant to `out`,
    /// provided that instant is at or before `bound`; returns how many.
    /// The instant is one level-0 slot, handed over whole.
    // fd-lint: hot_path
    fn pop_due_batch(&mut self, bound: Time, out: &mut Vec<QueuedEvent<M>>) -> usize {
        let before = out.len();
        if self.ready.is_empty() {
            let Some(digit) = self.advance(bound) else {
                return 0;
            };
            self.take_instant(digit, out);
        } else if self.elapsed <= bound.0 {
            // What `pop_due` left of this instant, then what was pushed
            // at it since.
            out.extend(self.ready.drain(..).rev());
            self.take_instant(self.elapsed as usize % SLOTS, out);
        }
        let drained = out.len() - before;
        self.len -= drained;
        drained
    }

    fn clear(&mut self) {
        for (word, level) in self.occupied.iter_mut().zip(self.slots.iter_mut()) {
            while *word != 0 {
                if let Some(slot) = level.get_mut(word.trailing_zeros() as usize) {
                    slot.clear();
                }
                *word &= *word - 1;
            }
        }
        self.elapsed = 0;
        self.ready.clear();
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
    /// at that instant. `at` keeps the kernel contract (module docs).
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

    /// Remove and return the earliest event if it is due at or before
    /// `bound`, FIFO among ties.
    // fd-lint: hot_path
    pub fn pop_due(&mut self, bound: Time) -> Option<QueuedEvent<M>> {
        match self {
            EventQueue::Wheel(w) => w.pop_due(bound),
            EventQueue::Classic { heap, .. } => {
                let head = heap.peek_mut()?;
                (head.at <= bound).then(|| PeekMut::pop(head))
            }
        }
    }

    /// Drain every event due at the earliest pending timestamp (if that
    /// timestamp is at or before `bound`) into `out`, preserving strict
    /// `(at, seq)` order. Returns the number of events appended — 0 means
    /// nothing is due. The kernel's `run_until_time` loop uses this to
    /// amortize queue bookkeeping over a whole same-instant batch: at
    /// large n a single broadcast makes thousands of deliveries share one
    /// timestamp.
    // fd-lint: hot_path
    pub fn pop_due_batch(&mut self, bound: Time, out: &mut Vec<QueuedEvent<M>>) -> usize {
        match self {
            EventQueue::Wheel(w) => w.pop_due_batch(bound, out),
            EventQueue::Classic { heap, .. } => {
                let Some(t) = heap.peek().map(|e| e.at).filter(|&t| t <= bound) else {
                    return 0;
                };
                let before = out.len();
                while let Some(head) = heap.peek_mut() {
                    if head.at != t {
                        break;
                    }
                    out.push(PeekMut::pop(head));
                }
                out.len() - before
            }
        }
    }

    /// Empty the queue and restart sequence numbering, keeping slot and
    /// heap capacity warm for the next run.
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

    /// One past the last tick of the wheel's first block.
    const HORIZON: u64 = 1 << HORIZON_BITS;

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

    fn pid_of(e: &QueuedEvent<()>) -> usize {
        match e.kind {
            EventKind::Crash { pid } => pid.index(),
            _ => unreachable!(),
        }
    }

    fn drain_pids(q: &mut EventQueue<()>) -> Vec<(Time, usize)> {
        std::iter::from_fn(|| q.pop_due(Time::MAX).map(|e| (e.at, pid_of(&e)))).collect()
    }

    /// A deterministic LCG stream for the randomized cross-checks.
    fn lcg(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 11
        }
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both() {
            q.push(Time(30), crash(0));
            q.push(Time(10), crash(1));
            q.push(Time(20), crash(2));
            let order: Vec<Time> = drain_pids(&mut q).into_iter().map(|(t, _)| t).collect();
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

    /// `pop_due` hands out nothing due after its bound, whatever the
    /// wheel cascaded to look.
    #[test]
    fn pop_due_stops_at_its_bound() {
        for mut q in both() {
            assert!(q.pop_due(Time::MAX).is_none());
            q.push(Time(5000), crash(0));
            q.push(Time(3000), crash(1));
            assert!(q.pop_due(Time(2999)).is_none());
            assert_eq!(q.len(), 2);
            assert_eq!(q.pop_due(Time(3000)).map(|e| e.at), Some(Time(3000)));
            assert!(q.pop_due(Time(4999)).is_none());
            assert_eq!(q.pop_due(Time(5000)).map(|e| e.at), Some(Time(5000)));
            assert!(q.is_empty());
        }
    }

    /// Interleaved push/pop with ties, across every level and the
    /// overflow horizon: the wheel must agree with the classic heap event
    /// for event.
    #[test]
    fn interleaved_push_pop_matches_classic() {
        // A deterministic but irregular schedule touching every regime:
        // same-tick ties, near-future events, far-future levels, events
        // beyond the horizon, and pops interleaved with pushes.
        let mut wheel = EventQueue::with_impl(QueueImpl::Wheel);
        let mut classic = EventQueue::with_impl(QueueImpl::Classic);
        let mut pid = 0usize;
        let mut nextx = lcg(0x243f_6a88_85a3_08d3);
        let mut now = 0u64;
        for round in 0..2000 {
            let burst = (nextx() % 4) as usize;
            for _ in 0..=burst {
                let delta = match nextx() % 10 {
                    0 => 0,                           // same-tick tie
                    1..=5 => 1 + nextx() % 4096,      // near future
                    6..=8 => nextx() % (HORIZON / 2), // a far level
                    _ => HORIZON + nextx() % HORIZON, // beyond the horizon
                };
                wheel.push(Time(now + delta), crash(pid));
                classic.push(Time(now + delta), crash(pid));
                pid += 1;
            }
            if round % 3 != 0 {
                match (wheel.pop_due(Time::MAX), classic.pop_due(Time::MAX)) {
                    (Some(ea), Some(eb)) => {
                        assert_eq!((ea.at, ea.seq), (eb.at, eb.seq), "round {round}");
                        now = ea.at.0;
                    }
                    (None, None) => {}
                    other => panic!("one queue empty, the other not: {other:?}"),
                }
            }
            assert_eq!(wheel.len(), classic.len(), "round {round}");
        }
        assert_eq!(drain_pids(&mut wheel), drain_pids(&mut classic));
    }

    /// Seq tie-breaks survive crossing the wheel/overflow boundary: two
    /// events at the same far-future tick, pushed in order, must pop in
    /// order after migrating from the overflow heap into the wheel.
    #[test]
    fn overflow_migration_preserves_seq_ties() {
        let far = Time(HORIZON * 3 + 17);
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

    /// Pushing near the instant being drained (e.g. a loopback delivery
    /// one tick from now) keeps order against events already there.
    #[test]
    fn same_span_insert_keeps_order() {
        for mut q in both() {
            q.push(Time(10), crash(0));
            q.push(Time(30), crash(1));
            let first = q.pop_due(Time::MAX).unwrap();
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
            q.push(Time(900_000_000), crash(1)); // a high level
            q.push(Time(HORIZON * 5), crash(2)); // deep overflow
            q.pop_due(Time::MAX);
            q.reset();
            assert!(q.is_empty());
            assert!(q.pop_due(Time::MAX).is_none());
            // Ties after reset break exactly as in a fresh queue.
            q.push(Time(7), crash(10));
            q.push(Time(7), crash(11));
            let order = drain_pids(&mut q);
            assert_eq!(order, vec![(Time(7), 10), (Time(7), 11)]);
        }
    }

    /// Events at the last tick of the wheel's block must be filed in the
    /// wheel, events at its first tick past it must overflow, and the
    /// groups must still pop in strict `(at, seq)` order. This is the
    /// off-by-one regime a slip in the overflow test would corrupt.
    #[test]
    fn horizon_boundary_is_exact() {
        for mut q in both() {
            // just inside (top slot of the top level), exactly at, just past
            q.push(Time(HORIZON - 1), crash(0));
            q.push(Time(HORIZON), crash(1));
            q.push(Time(HORIZON + 1), crash(2));
            // ties straddling the boundary, pushed out of time order
            q.push(Time(HORIZON), crash(3));
            q.push(Time(HORIZON - 1), crash(4));
            let order = drain_pids(&mut q);
            assert_eq!(
                order,
                vec![
                    (Time(HORIZON - 1), 0),
                    (Time(HORIZON - 1), 4),
                    (Time(HORIZON), 1),
                    (Time(HORIZON), 3),
                    (Time(HORIZON + 1), 2),
                ]
            );
        }
    }

    /// Large-n regime: thousands of same-instant events (one broadcast's
    /// deliveries) pushed right after an instant drained, with a tail
    /// beyond the horizon. Wheel must match classic exactly.
    #[test]
    fn large_n_same_instant_burst_matches_classic() {
        let mut wheel = EventQueue::with_impl(QueueImpl::Wheel);
        let mut classic = EventQueue::with_impl(QueueImpl::Classic);
        for q in [&mut wheel, &mut classic] {
            q.push(Time(5), crash(9999));
            q.pop_due(Time::MAX);
            for i in 0..4096 {
                q.push(Time(7), crash(i));
            }
            for i in 0..64 {
                q.push(Time(HORIZON + 7), crash(10000 + i)); // overflow ties
            }
            q.push(Time(6), crash(8888)); // lands before the burst
        }
        let a = drain_pids(&mut wheel);
        let b = drain_pids(&mut classic);
        assert_eq!(a, b);
        assert_eq!(a[0], (Time(6), 8888));
        assert_eq!(a[1], (Time(7), 0));
        assert_eq!(a[4096], (Time(7), 4095));
        assert_eq!(a[4097], (Time(HORIZON + 7), 10000));
    }

    /// `pop_due_batch` drains exactly the earliest timestamp's events, in
    /// seq order, and agrees between the two implementations — including
    /// when `pop_due` began the instant and more ties arrived since.
    #[test]
    fn pop_due_batch_matches_pop_due() {
        for mut q in both() {
            q.push(Time(10), crash(0));
            q.push(Time(10), crash(1));
            q.push(Time(20), crash(2));
            // Begin the instant, then land more ties at t=10.
            q.pop_due(Time::MAX); // (10, 0)
            q.push(Time(10), crash(3));
            q.push(Time(10), crash(4));
            let mut out = Vec::new();
            assert_eq!(q.pop_due_batch(Time(15), &mut out), 3);
            let pids: Vec<usize> = out.iter().map(pid_of).collect();
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
    /// event order. Like `World::run_until_time`, an empty drain moves
    /// the clock to its bound, and nothing is scheduled behind it.
    #[test]
    fn batch_drain_matches_classic_order() {
        let mut wheel = EventQueue::with_impl(QueueImpl::Wheel);
        let mut classic = EventQueue::with_impl(QueueImpl::Classic);
        let mut nextx = lcg(0x9e37_79b9_7f4a_7c15);
        let mut now = 0u64;
        let mut pid = 0usize;
        for _ in 0..500 {
            for _ in 0..(nextx() % 6) {
                let delta = match nextx() % 8 {
                    0 => 0,
                    1..=4 => nextx() % 2048,
                    5..=6 => nextx() % (1 << 20),
                    _ => HORIZON + nextx() % (HORIZON / 4),
                };
                let at = Time(now + delta);
                wheel.push(at, crash(pid));
                classic.push(at, crash(pid));
                pid += 1;
            }
            let mut wa = Vec::new();
            let mut ca = Vec::new();
            let bound = now + nextx() % 4096;
            wheel.pop_due_batch(Time(bound), &mut wa);
            classic.pop_due_batch(Time(bound), &mut ca);
            let keys =
                |v: &Vec<QueuedEvent<()>>| v.iter().map(|e| (e.at, e.seq)).collect::<Vec<_>>();
            assert_eq!(keys(&wa), keys(&ca));
            now = match wa.last() {
                Some(e) => e.at.0,
                None => (now + 1024).max(bound),
            };
            assert_eq!(wheel.len(), classic.len());
        }
    }

    /// The wheel's clock, read through the enum.
    fn elapsed(q: &EventQueue<()>) -> u64 {
        match q {
            EventQueue::Wheel(w) => w.elapsed,
            EventQueue::Classic { .. } => unreachable!(),
        }
    }

    /// The randomized cross-check of everything the kernel does to a
    /// queue: bursts filed at every level and past the 2³⁶ horizon, then
    /// `pop_due` and `pop_due_batch` mixed at the same instant, with
    /// pushes at `now` between single pops, so a batch must hand out what
    /// the single pops left ahead of the instant's later pushes. The clock
    /// follows the kernel contract and the wheel's never passes it; the
    /// counters prove each regime was reached.
    #[test]
    fn mixed_single_and_batch_drains_match_classic() {
        let mut wheel = EventQueue::with_impl(QueueImpl::Wheel);
        let mut classic = EventQueue::with_impl(QueueImpl::Classic);
        let head = |q: &EventQueue<()>| match q {
            EventQueue::Classic { heap, .. } => heap.peek().map(|e| e.at.0),
            EventQueue::Wheel(_) => unreachable!(),
        };
        let mut nextx = lcg(0x1319_8a2e_0370_7344);
        // Start just below a block boundary so overflow events migrate
        // while the wheel still holds events of the first block.
        let mut now = HORIZON - (1 << 20);
        let mut pid = 0usize;
        let mut filed = [0u32; LEVELS + 1];
        // Single pops left events at `now`, and then more were pushed there.
        let (mut half_drained, mut pushed_behind) = (false, false);
        let mut batches_behind_leftovers = 0;
        for round in 0..20_000 {
            for _ in 0..(nextx() % 4) {
                // A level at random: 0 (same instant) … 6 (past the horizon).
                let k = (nextx() % 8) as u32;
                let delta = match k {
                    0 => 0,
                    7 => HORIZON + nextx() % HORIZON,
                    _ => nextx() % (1u64 << (LEVEL_BITS * k)),
                };
                let at = now + delta;
                let diff = at ^ elapsed(&wheel);
                let level = if diff >> HORIZON_BITS != 0 {
                    LEVELS
                } else {
                    ((u64::BITS - 1 - (diff | 1).leading_zeros()) / LEVEL_BITS) as usize
                };
                filed[level] += 1;
                pushed_behind |= half_drained && delta == 0;
                wheel.push(Time(at), crash(pid));
                classic.push(Time(at), crash(pid));
                pid += 1;
            }
            // Most drains stay at this instant or close to it.
            let bound = match nextx() % 4 {
                0 => now,
                1 => now + nextx() % 64,
                2 => now + nextx() % (1 << 14),
                _ => now + nextx() % (1 << 30),
            };
            let batch = round % 3 == 0;
            let drained = if batch {
                let (mut wa, mut ca) = (Vec::new(), Vec::new());
                wheel.pop_due_batch(Time(bound), &mut wa);
                classic.pop_due_batch(Time(bound), &mut ca);
                let keys =
                    |v: &[QueuedEvent<()>]| v.iter().map(|e| (e.at, e.seq)).collect::<Vec<_>>();
                assert_eq!(keys(&wa), keys(&ca), "round {round}");
                if pushed_behind && !wa.is_empty() {
                    batches_behind_leftovers += 1;
                }
                wa.last().map(|e| e.at.0)
            } else {
                let (a, b) = (wheel.pop_due(Time(bound)), classic.pop_due(Time(bound)));
                let key = |e: &Option<QueuedEvent<()>>| e.as_ref().map(|e| (e.at, e.seq));
                assert_eq!(key(&a), key(&b), "round {round}");
                a.map(|e| e.at.0)
            };
            now = drained.unwrap_or(now.max(bound));
            assert!(
                elapsed(&wheel) <= now,
                "round {round}: clock passed the bound"
            );
            assert_eq!(wheel.len(), classic.len(), "round {round}");
            half_drained = !batch && drained.is_some() && head(&classic) == Some(now);
            pushed_behind &= half_drained;
        }
        assert_eq!(drain_pids(&mut wheel), drain_pids(&mut classic));
        assert!(
            filed.iter().all(|&n| n > 0),
            "every level and the overflow: {filed:?}"
        );
        assert!(
            batches_behind_leftovers > 0,
            "no batch met a half-drained instant"
        );
    }

    /// The kernel contract is checked: a push behind the wheel's clock —
    /// which only moves to slot starts at or before a drain's bound — is
    /// a kernel bug, caught in debug builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "behind the wheel's clock")]
    fn a_push_behind_the_last_drain_bound_is_caught() {
        let mut q = EventQueue::with_impl(QueueImpl::Wheel);
        q.push(Time(100), crash(0)); // level 1: the slot of ticks 64..128
        let mut out = Vec::new();
        assert_eq!(q.pop_due_batch(Time(80), &mut out), 0); // cascades to 64
        q.push(Time(60), crash(1));
    }

    /// Reset must drop an instant `pop_due` began and what was pushed at
    /// it since — a stale event surviving into the next run would corrupt
    /// replay determinism.
    #[test]
    fn reset_clears_a_half_drained_instant() {
        for mut q in both() {
            q.push(Time(5), crash(0));
            q.push(Time(5), crash(1));
            q.pop_due(Time::MAX); // (5, 0); (5, 1) is left over
            q.push(Time(5), crash(2));
            q.push(Time(6), crash(3));
            q.reset();
            assert!(q.is_empty());
            assert!(q.pop_due(Time::MAX).is_none());
            q.push(Time(7), crash(4));
            let order = drain_pids(&mut q);
            assert_eq!(order, vec![(Time(7), 4)]);
        }
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
