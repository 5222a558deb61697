//! Run traces.
//!
//! The kernel can record every message event, crash, and protocol
//! *observation* into a [`Trace`]. Observations are emitted by protocol
//! components via [`Context::observe`](crate::actor::Context::observe) —
//! e.g. a failure detector records each change of its suspected set, a
//! consensus component records its decision — and are what the property
//! checkers in `fd-core` consume to verify the paper's completeness,
//! accuracy, leadership, and consensus properties on concrete runs.
//!
//! Those checkers, the `fd-kv` monitors and the QoS and benchmark
//! extractors ask a trace one kind of question: "the observations tagged
//! T" (of one process, or its last one) and "the crashes". A [`Trace`]
//! answers them from an index it keeps as events are recorded — per tag,
//! the positions of its observations; and the positions of the crashes —
//! so a reader costs O(matches), not O(run). The upkeep runs only when
//! an observation or a crash is pushed, out of line from the per-message
//! `Sent` / `Delivered` / `Dropped` path; tags are matched by address
//! first and by content second; and a reused world reserves the index
//! from its high-water mark like the event arena, so steady state grows
//! nothing. The index is not part of the digest or the JSON form.

use crate::process::ProcessId;
use crate::time::Time;
use serde::{Deserialize, Serialize};

/// Structured payload of an observation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Payload {
    /// No payload.
    None,
    /// A scalar.
    U64(u64),
    /// A process (e.g. the currently trusted leader).
    Pid(ProcessId),
    /// A set of processes (e.g. the currently suspected set), sorted.
    Pids(Vec<ProcessId>),
    /// A process plus a scalar (e.g. coordinator + round).
    PidU64(ProcessId, u64),
    /// Two scalars (e.g. decided value + deciding round).
    U64Pair(u64, u64),
    /// Free text, for debugging only.
    Text(String),
}

impl Payload {
    /// Build a sorted `Pids` payload from any iterator of processes.
    pub fn pids(iter: impl IntoIterator<Item = ProcessId>) -> Payload {
        let mut v: Vec<ProcessId> = iter.into_iter().collect();
        v.sort_unstable();
        Payload::Pids(v)
    }

    /// The `Pid` payload, if this is one.
    pub fn as_pid(&self) -> Option<ProcessId> {
        match self {
            Payload::Pid(p) => Some(*p),
            _ => None,
        }
    }

    /// The `Pids` payload, if this is one.
    pub fn as_pids(&self) -> Option<&[ProcessId]> {
        match self {
            Payload::Pids(v) => Some(v),
            _ => None,
        }
    }

    /// The `U64` payload, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Payload::U64(x) => Some(*x),
            _ => None,
        }
    }

    /// The `U64Pair` payload, if this is one.
    pub fn as_u64_pair(&self) -> Option<(u64, u64)> {
        match self {
            Payload::U64Pair(a, b) => Some((*a, *b)),
            _ => None,
        }
    }
}

/// Why a message did not reach its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DropReason {
    /// The link model dropped it (loss, pre-GST chaos, dead link).
    Link,
    /// The destination had crashed by delivery time.
    ReceiverCrashed,
    /// An installed [`LinkMangler`](crate::link::LinkMangler) dropped it
    /// on top of the base link model's verdict.
    Mangled,
}

/// One event in a run trace.
///
/// Message kinds are `&'static str` labels, so traces serialize to JSON
/// (for offline analysis) but do not round-trip back; the checkers all
/// work on the in-memory form.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceKind {
    /// A message left `from` towards `to`.
    Sent {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
        /// Message kind label.
        kind: &'static str,
        /// Protocol round tag, if any.
        round: Option<u64>,
    },
    /// A message was delivered and processed at `to`.
    Delivered {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
        /// Message kind label.
        kind: &'static str,
        /// Protocol round tag, if any.
        round: Option<u64>,
    },
    /// A message was lost.
    Dropped {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
        /// Message kind label.
        kind: &'static str,
        /// Why it was lost.
        reason: DropReason,
    },
    /// `pid` crashed (crash-stop; permanent).
    Crashed {
        /// The crashed process.
        pid: ProcessId,
    },
    /// A protocol observation emitted by `pid`.
    Observation {
        /// The observing process.
        pid: ProcessId,
        /// Observation tag (see `fd-core`'s `obs` module).
        tag: &'static str,
        /// Structured payload.
        payload: Payload,
    },
}

/// A timestamped trace event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    /// When the event occurred.
    pub at: Time,
    /// What happened.
    pub kind: TraceKind,
}

/// The recorded history of one run.
///
/// [`observations`](Trace::observations),
/// [`observations_of`](Trace::observations_of),
/// [`last_observation_of`](Trace::last_observation_of),
/// [`crashes`](Trace::crashes) and the two position lists walk the
/// trace's index (module docs): they cost the events they return plus
/// one tag lookup, not the length of the run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    /// [`Trace::digest`] of `events`, folded as each one is pushed: the
    /// digest's serial multiply chain then overlaps the simulation work
    /// that produced the event instead of running as a pass of its own.
    fold: Fnv,
    index: TagIndex,
}

// Hand-written so the JSON form stays `{"events": [...]}`: the running
// digest and the index are derived data, rebuilt by whoever reads the
// events again.
impl Serialize for Trace {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![("events".to_string(), self.events.to_value())])
    }
}

/// The sizes a trace reached — what a reused world reserves for its
/// next run, so neither the event arena nor the index grows in steady
/// state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TraceHwm {
    pub(crate) events: usize,
    pub(crate) chunks: usize,
    pub(crate) tags: usize,
}

impl TraceHwm {
    /// Raise the marks to cover `trace`.
    pub(crate) fn raise(&mut self, trace: &Trace) {
        self.events = self.events.max(trace.events.len());
        self.chunks = self.chunks.max(trace.index.chunks.len());
        self.tags = self.tags.max(trace.index.tags.len());
    }
}

impl Trace {
    /// All events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Record a message event (`Sent`, `Delivered`, `Dropped`): folded
    /// into the digest, not indexed. Observations and crashes go through
    /// [`push_indexed`](Trace::push_indexed).
    #[inline]
    pub(crate) fn push(&mut self, at: Time, kind: TraceKind) {
        debug_assert!(
            !TagIndex::indexes(&kind),
            "observations and crashes are recorded with push_indexed"
        );
        self.record(at, kind);
    }

    /// Record an observation or a crash and add it to the index. Kept
    /// out of line so the kernel's per-message path carries none of it.
    #[inline(never)]
    pub(crate) fn push_indexed(&mut self, at: Time, kind: TraceKind) {
        self.index.add(self.events.len(), &kind);
        self.record(at, kind);
    }

    #[inline]
    fn record(&mut self, at: Time, kind: TraceKind) {
        let event = TraceEvent { at, kind };
        self.fold.event(&event);
        self.events.push(event);
    }

    /// Clear the trace and pre-size its arena and index to `hint`, so a
    /// reused world records a whole run into up-front allocations
    /// instead of growth chains.
    pub(crate) fn reset_with_capacity(&mut self, hint: TraceHwm) {
        self.events.clear();
        self.fold = Fnv::new();
        if self.events.capacity() < hint.events {
            self.events.reserve(hint.events);
        }
        self.index.reset_with_capacity(hint);
    }

    /// Build a trace from pre-recorded events (used by tests and by tools
    /// that synthesize adversarial histories). Events must be supplied in
    /// the order they occurred.
    pub fn from_events(events: Vec<TraceEvent>) -> Trace {
        let mut fold = Fnv::new();
        let mut index = TagIndex::default();
        for (pos, e) in events.iter().enumerate() {
            fold.event(e);
            index.add(pos, &e.kind);
        }
        Trace {
            events,
            fold,
            index,
        }
    }

    /// The crash time of each process that crashed, in event order.
    pub fn crashes(&self) -> Vec<(ProcessId, Time)> {
        self.events_of(self.index.crashes)
            .filter_map(|e| match e.kind {
                TraceKind::Crashed { pid } => Some((pid, e.at)),
                _ => None,
            })
            .collect()
    }

    /// Positions in [`events`](Trace::events) of the `Crashed` events,
    /// ascending — for readers that merge them with an observation
    /// chain in event order.
    pub fn crash_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.index.positions(self.index.crashes)
    }

    /// Positions in [`events`](Trace::events) of the observations with
    /// tag `tag`, ascending.
    pub fn observation_positions(&self, tag: &str) -> impl Iterator<Item = usize> + '_ {
        self.index.positions(self.index.chain(tag))
    }

    /// All observations with tag `tag`, as `(time, pid, payload)` triples
    /// in time order.
    pub fn observations<'a>(
        &'a self,
        tag: &'a str,
    ) -> impl Iterator<Item = (Time, ProcessId, &'a Payload)> + 'a {
        self.events_of(self.index.chain(tag))
            .filter_map(observation)
    }

    /// Observations with tag `tag` emitted by `pid`.
    pub fn observations_of<'a>(
        &'a self,
        pid: ProcessId,
        tag: &'a str,
    ) -> impl Iterator<Item = (Time, &'a Payload)> + 'a {
        self.observations(tag)
            .filter(move |(_, p, _)| *p == pid)
            .map(|(t, _, pl)| (t, pl))
    }

    /// The last observation with tag `tag` emitted by `pid`, if any.
    pub fn last_observation_of<'a>(
        &'a self,
        pid: ProcessId,
        tag: &str,
    ) -> Option<(Time, &'a Payload)> {
        self.index
            .segments(self.index.chain(tag), true)
            .flat_map(|positions| positions.iter().rev())
            .filter_map(|&pos| self.events.get(pos as usize).and_then(observation))
            .find(|(_, p, _)| *p == pid)
            .map(|(t, _, pl)| (t, pl))
    }

    /// The events along `chain`, in order.
    fn events_of(&self, chain: Chain) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.index
            .positions(chain)
            .filter_map(|pos| self.events.get(pos))
    }

    /// A 64-bit FNV-style digest over a canonical word encoding of every
    /// event. Two traces have equal digests iff they recorded the same
    /// events in the same order (modulo hash collisions), independent of
    /// process layout in memory, worker-thread interleaving, or platform
    /// — the fingerprint campaign artifacts use to certify that a replay
    /// reproduced the original run exactly. Folded as the events are
    /// recorded, so reading it is O(1).
    pub fn digest(&self) -> u64 {
        self.fold.finish()
    }
}

/// Incremental FNV-1a (64-bit) with length-prefixed strings, so the
/// encoding is unambiguous (no concatenation collisions).
///
/// Public because the same canonical word-folding digest underpins the
/// model checker's state hashing (`fd-mc` keys its visited set on the
/// exact fold [`Trace::digest`] uses) — one digest definition, one set
/// of collision properties, everywhere.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh digest at the standard FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Continue folding from a previously [`finish`](Fnv::finish)ed
    /// state — the incremental form the kernel's per-process history
    /// hashes use (fold one event, store, resume at the next event).
    pub fn resume(state: u64) -> Fnv {
        Fnv(state)
    }

    /// Fold one 64-bit word: FNV-1a's xor-multiply, applied to whole
    /// words instead of bytes, plus a rotate so high-order bits feed
    /// back into future low-order positions (a bare multiply only moves
    /// information upward). Byte-serial FNV's 8-step dependency chain
    /// per word dominated campaign sweep profiles; word folding keeps
    /// the digest deterministic and platform-independent at an eighth
    /// of the serial work.
    #[inline]
    pub fn u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }

    /// Fold a process id.
    pub fn pid(&mut self, p: ProcessId) {
        self.u64(p.0 as u64);
    }

    /// Fold a string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        // The length prefix disambiguates the zero-padded final chunk.
        let bytes = s.as_bytes();
        self.u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            // fd-lint: allow(HP001, reason = "chunks_exact(8) yields exactly 8-byte slices; the conversion cannot fail")
            self.u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut last = 0u64;
        for &b in chunks.remainder() {
            last = (last << 8) | b as u64;
        }
        self.u64(last);
    }

    /// Fold an optional word, tagged so `None` and `Some(0)` differ.
    pub fn opt_u64(&mut self, x: Option<u64>) {
        match x {
            None => self.u64(0),
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
        }
    }

    /// The digest of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Fold one trace event in the canonical word encoding
    /// [`Trace::digest`] is defined over.
    fn event(&mut self, e: &TraceEvent) {
        self.u64(e.at.0);
        match &e.kind {
            TraceKind::Sent {
                from,
                to,
                kind,
                round,
            } => {
                self.u64(0);
                self.pid(*from);
                self.pid(*to);
                self.str(kind);
                self.opt_u64(*round);
            }
            TraceKind::Delivered {
                from,
                to,
                kind,
                round,
            } => {
                self.u64(1);
                self.pid(*from);
                self.pid(*to);
                self.str(kind);
                self.opt_u64(*round);
            }
            TraceKind::Dropped {
                from,
                to,
                kind,
                reason,
            } => {
                self.u64(2);
                self.pid(*from);
                self.pid(*to);
                self.str(kind);
                self.u64(match reason {
                    DropReason::Link => 0,
                    DropReason::ReceiverCrashed => 1,
                    DropReason::Mangled => 2,
                });
            }
            TraceKind::Crashed { pid } => {
                self.u64(3);
                self.pid(*pid);
            }
            TraceKind::Observation { pid, tag, payload } => {
                self.u64(4);
                self.pid(*pid);
                self.str(tag);
                match payload {
                    Payload::None => self.u64(0),
                    Payload::U64(x) => {
                        self.u64(1);
                        self.u64(*x);
                    }
                    Payload::Pid(p) => {
                        self.u64(2);
                        self.pid(*p);
                    }
                    Payload::Pids(ps) => {
                        self.u64(3);
                        self.u64(ps.len() as u64);
                        for p in ps {
                            self.pid(*p);
                        }
                    }
                    Payload::PidU64(p, x) => {
                        self.u64(4);
                        self.pid(*p);
                        self.u64(*x);
                    }
                    Payload::U64Pair(a, b) => {
                        self.u64(5);
                        self.u64(*a);
                        self.u64(*b);
                    }
                    Payload::Text(s) => {
                        self.u64(6);
                        self.str(s);
                    }
                }
            }
        }
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// No chunk: the end of a chain, or a chain not started.
const NIL: u32 = u32::MAX;

/// Event positions per [`Chunk`]: with its two links a chunk fills one
/// 64-byte line, so the index costs about 4.6 bytes per indexed event.
pub(crate) const CHUNK: usize = 14;

/// A run of one chain's event positions, linked to its neighbours.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    pos: [u32; CHUNK],
    next: u32,
    prev: u32,
}

const _: () = assert!(std::mem::size_of::<Chunk>() == 64);

/// One chain: the positions of every event of one kind, in order, as a
/// doubly linked list of chunks. All chunks are full but the tail.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    /// Positions used in the tail chunk.
    fill: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
        fill: 0,
    };
}

/// The trace's index: one chain per observation tag and one for crashes,
/// their chunks in a single arena. Arena and tag table are reserved from
/// the world's high-water marks like the event arena, so a reused world
/// grows neither in steady state. Tags are compared by address before
/// content (the same literal may live at several addresses across
/// crates).
#[derive(Debug, Clone)]
struct TagIndex {
    chunks: Vec<Chunk>,
    tags: Vec<(&'static str, Chain)>,
    crashes: Chain,
}

impl Default for TagIndex {
    fn default() -> TagIndex {
        TagIndex {
            chunks: Vec::new(),
            tags: Vec::new(),
            crashes: Chain::EMPTY,
        }
    }
}

/// The `(time, pid, payload)` of an observation event.
fn observation(e: &TraceEvent) -> Option<(Time, ProcessId, &Payload)> {
    match &e.kind {
        TraceKind::Observation { pid, payload, .. } => Some((e.at, *pid, payload)),
        _ => None,
    }
}

impl TagIndex {
    /// Whether events of this kind are indexed.
    fn indexes(kind: &TraceKind) -> bool {
        matches!(
            kind,
            TraceKind::Crashed { .. } | TraceKind::Observation { .. }
        )
    }

    fn reset_with_capacity(&mut self, hint: TraceHwm) {
        self.chunks.clear();
        self.tags.clear();
        self.crashes = Chain::EMPTY;
        if self.chunks.capacity() < hint.chunks {
            self.chunks.reserve(hint.chunks);
        }
        if self.tags.capacity() < hint.tags {
            self.tags.reserve(hint.tags);
        }
    }

    /// Append the event at `pos`, of kind `kind`, to its chain.
    // fd-lint: hot_path
    fn add(&mut self, pos: usize, kind: &TraceKind) {
        let chain = match kind {
            TraceKind::Crashed { .. } => &mut self.crashes,
            TraceKind::Observation { tag, .. } => {
                let i = match self.find(tag) {
                    Some(i) => i,
                    None => {
                        self.tags.push((tag, Chain::EMPTY));
                        self.tags.len() - 1
                    }
                };
                match self.tags.get_mut(i) {
                    Some((_, chain)) => chain,
                    None => return,
                }
            }
            _ => return,
        };
        let pos = pos as u32;
        if chain.head != NIL && (chain.fill as usize) < CHUNK {
            if let Some(slot) = self
                .chunks
                .get_mut(chain.tail as usize)
                .and_then(|c| c.pos.get_mut(chain.fill as usize))
            {
                *slot = pos;
            }
            chain.fill += 1;
            return;
        }
        let new = self.chunks.len() as u32;
        if let Some(tail) = self.chunks.get_mut(chain.tail as usize) {
            tail.next = new;
        }
        let mut chunk = Chunk {
            pos: [NIL; CHUNK],
            next: NIL,
            prev: chain.tail,
        };
        if let Some(first) = chunk.pos.first_mut() {
            *first = pos;
        }
        self.chunks.push(chunk);
        if chain.head == NIL {
            chain.head = new;
        }
        chain.tail = new;
        chain.fill = 1;
    }

    /// Where `tag`'s chain sits in the tag table: by address first, then
    /// by content.
    fn find(&self, tag: &str) -> Option<usize> {
        let same_address = |t: &str| std::ptr::eq(t.as_ptr(), tag.as_ptr()) && t.len() == tag.len();
        self.tags
            .iter()
            .position(|(t, _)| same_address(t))
            .or_else(|| self.tags.iter().position(|(t, _)| *t == tag))
    }

    /// `tag`'s chain (empty if the tag was never observed).
    fn chain(&self, tag: &str) -> Chain {
        self.find(tag)
            .and_then(|i| self.tags.get(i))
            .map_or(Chain::EMPTY, |(_, chain)| *chain)
    }

    /// The used part of each of `chain`'s chunks, first to last or, when
    /// `backward`, last to first.
    fn segments(&self, chain: Chain, backward: bool) -> impl Iterator<Item = &[u32]> + '_ {
        let mut cur = if backward { chain.tail } else { chain.head };
        std::iter::from_fn(move || {
            let chunk = self.chunks.get(cur as usize)?;
            let used = if cur == chain.tail {
                chain.fill as usize
            } else {
                CHUNK
            };
            cur = if backward { chunk.prev } else { chunk.next };
            chunk.pos.get(..used)
        })
    }

    /// Event positions along `chain`, ascending.
    fn positions(&self, chain: Chain) -> impl Iterator<Item = usize> + '_ {
        self.segments(chain, false)
            .flatten()
            .map(|&pos| pos as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::default();
        t.push(
            Time(1),
            TraceKind::Sent {
                from: ProcessId(0),
                to: ProcessId(1),
                kind: "hb",
                round: None,
            },
        );
        t.push_indexed(Time(2), TraceKind::Crashed { pid: ProcessId(2) });
        t.push_indexed(
            Time(3),
            TraceKind::Observation {
                pid: ProcessId(0),
                tag: "leader",
                payload: Payload::Pid(ProcessId(1)),
            },
        );
        t.push_indexed(
            Time(5),
            TraceKind::Observation {
                pid: ProcessId(0),
                tag: "leader",
                payload: Payload::Pid(ProcessId(0)),
            },
        );
        t.push_indexed(
            Time(4),
            TraceKind::Observation {
                pid: ProcessId(1),
                tag: "leader",
                payload: Payload::Pid(ProcessId(0)),
            },
        );
        t
    }

    #[test]
    fn crashes_extracted() {
        assert_eq!(sample().crashes(), vec![(ProcessId(2), Time(2))]);
    }

    #[test]
    fn observations_filter_by_tag_and_pid() {
        let t = sample();
        assert_eq!(t.observations("leader").count(), 3);
        assert_eq!(t.observations_of(ProcessId(0), "leader").count(), 2);
        let (at, pl) = t.last_observation_of(ProcessId(0), "leader").unwrap();
        assert_eq!(at, Time(5));
        assert_eq!(pl.as_pid(), Some(ProcessId(0)));
        assert!(t.last_observation_of(ProcessId(2), "leader").is_none());
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        let t = sample();
        assert_eq!(t.digest(), t.digest(), "digest must be a pure function");
        assert_eq!(t.digest(), t.clone().digest());
        // Folded at push time or all at once: the same fold.
        assert_eq!(Trace::from_events(t.events().to_vec()).digest(), t.digest());
        let mut reset = sample();
        reset.reset_with_capacity(TraceHwm {
            events: 8,
            chunks: 2,
            tags: 1,
        });
        assert_eq!(
            reset.digest(),
            Trace::default().digest(),
            "a reset starts afresh"
        );
        // The running fold is not part of the trace's JSON form.
        let serde::Value::Obj(fields) = t.to_value() else {
            panic!("a trace serializes as an object");
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["events"]);

        // Any change to an event changes the digest.
        let mut other = sample();
        other.push_indexed(Time(9), TraceKind::Crashed { pid: ProcessId(0) });
        assert_ne!(t.digest(), other.digest());

        // Event order matters.
        let mut evs = t.events().to_vec();
        evs.swap(0, 1);
        assert_ne!(Trace::from_events(evs).digest(), t.digest());

        assert_eq!(Trace::default().digest(), Trace::default().digest());
        assert_ne!(Trace::default().digest(), t.digest());
    }

    #[test]
    fn payload_accessors() {
        assert_eq!(Payload::U64(3).as_u64(), Some(3));
        assert_eq!(Payload::U64Pair(1, 2).as_u64_pair(), Some((1, 2)));
        assert_eq!(
            Payload::pids([ProcessId(2), ProcessId(0)])
                .as_pids()
                .unwrap(),
            &[ProcessId(0), ProcessId(2)]
        );
        assert_eq!(Payload::None.as_pid(), None);
    }
}
