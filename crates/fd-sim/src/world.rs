//! The simulation kernel.
//!
//! A [`World`] owns `n` actors, the event queue, the network configuration,
//! and the run's trace/metrics. It executes the standard discrete-event
//! loop: pop the earliest event, advance the clock, dispatch to the target
//! actor, apply the actions the actor queued. Crash-stop failures are
//! events like any other: once a process crashes it receives nothing and
//! its pending timers are discarded, exactly the paper's failure model
//! (crashes are permanent, no recovery).

use crate::actor::{Action, Actor, Context, SimMessage};
use crate::chaos::{self, Intervention, NetChange};
use crate::event::{EventKind, EventQueue, MsgSlot, QueueImpl, QueuedEvent};
use crate::link::LinkMangler;
use crate::metrics::{FxBuildHasher, Metrics};
use crate::process::ProcessId;
use crate::rng::{derive_network_rng, derive_process_rng};
use crate::sched::{ChoicePoint, EnabledEvent, EnabledKind, SchedChoice, Scheduler};
use crate::time::Time;
use crate::topology::NetworkConfig;
use crate::trace::{DropReason, Fnv, Payload, Trace, TraceKind};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// How much of a run the kernel records in its [`Trace`].
///
/// Large-n worlds generate O(n²) messages per heartbeat period; recording
/// each Sent/Delivered pair makes the trace — not the kernel — the
/// scalability wall. `ObsOnly` keeps exactly what the `fd-core` checkers
/// consume (observations and crashes) so detector-class verification
/// stays viable at n = 4096 without an O(messages) trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record everything: sends, deliveries, drops, observations, crashes.
    #[default]
    Full,
    /// Record only observations, interventions, and crashes — the subset
    /// `FdRun` checkers and timelines of protocol-visible state need.
    ObsOnly,
    /// Record nothing (metrics stay on).
    Off,
}

/// Pre-resolved instrumentation handles for the kernel loop.
///
/// Built once from an [`fd_obs::Registry`] so the hot loop touches only
/// atomics, never the registry lock. Instrumentation is read-only with
/// respect to simulation state — it observes wall clocks and queue
/// depths but never the RNG streams — so a run's trace is byte-identical
/// with observability on or off.
#[derive(Debug)]
pub struct WorldObs {
    /// `sim.events`: kernel events processed.
    events: Arc<fd_obs::Counter>,
    /// Events recorded by this world but not yet flushed to the shared
    /// counter. Flushed on drop (a world's runs end before its metrics
    /// are read), keeping the per-event cost free of atomics.
    pending_events: std::cell::Cell<u64>,
    /// `sim.queue_depth_hwm`: high-water mark of the event queue depth,
    /// sampled at every pop (including the popped event).
    queue_depth_hwm: Arc<fd_obs::Gauge>,
    /// `sim.callback_ns`: wall-clock nanoseconds per actor callback
    /// (`on_start` / `on_message` / `on_timer` / `interact`), including
    /// applying the actions it queued. Sampled on average
    /// 1-in-[`CALLBACK_SAMPLE`] to keep the sweep overhead within budget
    /// (the two `Instant::now` reads dominate the instrumentation cost);
    /// the sampler is deterministic, so which callbacks get timed never
    /// depends on wall time or on any simulation RNG stream.
    callback_ns: Arc<fd_obs::Histogram>,
    /// Callbacks still to skip before the next timed one. Lives in the
    /// per-world handle (not the shared histogram) so worlds sample
    /// independently of each other.
    callback_skip: std::cell::Cell<u64>,
    /// State of the private xorshift that draws the skips.
    sampler_rng: std::cell::Cell<u64>,
    /// This world's own queue-depth high-water mark. The shared gauge is
    /// only touched when this rises, so the steady-state per-event cost
    /// is a comparison, not an atomic RMW.
    local_hwm: std::cell::Cell<u64>,
    /// `chaos.msgs_dropped`: messages dropped by the installed mangler.
    chaos_dropped: Arc<fd_obs::Counter>,
    /// `chaos.msgs_duplicated`: extra deliveries enqueued by the mangler.
    chaos_duplicated: Arc<fd_obs::Counter>,
    /// `chaos.msgs_reordered`: deliveries whose time the mangler skewed.
    chaos_reordered: Arc<fd_obs::Counter>,
    /// `chaos.partitions_active`: high-water mark of concurrently open
    /// partitions (interventions tagged [`crate::chaos::PARTITION`] open
    /// one; [`crate::chaos::HEAL`] closes one).
    partitions_active: Arc<fd_obs::Gauge>,
}

/// One callback in how many `sim.callback_ns` times, on average.
pub const CALLBACK_SAMPLE: u64 = 32;

/// Seed of every world's callback sampler (any non-zero constant).
const SAMPLER_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl WorldObs {
    /// Resolve the kernel metrics in `registry`.
    pub fn new(registry: &fd_obs::Registry) -> WorldObs {
        WorldObs {
            events: registry.counter(fd_obs::keys::SIM_EVENTS),
            pending_events: std::cell::Cell::new(0),
            queue_depth_hwm: registry.gauge(fd_obs::keys::SIM_QUEUE_DEPTH_HWM),
            callback_ns: registry.histogram(fd_obs::keys::SIM_CALLBACK_NS),
            callback_skip: std::cell::Cell::new(0),
            sampler_rng: std::cell::Cell::new(SAMPLER_SEED),
            local_hwm: std::cell::Cell::new(0),
            chaos_dropped: registry.counter(fd_obs::keys::CHAOS_MSGS_DROPPED),
            chaos_duplicated: registry.counter(fd_obs::keys::CHAOS_MSGS_DUPLICATED),
            chaos_reordered: registry.counter(fd_obs::keys::CHAOS_MSGS_REORDERED),
            partitions_active: registry.gauge(fd_obs::keys::CHAOS_PARTITIONS_ACTIVE),
        }
    }

    /// Deterministic sampling decision. The gap from one timed callback
    /// to the next is drawn uniformly from `1..=2·CALLBACK_SAMPLE − 1` —
    /// mean [`CALLBACK_SAMPLE`], so scaling the sampled total by it stays
    /// unbiased — because a fixed stride aliases with periodic worlds:
    /// every 32nd callback of an n = 4 round-robin is the same process.
    fn sample_callback(&self) -> bool {
        let skip = self.callback_skip.get();
        if skip > 0 {
            self.callback_skip.set(skip - 1);
            return false;
        }
        let mut x = self.sampler_rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.sampler_rng.set(x);
        self.callback_skip.set(x % (2 * CALLBACK_SAMPLE - 1));
        true
    }

    /// Record one processed event at queue depth `depth`.
    fn record_event(&self, depth: u64) {
        self.pending_events.set(self.pending_events.get() + 1);
        if depth > self.local_hwm.get() {
            self.local_hwm.set(depth);
            self.queue_depth_hwm.record_max(depth);
        }
    }
}

impl Clone for WorldObs {
    /// A clone shares the registry handles but starts with fresh local
    /// state — zero pending events and its own HWM/sampling counters.
    fn clone(&self) -> WorldObs {
        WorldObs {
            events: Arc::clone(&self.events),
            pending_events: std::cell::Cell::new(0),
            queue_depth_hwm: Arc::clone(&self.queue_depth_hwm),
            callback_ns: Arc::clone(&self.callback_ns),
            callback_skip: std::cell::Cell::new(0),
            sampler_rng: std::cell::Cell::new(SAMPLER_SEED),
            local_hwm: std::cell::Cell::new(0),
            chaos_dropped: Arc::clone(&self.chaos_dropped),
            chaos_duplicated: Arc::clone(&self.chaos_duplicated),
            chaos_reordered: Arc::clone(&self.chaos_reordered),
            partitions_active: Arc::clone(&self.partitions_active),
        }
    }
}

impl Drop for WorldObs {
    fn drop(&mut self) {
        let pending = self.pending_events.replace(0);
        if pending > 0 {
            self.events.add(pending);
        }
    }
}

/// Configures and constructs a [`World`].
pub struct WorldBuilder {
    net: NetworkConfig,
    seed: u64,
    crashes: Vec<(ProcessId, Time)>,
    trace_mode: TraceMode,
    max_events: u64,
    obs: Option<WorldObs>,
    queue: QueueImpl,
    track_state: bool,
}

impl WorldBuilder {
    /// Start from a network configuration (which fixes `n`).
    pub fn new(net: NetworkConfig) -> WorldBuilder {
        WorldBuilder {
            net,
            seed: 0,
            crashes: Vec::new(),
            trace_mode: TraceMode::Full,
            max_events: u64::MAX,
            obs: None,
            queue: QueueImpl::default(),
            track_state: false,
        }
    }

    /// Select the event-queue implementation (default: the timer wheel).
    /// Both produce byte-identical runs; the classic heap exists for the
    /// golden-digest equivalence tests and as a fallback.
    pub fn queue_impl(mut self, imp: QueueImpl) -> Self {
        self.queue = imp;
        self
    }

    /// Set the run seed. Identical seeds replay identical runs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedule `pid` to crash at `at`.
    pub fn crash_at(mut self, pid: ProcessId, at: Time) -> Self {
        assert!(pid.index() < self.net.n(), "crash target out of range");
        self.crashes.push((pid, at));
        self
    }

    /// Select how much of the run the trace records (default: full;
    /// metrics are always on).
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = mode;
        self
    }

    /// Abort the run (panic) if it processes more than `max` events —
    /// a guard against accidental zero-delay timer loops.
    pub fn max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Maintain an incremental state digest during the run (see
    /// [`World::state_digest`]). Off by default — it Debug-formats every
    /// message at enqueue and dequeue time, which only the model
    /// checker's visited-set pruning can justify. Sound only over
    /// RNG-free networks ([`NetworkConfig::is_rng_free`]) with no
    /// mangler installed; [`World::run_scheduled_until`] asserts this.
    pub fn track_state(mut self, on: bool) -> Self {
        self.track_state = on;
        self
    }

    /// Attach kernel instrumentation (see [`WorldObs`]). Off by default;
    /// when on, the kernel records events processed, the event-queue
    /// high-water mark, and per-callback wall time. Never affects the
    /// run itself: traces and metrics are identical either way.
    pub fn observe(mut self, obs: WorldObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Instantiate the actors (via `make(pid, n)`) and build the world:
    /// an empty world carrying this builder's settings, armed by the same
    /// [`World::reset`] that re-arms a reused one — so per-run state is
    /// initialised in exactly one place.
    pub fn build<A, F>(self, make: F) -> World<A>
    where
        A: Actor,
        F: FnMut(ProcessId, usize) -> A,
    {
        let mut world = World {
            n: 0,
            now: Time::ZERO,
            queue: EventQueue::with_impl(self.queue),
            actors: Vec::new(),
            rngs: Vec::new(),
            crashed: Vec::new(),
            epochs: Vec::new(),
            net: NetworkConfig::new(0),
            net_rng: derive_network_rng(0),
            cancelled: HashSet::default(),
            next_timer_id: 0,
            trace: Trace::default(),
            metrics: Metrics::default(),
            trace_mode: self.trace_mode,
            max_events: self.max_events,
            obs: self.obs,
            started: false,
            scratch: Vec::new(),
            batch: Vec::new(),
            batch_pending: 0,
            trace_hwm: 0,
            mangler: None,
            partitions_open: 0,
            track_state: self.track_state,
            proc_hash: Vec::new(),
            queue_hash: 0,
            env_hash: 0,
        };
        world.reset(self.net, self.seed, make);
        for (pid, at) in self.crashes {
            world.push_event(at, EventKind::Crash { pid });
        }
        world
    }
}

/// A running simulation of `n` processes.
///
/// Per-process state lives in parallel struct-of-arrays vectors rather
/// than one `Vec<Slot>`: the kernel's hottest checks (is the delivery
/// target crashed? is the timer's epoch current?) then scan dense
/// `Vec<bool>` / `Vec<u32>` instead of striding actor-sized structs —
/// at n = 4096 the actor payload would evict the flags from cache.
pub struct World<A: Actor> {
    n: usize,
    now: Time,
    queue: EventQueue<A::Msg>,
    actors: Vec<A>,
    rngs: Vec<SmallRng>,
    crashed: Vec<bool>,
    /// Timer-validity epochs: timers armed in epoch `e` fire only while
    /// the process is still in epoch `e`. A warm restart (see
    /// [`crate::chaos::NetChange::Restart`]) advances the epoch so
    /// pre-crash timer chains cannot resurrect.
    epochs: Vec<u32>,
    net: NetworkConfig,
    net_rng: SmallRng,
    /// Cancelled timer ids, consumed when the dead timer fires. Fx-hashed
    /// and guarded by an `is_empty` fast path: most protocols never cancel
    /// a timer, and the probe sits on the per-timer-event hot path.
    cancelled: HashSet<u64, FxBuildHasher>,
    next_timer_id: u64,
    trace: Trace,
    metrics: Metrics,
    trace_mode: TraceMode,
    max_events: u64,
    obs: Option<WorldObs>,
    started: bool,
    scratch: Vec<Action<A::Msg>>,
    /// Same-instant event batch drained from the queue by
    /// [`run_until_time`](World::run_until_time); reused across batches.
    batch: Vec<QueuedEvent<A::Msg>>,
    /// Events of the current batch not yet processed — added to the
    /// queue length so the `sim.queue_depth_hwm` gauge stays honest
    /// while a batch is in flight.
    batch_pending: u64,
    /// Largest trace length seen across resets — the reserve hint that
    /// turns per-seed trace growth into one up-front arena allocation.
    trace_hwm: usize,
    /// The installed message mangler, if any (see
    /// [`crate::chaos::NetChange::SetMangler`]). Applied in `route` on
    /// top of each non-loopback link's base verdict.
    mangler: Option<LinkMangler>,
    /// Partitions currently open, counted by intervention tags
    /// ([`chaos::PARTITION`] opens, [`chaos::HEAL`] closes); feeds the
    /// `chaos.partitions_active` gauge when instrumented.
    partitions_open: u64,
    /// Whether the incremental state digest below is maintained (see
    /// [`WorldBuilder::track_state`]).
    track_state: bool,
    /// Per-process history hashes: each scheduler-dispatched event that
    /// reaches process `i` (a delivery it handles, a timer that fires)
    /// folds its content key into `proc_hash[i]`. Order-sensitive per
    /// process, blind to interleaving across processes — exactly the
    /// equivalence partial-order reduction exploits.
    proc_hash: Vec<u64>,
    /// Commutative multiset hash (wrapping sum of content keys) of every
    /// pending event — queued or drained-but-unconsumed. Push adds,
    /// consumption subtracts, so insertion order never matters.
    queue_hash: u64,
    /// History hash of consumed global-state events (crashes and
    /// interventions), order-sensitive: these don't commute with
    /// anything.
    env_hash: u64,
}

impl<A: Actor> World<A> {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Read access to an actor's state (e.g. to query its failure
    /// detector output from experiment code).
    pub fn actor(&self, pid: ProcessId) -> &A {
        &self.actors[pid.index()]
    }

    /// Whether `pid` has crashed.
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.crashed[pid.index()]
    }

    /// The processes that have not crashed (so far).
    pub fn correct(&self) -> Vec<ProcessId> {
        (0..self.n)
            .map(ProcessId)
            .filter(|p| !self.is_crashed(*p))
            .collect()
    }

    /// Schedule a crash after construction.
    pub fn schedule_crash(&mut self, pid: ProcessId, at: Time) {
        assert!(at >= self.now, "cannot schedule a crash in the past");
        self.push_event(at, EventKind::Crash { pid });
    }

    /// Schedule a fault-injection [`Intervention`] to fire at `at`. The
    /// intervention flows through the ordinary event queue (strict
    /// `(time, sequence)` order, byte-identical replay) and records an
    /// observation with its tag and payload when it fires — the fault
    /// schedule is part of the trace, not a side channel.
    pub fn schedule_intervention(&mut self, at: Time, intervention: Intervention) {
        assert!(
            at >= self.now,
            "cannot schedule an intervention in the past"
        );
        if let NetChange::SetLinks(links) = &intervention.change {
            for (from, to, _) in links {
                assert!(
                    from.index() < self.n && to.index() < self.n,
                    "intervention link endpoints out of range"
                );
            }
        }
        if let NetChange::Crash(pid) | NetChange::Restart(pid) = intervention.change {
            assert!(pid.index() < self.n, "intervention target out of range");
        }
        self.push_event(at, EventKind::Intervention(Box::new(intervention)));
    }

    /// Interact with a live actor outside of message/timer dispatch —
    /// e.g. call `propose(v)` on a consensus component. The closure gets
    /// the actor and a full [`Context`], so it may send and arm timers.
    /// Interactions with crashed processes are ignored.
    pub fn interact(&mut self, pid: ProcessId, f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>)) {
        self.ensure_started();
        if self.crashed[pid.index()] {
            return;
        }
        self.dispatch(pid, f);
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.n {
            let pid = ProcessId(i);
            self.dispatch(pid, |actor, ctx| actor.on_start(ctx));
        }
    }

    fn dispatch(&mut self, pid: ProcessId, f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>)) {
        // Owned clone of the histogram handle: a borrowing span would
        // hold `&self.obs` across the mutable kernel work below.
        let timing = match &self.obs {
            // fd-lint: allow(ND002, reason = "observability-only span timing; feeds histograms, never simulation state or RNG, so digests are identical with metrics on or off")
            Some(o) if o.sample_callback() => Some((Arc::clone(&o.callback_ns), Instant::now())),
            _ => None,
        };
        let now = self.now;
        let n = self.n;
        let mut actions = std::mem::take(&mut self.scratch);
        actions.clear();
        {
            let mut ctx = Context {
                me: pid,
                n,
                now,
                // fd-lint: allow(HP001, reason = "one rng per process; pid.index() < n by construction")
                rng: &mut self.rngs[pid.index()],
                actions: &mut actions,
                next_timer_id: &mut self.next_timer_id,
            };
            // fd-lint: allow(HP001, reason = "one actor per process; pid.index() < n by construction")
            f(&mut self.actors[pid.index()], &mut ctx);
        }
        for action in actions.drain(..) {
            self.apply(pid, action);
        }
        self.scratch = actions;
        if let Some((hist, started)) = timing {
            let ns = started.elapsed().as_nanos();
            hist.record(u64::try_from(ns).unwrap_or(u64::MAX));
        }
    }

    /// Whether message-level events (sent/delivered/dropped) are traced.
    #[inline]
    fn trace_full(&self) -> bool {
        self.trace_mode == TraceMode::Full
    }

    /// Whether observation-level events (observations, interventions,
    /// crashes) are traced.
    #[inline]
    fn trace_obs(&self) -> bool {
        self.trace_mode != TraceMode::Off
    }

    /// Route one message over the `from → to` link: record the send,
    /// sample the link model, and either enqueue the delivery or record
    /// the drop. The shared tail of [`Action::Send`] and each
    /// destination of [`Action::Broadcast`].
    fn route(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        kind: &'static str,
        round: Option<u64>,
        msg: MsgSlot<A::Msg>,
    ) {
        self.metrics.record_sent(from, kind, round);
        if self.trace_full() {
            self.trace.push(
                self.now,
                TraceKind::Sent {
                    from,
                    to,
                    kind,
                    round,
                },
            );
        }
        match self
            .net
            .link(from, to)
            .deliver_at(self.now, &mut self.net_rng)
        {
            Some(mut at) => {
                // The mangler perturbs the base model's verdict. RNG
                // draws happen in a fixed order (drop, reorder,
                // duplicate) and only for non-zero probabilities, so a
                // given plan+seed always consumes the same stream.
                // Loopback is exempt: self-delivery is internal
                // scheduling, not a network hop.
                if let (Some(m), false) = (self.mangler, from == to) {
                    if m.drop > 0.0 && self.net_rng.gen_bool(m.drop.clamp(0.0, 1.0)) {
                        self.metrics.record_mangled_dropped();
                        if let Some(obs) = &self.obs {
                            obs.chaos_dropped.inc();
                        }
                        if self.trace_full() {
                            self.trace.push(
                                self.now,
                                TraceKind::Dropped {
                                    from,
                                    to,
                                    kind,
                                    reason: DropReason::Mangled,
                                },
                            );
                        }
                        return;
                    }
                    let skew = m.skew.0.max(1);
                    if m.reorder > 0.0 && self.net_rng.gen_bool(m.reorder.clamp(0.0, 1.0)) {
                        at += crate::time::SimDuration(self.net_rng.gen_range(1..=skew));
                        self.metrics.record_reordered();
                        if let Some(obs) = &self.obs {
                            obs.chaos_reordered.inc();
                        }
                    }
                    if m.duplicate > 0.0 && self.net_rng.gen_bool(m.duplicate.clamp(0.0, 1.0)) {
                        let dup_at =
                            at + crate::time::SimDuration(self.net_rng.gen_range(1..=skew));
                        self.metrics.record_duplicated();
                        if let Some(obs) = &self.obs {
                            obs.chaos_duplicated.inc();
                        }
                        // Both copies share one allocation; the original
                        // is enqueued first so equal delivery instants
                        // keep the original ahead of its duplicate.
                        let rc = match msg {
                            // fd-lint: allow(HP002, reason = "one refcounted allocation per duplicated send is the sharing strategy that keeps the per-recipient path alloc-free")
                            MsgSlot::Inline(m) => Rc::new(m),
                            MsgSlot::Shared(rc) => rc,
                        };
                        self.push_event(
                            at,
                            EventKind::Deliver {
                                from,
                                to,
                                msg: MsgSlot::Shared(Rc::clone(&rc)),
                            },
                        );
                        self.push_event(
                            dup_at,
                            EventKind::Deliver {
                                from,
                                to,
                                msg: MsgSlot::Shared(rc),
                            },
                        );
                        return;
                    }
                }
                // Enforce strict causality: delivery strictly after
                // the send instant in queue order is already
                // guaranteed by the sequence number; a zero sampled
                // delay is therefore fine.
                self.push_event(at, EventKind::Deliver { from, to, msg });
            }
            None => {
                self.metrics.record_dropped();
                if self.trace_full() {
                    self.trace.push(
                        self.now,
                        TraceKind::Dropped {
                            from,
                            to,
                            kind,
                            reason: DropReason::Link,
                        },
                    );
                }
            }
        }
    }

    fn apply(&mut self, from: ProcessId, action: Action<A::Msg>) {
        match action {
            Action::Send { to, msg } => {
                let kind = msg.kind();
                let round = msg.round();
                self.route(from, to, kind, round, MsgSlot::Inline(msg));
            }
            Action::Broadcast { include_self, msg } => {
                // Fan out in identity order — the same per-destination
                // metric, trace, link-sampling, and enqueue sequence the
                // sender's own per-destination Send loop used to
                // produce. Small drop-free payloads (heartbeats and other
                // plain-data messages) are cloned per destination: no
                // shared allocation, no pointer chase at delivery time.
                // Anything bigger or owning heap data shares one `Rc`.
                let kind = msg.kind();
                let round = msg.round();
                if std::mem::size_of::<A::Msg>() <= 16 && !std::mem::needs_drop::<A::Msg>() {
                    for i in 0..self.n {
                        let to = ProcessId(i);
                        if !include_self && to == from {
                            continue;
                        }
                        // fd-lint: allow(HP002, reason = "inline arm is gated to 16-byte no-drop payloads, so the clone is a register copy")
                        self.route(from, to, kind, round, MsgSlot::Inline(msg.clone()));
                    }
                } else {
                    // fd-lint: allow(HP002, reason = "one shared allocation per broadcast, amortized over n recipients")
                    let shared = Rc::new(msg);
                    for i in 0..self.n {
                        let to = ProcessId(i);
                        if !include_self && to == from {
                            continue;
                        }
                        self.route(from, to, kind, round, MsgSlot::Shared(Rc::clone(&shared)));
                    }
                }
            }
            Action::SetTimer { id, after, tag } => {
                // fd-lint: allow(HP001, reason = "epochs has one entry per process; from.index() < n by construction")
                let epoch = self.epochs[from.index()];
                self.push_event(
                    self.now + after,
                    EventKind::Timer {
                        pid: from,
                        id,
                        tag,
                        epoch,
                    },
                );
            }
            Action::CancelTimer { id } => {
                self.cancelled.insert(id.0);
            }
            Action::Observe { tag, payload } => {
                if self.trace_obs() {
                    self.trace.push(
                        self.now,
                        TraceKind::Observation {
                            pid: from,
                            tag,
                            payload,
                        },
                    );
                }
            }
        }
    }

    fn process(&mut self, ev: QueuedEvent<A::Msg>) {
        self.now = ev.at;
        self.metrics.record_event();
        if let Some(obs) = &self.obs {
            // Depth at pop time, counting the event being processed.
            obs.record_event(self.queue.len() as u64 + 1 + self.batch_pending);
        }
        // fd-lint: allow(HP001, reason = "the event-budget tripwire exists to panic: a zero-delay loop must halt the run, not spin")
        assert!(
            self.metrics.events_processed() <= self.max_events,
            "event budget exceeded ({}): possible zero-delay loop",
            self.max_events
        );
        match ev.kind {
            EventKind::Deliver { from, to, msg } => {
                // fd-lint: allow(HP001, reason = "crashed has one flag per process; to.index() < n by construction")
                if self.crashed[to.index()] {
                    self.metrics.record_dropped();
                    if self.trace_full() {
                        self.trace.push(
                            self.now,
                            TraceKind::Dropped {
                                from,
                                to,
                                kind: msg.get().kind(),
                                reason: DropReason::ReceiverCrashed,
                            },
                        );
                    }
                    return;
                }
                self.metrics.record_delivered();
                if self.trace_full() {
                    self.trace.push(
                        self.now,
                        TraceKind::Delivered {
                            from,
                            to,
                            kind: msg.get().kind(),
                            round: msg.get().round(),
                        },
                    );
                }
                self.dispatch(to, |actor, ctx| actor.on_message(ctx, from, msg.take()));
            }
            EventKind::Timer {
                pid,
                id,
                tag,
                epoch,
            } => {
                let i = pid.index();
                if (!self.cancelled.is_empty() && self.cancelled.remove(&id.0))
                    // fd-lint: allow(HP001, reason = "crashed has one flag per process; timer pids are < n by construction")
                    || self.crashed[i]
                    // fd-lint: allow(HP001, reason = "epochs has one entry per process; timer pids are < n by construction")
                    || self.epochs[i] != epoch
                {
                    return;
                }
                self.dispatch(pid, |actor, ctx| actor.on_timer(ctx, tag));
            }
            EventKind::Crash { pid } => self.crash_now(pid),
            EventKind::Intervention(iv) => self.apply_intervention(*iv),
        }
    }

    /// Mark `pid` crashed (idempotent) and record the trace event.
    fn crash_now(&mut self, pid: ProcessId) {
        // fd-lint: allow(HP001, reason = "crashed has one flag per process; pid.index() < n by construction")
        if !self.crashed[pid.index()] {
            // fd-lint: allow(HP001, reason = "crashed has one flag per process; pid.index() < n by construction")
            self.crashed[pid.index()] = true;
            if self.trace_obs() {
                self.trace.push(self.now, TraceKind::Crashed { pid });
            }
        }
    }

    /// Apply a fired intervention: record its trace annotation, keep the
    /// partition gauge honest, then mutate the environment.
    fn apply_intervention(&mut self, iv: Intervention) {
        let Intervention {
            tag,
            payload,
            change,
        } = iv;
        if self.trace_obs() {
            self.trace.push(
                self.now,
                TraceKind::Observation {
                    pid: ProcessId(0),
                    tag,
                    payload,
                },
            );
        }
        if tag == chaos::PARTITION {
            self.partitions_open += 1;
            if let Some(obs) = &self.obs {
                obs.partitions_active.record_max(self.partitions_open);
            }
        } else if tag == chaos::HEAL {
            self.partitions_open = self.partitions_open.saturating_sub(1);
        }
        match change {
            NetChange::Annotate => {}
            NetChange::SetLinks(links) => {
                for (from, to, model) in links {
                    self.net.set_link(from, to, model);
                }
            }
            NetChange::SetDefault(model) => self.net.set_default(model),
            NetChange::SetMangler(m) => self.mangler = m,
            NetChange::Crash(pid) => self.crash_now(pid),
            NetChange::Restart(pid) => {
                let i = pid.index();
                // fd-lint: allow(HP001, reason = "crashed has one flag per process; intervention pids are < n by construction")
                if self.crashed[i] {
                    // fd-lint: allow(HP001, reason = "crashed has one flag per process; intervention pids are < n by construction")
                    self.crashed[i] = false;
                    // fd-lint: allow(HP001, reason = "epochs has one entry per process; intervention pids are < n by construction")
                    self.epochs[i] += 1;
                    self.dispatch(pid, |actor, ctx| actor.on_start(ctx));
                }
            }
        }
    }

    /// Run every event scheduled at or before `until`, then advance the
    /// clock to `until`.
    ///
    /// Events are drained one *timestamp* at a time: everything due at
    /// the earliest pending instant comes out of the queue in a single
    /// batch, then is processed in `(time, seq)` order. This is safe —
    /// anything an event at time `t` schedules for time `t` gets a
    /// sequence number above every queued `t`-event, so it lands in the
    /// next batch in exactly the order a one-at-a-time loop would see —
    /// and it amortizes queue bookkeeping over whole broadcast fan-ins,
    /// which at large n share one delivery instant thousands of ways.
    // fd-lint: hot_path
    pub fn run_until_time(&mut self, until: Time) {
        self.ensure_started();
        let mut batch = std::mem::take(&mut self.batch);
        loop {
            let drained = self.queue.pop_due_batch(until, &mut batch);
            if drained == 0 {
                break;
            }
            for (i, ev) in batch.drain(..).enumerate() {
                self.batch_pending = (drained - 1 - i) as u64;
                self.process(ev);
            }
        }
        self.batch_pending = 0;
        self.batch = batch;
        self.now = self.now.max(until);
    }

    /// Run until `pred(self)` holds (checked before the first event and
    /// after every event) or the clock would pass `deadline`. Returns
    /// `true` iff the predicate was met.
    pub fn run_until(&mut self, deadline: Time, mut pred: impl FnMut(&Self) -> bool) -> bool {
        self.ensure_started();
        if pred(self) {
            return true;
        }
        while let Some(ev) = self.queue.pop_due(deadline) {
            self.process(ev);
            if pred(self) {
                return true;
            }
        }
        self.now = self.now.max(deadline);
        false
    }

    /// Consume the world, returning its trace and metrics.
    pub fn into_results(self) -> (Trace, Metrics) {
        (self.trace, self.metrics)
    }

    /// Take the trace and metrics out of a world that is about to be
    /// [`reset`](World::reset) — the reuse-path twin of
    /// [`into_results`](World::into_results).
    pub fn take_results(&mut self) -> (Trace, Metrics) {
        self.trace_hwm = self.trace_hwm.max(self.trace.len());
        (
            std::mem::take(&mut self.trace),
            std::mem::take(&mut self.metrics),
        )
    }

    /// Re-arm this world for a fresh run of `seed` over `net`, reusing
    /// every allocation the previous run warmed up: the event queue's
    /// spans and buckets, the actors vector, the action scratch buffer,
    /// and (via a high-water-mark `reserve`) the trace arena. `n` may
    /// change between runs. Equivalent to building a new world with the
    /// same `trace_mode` / `max_events` / instrumentation settings —
    /// runs after a reset are byte-identical to runs in a fresh world.
    ///
    /// Crashes are not carried over; schedule them with
    /// [`schedule_crash`](World::schedule_crash) after the reset. The
    /// same goes for fault injection: pending interventions die with the
    /// queue, the installed mangler (if any) is removed, and the
    /// partition count returns to zero.
    pub fn reset<F>(&mut self, net: NetworkConfig, seed: u64, mut make: F)
    where
        F: FnMut(ProcessId, usize) -> A,
    {
        let n = net.n();
        assert!(n > 0, "a world needs at least one process");
        self.trace_hwm = self.trace_hwm.max(self.trace.len());
        self.n = n;
        self.now = Time::ZERO;
        self.queue.reset();
        self.actors.clear();
        self.actors.extend((0..n).map(|i| make(ProcessId(i), n)));
        self.rngs.clear();
        self.rngs
            .extend((0..n).map(|i| derive_process_rng(seed, i)));
        self.crashed.clear();
        self.crashed.resize(n, false);
        self.epochs.clear();
        self.epochs.resize(n, 0);
        self.net = net;
        self.net_rng = derive_network_rng(seed);
        self.cancelled.clear();
        self.next_timer_id = 0;
        self.mangler = None;
        self.partitions_open = 0;
        self.proc_hash.clear();
        self.proc_hash.resize(n, 0);
        self.queue_hash = 0;
        self.env_hash = 0;
        self.trace
            .reset_with_capacity(if self.trace_obs() { self.trace_hwm } else { 0 });
        self.metrics = Metrics::default();
        self.metrics.presize(n);
        self.started = false;
    }

    /// Record an observation on behalf of the harness itself (pid-less
    /// events are attributed to process 0; used rarely, e.g. to mark
    /// scenario phases in traces).
    pub fn annotate(&mut self, tag: &'static str, payload: Payload) {
        if self.trace_obs() {
            self.trace.push(
                self.now,
                TraceKind::Observation {
                    pid: ProcessId(0),
                    tag,
                    payload,
                },
            );
        }
    }

    /// Enqueue `kind` at `at`, folding its content key into the pending
    /// multiset hash when state tracking is on. Every kernel push goes
    /// through here so the digest can never miss an event.
    fn push_event(&mut self, at: Time, kind: EventKind<A::Msg>) {
        if self.track_state {
            let key = Self::event_key(at, &kind);
            self.queue_hash = self.queue_hash.wrapping_add(key);
        }
        self.queue.push(at, kind);
    }

    /// A content-based digest of one event: due time, kind, endpoints,
    /// and (for deliveries) the message's `Debug` form — everything
    /// *except* the sequence number, which is an artifact of scheduling
    /// order. Two interleavings that leave "the same" event pending
    /// therefore agree on its key, which is what both the pending-set
    /// multiset hash and `fd-mc`'s sleep sets rely on. Timer ids are
    /// likewise excluded: they come from a global counter whose values
    /// depend on dispatch order, and actors use them only as opaque
    /// cancellation handles.
    fn event_key(at: Time, kind: &EventKind<A::Msg>) -> u64 {
        let mut h = Fnv::new();
        h.u64(at.0);
        match kind {
            EventKind::Deliver { from, to, msg } => {
                h.u64(0);
                h.pid(*from);
                h.pid(*to);
                // fd-lint: allow(HP002, reason = "only reached with state tracking on (model-checking worlds, n <= 4); the default campaign/bench path never computes content keys")
                h.str(&format!("{:?}", msg.get()));
            }
            EventKind::Timer {
                pid, tag, epoch, ..
            } => {
                h.u64(1);
                h.pid(*pid);
                h.u64(tag.ns as u64);
                h.u64(tag.kind as u64);
                h.u64(tag.data);
                h.u64(*epoch as u64);
            }
            EventKind::Crash { pid } => {
                h.u64(2);
                h.pid(*pid);
            }
            EventKind::Intervention(iv) => {
                h.u64(3);
                h.str(iv.tag);
            }
        }
        h.finish()
    }

    /// Scheduler-facing summary of a drained event (see
    /// [`EnabledEvent`]). The key is computed unconditionally — partial
    /// order reduction needs it even when the visited-set digest is off.
    fn summarize(ev: &QueuedEvent<A::Msg>) -> EnabledEvent {
        EnabledEvent {
            at: ev.at,
            seq: ev.seq,
            key: Self::event_key(ev.at, &ev.kind),
            kind: match &ev.kind {
                EventKind::Deliver { from, to, msg } => EnabledKind::Deliver {
                    from: *from,
                    to: *to,
                    msg_kind: msg.get().kind(),
                },
                EventKind::Timer { pid, tag, .. } => EnabledKind::Timer {
                    pid: *pid,
                    tag: *tag,
                },
                EventKind::Crash { pid } => EnabledKind::Crash { pid: *pid },
                EventKind::Intervention(_) => EnabledKind::Intervention,
            },
        }
    }

    /// Account for one consumed pending event (fired or force-dropped):
    /// remove it from the pending multiset and, if it actually reaches a
    /// process (a delivery to a live target, a timer that passes the
    /// cancelled/crashed/epoch filters), fold it into that process's
    /// history hash. Crashes and interventions fold into the global
    /// environment history instead. Events the kernel silently discards
    /// (delivery to a crashed process, stale timer) touch no history:
    /// their outcome is fully determined by state already in the digest.
    fn fold_consumed(&mut self, key: u64, ev: &QueuedEvent<A::Msg>) {
        self.queue_hash = self.queue_hash.wrapping_sub(key);
        match &ev.kind {
            EventKind::Deliver { to, .. } => {
                let i = to.index();
                if !self.crashed[i] {
                    let mut h = Fnv::resume(self.proc_hash[i]);
                    h.u64(key);
                    self.proc_hash[i] = h.finish();
                }
            }
            EventKind::Timer { pid, id, epoch, .. } => {
                let i = pid.index();
                let cancelled = !self.cancelled.is_empty() && self.cancelled.contains(&id.0);
                if !cancelled && !self.crashed[i] && self.epochs[i] == *epoch {
                    let mut h = Fnv::resume(self.proc_hash[i]);
                    h.u64(key);
                    self.proc_hash[i] = h.finish();
                }
            }
            EventKind::Crash { .. } | EventKind::Intervention(_) => {
                let mut h = Fnv::resume(self.env_hash);
                h.u64(key);
                self.env_hash = h.finish();
            }
        }
    }

    /// The incremental state digest: clock, pending-event multiset,
    /// per-process histories, environment history, crash flags, and
    /// restart epochs, folded with the same FNV the trace digest uses.
    ///
    /// For deterministic actors over RNG-free links, equal digests imply
    /// equal futures: each actor's state is a function of its dispatch
    /// history (plus the identical pre-run `on_start`/`interact` prefix,
    /// which is deliberately not folded), and what remains to happen is
    /// the pending multiset plus the environment. Two *equivalent*
    /// interleavings — same per-process dispatch orders, same global
    /// event order — produce equal digests even though their traces
    /// differ, which is exactly what makes this usable as a visited-set
    /// key. Meaningful only with [`WorldBuilder::track_state`] on.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.now.0);
        h.u64(self.queue_hash);
        h.u64(self.env_hash);
        for &p in &self.proc_hash {
            h.u64(p);
        }
        let mut word = 0u64;
        for (i, &c) in self.crashed.iter().enumerate() {
            if c {
                word |= 1 << (i & 63);
            }
            if i & 63 == 63 {
                h.u64(word);
                word = 0;
            }
        }
        h.u64(word);
        for &e in &self.epochs {
            h.u64(e as u64);
        }
        h.finish()
    }

    /// Run every event scheduled at or before `until` under an explicit
    /// [`Scheduler`], then advance the clock to `until`.
    ///
    /// This is [`run_until_time`](World::run_until_time) with the one
    /// hard-coded policy — fire same-instant events in `(time, seq)`
    /// order — replaced by a choice point: all events due at the current
    /// earliest instant form the *enabled set*, and the scheduler picks
    /// which fires next (or force-drops a delivery). After each firing,
    /// events the handler scheduled for the same instant join the
    /// enabled set (they carry higher seqs, so the canonical choice of
    /// index 0 walks the exact global `(time, seq)` order). Driving this
    /// with [`CanonicalScheduler`](crate::sched::CanonicalScheduler) is
    /// byte-identical to `run_until_time` — trace, metrics, and gauges.
    pub fn run_scheduled_until(&mut self, until: Time, sched: &mut dyn Scheduler) {
        if self.track_state {
            assert!(
                self.net.is_rng_free() && self.mangler.is_none(),
                "state tracking requires an RNG-free network and no mangler: \
                 shared-stream draws make state hashes schedule-dependent"
            );
        }
        self.ensure_started();
        let mut batch = std::mem::take(&mut self.batch);
        let mut enabled: Vec<EnabledEvent> = Vec::new();
        loop {
            if batch.is_empty() {
                enabled.clear();
                if self.queue.pop_due_batch(until, &mut batch) == 0 {
                    break;
                }
                enabled.extend(batch.iter().map(Self::summarize));
            }
            let t = batch[0].at;
            let choice = {
                let cp = ChoicePoint {
                    now: t,
                    enabled: &enabled,
                    crashed: &self.crashed,
                    state_digest: self.track_state.then(|| self.state_digest()),
                };
                sched.choose(&cp)
            };
            match choice {
                SchedChoice::Event(i) => {
                    assert!(i < batch.len(), "scheduler chose out-of-range event {i}");
                    let ev = batch.remove(i);
                    let info = enabled.remove(i);
                    if self.track_state {
                        self.fold_consumed(info.key, &ev);
                    }
                    self.batch_pending = batch.len() as u64;
                    self.process(ev);
                    // Newly scheduled same-instant events join the
                    // enabled set; nothing earlier than `t` can exist,
                    // so this drains exactly the instant's arrivals.
                    let before = batch.len();
                    self.queue.pop_due_batch(t, &mut batch);
                    enabled.extend(batch[before..].iter().map(Self::summarize));
                }
                SchedChoice::Drop(i) => {
                    assert!(i < batch.len(), "scheduler chose out-of-range drop {i}");
                    let ev = batch.remove(i);
                    let info = enabled.remove(i);
                    let EventKind::Deliver { from, to, msg } = &ev.kind else {
                        panic!("scheduler Drop choice selected a non-delivery event");
                    };
                    if self.track_state {
                        // A forced drop only removes the message from
                        // the pending set — no process observes it.
                        self.queue_hash = self.queue_hash.wrapping_sub(info.key);
                    }
                    self.now = t;
                    self.metrics.record_dropped();
                    if self.trace_full() {
                        self.trace.push(
                            t,
                            TraceKind::Dropped {
                                from: *from,
                                to: *to,
                                kind: msg.get().kind(),
                                reason: DropReason::Link,
                            },
                        );
                    }
                }
            }
        }
        self.batch_pending = 0;
        self.batch = batch;
        self.now = self.now.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::TimerTag;
    use crate::link::LinkModel;
    use crate::time::SimDuration;

    /// Each process pings its successor on start; a ping is answered with
    /// a pong; receipt of a pong re-arms a timer that pings again.
    pub(crate) struct PingPong {
        pub(crate) pings_seen: u64,
        pub(crate) pongs_seen: u64,
    }

    #[derive(Clone, Debug)]
    pub(crate) enum Pp {
        Ping,
        Pong,
    }
    impl SimMessage for Pp {
        fn kind(&self) -> &'static str {
            match self {
                Pp::Ping => "ping",
                Pp::Pong => "pong",
            }
        }
    }

    const T_PING: TimerTag = TimerTag::new(0, 0, 0);

    impl Actor for PingPong {
        type Msg = Pp;
        fn on_start(&mut self, ctx: &mut Context<'_, Pp>) {
            ctx.set_timer(SimDuration::from_millis(1), T_PING);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Pp>, from: ProcessId, msg: Pp) {
            match msg {
                Pp::Ping => {
                    self.pings_seen += 1;
                    ctx.send(from, Pp::Pong);
                }
                Pp::Pong => {
                    self.pongs_seen += 1;
                    ctx.set_timer(SimDuration::from_millis(1), T_PING);
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Pp>, _tag: TimerTag) {
            let next = ctx.me().successor(ctx.n());
            ctx.send(next, Pp::Ping);
        }
    }

    pub(crate) fn two_node_world(seed: u64) -> World<PingPong> {
        let net = NetworkConfig::new(2)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        WorldBuilder::new(net).seed(seed).build(|_, _| PingPong {
            pings_seen: 0,
            pongs_seen: 0,
        })
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut w = two_node_world(1);
        w.run_until_time(Time::from_millis(100));
        assert!(w.actor(ProcessId(0)).pongs_seen > 10);
        assert!(w.actor(ProcessId(1)).pings_seen > 10);
        // Every pong answers a ping; at the cutoff a couple of pings may
        // still be in flight or unanswered.
        let pings = w.metrics().sent_of_kind("ping");
        let pongs = w.metrics().sent_of_kind("pong");
        assert!(
            pings >= pongs && pings - pongs <= 2,
            "pings={pings} pongs={pongs}"
        );
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let mut a = two_node_world(42);
        let mut b = two_node_world(42);
        a.run_until_time(Time::from_millis(50));
        b.run_until_time(Time::from_millis(50));
        assert_eq!(a.trace().events(), b.trace().events());
        assert_eq!(a.metrics().sent_total(), b.metrics().sent_total());
    }

    #[test]
    fn crash_stops_a_process() {
        let net = NetworkConfig::new(2)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        let mut w = WorldBuilder::new(net)
            .crash_at(ProcessId(1), Time::from_millis(10))
            .build(|_, _| PingPong {
                pings_seen: 0,
                pongs_seen: 0,
            });
        w.run_until_time(Time::from_millis(100));
        assert!(w.is_crashed(ProcessId(1)));
        assert!(!w.is_crashed(ProcessId(0)));
        assert_eq!(w.correct(), vec![ProcessId(0)]);
        // p1 stopped answering, so p0 saw only the pongs from before the crash.
        let p0 = w.actor(ProcessId(0));
        assert!(p0.pongs_seen <= 12, "pongs after crash: {}", p0.pongs_seen);
        // Messages to the crashed process are recorded as drops.
        assert!(w.metrics().dropped_total() > 0);
    }

    #[test]
    fn run_until_predicate_stops_early() {
        let mut w = two_node_world(3);
        let hit = w.run_until(Time::from_secs(10), |w| {
            w.actor(ProcessId(1)).pings_seen >= 3
        });
        assert!(hit);
        assert!(w.now() < Time::from_secs(1));
        assert!(w.actor(ProcessId(1)).pings_seen >= 3);
    }

    #[test]
    fn run_until_deadline_when_predicate_never_holds() {
        let mut w = two_node_world(3);
        let hit = w.run_until(Time::from_millis(5), |_| false);
        assert!(!hit);
        assert_eq!(w.now(), Time::from_millis(5));
    }

    #[test]
    fn interact_injects_external_calls() {
        let mut w = two_node_world(4);
        w.interact(ProcessId(0), |_actor, ctx| ctx.send(ProcessId(1), Pp::Ping));
        w.run_until_time(Time::from_millis(3));
        assert!(w.actor(ProcessId(1)).pings_seen >= 1);
    }

    #[test]
    fn interact_with_crashed_process_is_ignored() {
        let net = NetworkConfig::new(2);
        let mut w = WorldBuilder::new(net)
            .crash_at(ProcessId(0), Time::ZERO)
            .build(|_, _| PingPong {
                pings_seen: 0,
                pongs_seen: 0,
            });
        w.run_until_time(Time::from_millis(1));
        let sent_before = w.metrics().sent_total();
        w.interact(ProcessId(0), |_a, ctx| ctx.send(ProcessId(1), Pp::Ping));
        assert_eq!(w.metrics().sent_total(), sent_before);
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        struct Cancelling {
            fired: bool,
        }
        #[derive(Clone, Debug)]
        struct Never;
        impl SimMessage for Never {}
        impl Actor for Cancelling {
            type Msg = Never;
            fn on_start(&mut self, ctx: &mut Context<'_, Never>) {
                let id = ctx.set_timer(SimDuration::from_millis(5), TimerTag::new(0, 0, 0));
                ctx.cancel_timer(id);
            }
            fn on_message(&mut self, _: &mut Context<'_, Never>, _: ProcessId, _: Never) {}
            fn on_timer(&mut self, _: &mut Context<'_, Never>, _: TimerTag) {
                self.fired = true;
            }
        }
        let mut w =
            WorldBuilder::new(NetworkConfig::new(1)).build(|_, _| Cancelling { fired: false });
        w.run_until_time(Time::from_millis(20));
        assert!(!w.actor(ProcessId(0)).fired);
    }

    #[test]
    #[should_panic(expected = "event budget exceeded")]
    fn event_budget_guards_zero_delay_loops() {
        struct Looper;
        #[derive(Clone, Debug)]
        struct Never;
        impl SimMessage for Never {}
        impl Actor for Looper {
            type Msg = Never;
            fn on_start(&mut self, ctx: &mut Context<'_, Never>) {
                ctx.set_timer(SimDuration::ZERO, TimerTag::new(0, 0, 0));
            }
            fn on_message(&mut self, _: &mut Context<'_, Never>, _: ProcessId, _: Never) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Never>, _: TimerTag) {
                ctx.set_timer(SimDuration::ZERO, TimerTag::new(0, 0, 0));
            }
        }
        let mut w = WorldBuilder::new(NetworkConfig::new(1))
            .max_events(1_000)
            .build(|_, _| Looper);
        w.run_until_time(Time::from_millis(1));
    }

    /// Determinism guard for the observability layer: an instrumented
    /// run must produce exactly the trace and counters of a bare run,
    /// while the registry fills with kernel telemetry on the side.
    #[test]
    fn observed_runs_are_byte_identical_to_bare_runs() {
        let registry = fd_obs::Registry::new();
        let net = NetworkConfig::new(2)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        let mut observed = WorldBuilder::new(net)
            .seed(9)
            .observe(WorldObs::new(&registry))
            .build(|_, _| PingPong {
                pings_seen: 0,
                pongs_seen: 0,
            });
        let mut bare = two_node_world(9);
        observed.run_until_time(Time::from_millis(60));
        bare.run_until_time(Time::from_millis(60));
        assert_eq!(observed.trace().digest(), bare.trace().digest());
        assert_eq!(
            observed.metrics().events_processed(),
            bare.metrics().events_processed()
        );
        // The event count is batched per world and flushed when the
        // world (and its `WorldObs`) drops.
        drop(observed);
        let events = registry.counter(fd_obs::keys::SIM_EVENTS);
        assert_eq!(events.get(), bare.metrics().events_processed());
        assert!(registry.gauge(fd_obs::keys::SIM_QUEUE_DEPTH_HWM).get() >= 1);
        assert!(registry.histogram(fd_obs::keys::SIM_CALLBACK_NS).count() > 0);
    }

    /// The callback sampler must not alias with periodic worlds: timed
    /// callbacks spread over every residue class of the callback index,
    /// at the advertised mean rate. (A fixed stride of 32 puts every
    /// sample in class 0, mod 4 and mod 32 alike.)
    #[test]
    fn callback_sampler_spreads_over_residue_classes() {
        let obs = WorldObs::new(&fd_obs::Registry::new());
        let (mut mod4, mut mod32) = ([0u32; 4], [0u32; 32]);
        for i in 0..32_000usize {
            if obs.sample_callback() {
                mod4[i % 4] += 1;
                mod32[i % 32] += 1;
            }
        }
        let total: u32 = mod4.iter().sum();
        assert!((800..=1200).contains(&total), "mean gap is 32: {total}");
        for (class, &hits) in mod4.iter().enumerate() {
            let share = hits as f64 / total as f64;
            assert!((0.15..=0.35).contains(&share), "mod 4 = {class}: {share}");
        }
        assert!(mod32.iter().all(|&hits| hits > 0), "{mod32:?}");
    }

    /// The batched `run_until_time` loop must be indistinguishable from
    /// the one-event-at-a-time `run_until` loop (`pop_due` per event):
    /// same trace bytes, same metrics, same final clock.
    #[test]
    fn batched_run_matches_step_loop() {
        let mut batched = two_node_world(17);
        let mut stepped = two_node_world(17);
        let until = Time::from_millis(80);
        batched.run_until_time(until);
        assert!(!stepped.run_until(until, |_| false));
        assert_eq!(batched.trace().digest(), stepped.trace().digest());
        assert_eq!(
            batched.metrics().events_processed(),
            stepped.metrics().events_processed()
        );
        assert_eq!(batched.now(), stepped.now());
    }

    /// `ObsOnly` keeps observations and crashes — everything the class
    /// checkers consume — while dropping the O(messages) stream.
    #[test]
    fn obs_only_trace_keeps_checker_events() {
        let net = NetworkConfig::new(2)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        let mut w = WorldBuilder::new(net)
            .trace_mode(TraceMode::ObsOnly)
            .crash_at(ProcessId(1), Time::from_millis(10))
            .build(|_, _| PingPong {
                pings_seen: 0,
                pongs_seen: 0,
            });
        w.run_until_time(Time::from_millis(50));
        w.annotate("phase", Payload::U64(1));
        assert!(w.metrics().sent_total() > 0, "metrics stay on");
        let trace = w.trace();
        assert!(!trace.is_empty());
        assert_eq!(trace.crashes().len(), 1);
        assert_eq!(trace.observations("phase").count(), 1);
        for e in trace.events() {
            assert!(
                matches!(
                    e.kind,
                    TraceKind::Observation { .. } | TraceKind::Crashed { .. }
                ),
                "message-level event leaked into ObsOnly trace: {e:?}"
            );
        }
    }

    #[test]
    fn trace_can_be_disabled() {
        let mut w = {
            let net = NetworkConfig::new(2);
            WorldBuilder::new(net)
                .trace_mode(TraceMode::Off)
                .build(|_, _| PingPong {
                    pings_seen: 0,
                    pongs_seen: 0,
                })
        };
        w.run_until_time(Time::from_millis(50));
        assert!(w.trace().is_empty());
        assert!(w.metrics().sent_total() > 0, "metrics stay on");
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::actor::TimerTag;
    use crate::link::{LinkMangler, LinkModel};
    use crate::time::SimDuration;

    /// Heartbeat-ish actor: every 2 ms each process sends `Beat` to its
    /// successor and counts what it receives. `on_start` re-arms the
    /// timer chain, so a warm restart resumes beating.
    struct Beater {
        seen: u64,
        starts: u64,
    }

    #[derive(Clone, Debug)]
    struct Beat;
    impl SimMessage for Beat {
        fn kind(&self) -> &'static str {
            "beat"
        }
    }

    const T_BEAT: TimerTag = TimerTag::new(0, 0, 0);

    impl Actor for Beater {
        type Msg = Beat;
        fn on_start(&mut self, ctx: &mut Context<'_, Beat>) {
            self.starts += 1;
            ctx.set_timer(SimDuration::from_millis(2), T_BEAT);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Beat>, _from: ProcessId, _m: Beat) {
            self.seen += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Beat>, _tag: TimerTag) {
            let next = ctx.me().successor(ctx.n());
            ctx.send(next, Beat);
            ctx.set_timer(SimDuration::from_millis(2), T_BEAT);
        }
    }

    fn beat_world(seed: u64) -> World<Beater> {
        let net = NetworkConfig::new(2)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        WorldBuilder::new(net)
            .seed(seed)
            .build(|_, _| Beater { seen: 0, starts: 0 })
    }

    fn cut_both() -> crate::chaos::Intervention {
        crate::chaos::Intervention {
            tag: crate::chaos::PARTITION,
            payload: Payload::pids([ProcessId(0), ProcessId(1)]),
            change: crate::chaos::NetChange::SetLinks(vec![
                (ProcessId(0), ProcessId(1), LinkModel::Dead),
                (ProcessId(1), ProcessId(0), LinkModel::Dead),
            ]),
        }
    }

    #[test]
    fn partition_cut_drops_and_heal_restores() {
        let mut w = beat_world(7);
        w.schedule_intervention(Time::from_millis(10), cut_both());
        let heal = crate::chaos::Intervention {
            tag: crate::chaos::HEAL,
            payload: Payload::pids([ProcessId(0), ProcessId(1)]),
            change: crate::chaos::NetChange::SetLinks(vec![
                (
                    ProcessId(0),
                    ProcessId(1),
                    LinkModel::reliable_const(SimDuration::from_millis(1)),
                ),
                (
                    ProcessId(1),
                    ProcessId(0),
                    LinkModel::reliable_const(SimDuration::from_millis(1)),
                ),
            ]),
        };
        w.schedule_intervention(Time::from_millis(30), heal);
        w.run_until_time(Time::from_millis(60));
        // During [10, 30) every beat is dropped at the link.
        let dropped = w.metrics().dropped_total();
        assert!(dropped >= 8, "cut window should drop ~10 beats: {dropped}");
        // After the heal, beats flow again: the last delivery is late.
        let last_delivery = w
            .trace()
            .events()
            .iter()
            .rev()
            .find(|e| matches!(e.kind, TraceKind::Delivered { .. }))
            .expect("deliveries resume")
            .at;
        assert!(last_delivery > Time::from_millis(30), "{last_delivery}");
        // The fault schedule is in the trace.
        assert_eq!(w.trace().observations(chaos::PARTITION).count(), 1);
        assert_eq!(w.trace().observations(chaos::HEAL).count(), 1);
    }

    #[test]
    fn interventions_replay_byte_identically() {
        let run = || {
            let mut w = beat_world(11);
            w.schedule_intervention(Time::from_millis(5), cut_both());
            w.schedule_intervention(
                Time::from_millis(12),
                crate::chaos::Intervention {
                    tag: crate::chaos::MANGLE,
                    payload: Payload::None,
                    change: crate::chaos::NetChange::SetMangler(Some(LinkMangler {
                        drop: 0.2,
                        duplicate: 0.3,
                        reorder: 0.4,
                        skew: SimDuration::from_millis(3),
                    })),
                },
            );
            w.run_until_time(Time::from_millis(80));
            w.trace().digest()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn restart_revives_a_crashed_process_without_stale_timers() {
        let mut w = beat_world(3);
        w.schedule_crash(ProcessId(1), Time::from_millis(10));
        w.schedule_intervention(
            Time::from_millis(30),
            crate::chaos::Intervention {
                tag: crate::chaos::RESTART,
                payload: Payload::Pid(ProcessId(1)),
                change: crate::chaos::NetChange::Restart(ProcessId(1)),
            },
        );
        w.run_until_time(Time::from_millis(60));
        assert!(!w.is_crashed(ProcessId(1)));
        assert_eq!(w.actor(ProcessId(1)).starts, 2, "on_start ran again");
        // p0 saw beats before the crash and after the restart, with a
        // silent gap in between; the beat cadence stays one per 2 ms
        // (stale pre-crash timers must not double the rate).
        let p1_sends = w.metrics().sent_by(ProcessId(1));
        // ~5 beats before the 10ms crash, ~15 after the 30ms restart.
        assert!(
            (15..=23).contains(&p1_sends),
            "epoch guard should keep the cadence: {p1_sends}"
        );
        assert_eq!(w.trace().observations(chaos::RESTART).count(), 1);
        // The Crashed event is still in the trace — restart-awareness is
        // the checkers' job, not the kernel's.
        assert_eq!(w.trace().crashes().len(), 1);
    }

    #[test]
    fn restart_of_a_live_process_is_a_noop() {
        let mut w = beat_world(4);
        w.schedule_intervention(
            Time::from_millis(10),
            crate::chaos::Intervention {
                tag: crate::chaos::RESTART,
                payload: Payload::Pid(ProcessId(0)),
                change: crate::chaos::NetChange::Restart(ProcessId(0)),
            },
        );
        w.run_until_time(Time::from_millis(30));
        assert_eq!(w.actor(ProcessId(0)).starts, 1, "no spurious re-start");
    }

    #[test]
    fn mangler_duplicates_and_drops_deterministically() {
        let run = |mangle: bool| {
            let mut w = beat_world(9);
            if mangle {
                w.schedule_intervention(
                    Time::ZERO,
                    crate::chaos::Intervention {
                        tag: crate::chaos::MANGLE,
                        payload: Payload::None,
                        change: crate::chaos::NetChange::SetMangler(Some(LinkMangler {
                            drop: 0.25,
                            duplicate: 0.25,
                            reorder: 0.25,
                            skew: SimDuration::from_millis(2),
                        })),
                    },
                );
            }
            w.run_until_time(Time::from_millis(100));
            w
        };
        let mangled = run(true);
        assert!(mangled.metrics().mangled_dropped_total() > 0);
        assert!(mangled.metrics().duplicated_total() > 0);
        assert!(mangled.metrics().reordered_total() > 0);
        // Duplicates surface as extra Delivered events: deliveries plus
        // drops exceed sends (exactly by duplicated minus the handful of
        // messages still in flight at the horizon).
        assert!(
            mangled.metrics().delivered_total() + mangled.metrics().dropped_total()
                > mangled.metrics().sent_total(),
            "delivered {} + dropped {} vs sent {}",
            mangled.metrics().delivered_total(),
            mangled.metrics().dropped_total(),
            mangled.metrics().sent_total(),
        );
        let baseline = run(false);
        assert_eq!(baseline.metrics().mangled_dropped_total(), 0);
        assert_ne!(baseline.trace().digest(), mangled.trace().digest());
    }

    #[test]
    fn unmangle_stops_the_perturbation() {
        let mut w = beat_world(13);
        w.schedule_intervention(
            Time::ZERO,
            crate::chaos::Intervention {
                tag: crate::chaos::MANGLE,
                payload: Payload::None,
                change: crate::chaos::NetChange::SetMangler(Some(LinkMangler {
                    drop: 0.5,
                    duplicate: 0.0,
                    reorder: 0.0,
                    skew: SimDuration(1),
                })),
            },
        );
        w.schedule_intervention(
            Time::from_millis(20),
            crate::chaos::Intervention {
                tag: crate::chaos::UNMANGLE,
                payload: Payload::None,
                change: crate::chaos::NetChange::SetMangler(None),
            },
        );
        w.run_until_time(Time::from_millis(40));
        let dropped_at_20 = w.metrics().mangled_dropped_total();
        assert!(dropped_at_20 > 0);
        w.run_until_time(Time::from_millis(100));
        assert_eq!(
            w.metrics().mangled_dropped_total(),
            dropped_at_20,
            "no mangled drops after the unmangle"
        );
    }

    #[test]
    fn reset_clears_chaos_state() {
        let net = || {
            NetworkConfig::new(2)
                .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)))
        };
        let mut w = beat_world(21);
        w.schedule_intervention(
            Time::ZERO,
            crate::chaos::Intervention {
                tag: crate::chaos::MANGLE,
                payload: Payload::None,
                change: crate::chaos::NetChange::SetMangler(Some(LinkMangler {
                    drop: 0.9,
                    duplicate: 0.0,
                    reorder: 0.0,
                    skew: SimDuration(1),
                })),
            },
        );
        w.run_until_time(Time::from_millis(30));
        assert!(w.metrics().mangled_dropped_total() > 0);
        w.take_results();
        w.reset(net(), 21, |_, _| Beater { seen: 0, starts: 0 });
        w.run_until_time(Time::from_millis(30));
        assert_eq!(
            w.metrics().mangled_dropped_total(),
            0,
            "reset must uninstall the mangler"
        );
        // And the reset run matches a fresh unmangled world byte for byte.
        let mut fresh = beat_world(21);
        fresh.run_until_time(Time::from_millis(30));
        assert_eq!(w.trace().digest(), fresh.trace().digest());
    }

    /// The partitions gauge tracks the high-water mark of open cuts.
    #[test]
    fn partition_gauge_records_high_water_mark() {
        let registry = fd_obs::Registry::new();
        let net = NetworkConfig::new(3)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        let mut w = WorldBuilder::new(net)
            .observe(WorldObs::new(&registry))
            .build(|_, _| Beater { seen: 0, starts: 0 });
        for (at, tag) in [
            (5, chaos::PARTITION),
            (10, chaos::PARTITION),
            (15, chaos::HEAL),
            (20, chaos::HEAL),
        ] {
            w.schedule_intervention(
                Time::from_millis(at),
                Intervention::annotate(tag, Payload::None),
            );
        }
        w.run_until_time(Time::from_millis(30));
        assert_eq!(
            registry.gauge(fd_obs::keys::CHAOS_PARTITIONS_ACTIVE).get(),
            2
        );
    }
}

#[cfg(test)]
mod sched_tests {
    use super::tests::{two_node_world, Pp};
    use super::*;
    use crate::actor::TimerTag;
    use crate::link::LinkModel;
    use crate::sched::CanonicalScheduler;
    use crate::time::SimDuration;

    /// Replays a fixed prefix of choices, then falls back to canonical.
    struct Script {
        choices: Vec<SchedChoice>,
        next: usize,
    }

    impl Script {
        fn new(choices: Vec<SchedChoice>) -> Script {
            Script { choices, next: 0 }
        }
    }

    impl Scheduler for Script {
        fn choose(&mut self, _cp: &ChoicePoint<'_>) -> SchedChoice {
            let c = self
                .choices
                .get(self.next)
                .copied()
                .unwrap_or(SchedChoice::Event(0));
            self.next += 1;
            c
        }
    }

    /// The canonical scheduler must reproduce `run_until_time` byte for
    /// byte — trace digest, metrics, and final clock. This is the
    /// "branch zero is the canonical schedule" anchor of DESIGN.md §3.1.
    #[test]
    fn canonical_scheduler_matches_run_until_time() {
        let until = Time::from_millis(80);
        let mut plain = two_node_world(17);
        plain.run_until_time(until);
        let mut scheduled = two_node_world(17);
        scheduled.run_scheduled_until(until, &mut CanonicalScheduler);
        assert_eq!(plain.trace().digest(), scheduled.trace().digest());
        assert_eq!(
            plain.metrics().events_processed(),
            scheduled.metrics().events_processed()
        );
        assert_eq!(plain.now(), scheduled.now());
    }

    /// State tracking must not perturb the run: a tracked canonical run
    /// has the same trace as an untracked one.
    #[test]
    fn state_tracking_does_not_change_the_run() {
        let net = NetworkConfig::new(2)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        let mut tracked = WorldBuilder::new(net)
            .seed(17)
            .track_state(true)
            .build(|_, _| super::tests::PingPong {
                pings_seen: 0,
                pongs_seen: 0,
            });
        tracked.run_scheduled_until(Time::from_millis(80), &mut CanonicalScheduler);
        let mut plain = two_node_world(17);
        plain.run_until_time(Time::from_millis(80));
        assert_eq!(tracked.trace().digest(), plain.trace().digest());
    }

    /// Drops the first enabled delivery it sees, then runs canonically.
    struct DropFirstDeliver {
        dropped: bool,
    }

    impl Scheduler for DropFirstDeliver {
        fn choose(&mut self, cp: &ChoicePoint<'_>) -> SchedChoice {
            if !self.dropped {
                if let Some(i) = cp.enabled.iter().position(EnabledEvent::is_deliver) {
                    self.dropped = true;
                    return SchedChoice::Drop(i);
                }
            }
            SchedChoice::Event(0)
        }
    }

    /// A forced drop behaves exactly like a link loss: the receiver
    /// never dispatches, the trace records a `Link` drop, metrics count
    /// it.
    #[test]
    fn drop_choice_is_a_link_loss() {
        let mut w = two_node_world(5);
        let mut sched = DropFirstDeliver { dropped: false };
        w.run_scheduled_until(Time::from_millis(10), &mut sched);
        assert!(sched.dropped, "a delivery was enabled and dropped");
        assert!(w.metrics().dropped_total() >= 1);
        let forced = w
            .trace()
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::Dropped {
                        reason: DropReason::Link,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(forced, 1, "exactly one forced drop in the trace");
        // The canonical run delivers strictly more: the dropped ping
        // never arrives, and the reply chain it would have fed dies too.
        let mut canonical = two_node_world(5);
        canonical.run_until_time(Time::from_millis(10));
        assert!(
            canonical.metrics().delivered_total() > w.metrics().delivered_total(),
            "canonical {} vs dropped {}",
            canonical.metrics().delivered_total(),
            w.metrics().delivered_total()
        );
    }

    /// p0 sends one message to each other process on start; everyone
    /// else stays quiet. Gives one same-instant batch of two
    /// independent deliveries (targets p1, p2) to reorder.
    struct Fan;

    impl Actor for Fan {
        type Msg = Pp;
        fn on_start(&mut self, ctx: &mut Context<'_, Pp>) {
            if ctx.me() == ProcessId(0) {
                ctx.send(ProcessId(1), Pp::Ping);
                ctx.send(ProcessId(2), Pp::Ping);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Pp>, _: ProcessId, _: Pp) {}
        fn on_timer(&mut self, _: &mut Context<'_, Pp>, _: TimerTag) {}
    }

    fn fan_world() -> World<Fan> {
        let net = NetworkConfig::new(3)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        WorldBuilder::new(net).track_state(true).build(|_, _| Fan)
    }

    /// Equivalent interleavings — same per-process dispatch orders,
    /// different cross-process order — converge to the same state
    /// digest even though their traces differ. This is the property the
    /// model checker's visited set stands on.
    #[test]
    fn equivalent_interleavings_share_a_state_digest() {
        let until = Time::from_millis(5);
        let mut a = fan_world();
        a.run_scheduled_until(until, &mut Script::new(vec![SchedChoice::Event(0)]));
        let mut b = fan_world();
        b.run_scheduled_until(until, &mut Script::new(vec![SchedChoice::Event(1)]));
        assert_ne!(
            a.trace().digest(),
            b.trace().digest(),
            "the two delivery orders are distinct schedules"
        );
        assert_eq!(
            a.state_digest(),
            b.state_digest(),
            "commuting deliveries must converge"
        );
        // A run that dropped a delivery is NOT equivalent.
        let mut c = fan_world();
        c.run_scheduled_until(until, &mut Script::new(vec![SchedChoice::Drop(0)]));
        assert_ne!(a.state_digest(), c.state_digest());
    }

    /// The digest machinery must be deterministic across identically
    /// scheduled runs (the replay guarantee fd-mc's witnesses rely on).
    #[test]
    fn scheduled_replays_are_byte_identical() {
        let run = |choices: Vec<SchedChoice>| {
            let mut w = fan_world();
            w.run_scheduled_until(Time::from_millis(5), &mut Script::new(choices));
            (w.trace().digest(), w.state_digest())
        };
        let script = vec![SchedChoice::Event(1), SchedChoice::Drop(0)];
        assert_eq!(run(script.clone()), run(script));
    }

    /// Tracked worlds refuse to run over RNG-consuming networks — the
    /// shared net-RNG stream would make digests schedule-dependent.
    #[test]
    #[should_panic(expected = "state tracking requires an RNG-free network")]
    fn tracked_worlds_reject_random_networks() {
        let net = NetworkConfig::new(2).with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(4),
        ));
        let mut w = WorldBuilder::new(net).track_state(true).build(|_, _| Fan);
        w.run_scheduled_until(Time::from_millis(5), &mut CanonicalScheduler);
    }
}

#[cfg(test)]
mod annotate_tests {
    use super::*;
    use crate::actor::{SimMessage, TimerTag};
    use crate::trace::Payload;

    struct Quiet;
    #[derive(Clone, Debug)]
    struct Never;
    impl SimMessage for Never {}
    impl Actor for Quiet {
        type Msg = Never;
        fn on_start(&mut self, _: &mut Context<'_, Never>) {}
        fn on_message(&mut self, _: &mut Context<'_, Never>, _: ProcessId, _: Never) {}
        fn on_timer(&mut self, _: &mut Context<'_, Never>, _: TimerTag) {}
    }

    #[test]
    fn harness_annotations_land_in_the_trace() {
        let mut w = WorldBuilder::new(crate::topology::NetworkConfig::new(1)).build(|_, _| Quiet);
        w.run_until_time(Time::from_millis(10));
        w.annotate("scenario.phase", Payload::U64(2));
        let (trace, _) = w.into_results();
        let (at, _, payload) = trace
            .observations("scenario.phase")
            .next()
            .expect("annotated");
        assert_eq!(at, Time::from_millis(10));
        assert_eq!(payload.as_u64(), Some(2));
    }

    #[test]
    fn annotations_respect_trace_switch() {
        let mut w = WorldBuilder::new(crate::topology::NetworkConfig::new(1))
            .trace_mode(TraceMode::Off)
            .build(|_, _| Quiet);
        w.annotate("x", Payload::None);
        let (trace, _) = w.into_results();
        assert!(trace.is_empty());
    }
}
