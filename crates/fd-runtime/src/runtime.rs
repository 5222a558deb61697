//! The threaded executor.

use fd_sim::{Action, Actor, Context, Payload, ProcessId, Time, TimerTag};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BinaryHeap, HashSet};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Independent probability of dropping each message (fair-lossy
    /// injection). Zero means reliable transport.
    pub loss_probability: f64,
    /// Optional artificial per-message delay, uniform in `[min, max]`.
    /// Delayed messages are parked on a dedicated delayer thread, so
    /// later messages can overtake earlier ones — the asynchronous-model
    /// reading of a real network.
    pub delay: Option<(Duration, Duration)>,
    /// Seed for the loss/randomness streams.
    pub seed: u64,
    /// Optional metrics registry. When set, every actor thread records
    /// per-thread histograms `rt.p<i>.send_ns` (time spent handing a
    /// message to the transport), `rt.p<i>.recv_latency_ns` (send-to-
    /// delivery wall latency, injected delay included), and
    /// `rt.p<i>.timer_drift_ns` (how late a timer fired past its
    /// requested deadline). Instrumentation only reads wall clocks; it
    /// never feeds back into actor behaviour.
    pub obs: Option<Arc<fd_obs::Registry>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            loss_probability: 0.0,
            delay: None,
            seed: 0,
            obs: None,
        }
    }
}

/// Pre-resolved per-thread metric handles (see [`RuntimeConfig::obs`]).
struct RtObs {
    send_ns: Arc<fd_obs::Histogram>,
    recv_latency_ns: Arc<fd_obs::Histogram>,
    timer_drift_ns: Arc<fd_obs::Histogram>,
}

impl RtObs {
    fn new(registry: &fd_obs::Registry, me: ProcessId) -> RtObs {
        let i = me.index();
        RtObs {
            send_ns: registry.histogram(&fd_obs::keys::rt_send_ns(i)),
            recv_latency_ns: registry.histogram(&fd_obs::keys::rt_recv_latency_ns(i)),
            timer_drift_ns: registry.histogram(&fd_obs::keys::rt_timer_drift_ns(i)),
        }
    }
}

fn as_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// An observation recorded by some process (same payloads as the
/// simulator's trace observations).
#[derive(Debug, Clone)]
pub struct RtObservation {
    /// Wall-clock time since runtime start, in microseconds.
    pub at: Time,
    /// The observing process.
    pub pid: ProcessId,
    /// Observation tag.
    pub tag: &'static str,
    /// Structured payload.
    pub payload: Payload,
}

/// A boxed closure injected into an actor thread (`Runtime::interact`).
type InteractFn<A> = Box<dyn FnOnce(&mut A, &mut Context<'_, <A as Actor>::Msg>) + Send>;

enum Event<A: Actor> {
    Deliver {
        from: ProcessId,
        msg: A::Msg,
        /// When the sender handed the message to the transport; receivers
        /// with metrics on derive the send-to-delivery latency from it.
        sent: Instant,
    },
    Interact(InteractFn<A>),
    Crash,
    Shutdown,
}

struct PendingTimer {
    deadline: Instant,
    seq: u64,
    id: u64,
    tag: TimerTag,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for PendingTimer {}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (deadline, seq).
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A queued artificially-delayed delivery.
struct Parked<A: Actor> {
    due: Instant,
    seq: u64,
    to: usize,
    ev: Event<A>,
}

impl<A: Actor> PartialEq for Parked<A> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<A: Actor> Eq for Parked<A> {}
impl<A: Actor> Ord for Parked<A> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}
impl<A: Actor> PartialOrd for Parked<A> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The delayer thread: parks delayed deliveries and forwards them when
/// due. Dropping all `DelayerHandle` senders terminates it.
fn delayer_loop<A>(rx: Receiver<Parked<A>>, peers: Vec<Sender<Event<A>>>)
where
    A: Actor + Send,
    A::Msg: Send,
{
    let mut heap: BinaryHeap<Parked<A>> = BinaryHeap::new();
    loop {
        // Forward everything that is due.
        while let Some(top) = heap.peek() {
            if top.due > Instant::now() {
                break;
            }
            let p = heap.pop().expect("peeked");
            let _ = peers[p.to].send(p.ev);
        }
        let incoming = match heap.peek() {
            Some(top) => {
                let wait = top.due.saturating_duration_since(Instant::now());
                match rx.recv_timeout(wait) {
                    Ok(p) => Some(p),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => None,
                }
            }
            None => rx.recv().ok(),
        };
        match incoming {
            Some(p) => heap.push(p),
            None => {
                // All senders gone: flush what is left and exit.
                while let Some(p) = heap.pop() {
                    let wait = p.due.saturating_duration_since(Instant::now());
                    std::thread::sleep(wait);
                    let _ = peers[p.to].send(p.ev);
                }
                return;
            }
        }
    }
}

/// A running mesh of actor threads.
pub struct Runtime<A: Actor> {
    senders: Vec<Sender<Event<A>>>,
    handles: Vec<JoinHandle<Option<A>>>,
    delayer: Option<JoinHandle<()>>,
    /// Every update is a single `push`, so the log is valid at every
    /// step: a poisoned lock (an actor thread panicked) is recovered,
    /// not propagated, and what the others observed stays readable.
    observations: Arc<Mutex<Vec<RtObservation>>>,
    start: Instant,
    n: usize,
}

impl<A> Runtime<A>
where
    A: Actor + Send,
    A::Msg: Send,
{
    /// Spawn `n` processes, each running `make(pid, n)`.
    pub fn spawn(
        n: usize,
        cfg: RuntimeConfig,
        mut make: impl FnMut(ProcessId, usize) -> A,
    ) -> Runtime<A> {
        let start = Instant::now();
        let observations = Arc::new(Mutex::new(Vec::new()));
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::<Event<A>>();
            senders.push(tx);
            receivers.push(rx);
        }
        // One delayer thread services all processes when delays are on.
        let (delayer, delay_tx) = if cfg.delay.is_some() {
            let (tx, rx) = channel::<Parked<A>>();
            let peers = senders.clone();
            (
                Some(std::thread::spawn(move || delayer_loop(rx, peers))),
                Some(tx),
            )
        } else {
            (None, None)
        };
        let mut handles = Vec::with_capacity(n);
        for (i, rx) in receivers.into_iter().enumerate() {
            let pid = ProcessId(i);
            let actor = make(pid, n);
            let peers = senders.clone();
            let obs = Arc::clone(&observations);
            let cfg = cfg.clone();
            let delay_tx = delay_tx.clone();
            handles.push(std::thread::spawn(move || {
                process_loop(pid, n, actor, rx, peers, obs, start, cfg, delay_tx)
            }));
        }
        Runtime {
            senders,
            handles,
            delayer,
            observations,
            start,
            n,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Run a closure on a live actor (e.g. `propose`). The closure gets a
    /// full [`Context`], so it can send and arm timers.
    pub fn interact(
        &self,
        pid: ProcessId,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>) + Send + 'static,
    ) {
        let _ = self.senders[pid.index()].send(Event::Interact(Box::new(f)));
    }

    /// Crash a process (crash-stop: its thread goes permanently silent).
    pub fn crash(&self, pid: ProcessId) {
        let _ = self.senders[pid.index()].send(Event::Crash);
    }

    /// Sleep the calling thread while the mesh runs.
    pub fn run_for(&self, wall: Duration) {
        std::thread::sleep(wall);
    }

    /// Snapshot of all observations so far.
    pub fn observations(&self) -> Vec<RtObservation> {
        self.observations
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The last observation with `tag` by `pid`, if any.
    pub fn last_observation(&self, pid: ProcessId, tag: &str) -> Option<RtObservation> {
        self.observations
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .rev()
            .find(|o| o.pid == pid && o.tag == tag)
            .cloned()
    }

    /// Elapsed wall time since spawn, as simulator-compatible [`Time`].
    pub fn now(&self) -> Time {
        Time(self.start.elapsed().as_micros() as u64)
    }

    /// Stop every thread and return the final actors (crashed processes
    /// yield `None`).
    pub fn shutdown(self) -> Vec<Option<A>> {
        for tx in &self.senders {
            let _ = tx.send(Event::Shutdown);
        }
        let actors: Vec<Option<A>> = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("actor thread panicked"))
            .collect();
        // Actor threads held the delayer senders; once they are gone, the
        // delayer drains and exits.
        if let Some(d) = self.delayer {
            let _ = d.join();
        }
        actors
    }
}

#[allow(clippy::too_many_arguments)]
fn process_loop<A>(
    me: ProcessId,
    n: usize,
    mut actor: A,
    rx: Receiver<Event<A>>,
    peers: Vec<Sender<Event<A>>>,
    observations: Arc<Mutex<Vec<RtObservation>>>,
    start: Instant,
    cfg: RuntimeConfig,
    delay_tx: Option<Sender<Parked<A>>>,
) -> Option<A>
where
    A: Actor + Send,
    A::Msg: Send,
{
    let mut rng = SmallRng::seed_from_u64(
        cfg.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(me.index() as u64),
    );
    let mut loss_rng =
        SmallRng::seed_from_u64(cfg.seed ^ (me.index() as u64).wrapping_mul(0xD134_2543_DE82_EF95));
    let mut actions: Vec<Action<A::Msg>> = Vec::new();
    let mut next_timer_id: u64 = 0;
    let mut timers: BinaryHeap<PendingTimer> = BinaryHeap::new();
    let mut timer_seq: u64 = 0;
    let mut cancelled: HashSet<u64> = HashSet::new();
    let mut crashed = false;
    let mut delay_seq: u64 = 0;

    let now = |start: Instant| Time(start.elapsed().as_micros() as u64);
    let obs = cfg.obs.as_ref().map(|registry| RtObs::new(registry, me));

    macro_rules! run_callback {
        ($cb:expr) => {{
            {
                let mut ctx = Context::for_executor(
                    me,
                    n,
                    now(start),
                    &mut rng,
                    &mut actions,
                    &mut next_timer_id,
                );
                $cb(&mut ctx);
            }
            for action in actions.drain(..) {
                match action {
                    Action::Send { to, msg } => {
                        if cfg.loss_probability > 0.0
                            && loss_rng.gen_bool(cfg.loss_probability.clamp(0.0, 1.0))
                        {
                            continue;
                        }
                        let send_started = Instant::now();
                        let ev = Event::Deliver {
                            from: me,
                            msg,
                            sent: send_started,
                        };
                        match (&delay_tx, cfg.delay) {
                            (Some(tx), Some((min, max))) => {
                                let span = max.saturating_sub(min);
                                let extra = if span.is_zero() {
                                    Duration::ZERO
                                } else {
                                    Duration::from_micros(
                                        loss_rng.gen_range(0..=span.as_micros() as u64),
                                    )
                                };
                                delay_seq += 1;
                                let _ = tx.send(Parked {
                                    due: send_started + min + extra,
                                    seq: delay_seq,
                                    to: to.index(),
                                    ev,
                                });
                            }
                            _ => {
                                let _ = peers[to.index()].send(ev);
                            }
                        }
                        if let Some(o) = &obs {
                            o.send_ns.record(as_ns(send_started.elapsed()));
                        }
                    }
                    Action::Broadcast { include_self, msg } => {
                        // Expand in identity order with the same per-destination
                        // transport, delay, and loss sampling as `Send`, so a
                        // broadcast is indistinguishable on the wire from the
                        // per-peer sends it replaces.
                        for dest in 0..n {
                            if dest == me.index() && !include_self {
                                continue;
                            }
                            if cfg.loss_probability > 0.0
                                && loss_rng.gen_bool(cfg.loss_probability.clamp(0.0, 1.0))
                            {
                                continue;
                            }
                            let send_started = Instant::now();
                            let ev = Event::Deliver {
                                from: me,
                                msg: msg.clone(),
                                sent: send_started,
                            };
                            match (&delay_tx, cfg.delay) {
                                (Some(tx), Some((min, max))) => {
                                    let span = max.saturating_sub(min);
                                    let extra = if span.is_zero() {
                                        Duration::ZERO
                                    } else {
                                        Duration::from_micros(
                                            loss_rng.gen_range(0..=span.as_micros() as u64),
                                        )
                                    };
                                    delay_seq += 1;
                                    let _ = tx.send(Parked {
                                        due: send_started + min + extra,
                                        seq: delay_seq,
                                        to: dest,
                                        ev,
                                    });
                                }
                                _ => {
                                    let _ = peers[dest].send(ev);
                                }
                            }
                            if let Some(o) = &obs {
                                o.send_ns.record(as_ns(send_started.elapsed()));
                            }
                        }
                    }
                    Action::SetTimer { id, after, tag } => {
                        timer_seq += 1;
                        timers.push(PendingTimer {
                            deadline: Instant::now() + Duration::from_micros(after.ticks()),
                            seq: timer_seq,
                            id: timer_id_raw(id),
                            tag,
                        });
                    }
                    Action::CancelTimer { id } => {
                        cancelled.insert(timer_id_raw(id));
                    }
                    Action::Observe { tag, payload } => {
                        observations
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(RtObservation {
                                at: now(start),
                                pid: me,
                                tag,
                                payload,
                            });
                    }
                }
            }
        }};
    }

    run_callback!(|ctx: &mut Context<'_, A::Msg>| actor.on_start(ctx));

    loop {
        // Fire all due timers first.
        while let Some(t) = timers.peek() {
            if t.deadline > Instant::now() {
                break;
            }
            let t = timers.pop().expect("peeked");
            if cancelled.remove(&t.id) || crashed {
                continue;
            }
            if let Some(o) = &obs {
                o.timer_drift_ns
                    .record(as_ns(Instant::now().saturating_duration_since(t.deadline)));
            }
            let tag = t.tag;
            run_callback!(|ctx: &mut Context<'_, A::Msg>| actor.on_timer(ctx, tag));
        }

        let event = match timers.peek() {
            Some(t) => {
                let wait = t.deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(wait) {
                    Ok(ev) => Some(ev),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => None,
                }
            }
            None => rx.recv().ok(),
        };

        match event {
            Some(Event::Deliver { from, msg, sent }) => {
                if let Some(o) = &obs {
                    o.recv_latency_ns.record(as_ns(sent.elapsed()));
                }
                if !crashed {
                    run_callback!(|ctx: &mut Context<'_, A::Msg>| actor.on_message(ctx, from, msg));
                }
            }
            Some(Event::Interact(f)) => {
                if !crashed {
                    run_callback!(|ctx: &mut Context<'_, A::Msg>| f(&mut actor, ctx));
                }
            }
            Some(Event::Crash) => {
                crashed = true;
                timers.clear();
            }
            Some(Event::Shutdown) | None => break,
        }
    }
    if crashed {
        None
    } else {
        Some(actor)
    }
}

fn timer_id_raw(id: fd_sim::TimerId) -> u64 {
    id.raw()
}

/// Test-only retry for wall-clock assertions.
///
/// Real-time bounds in this module are calibrated for an otherwise idle
/// core; a loaded CI host can preempt any thread long enough to stretch a
/// single measurement past any reasonable tolerance. So the timing tests
/// (a) use bounds several times wider than the idle-core expectation and
/// (b) rerun the whole experiment up to `attempts` times, passing if any
/// one attempt lands inside the documented bound. Systematic bugs (a
/// delay that never holds messages back, a channel that takes seconds)
/// still fail every attempt.
#[cfg(test)]
fn eventually(attempts: usize, mut experiment: impl FnMut() -> Result<(), String>) {
    let mut last = String::new();
    for _ in 0..attempts {
        match experiment() {
            Ok(()) => return,
            Err(e) => last = e,
        }
    }
    panic!("failed {attempts} attempts; last: {last}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::{SimDuration, SimMessage};

    /// Trivial gossip actor for smoke tests.
    struct Counter {
        heard: u64,
    }
    #[derive(Clone, Debug)]
    struct Tick;
    impl SimMessage for Tick {
        fn kind(&self) -> &'static str {
            "tick"
        }
    }
    impl Actor for Counter {
        type Msg = Tick;
        fn on_start(&mut self, ctx: &mut Context<'_, Tick>) {
            ctx.set_timer(SimDuration::from_millis(5), TimerTag::new(0, 0, 0));
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Tick>, _from: ProcessId, _m: Tick) {
            self.heard += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Tick>, _t: TimerTag) {
            ctx.send_to_others(Tick);
            ctx.set_timer(SimDuration::from_millis(5), TimerTag::new(0, 0, 0));
        }
    }

    #[test]
    fn threads_exchange_messages_and_timers_fire() {
        // Idle-core expectation: ~24 ticks × 2 peers in 120ms at a 5ms
        // period. Require a quarter of that so a loaded host passes, and
        // retry — see `eventually`.
        eventually(3, || {
            let rt = Runtime::spawn(3, RuntimeConfig::default(), |_, _| Counter { heard: 0 });
            rt.run_for(Duration::from_millis(120));
            let actors = rt.shutdown();
            for a in &actors {
                let heard = a.as_ref().unwrap().heard;
                if heard < 10 {
                    return Err(format!("heard only {heard} ticks in 120ms at 5ms period"));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn metrics_record_send_recv_and_timer_drift() {
        let registry = Arc::new(fd_obs::Registry::new());
        let cfg = RuntimeConfig {
            obs: Some(Arc::clone(&registry)),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(2, cfg, |_, _| Counter { heard: 0 });
        rt.run_for(Duration::from_millis(60));
        rt.shutdown();
        for pid in 0..2 {
            let send = registry.histogram(&format!("rt.p{pid}.send_ns"));
            let recv = registry.histogram(&format!("rt.p{pid}.recv_latency_ns"));
            let drift = registry.histogram(&format!("rt.p{pid}.timer_drift_ns"));
            assert!(send.count() > 0, "p{pid} sent ticks");
            assert!(recv.count() > 0, "p{pid} received ticks");
            assert!(drift.count() > 0, "p{pid} timers fired");
            // Latency/drift are measured in nanoseconds of real time; a
            // 5ms-period gossip cannot plausibly show >60s values, which
            // would indicate clock arithmetic gone wrong.
            assert!(recv.max() < 60_000_000_000, "recv {}ns", recv.max());
            assert!(drift.max() < 60_000_000_000, "drift {}ns", drift.max());
        }
    }

    #[test]
    fn crash_makes_a_process_silent() {
        let rt = Runtime::spawn(2, RuntimeConfig::default(), |_, _| Counter { heard: 0 });
        rt.run_for(Duration::from_millis(50));
        rt.crash(ProcessId(1));
        rt.run_for(Duration::from_millis(30));
        let heard_mid = rt.observations().len(); // no observations in this actor; just exercise the API
        let _ = heard_mid;
        let actors = rt.shutdown();
        assert!(actors[0].is_some());
        assert!(actors[1].is_none(), "crashed actor must be dropped");
    }

    #[test]
    fn interact_reaches_the_actor() {
        let rt = Runtime::spawn(2, RuntimeConfig::default(), |_, _| Counter { heard: 0 });
        rt.interact(ProcessId(0), |_a, ctx| ctx.send(ProcessId(1), Tick));
        rt.run_for(Duration::from_millis(30));
        let actors = rt.shutdown();
        assert!(actors[1].as_ref().unwrap().heard >= 1);
    }

    #[test]
    fn loss_injection_drops_messages() {
        let lossless = Runtime::spawn(2, RuntimeConfig::default(), |_, _| Counter { heard: 0 });
        lossless.run_for(Duration::from_millis(100));
        let base: u64 = lossless
            .shutdown()
            .iter()
            .map(|a| a.as_ref().unwrap().heard)
            .sum();

        let lossy = Runtime::spawn(
            2,
            RuntimeConfig {
                loss_probability: 0.9,
                seed: 7,
                ..RuntimeConfig::default()
            },
            |_, _| Counter { heard: 0 },
        );
        lossy.run_for(Duration::from_millis(100));
        let dropped: u64 = lossy
            .shutdown()
            .iter()
            .map(|a| a.as_ref().unwrap().heard)
            .sum();
        assert!(
            dropped * 3 < base,
            "90% loss should cut throughput hard: lossless={base} lossy={dropped}"
        );
    }

    #[test]
    fn timer_id_raw_roundtrip() {
        // Construct TimerIds through a context to check the debug parse.
        let mut rng = SmallRng::seed_from_u64(0);
        let mut actions: Vec<Action<Tick>> = Vec::new();
        let mut next = 41;
        let mut ctx =
            Context::for_executor(ProcessId(0), 1, Time(0), &mut rng, &mut actions, &mut next);
        let id = ctx.set_timer(SimDuration::from_millis(1), TimerTag::new(0, 0, 0));
        assert_eq!(timer_id_raw(id), 41);
    }
}

#[cfg(test)]
mod delay_tests {
    use super::*;
    use fd_sim::{Payload, SimMessage};

    /// Observes the arrival time of the first message it receives.
    struct Stamp;
    #[derive(Clone, Debug)]
    struct Ping;
    impl SimMessage for Ping {
        fn kind(&self) -> &'static str {
            "ping"
        }
    }
    impl Actor for Stamp {
        type Msg = Ping;
        fn on_start(&mut self, _ctx: &mut Context<'_, Ping>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _from: ProcessId, _m: Ping) {
            ctx.observe("got", Payload::None);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Ping>, _t: TimerTag) {}
    }

    #[test]
    fn injected_delay_holds_messages_back() {
        // Idle-core expectation: 40–60ms of injected latency. Accept
        // 30–400ms (scheduling can only add delay, so the loose upper
        // bound stays sound) and retry — see `eventually`.
        super::eventually(3, || {
            let cfg = RuntimeConfig {
                delay: Some((Duration::from_millis(40), Duration::from_millis(60))),
                ..RuntimeConfig::default()
            };
            let rt = Runtime::spawn(2, cfg, |_, _| Stamp);
            let sent_at = rt.now();
            rt.interact(ProcessId(0), |_a, ctx| ctx.send(ProcessId(1), Ping));
            rt.run_for(Duration::from_millis(500));
            let obs = rt.last_observation(ProcessId(1), "got");
            rt.shutdown();
            let Some(obs) = obs else {
                return Err("message never delivered".into());
            };
            let latency_ms = (obs.at.ticks() - sent_at.ticks()) / 1000;
            if (30..400).contains(&latency_ms) {
                Ok(())
            } else {
                Err(format!(
                    "expected ~40-60ms injected latency, measured {latency_ms}ms"
                ))
            }
        });
    }

    #[test]
    fn zero_delay_config_is_fast() {
        // Idle-core expectation: well under a millisecond for a direct
        // channel send. Accept up to 50ms and retry — see `eventually`.
        super::eventually(3, || {
            let rt = Runtime::spawn(2, RuntimeConfig::default(), |_, _| Stamp);
            let sent_at = rt.now();
            rt.interact(ProcessId(0), |_a, ctx| ctx.send(ProcessId(1), Ping));
            rt.run_for(Duration::from_millis(100));
            let obs = rt.last_observation(ProcessId(1), "got");
            rt.shutdown();
            let Some(obs) = obs else {
                return Err("message never delivered".into());
            };
            let latency_ms = (obs.at.ticks() - sent_at.ticks()) / 1000;
            if latency_ms < 50 {
                Ok(())
            } else {
                Err(format!("direct channel delivery took {latency_ms}ms"))
            }
        });
    }
}

/// Convert recorded [`RtObservation`]s into an [`fd_sim::Trace`] of
/// observation events (plus crash markers for the given crashed set), so
/// the property checkers in `fd-core` — class membership, Ω, consensus
/// properties — run unchanged on real-thread executions.
pub fn observations_to_trace(
    observations: &[RtObservation],
    crashed: &[(ProcessId, Time)],
) -> fd_sim::Trace {
    use fd_sim::{TraceEvent, TraceKind};
    let mut events: Vec<TraceEvent> = observations
        .iter()
        .map(|o| TraceEvent {
            at: o.at,
            kind: TraceKind::Observation {
                pid: o.pid,
                tag: o.tag,
                payload: o.payload.clone(),
            },
        })
        .collect();
    events.extend(crashed.iter().map(|&(pid, at)| TraceEvent {
        at,
        kind: TraceKind::Crashed { pid },
    }));
    events.sort_by_key(|e| e.at);
    fd_sim::Trace::from_events(events)
}
