//! The replicated KV node: consensus log + durability + catch-up.
//!
//! A [`KvReplica`] is a [`Stack`]: a ◇C detector, and over it [`Kv`] —
//! an [`fd_consensus::Log`], the same module a `MultiNode` runs, and
//! the serving stack the paper's §1 motivates but never builds. The log
//! owns everything about a slot: it announces, joins, proposes in and
//! re-checks slots, R-broadcasts and learns their decisions, and rules
//! where this replica votes. The KV layer keeps only what is its own,
//! and plugs into the log's drive through [`LogHost`]'s three hooks: a
//! slot is joined (the durable `Join` marker), a decision is learned
//! (it lands in `entries`), deliveries have settled (apply).
//!
//! * **Apply pipeline.** A slot decides a *batch* of commands (see
//!   [`fd_consensus::multi`]). Decisions land in `entries` and are
//!   applied to the [`KvStore`] strictly in slot order, command by
//!   command; every applied slot appends one CRC-framed record per
//!   command plus a closing seal to the WAL and folds into a running
//!   digest (`kv.apply` observations carry it, once per slot, so a
//!   cross-replica state divergence is visible in the trace).
//! * **Group-commit durability.** WAL appends are volatile until the
//!   fsync timer fires ([`StorageConfig::fsync_interval`] after the
//!   first dirty write, plus [`StorageConfig::fsync_cost`]); an op
//!   submitted here is acknowledged (`kv.commit`) only once its slot's
//!   records are durable, so commit latency includes the consensus
//!   round-trips *and* the disk — and one fsync acknowledges every op
//!   of every batch applied since the last.
//! * **Snapshots + compaction.** Every [`KvConfig::snapshot_every`]
//!   applied slots the replica writes an atomic snapshot and rewrites
//!   the WAL to just the in-flight `Join` markers, bounding recovery
//!   replay.
//! * **Crash recovery + catch-up.** A warm restart with `starts > 0` is
//!   treated as a real crash: volatile state is discarded, the disks
//!   get crash-truncation applied (a seed-deterministic torn tail), the
//!   store is rebuilt from snapshot + WAL replay, and the replica
//!   broadcasts `SyncReq` until a peer's snapshot/log tail brings it to
//!   the frontier (`kv.sync_done`). Meanwhile the log is catching up and
//!   votes nowhere. Slots it may have voted in before the crash (WAL
//!   `Join` records) are quarantined in the log — it never votes in them
//!   again, so a recovered replica cannot equivocate.
//! * **Gap repair.** Over lossy links a watchdog re-requests decisions
//!   the apply pipeline is missing and has the log re-announce and
//!   retransmit every slot still running here ([`Log::retransmit`]).

use crate::command::{decode, uid_of};
use crate::store::{fnv_step, KvStore, DIGEST_SEED};
use crate::wal::{self, WalRecord};
use fd_consensus::multi::{commands, Body};
use fd_consensus::{Log, LogHost, LogMsg, MultiEc, SlotDecide};
use fd_core::{EventuallyConsistentOracle, Over, Stack, SubCtx};
use fd_sim::{Payload, ProcessId, SimDisk, SimMessage, StorageConfig, Time, TimerTag};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Timer namespace of the KV layer (distinct from every detector's and
/// the broadcast module's).
pub const KV_NS: u32 = 16;

const TIMER_ARRIVAL: u32 = 1;
const TIMER_FSYNC: u32 = 2;
const TIMER_SYNC_RETRY: u32 = 3;
const TIMER_REPAIR: u32 = 4;

/// Observation tags of the KV layer.
pub mod obs {
    /// An op submitted here was proposed in a slot an adopted snapshot
    /// covers, and its decision was never observed locally: the ack is
    /// abandoned (the op may or may not have won its slot; the store
    /// image hides which). `U64Pair(uid, proposed_slot)`.
    pub use fd_obs::keys::KV_ABANDON as ABANDON;
    /// A slot was applied to the store: `U64Pair(slot, digest)` where
    /// `digest` is the running apply digest *after* this slot.
    pub use fd_obs::keys::KV_APPLY as APPLY;
    /// An op submitted here is decided *and* durable: `U64Pair(uid, slot)`.
    pub use fd_obs::keys::KV_COMMIT as COMMIT;
    /// Crash recovery finished its local replay:
    /// `U64Pair(slots_replayed_from_the_wal, applied_after_replay)`.
    pub use fd_obs::keys::KV_RECOVERY as RECOVERY;
    /// A client op arrived at its replica: `U64Pair(uid, cmd)`.
    pub use fd_obs::keys::KV_SUBMIT as SUBMIT;
    /// Catch-up reached a peer's frontier:
    /// `U64Pair(applied, entries_fetched)`.
    pub use fd_obs::keys::KV_SYNC_DONE as SYNC_DONE;
}

/// Tuning knobs of one replica's serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct KvConfig {
    /// Disk timing model.
    pub storage: StorageConfig,
    /// Applied slots between snapshots (bounds WAL replay on recovery).
    pub snapshot_every: u64,
    /// Re-broadcast cadence of `SyncReq` while catching up.
    pub sync_retry: fd_sim::SimDuration,
}

impl Default for KvConfig {
    fn default() -> KvConfig {
        KvConfig {
            storage: StorageConfig::default(),
            snapshot_every: 8,
            sync_retry: fd_sim::SimDuration::from_millis(100),
        }
    }
}

/// What a [`Kv`] exchanges with its peers.
#[derive(Debug, Clone)]
pub enum KvMsg {
    /// The replicated log's traffic: decision broadcasts, slot-tagged
    /// consensus messages, slot announcements.
    Log(LogMsg),
    /// A recovering replica asks for the log from `from_slot` on.
    SyncReq {
        /// First slot the requester is missing.
        from_slot: u64,
    },
    /// Catch-up payload: an optional snapshot image, then the decided
    /// log tail, then the responder's frontier.
    SyncResp {
        /// Snapshot bytes, when `from_slot` predates the responder's
        /// retained log.
        snap: Option<Vec<u8>>,
        /// Contiguous decided `(slot, batch name, body)` tail.
        entries: Vec<(u64, u64, Body)>,
        /// The responder's applied frontier (first slot it has *not*
        /// applied).
        frontier: u64,
        /// Whether the responder had itself finished catch-up when it
        /// answered. Entries and snapshots are decided data either way,
        /// but only an authoritative `frontier` may end the requester's
        /// catch-up — two concurrently recovering replicas answering
        /// each other must not talk one another out of syncing.
        authoritative: bool,
    },
}

impl SimMessage for KvMsg {
    fn kind(&self) -> &'static str {
        match self {
            KvMsg::Log(m) => m.kind(),
            KvMsg::SyncReq { .. } => fd_obs::keys::KV_SYNC_REQ,
            KvMsg::SyncResp { .. } => fd_obs::keys::KV_SYNC_RESP,
        }
    }
    fn round(&self) -> Option<u64> {
        match self {
            KvMsg::Log(m) => m.round(),
            KvMsg::SyncReq { .. } | KvMsg::SyncResp { .. } => None,
        }
    }
}

/// One replica of the KV service: a ◇C detector with a [`Kv`] over it.
/// Build it with `Stack::new(fd, Kv::new(..))`.
pub type KvReplica<D> = Stack<D, Kv>;

/// The serving stack over a detector (see the module doc).
pub struct Kv {
    /// The replicated log, with its recovery state (catching up,
    /// quarantined slots).
    log: Log,
    /// Store, WAL, group commit, snapshots: what the log's hooks reach.
    svc: Service,
    /// This replica's open-loop arrival schedule: `(at, encoded cmd)`,
    /// armed as timers at start (and re-armed for the future on
    /// recovery).
    schedule: Vec<(Time, u64)>,
    /// While catching up: latest *non-authoritative* frontier claim per
    /// responding peer. If every peer is itself recovering, catch-up
    /// ends once all of them have answered and none is ahead — the
    /// escape hatch that keeps a whole-cluster restart live.
    sync_claims: BTreeMap<ProcessId, u64>,
    /// Log entries fetched through catch-up (reporting).
    fetched: u64,
    /// `on_start` invocations; > 0 means warm restart = crash recovery.
    starts: u32,
}

/// The KV layer's own state beside the log, and the [`LogHost`] the
/// log drives it through.
struct Service {
    cfg: KvConfig,

    // --- volatile service state (lost on crash) ---
    store: KvStore,
    /// Decided batches by slot, `(name, body)`: the apply source and the
    /// sync-serving window. Pruned below the snapshot point at
    /// compaction.
    entries: BTreeMap<u64, (u64, Body)>,
    /// First unapplied slot (slots `[0, applied)` are in the store).
    applied: u64,
    /// Running apply digest after slot `applied - 1`.
    digest: u64,
    /// Slots this replica has sent consensus messages in (WAL-backed).
    joined: BTreeSet<u64>,
    /// uids submitted here and not yet decided.
    submitted: BTreeSet<u64>,
    /// Decided own ops awaiting durability: `(uid, slot)`.
    unacked: Vec<(u64, u64)>,
    /// Whether the group-commit timer is armed.
    fsync_armed: bool,
    /// Whether the gap-repair timer is armed.
    repair_armed: bool,

    // --- durable state (survives crashes, modulo torn tails) ---
    wal_disk: SimDisk,
    snap_disk: SimDisk,
    /// Applied frontier of the last durable snapshot.
    snap_applied: u64,
}

impl LogHost for Service {
    /// Durable participation marker *before* the first message of the
    /// slot leaves (sends are queued actions, applied after this
    /// callback returns, so the fsync strictly precedes them).
    fn joined(&mut self, slot: u64) {
        if self.joined.insert(slot) {
            wal::append(&mut self.wal_disk, WalRecord::Join(slot));
            self.wal_disk.fsync();
        }
    }

    /// Queue the decision for apply (the multiplexer has already
    /// re-queued a losing batch of ours).
    fn learned(&mut self, (slot, name, _, body): SlotDecide) {
        if slot >= self.applied {
            self.entries.insert(slot, (name, body));
        }
    }

    fn settled<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, LogMsg>, log: &mut Log) {
        self.try_apply(ctx, log);
    }
}

impl Service {
    /// Apply every contiguously decided slot, WAL-logging each, then
    /// snapshot if due.
    fn try_apply<N: SimMessage, M>(&mut self, ctx: &mut SubCtx<'_, '_, N, M>, log: &mut Log) {
        let mut progressed = false;
        while let Some((name, body)) = self.entries.get(&self.applied).cloned() {
            let slot = self.applied;
            for &cmd in commands(&body) {
                wal::append(&mut self.wal_disk, WalRecord::Apply(slot, cmd));
                let uid = uid_of(cmd);
                if self.submitted.remove(&uid) {
                    self.unacked.push((uid, slot));
                }
            }
            wal::append(&mut self.wal_disk, WalRecord::Seal(slot, name));
            self.apply_to_state(slot, commands(&body));
            ctx.observe(obs::APPLY, Payload::U64Pair(slot, self.digest));
            progressed = true;
        }
        if progressed {
            self.arm_fsync(ctx);
            if self.applied - self.snap_applied >= self.cfg.snapshot_every {
                self.take_snapshot(log);
            }
        }
        self.arm_repair(ctx, log);
    }

    /// Fold `slot` and its batch, command by command, into the store
    /// and the digest chain and advance the cursor — shared by live
    /// apply and recovery replay.
    fn apply_to_state(&mut self, slot: u64, batch: &[u64]) {
        self.digest = fnv_step(self.digest, slot);
        for &cmd in batch {
            self.digest = fnv_step(self.digest, cmd);
            if let Some((_, op)) = decode(cmd) {
                let result = self.store.apply(op);
                self.digest = fnv_step(self.digest, result as u64);
            }
        }
        self.applied = slot + 1;
    }

    fn arm_fsync<N: SimMessage, M>(&mut self, ctx: &mut SubCtx<'_, '_, N, M>) {
        if self.fsync_armed || !self.wal_disk.dirty() {
            return;
        }
        self.fsync_armed = true;
        let after = self.cfg.storage.fsync_interval + self.cfg.storage.fsync_cost;
        ctx.set_timer(after, TIMER_FSYNC, 0);
    }

    fn on_fsync<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, KvMsg>) {
        self.fsync_armed = false;
        self.wal_disk.fsync();
        for (uid, slot) in std::mem::take(&mut self.unacked) {
            ctx.observe(obs::COMMIT, Payload::U64Pair(uid, slot));
        }
        // Appends may have landed after the timer was armed.
        self.arm_fsync(ctx);
    }

    /// Write an atomic snapshot and compact the WAL down to the
    /// in-flight `Join` markers.
    fn take_snapshot(&mut self, log: &mut Log) {
        let image = self.store.encode_snapshot(self.applied, self.digest);
        self.snap_disk.replace(image);
        self.snap_disk.fsync();
        self.snap_applied = self.applied;
        // Flush data records (acks still wait for the group-commit
        // timer), then rewrite the WAL.
        self.wal_disk.fsync();
        self.compact(log);
    }

    /// Forget the entries, `Join` markers and quarantine of slots below
    /// the applied frontier, and rewrite the WAL to the markers that
    /// remain.
    fn compact(&mut self, log: &mut Log) {
        let applied = self.applied;
        self.entries.retain(|&s, _| s >= applied);
        self.joined.retain(|&s| s >= applied);
        log.quarantined.retain(|&s| s >= applied);
        let keep: Vec<WalRecord> = self.joined.iter().map(|&s| WalRecord::Join(s)).collect();
        self.wal_disk.replace(wal::encode_log(&keep));
        self.wal_disk.fsync();
    }

    /// A decision above the apply cursor with no entry *at* the cursor
    /// means some slot's decision broadcast was lost (e.g. during a
    /// partition) — the apply pipeline is stalled on a hole.
    fn has_gap(&self) -> bool {
        self.entries
            .keys()
            .next_back()
            .is_some_and(|&max| max >= self.applied)
    }

    /// Arm the repair watchdog while the apply pipeline is stalled on a
    /// hole or a slot this replica votes in is still running — the ones
    /// a lost message could have wedged.
    fn arm_repair<N: SimMessage, M>(&mut self, ctx: &mut SubCtx<'_, '_, N, M>, log: &Log) {
        if log.catching_up
            || self.repair_armed
            || (!self.has_gap() && log.voting().next().is_none())
        {
            return;
        }
        self.repair_armed = true;
        ctx.set_timer(self.cfg.sync_retry, TIMER_REPAIR, 0);
    }
}

impl Kv {
    /// Assemble the module with its per-seed arrival schedule.
    pub fn new(me: ProcessId, n: usize, cfg: KvConfig, schedule: Vec<(Time, u64)>) -> Self {
        Kv {
            log: Log::new(me, MultiEc::new(me, n)),
            svc: Service {
                cfg,
                store: KvStore::new(),
                entries: BTreeMap::new(),
                applied: 0,
                digest: DIGEST_SEED,
                joined: BTreeSet::new(),
                submitted: BTreeSet::new(),
                unacked: Vec::new(),
                fsync_armed: false,
                repair_armed: false,
                wal_disk: SimDisk::new(),
                snap_disk: SimDisk::new(),
                snap_applied: 0,
            },
            schedule,
            sync_claims: BTreeMap::new(),
            fetched: 0,
            starts: 0,
        }
    }

    /// Run `f` on the log, with the service as its host, under a view
    /// of `ctx` that keeps the KV timer namespace for the hooks.
    fn with_log<N: SimMessage, R>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, KvMsg>,
        f: impl FnOnce(&mut Log, &mut SubCtx<'_, '_, N, LogMsg>, &mut Service) -> R,
    ) -> R {
        let Kv { log, svc, .. } = self;
        ctx.scoped(KvMsg::Log, KV_NS, |sub| f(log, sub, svc))
    }

    fn submit<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, KvMsg>, cmd: u64) {
        let uid = uid_of(cmd);
        self.svc.submitted.insert(uid);
        ctx.observe(obs::SUBMIT, Payload::U64Pair(uid, cmd));
        self.log.multi.push_pending(cmd);
        self.with_log(ctx, |log, sub, svc| log.drive(sub, svc));
    }

    // ---- catch-up ----------------------------------------------------

    /// If `slot` is resolved here — decided in this replica's log, or
    /// below its base (decided-elsewhere, compacted into an adopted
    /// snapshot) — answer `from` with the decision (as a `SyncResp`)
    /// and report `true`. `SyncResp` never generates consensus traffic,
    /// so this cannot loop.
    fn reply_if_decided<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, KvMsg>,
        from: ProcessId,
        slot: u64,
    ) -> bool {
        if let Some((name, _round)) = self.log.multi.decided(slot) {
            ctx.send(
                from,
                KvMsg::SyncResp {
                    snap: None,
                    entries: vec![(slot, name, self.log.multi.body(slot, name))],
                    frontier: self.svc.applied,
                    authoritative: !self.log.catching_up,
                },
            );
            return true;
        }
        if slot < self.log.multi.base() {
            // The individual decision is gone (snapshot catch-up raised
            // the base past it), but the slot is covered by durable
            // state: ship snapshot + tail instead of ever routing
            // consensus traffic into a fresh instance for it.
            self.serve_sync(ctx, from, slot);
            return true;
        }
        false
    }

    /// The liveness watchdog over lossy links: re-request decisions the
    /// apply pipeline is missing, and have the log re-announce and
    /// retransmit every slot still running here.
    fn on_repair<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, KvMsg>) {
        self.svc.repair_armed = false;
        if self.log.catching_up {
            return;
        }
        if self.svc.has_gap() {
            ctx.send_to_others(KvMsg::SyncReq {
                from_slot: self.svc.applied,
            });
        }
        self.with_log(ctx, |log, sub, _| log.retransmit(sub));
        self.svc.arm_repair(ctx, &self.log);
    }

    fn serve_sync<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, KvMsg>,
        from: ProcessId,
        from_slot: u64,
    ) {
        let svc = &self.svc;
        let lowest_retained = svc.entries.keys().next().copied().unwrap_or(svc.applied);
        let (snap, tail_from) = if from_slot < lowest_retained && svc.snap_applied > from_slot {
            // The requester predates our retained log: ship the
            // snapshot, then the tail from its frontier on.
            (Some(svc.snap_disk.durable().to_vec()), svc.snap_applied)
        } else {
            (None, from_slot)
        };
        let mut entries = Vec::new();
        let mut slot = tail_from;
        while let Some((name, body)) = svc.entries.get(&slot) {
            if slot >= svc.applied {
                break; // only ship the applied (stable) prefix
            }
            entries.push((slot, *name, body.clone()));
            slot += 1;
        }
        ctx.send(
            from,
            KvMsg::SyncResp {
                snap,
                entries,
                frontier: svc.applied,
                authoritative: !self.log.catching_up,
            },
        );
    }

    /// Fast-forward to a peer's snapshot `bytes` if it is ahead of the
    /// apply cursor.
    fn adopt_snapshot<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, KvMsg>,
        bytes: Vec<u8>,
    ) {
        let Some((store, applied, digest)) = KvStore::decode_snapshot(&bytes) else {
            return;
        };
        let Kv { log, svc, .. } = self;
        if applied <= svc.applied {
            return;
        }
        // Persist the learned snapshot, then fast-forward.
        svc.snap_disk.replace(bytes);
        svc.snap_disk.fsync();
        svc.snap_applied = applied;
        svc.store = store;
        svc.applied = applied;
        svc.digest = digest;
        log.multi.raise_base(applied);
        // The adopted snapshot is durable, which is exactly what
        // decided-and-applied ops were waiting on: ack them now instead
        // of leaving them to a group-commit fsync of WAL records this
        // rewrite discards.
        for (uid, slot) in std::mem::take(&mut svc.unacked) {
            ctx.observe(obs::COMMIT, Payload::U64Pair(uid, slot));
        }
        // Likewise own ops in slots decided here but never applied —
        // stuck above a hole the snapshot now covers. Their batch is in
        // the image.
        for (&slot, (_, body)) in svc.entries.range(..applied) {
            for &cmd in commands(body) {
                if svc.submitted.remove(&uid_of(cmd)) {
                    ctx.observe(obs::COMMIT, Payload::U64Pair(uid_of(cmd), slot));
                }
            }
        }
        // Own batches proposed in slots the snapshot covers whose
        // decisions never arrived: the store image hides whether they
        // won or lost. Re-proposing risks a double apply, so drop each
        // op's ack with an explicit trace record (at-most-once, visibly).
        for &slot in svc.joined.range(..applied) {
            if log.multi.decided(slot).is_some() {
                continue;
            }
            let Some(name) = log.multi.proposed_in(slot) else {
                continue;
            };
            for &cmd in commands(&log.multi.body(slot, name)) {
                if svc.submitted.remove(&uid_of(cmd)) {
                    ctx.observe(obs::ABANDON, Payload::U64Pair(uid_of(cmd), slot));
                }
            }
        }
        svc.compact(log);
    }

    fn on_sync_resp<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, KvMsg>,
        from: ProcessId,
        snap: Option<Vec<u8>>,
        entries: Vec<(u64, u64, Body)>,
        frontier: u64,
        authoritative: bool,
    ) {
        if let Some(bytes) = snap {
            self.adopt_snapshot(ctx, bytes);
        }
        for (slot, name, body) in entries {
            // Round 0: the deciding round did not travel. The
            // multiplexer dedupes, and keeps its log in step so the
            // proposal frontier is right.
            if slot >= self.svc.applied
                && self.with_log(ctx, |log, sub, svc| {
                    log.learn(sub, (slot, name, 0, body), svc)
                })
            {
                self.fetched += 1;
            }
        }
        self.svc.try_apply(ctx, &mut self.log);
        if self.log.catching_up {
            let done = if authoritative {
                self.svc.applied >= frontier
            } else {
                // A peer that is itself recovering cannot vouch for the
                // global frontier — two concurrent recoveries answering
                // each other with empty logs must not both exit at slot
                // 0. Its claim only counts through the escape hatch:
                // when *every* peer has answered non-authoritatively and
                // none is ahead, the whole cluster restarted and there
                // is no more durable state anywhere to fetch.
                self.sync_claims.insert(from, frontier);
                self.sync_claims.len() == ctx.n() - 1
                    && self.sync_claims.values().all(|&f| f <= self.svc.applied)
            };
            if done {
                self.finish_sync(ctx);
            }
        }
        self.with_log(ctx, |log, sub, svc| log.drive(sub, svc));
    }

    fn finish_sync<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, KvMsg>) {
        self.log.catching_up = false;
        self.sync_claims.clear();
        let multi = &mut self.log.multi;
        multi.raise_base(self.svc.applied);
        // Quarantined slots re-enter the bookkeeping as "already
        // proposed" so the proposer rotation skips them without ever
        // voting in them again.
        for &slot in &self.log.quarantined {
            if multi.decided(slot).is_none() {
                multi.abstain(slot);
            }
        }
        ctx.observe(
            obs::SYNC_DONE,
            Payload::U64Pair(self.svc.applied, self.fetched),
        );
        self.with_log(ctx, |log, sub, svc| log.drive(sub, svc));
        self.svc.arm_repair(ctx, &self.log);
    }

    // ---- start & recovery -------------------------------------------

    fn arm_arrivals<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, KvMsg>) {
        let now = ctx.now();
        for (idx, &(at, _)) in self.schedule.iter().enumerate() {
            if at > now {
                ctx.set_timer(at - now, TIMER_ARRIVAL, idx as u64);
            }
        }
    }

    /// Crash recovery: truncate the disks the way a real crash would,
    /// rebuild the store from snapshot + WAL, quarantine pre-crash
    /// votes, and start catch-up. The log's broadcast module keeps its
    /// state; its multiplexer starts over.
    fn recover<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, KvMsg>) {
        let svc = &mut self.svc;
        // The crash tears the unsynced WAL tail at a seed-deterministic
        // point; a staged snapshot rename that never fsynced is gone.
        let torn = {
            let pending = svc.wal_disk.pending_len();
            ctx.rng().gen_range(0..=pending)
        };
        svc.wal_disk.crash(torn);
        svc.snap_disk.crash(0);

        // Everything volatile is lost.
        svc.store = KvStore::new();
        svc.entries.clear();
        svc.applied = 0;
        svc.digest = DIGEST_SEED;
        svc.joined.clear();
        svc.submitted.clear();
        svc.unacked.clear();
        svc.fsync_armed = false;
        svc.repair_armed = false;
        self.sync_claims.clear();
        self.fetched = 0;
        self.log.multi = MultiEc::new(ctx.me(), ctx.n());

        // Durable state back in: snapshot first, then WAL replay.
        if let Some((store, applied, digest)) = KvStore::decode_snapshot(svc.snap_disk.durable()) {
            svc.store = store;
            svc.applied = applied;
            svc.digest = digest;
            svc.snap_applied = applied;
        } else {
            svc.snap_applied = 0;
        }
        let (mut records, _valid) = wal::recover(svc.wal_disk.durable());
        // Commands past the last seal belong to a batch the crash tore:
        // that slot comes back from a peer, whole. Cut the log back to
        // the records replay honours, so what is appended from here on
        // follows complete ones and a later recovery can read it.
        while let Some(WalRecord::Apply(..)) = records.last() {
            records.pop();
        }
        svc.wal_disk.replace(wal::encode_log(&records));
        svc.wal_disk.fsync();
        let mut replayed = 0u64;
        let mut batch = Vec::new();
        for r in records {
            match r {
                WalRecord::Apply(slot, cmd) => {
                    if slot == svc.applied {
                        batch.push(cmd);
                    }
                }
                WalRecord::Seal(slot, name) => {
                    if slot == svc.applied {
                        svc.apply_to_state(slot, &batch);
                        let body = (!batch.is_empty()).then(|| batch.as_slice().into());
                        svc.entries.insert(slot, (name, body));
                        replayed += 1;
                    }
                    batch.clear();
                }
                WalRecord::Join(slot) => {
                    svc.joined.insert(slot);
                }
            }
        }
        // Slots we may have voted in but that we have not applied are
        // quarantined: this replica stays passive in them forever.
        self.log.quarantined = svc.joined.split_off(&svc.applied);
        svc.joined.clear();
        svc.joined.extend(self.log.quarantined.iter().copied());
        ctx.observe(obs::RECOVERY, Payload::U64Pair(replayed, svc.applied));

        // Catch up from the peers before voting anywhere.
        self.log.catching_up = true;
        self.log.multi.raise_base(svc.applied);
        ctx.send_to_others(KvMsg::SyncReq {
            from_slot: svc.applied,
        });
        ctx.set_timer(svc.cfg.sync_retry, TIMER_SYNC_RETRY, 0);
    }
}

impl<D: EventuallyConsistentOracle + 'static> Over<D> for Kv {
    type Msg = KvMsg;

    /// Only the KV layer's own timers: the log arms none.
    fn ns(&self) -> u32 {
        KV_NS
    }

    /// A warm start (`starts > 0`) is a crash recovery. The detector has
    /// already restarted: its soft state survives a pause (it re-adapts
    /// on its own), but its timers died with the epoch.
    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, KvMsg>, fd: &D) {
        self.with_log(ctx, |log, sub, _| log.on_start(sub, fd));
        if self.starts > 0 {
            self.recover(ctx);
        }
        self.starts += 1;
        self.arm_arrivals(ctx);
    }

    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, KvMsg>,
        from: ProcessId,
        msg: KvMsg,
        below: &D,
    ) {
        self.log.fd().debug_assert_current(below);
        match msg {
            KvMsg::Log(msg) => {
                // A peer still working a slot we know is decided missed
                // the (one-shot) decision broadcast: hand it the
                // decision directly instead of letting it churn rounds
                // against closed instances, which never re-decide.
                if let Some(slot) = msg.slot() {
                    if self.reply_if_decided(ctx, from, slot) {
                        return;
                    }
                }
                self.with_log(ctx, |log, sub, svc| log.deliver(sub, from, msg, svc));
            }
            KvMsg::SyncReq { from_slot } => {
                self.serve_sync(ctx, from, from_slot);
            }
            KvMsg::SyncResp {
                snap,
                entries,
                frontier,
                authoritative,
            } => {
                self.on_sync_resp(ctx, from, snap, entries, frontier, authoritative);
            }
        }
    }

    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, KvMsg>,
        tag: TimerTag,
        below: &D,
    ) {
        self.log.fd().debug_assert_current(below);
        match tag.kind {
            TIMER_ARRIVAL => {
                let cmd = self.schedule[tag.data as usize].1;
                self.submit(ctx, cmd);
            }
            TIMER_FSYNC => self.svc.on_fsync(ctx),
            TIMER_REPAIR => self.on_repair(ctx),
            TIMER_SYNC_RETRY => {
                if self.log.catching_up {
                    ctx.send_to_others(KvMsg::SyncReq {
                        from_slot: self.svc.applied,
                    });
                    ctx.set_timer(self.svc.cfg.sync_retry, TIMER_SYNC_RETRY, 0);
                }
            }
            _ => debug_assert!(false, "unknown kv timer {tag:?}"),
        }
    }

    fn on_fd_change<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, KvMsg>, fd: &D) {
        self.with_log(ctx, |log, sub, svc| log.refresh(sub, fd.output(), svc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{encode, KvOp};
    use fd_chaos::{base_net, compile, ChaosKind, ChaosPlan, DetectorKind};
    use fd_consensus::MultiMsg;
    use fd_core::StackMsg;
    use fd_detectors::{HeartbeatConfig, HeartbeatDetector, LeaderByFirstNonSuspected};
    use fd_sim::{Actor, World, WorldBuilder};

    type TestReplica = KvReplica<LeaderByFirstNonSuspected<HeartbeatDetector>>;

    fn make_world(n: usize, schedules: Vec<Vec<(Time, u64)>>) -> World<TestReplica> {
        make_world_with(KvConfig::default(), n, schedules)
    }

    fn make_world_with(
        cfg: KvConfig,
        n: usize,
        schedules: Vec<Vec<(Time, u64)>>,
    ) -> World<TestReplica> {
        WorldBuilder::new(base_net(n)).seed(7).build(&mut |pid, n| {
            Stack::new(
                LeaderByFirstNonSuspected::new(
                    HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                    n,
                ),
                Kv::new(pid, n, cfg, schedules[pid.index()].clone()),
            )
        })
    }

    /// A valid snapshot image claiming `applied` slots.
    fn snapshot_at(applied: u64) -> Vec<u8> {
        let mut store = KvStore::new();
        store.apply(KvOp::Put { key: 1, value: 9 });
        store.encode_snapshot(applied, 0x1234)
    }

    /// Fast-forward replica 0 to slot 10 via an adopted snapshot.
    fn adopt_snapshot(world: &mut World<TestReplica>) {
        world.interact(ProcessId(0), |r, ctx| {
            r.on_message(
                ctx,
                ProcessId(1),
                StackMsg::Above(KvMsg::SyncResp {
                    snap: Some(snapshot_at(10)),
                    entries: Vec::new(),
                    frontier: 10,
                    authoritative: true,
                }),
            );
        });
        let (mut applied, mut base) = (0, 0);
        world.interact(ProcessId(0), |r, _| {
            applied = r.above.svc.applied;
            base = r.above.log.multi.base();
        });
        assert_eq!(applied, 10);
        assert_eq!(base, 10, "snapshot adoption raises the base");
    }

    #[test]
    fn below_base_open_is_answered_with_sync_not_a_fresh_instance() {
        let mut world = make_world(3, vec![Vec::new(); 3]);
        adopt_snapshot(&mut world);
        // A lagging peer re-opens a slot the snapshot already covers:
        // the caught-up replica has no decision *and* no quarantine
        // marker for it, so joining a fresh instance could re-decide a
        // globally decided slot. It must answer with sync data instead.
        world.interact(ProcessId(0), |r, ctx| {
            r.on_message(
                ctx,
                ProcessId(1),
                StackMsg::Above(KvMsg::Log(LogMsg::Open { slot: 3 })),
            );
        });
        let mut proposed = None;
        world.interact(ProcessId(0), |r, _| {
            proposed = r.above.log.multi.proposed_in(3)
        });
        assert_eq!(proposed, None, "below-base slot must never be proposed in");
        // The reply fast-forwards the requester instead.
        world.run_until_time(Time::from_millis(500));
        let mut p1_applied = 0;
        world.interact(ProcessId(1), |r, _| p1_applied = r.above.svc.applied);
        assert_eq!(
            p1_applied, 10,
            "the Open sender is caught up via the snapshot"
        );
    }

    #[test]
    fn below_base_consensus_traffic_is_never_routed_into_an_instance() {
        let mut world = make_world(3, vec![Vec::new(); 3]);
        adopt_snapshot(&mut world);
        world.interact(ProcessId(0), |r, ctx| {
            r.on_message(
                ctx,
                ProcessId(1),
                StackMsg::Above(KvMsg::Log(LogMsg::Cons(MultiMsg {
                    slot: 3,
                    inner: fd_consensus::EcMsg::Coordinator { round: 1 },
                    body: None,
                }))),
            );
        });
        let mut proposed = None;
        world.interact(ProcessId(0), |r, _| {
            proposed = r.above.log.multi.proposed_in(3)
        });
        assert_eq!(
            proposed, None,
            "a Cons message for a below-base slot must not revive it"
        );
    }

    #[test]
    fn snapshot_adoption_abandons_unresolved_own_ops_visibly() {
        // Replica 0 is partitioned off alone from t = 1 ms; its op
        // arrives at 100 ms and is proposed in slot 0 but cannot decide.
        let plan = ChaosPlan::new(3, DetectorKind::Heartbeat, Time::from_secs(2)).push(
            Time::from_millis(1),
            ChaosKind::Partition {
                groups: vec![vec![ProcessId(0)], vec![ProcessId(1), ProcessId(2)]],
            },
        );
        let net = base_net(3);
        let interventions = compile(&plan, &net).unwrap();
        let cmd = encode(5, KvOp::Put { key: 2, value: 7 });
        let schedules = vec![vec![(Time::from_millis(100), cmd)], Vec::new(), Vec::new()];
        let mut world = make_world(3, schedules);
        for (at, iv) in interventions {
            world.schedule_intervention(at, iv);
        }
        world.run_until_time(Time::from_millis(300));
        let mut proposed = None;
        world.interact(ProcessId(0), |r, _| {
            let multi = &r.above.log.multi;
            proposed = multi.proposed_in(0).map(|name| multi.body(0, name));
        });
        assert_eq!(
            proposed.as_ref().map(commands),
            Some(&[cmd][..]),
            "the op is stuck proposed in slot 0, a batch of one"
        );
        // A snapshot far past slot 0 arrives: the op's fate is hidden
        // inside the image. The ack must be dropped *visibly*, not
        // leaked in `submitted` forever.
        adopt_snapshot(&mut world);
        world.run_until_time(Time::from_secs(2));
        let (trace, _) = world.take_results();
        let mut abandoned = Vec::new();
        for (_, pid, payload) in trace.observations(obs::ABANDON) {
            if pid == ProcessId(0) {
                abandoned.push(payload.as_u64_pair().unwrap());
            }
        }
        assert_eq!(
            abandoned,
            vec![(5, 0)],
            "uid 5 abandoned at its proposal slot"
        );
    }

    /// A replica behind a hole can still win a slot above it (a peer's
    /// message pulls its queue into the current slot). If a snapshot
    /// then covers the hole *and* that slot, the batch is never applied
    /// here — but it is in the durable image, so its ops are
    /// acknowledged, not left in `submitted` for ever. (Found by a
    /// 200 ops/s run across a healed partition.)
    #[test]
    fn snapshot_adoption_acks_own_ops_decided_above_a_hole() {
        let mut world = make_world(3, vec![Vec::new(); 3]);
        let cmd = encode(5, KvOp::Put { key: 2, value: 7 });
        world.interact(ProcessId(0), |r, ctx| {
            r.with_above(ctx, |r, ctx, _| {
                r.svc.submitted.insert(5);
                // Slot 6 decided this replica's batch; slots 0..6 are unknown.
                let decide = (6, 0x1_0001, 1, Some([cmd].into()));
                assert!(r.with_log(ctx, |log, sub, svc| log.learn(sub, decide, svc)));
                r.svc.try_apply(ctx, &mut r.log);
                assert_eq!(r.svc.applied, 0, "stuck behind the hole");
            })
        });
        adopt_snapshot(&mut world);
        let (trace, _) = world.take_results();
        let acked: Vec<(u64, u64)> = trace
            .observations_of(ProcessId(0), obs::COMMIT)
            .filter_map(|(_, payload)| payload.as_u64_pair())
            .collect();
        assert_eq!(acked, vec![(5, 6)], "uid 5 acknowledged at slot 6");
    }

    /// A crash can cut the WAL at any byte. Whatever the cut, recovery
    /// rebuilds the state of a *whole number of slots* — never part of a
    /// batch — catch-up fetches the rest from a peer, and what the
    /// replica logs from then on is readable by its next recovery.
    #[test]
    fn a_torn_tail_never_applies_part_of_a_batch() {
        // Bursts of four ops at replica 0: the first goes out alone, the
        // three that queue up behind it share the next slot.
        let schedule: Vec<(Time, u64)> = (0..8u64)
            .map(|uid| {
                let op = KvOp::Put {
                    key: (uid % 3) as u16,
                    value: 10 + uid as u16,
                };
                (Time::from_millis(100 + 100 * (uid / 4)), encode(uid, op))
            })
            .collect();
        // No compaction: every slot stays in the WAL.
        let cfg = KvConfig {
            snapshot_every: 1_000,
            ..KvConfig::default()
        };
        let mut world = make_world_with(cfg, 3, vec![schedule, Vec::new(), Vec::new()]);
        world.run_until_time(Time::from_millis(400));

        // The digest after each slot, as a bystander applied them.
        let mut chain = vec![DIGEST_SEED];
        for (_, pid, payload) in world.trace().observations(obs::APPLY) {
            if pid == ProcessId(1) {
                chain.push(payload.as_u64_pair().expect("kv.apply payload").1);
            }
        }
        let frontier = chain.len() as u64 - 1;
        let image = world
            .actor(ProcessId(0))
            .above
            .svc
            .wal_disk
            .durable()
            .to_vec();
        let (records, valid) = wal::recover(&image);
        assert_eq!(valid, image.len(), "the settled WAL has no torn tail");
        let seals = |records: &[WalRecord]| {
            records
                .iter()
                .filter(|r| matches!(r, WalRecord::Seal(..)))
                .count() as u64
        };
        assert_eq!(seals(&records), frontier, "every applied slot is sealed");
        let commands_of = |slot| {
            records
                .iter()
                .filter(|r| matches!(r, WalRecord::Apply(s, _) if *s == slot))
                .count()
        };
        assert!(
            (0..frontier).filter(|&s| commands_of(s) >= 3).count() >= 2,
            "the image must hold several multi-command slots"
        );

        let settle = fd_sim::SimDuration::from_millis(150);
        for cut in 0..=image.len() {
            let whole_slots = seals(&wal::recover(&image[..cut]).0);
            world.interact(ProcessId(0), |r, ctx| {
                let r = &mut r.above;
                r.svc.wal_disk = SimDisk::new();
                r.svc.wal_disk.append(&image[..cut]);
                r.svc.wal_disk.fsync();
                r.recover(&mut SubCtx::new(ctx, &StackMsg::Above, KV_NS));
                assert_eq!(r.svc.applied, whole_slots, "cut at byte {cut}");
                assert_eq!(
                    r.svc.digest, chain[r.svc.applied as usize],
                    "cut at byte {cut}: not the state of {whole_slots} whole slots"
                );
            });
            let now = world.now();
            world.run_until_time(now + settle);
            world.interact(ProcessId(0), |r, ctx| {
                let r = &mut r.above;
                assert!(
                    !r.log.catching_up,
                    "cut at byte {cut}: catch-up never finished"
                );
                assert_eq!(
                    (r.svc.applied, r.svc.digest),
                    (frontier, chain[frontier as usize])
                );
                assert_eq!(r.fetched, frontier - whole_slots, "the rest came by sync");
                // Crash again: the slots logged after the cut sit behind
                // complete records, so local replay alone finds them all.
                r.recover(&mut SubCtx::new(ctx, &StackMsg::Above, KV_NS));
                assert_eq!(
                    (r.svc.applied, r.svc.digest),
                    (frontier, chain[frontier as usize]),
                    "cut at byte {cut}: the re-logged tail was unreadable"
                );
            });
            let now = world.now();
            world.run_until_time(now + settle);
        }
    }
}
