//! vCube hierarchical failure detector — log₂ n testing rounds over
//! hypercube clustering.
//!
//! The all-to-all heartbeat detector costs `n(n−1)` messages per period;
//! the ring costs `O(n)` but pays `O(n)` rounds of detection latency.
//! The vCube family (system-level diagnosis in the VCube virtual
//! topology, à la Duarte/Nanya's adaptive-DSD lineage) sits between
//! them: each process runs at most `log₂ n` *tests* per round against a
//! hierarchy of clusters, and event news disseminates along the test
//! graph in at most `log₂ n` rounds — `O(n·log n)` messages per period
//! with `O(log n · period + attempts · timeout)` detection latency.
//!
//! ## Clusters
//!
//! For a process `i`, cluster `s` (`1 ≤ s ≤ ⌈log₂ n⌉`) is the ordered
//! candidate list `c_{i,s}[k] = i ⊕ 2^{s−1} ⊕ k` for `k < 2^{s−1}`
//! (identifiers ≥ n are skipped, so any n works, not just powers of
//! two). Each round, `i` tests the *first non-suspected* candidate of
//! every cluster — in the fault-free case exactly its `log₂ n` hypercube
//! neighbours, and every process is tested by exactly its `log₂ n`
//! neighbours. When faults shrink a cluster, the next candidate in the
//! deterministic order takes over, so every correct process keeps being
//! tested. `i` additionally re-tests the first *suspected* candidate of
//! each cluster, which is what lets a falsely-suspected process be
//! noticed alive again (eventual accuracy).
//!
//! Cost of choosing a round's tests: the first non-suspected candidate
//! is found by walking the cluster order, which stops at the first
//! candidate unless it is suspected; the first suspected one is read off
//! the suspect set's words that cover the cluster's aligned block — one
//! word for blocks up to 64 identities, `2^{s−1}/64` beyond. A round
//! thus reads about `log₂ n + n/64` words, not the `n − 1` membership
//! probes a walk for a suspect makes when nothing is suspected, which
//! is most of the time.
//!
//! ## Dissemination
//!
//! Each process keeps a per-peer event timestamp: even = up, odd = down
//! (the classic diagnosis parity encoding). A failed test *procedure*
//! (below) bumps the target's timestamp to odd; an ack from a suspected
//! process bumps it back to even and grows that peer's adaptive
//! timeout. Fresh events ride in test *replies* for `log₂ n + 2`
//! rounds: a tester pulls its testee's recent news, merges anything
//! newer than its own view (max-merge by timestamp), and re-shares it.
//! News thus crosses the test graph — whose fault-free form is the
//! hypercube, diameter `log₂ n` — in at most `log₂ n` rounds.
//!
//! ## A test is a procedure
//!
//! One test is in flight per target. An attempt that is not acked
//! within the target's timeout is sent again, and the target is declared
//! down only when `TEST_ATTEMPTS` sends in a row went unanswered (Duarte
//! et al. define a test as a procedure that may retry). Every local
//! `down` event is relayed to all other processes, so a tester that
//! mistook one lost message for a crash — two messages per attempt:
//! 28 % of attempts at 15 % loss, however long the timeout — made
//! n − 1 others wrong with it. On reliable links no attempt times out
//! and the retry never runs. The price is detection time: a crashed
//! testee is suspected `TEST_ATTEMPTS` timeouts after its first
//! unanswered test, not one.

use crate::timeout::TimeoutTable;
use fd_core::{Component, ProcessSet, SubCtx, SuspectOracle};
use fd_sim::{Payload, ProcessId, SimDuration, SimMessage, Time};

/// Configuration of a [`VCubeDetector`].
#[derive(Debug, Clone)]
pub struct VCubeConfig {
    /// Testing-round period.
    pub period: SimDuration,
    /// Initial per-peer test timeout.
    pub initial_timeout: SimDuration,
    /// Additive timeout increment applied after each false suspicion.
    pub timeout_increment: SimDuration,
}

impl Default for VCubeConfig {
    fn default() -> Self {
        VCubeConfig {
            period: SimDuration::from_millis(10),
            initial_timeout: SimDuration::from_millis(30),
            timeout_increment: SimDuration::from_millis(20),
        }
    }
}

/// vCube protocol messages.
#[derive(Debug, Clone)]
pub enum VCubeMsg {
    /// "Are you alive?" — sent to at most `2·log₂ n` cluster candidates
    /// per round.
    Test,
    /// Test reply, carrying the responder's recent event news as
    /// `(process, timestamp)` pairs (empty — and allocation-free — in
    /// the steady state).
    Ack {
        /// Recent `(process, event-timestamp)` news entries.
        news: Vec<(ProcessId, u64)>,
    },
}

impl SimMessage for VCubeMsg {
    fn kind(&self) -> &'static str {
        match self {
            VCubeMsg::Test => fd_obs::keys::VC_TEST,
            VCubeMsg::Ack { .. } => fd_obs::keys::VC_ACK,
        }
    }
}

const TIMER_ROUND: u32 = 0;

/// Sends of `Test` that must all go unanswered, each for the target's
/// current timeout, before the tester suspects it. One test is two
/// messages, so at link loss `p` an attempt fails with probability
/// `1 − (1 − p)²` and the procedure with its fifth power: 0.17 % at
/// p = 0.15, where a single attempt is wrong 28 % of the time. Three
/// and four attempts send *more* messages than one (EXPERIMENTS.md,
/// "A vCube test retries before it suspects"); five send fewer.
const TEST_ATTEMPTS: u32 = 5;

/// Bits of a packed eviction key holding the process id: every id a
/// [`ProcessSet`] can hold fits.
const PID_BITS: u32 = fd_core::MAX_PROCESSES.ilog2();

/// `news_slot` entry of a process with no entry in `news`. The buffer
/// never holds more than `news_cap()` ≤ 4·64 + 8 entries, far below it.
const NO_NEWS: u16 = u16::MAX;

/// The hierarchical detector (see module docs).
#[derive(Debug)]
pub struct VCubeDetector {
    me: ProcessId,
    n: usize,
    /// `⌈log₂ n⌉` — clusters per process, hypercube dimensions.
    dim: usize,
    cfg: VCubeConfig,
    /// Per-peer event timestamps: even = up, odd = down. Index = pid.
    ts: Vec<u64>,
    suspected: ProcessSet,
    timeouts: TimeoutTable,
    /// Tests in progress: `(target, deadline of the current attempt,
    /// attempts sent)`. An ack from the target ends the test, whichever
    /// attempt it answers. At most `2·dim` entries — scanned, not
    /// indexed: `O(log n)` per scan.
    outstanding: Vec<(ProcessId, Time, u32)>,
    /// Recent news to share in acks: `(pid, ts, round_added)`. Entries
    /// retire after `dim + 2` rounds; receivers re-share what they learn,
    /// so retention only needs to cover one dissemination hop. The
    /// *order* is protocol state: acks list news in it, and the order a
    /// receiver merges in decides which of its own entries the cap
    /// evicts.
    news: Vec<(ProcessId, u64, u64)>,
    /// Where each process sits in `news` ([`NO_NEWS`] = nowhere), so
    /// re-sharing a process already in the buffer is one load instead
    /// of a scan. Index = pid, like `ts`.
    news_slot: Vec<u16>,
    /// The buffer of the last ack received, emptied: the next reply is
    /// built in it, so a process that tests about as often as it is
    /// tested allocates no ack payloads.
    spare_ack: Vec<(ProcessId, u64)>,
    /// Testing rounds completed (drives news retirement).
    round: u64,
    /// Suspect-set changed since the last observation was emitted.
    dirty: bool,
}

impl VCubeDetector {
    /// Build the detector for process `me` of `n`.
    pub fn new(me: ProcessId, n: usize, cfg: VCubeConfig) -> VCubeDetector {
        let dim = if n <= 1 {
            0
        } else {
            (n - 1).ilog2() as usize + 1
        };
        let timeouts = TimeoutTable::additive(n, cfg.initial_timeout, cfg.timeout_increment);
        VCubeDetector {
            me,
            n,
            dim,
            cfg,
            ts: vec![0; n],
            suspected: ProcessSet::new(),
            timeouts,
            outstanding: Vec::new(),
            news: Vec::new(),
            news_slot: vec![NO_NEWS; n],
            spare_ack: Vec::new(),
            round: 0,
            dirty: false,
        }
    }

    /// Total timeout increases — the number of mistakes made so far.
    pub fn mistakes(&self) -> u64 {
        self.timeouts.total_increases()
    }

    /// The `k`-th candidate of cluster `s` (`1 ≤ s ≤ dim`), or `None`
    /// when the identifier falls outside `0..n`.
    fn candidate(&self, s: usize, k: usize) -> Option<ProcessId> {
        let id = self.me.index() ^ (1usize << (s - 1)) ^ k;
        (id < self.n).then_some(ProcessId(id))
    }

    /// The first candidate of cluster `s` matching `want_suspected`.
    ///
    /// Cluster `s` is the aligned block of `2^{s−1}` identities that
    /// differ from `me` in bit `s − 1` and agree with it above, and its
    /// `k`-th candidate is `me ⊕ 2^{s−1} ⊕ k`. The first non-suspected
    /// candidate is found by walking the order, which stops at once in
    /// the usual case; the first suspected one is the suspect in the
    /// block with the smallest `k`, read off the suspect set's words
    /// for that block instead of probing every candidate.
    fn first_candidate(&self, s: usize, want_suspected: bool) -> Option<ProcessId> {
        if !want_suspected {
            return (0..1usize << (s - 1)).find_map(|k| {
                self.candidate(s, k)
                    .filter(|&q| !self.suspected.contains(q))
            });
        }
        let origin = self.me.index() ^ (1usize << (s - 1));
        let block = origin & !((1usize << (s - 1)) - 1);
        self.suspected
            .iter_range(block..(block + (1usize << (s - 1))).min(self.n))
            .min_by_key(|q| q.index() ^ origin)
    }

    /// Record the `down` event for `j` (local timeout detection).
    fn mark_down(&mut self, j: ProcessId) {
        // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
        if self.ts[j.index()].is_multiple_of(2) {
            // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
            self.ts[j.index()] += 1;
            self.push_news(j);
        }
        if self.suspected.insert(j) {
            self.dirty = true;
        }
    }

    /// Record direct evidence that `j` is alive. `mistake` grows `j`'s
    /// timeout (ack from a suspected peer = false suspicion).
    fn mark_up(&mut self, j: ProcessId) {
        // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
        if self.ts[j.index()] % 2 == 1 {
            // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
            self.ts[j.index()] += 1;
            self.timeouts.increase(j);
            self.push_news(j);
        }
        if self.suspected.remove(j) {
            self.dirty = true;
        }
    }

    /// Hard cap on news entries: retention bounds *age*, this bounds
    /// *churn*. Under heavy pre-GST loss every peer can generate events
    /// every round; without a cap the buffer grows `O(n)`, every ack
    /// carries it, and every `push_news` scan makes receipt `O(n²)` —
    /// measured as a ~100× event-rate collapse at n = 1024 lossy.
    /// Dropping the stalest entries is safe: dissemination is a
    /// gossip *optimization* over re-sharing; anything dropped is
    /// re-learned by direct testing or a later ack.
    fn news_cap(&self) -> usize {
        4 * self.dim + 8
    }

    /// Point `news_slot` at `p`'s (new) position in `news`.
    fn set_news_slot(&mut self, p: ProcessId, at: u16) {
        if let Some(slot) = self.news_slot.get_mut(p.index()) {
            *slot = at;
        }
    }

    /// (Re-)share `j`'s current timestamp in upcoming acks.
    fn push_news(&mut self, j: ProcessId) {
        // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
        let t = self.ts[j.index()];
        let at = self.news_slot.get(j.index()).copied().unwrap_or(NO_NEWS);
        if let Some(entry) = self.news.get_mut(at as usize) {
            entry.1 = t;
            entry.2 = self.round;
            return;
        }
        if self.news.len() >= self.news_cap() {
            // Evict the stalest entry (oldest round, then lowest pid for
            // determinism) to stay within the cap. Round and pid pack
            // into one word in that order (exact while the round count
            // is below 2^51: at the default 10 ms period, past the end
            // of simulated time), and the last entry takes the freed
            // position.
            let stalest = self
                .news
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(p, _, added))| (added << PID_BITS) | p.index() as u64);
            if let Some((idx, &(evicted, _, _))) = stalest {
                self.news.swap_remove(idx);
                self.set_news_slot(evicted, NO_NEWS);
                if let Some(&(moved, _, _)) = self.news.get(idx) {
                    self.set_news_slot(moved, idx as u16);
                }
            }
        }
        self.set_news_slot(j, self.news.len() as u16);
        self.news.push((j, t, self.round));
    }

    /// Drop news older than the retention window, keeping the order of
    /// what stays.
    fn retire_news(&mut self) {
        let retention = self.dim as u64 + 2;
        let round = self.round;
        let slots = &mut self.news_slot;
        self.news.retain(|&(p, _, added)| {
            let keep = round - added <= retention;
            if !keep {
                if let Some(slot) = slots.get_mut(p.index()) {
                    *slot = NO_NEWS;
                }
            }
            keep
        });
        for (at, &(p, _, _)) in self.news.iter().enumerate() {
            if let Some(slot) = slots.get_mut(p.index()) {
                *slot = at as u16;
            }
        }
    }

    /// Merge one news entry `(p, t)` learned from a peer's ack.
    fn merge_news(&mut self, p: ProcessId, t: u64) {
        if p == self.me {
            // Someone believes we are down: defend with a fresher
            // (even) timestamp so the rumor dies in ≤ log n rounds.
            // fd-lint: allow(HP001, reason = "ts has one slot per process; me.index() < n by construction")
            if t % 2 == 1 && t >= self.ts[self.me.index()] {
                // fd-lint: allow(HP001, reason = "ts has one slot per process; me.index() < n by construction")
                self.ts[self.me.index()] = t + 1;
                self.push_news(p);
            }
            return;
        }
        // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
        if t > self.ts[p.index()] {
            // fd-lint: allow(HP001, reason = "ts has one slot per process; pid index < n by construction")
            self.ts[p.index()] = t;
            let down = t % 2 == 1;
            let changed = if down {
                self.suspected.insert(p)
            } else {
                self.suspected.remove(p)
            };
            if changed {
                self.dirty = true;
            }
            self.push_news(p);
        }
    }

    /// One testing round: expire overdue tests, test the first
    /// non-suspected (and first suspected) candidate of every cluster,
    /// retire stale news.
    fn run_round<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, VCubeMsg>) {
        let now = ctx.now();
        // Overdue tests: ask again, and declare the testee down only
        // once the whole procedure has gone unanswered.
        let mut i = 0;
        while let Some(test) = self.outstanding.get_mut(i) {
            let (target, deadline, attempts) = *test;
            if now < deadline {
                i += 1;
            } else if attempts < TEST_ATTEMPTS {
                *test = (target, now + self.timeouts.get(target), attempts + 1);
                ctx.send(target, VCubeMsg::Test);
                i += 1;
            } else {
                self.outstanding.remove(i);
                self.mark_down(target);
            }
        }
        for s in 1..=self.dim {
            for want_suspected in [false, true] {
                let Some(q) = self.first_candidate(s, want_suspected) else {
                    continue;
                };
                if self.outstanding.iter().any(|&(t, _, _)| t == q) {
                    continue; // one in-flight test per target
                }
                ctx.send(q, VCubeMsg::Test);
                self.outstanding.push((q, now + self.timeouts.get(q), 1));
            }
        }
        self.round += 1;
        self.retire_news();
    }

    fn emit_if_dirty<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, VCubeMsg>) {
        if self.dirty {
            self.dirty = false;
            ctx.observe(
                fd_core::obs::SUSPECTS,
                // fd-lint: allow(HP002, reason = "emit fires only when the suspect set is dirty, not per message")
                Payload::Pids(self.suspected.to_vec()),
            );
        }
    }
}

impl SuspectOracle for VCubeDetector {
    fn suspected(&self) -> ProcessSet {
        self.suspected.clone()
    }
}

impl Component for VCubeDetector {
    type Msg = VCubeMsg;

    fn ns(&self) -> u32 {
        crate::ns::VCUBE
    }

    fn on_start<N: SimMessage>(&mut self, ctx: &mut SubCtx<'_, '_, N, VCubeMsg>) {
        ctx.observe(fd_core::obs::SUSPECTS, Payload::Pids(Vec::new()));
        self.run_round(ctx);
        ctx.set_timer(self.cfg.period, TIMER_ROUND, 0);
    }

    // fd-lint: hot_path
    fn on_message<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, VCubeMsg>,
        from: ProcessId,
        msg: VCubeMsg,
    ) {
        match msg {
            VCubeMsg::Test => {
                // A test is proof of life; answer with our recent news.
                self.mark_up(from);
                let mut news = std::mem::take(&mut self.spare_ack);
                news.extend(self.news.iter().map(|&(p, t, _)| (p, t)));
                ctx.send(from, VCubeMsg::Ack { news });
            }
            VCubeMsg::Ack { mut news } => {
                self.outstanding.retain(|&(t, _, _)| t != from);
                self.mark_up(from);
                for &(p, t) in &news {
                    if p.index() < self.n {
                        self.merge_news(p, t);
                    }
                }
                news.clear();
                self.spare_ack = news;
            }
        }
        self.emit_if_dirty(ctx);
    }

    // fd-lint: hot_path
    fn on_timer<N: SimMessage>(
        &mut self,
        ctx: &mut SubCtx<'_, '_, N, VCubeMsg>,
        kind: u32,
        _data: u64,
    ) {
        debug_assert_eq!(kind, TIMER_ROUND);
        self.run_round(ctx);
        ctx.set_timer(self.cfg.period, TIMER_ROUND, 0);
        self.emit_if_dirty(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{FdClass, FdRun, Standalone};
    use fd_sim::{LinkModel, NetworkConfig, WorldBuilder};

    /// Reliable links, 1–4 ms uniform delay.
    fn stable_net(n: usize) -> NetworkConfig {
        NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
            SimDuration::from_millis(1),
            SimDuration::from_millis(4),
        ))
    }

    fn run_world(
        n: usize,
        crashes: &[(usize, u64)],
        horizon_ms: u64,
        seed: u64,
    ) -> (fd_sim::Trace, Time) {
        let mut builder = WorldBuilder::new(stable_net(n)).seed(seed);
        for &(pid, at) in crashes {
            builder = builder.crash_at(ProcessId(pid), Time::from_millis(at));
        }
        let mut w =
            builder.build(|pid, n| Standalone(VCubeDetector::new(pid, n, VCubeConfig::default())));
        let end = Time::from_millis(horizon_ms);
        w.run_until_time(end);
        let (trace, _) = w.into_results();
        (trace, end)
    }

    /// The news buffer as it was kept before the per-pid index: a linear
    /// find, an eviction scan over `(round, pid)` tuples, a plain
    /// `retain`. Test oracle.
    struct ScannedNews {
        news: Vec<(ProcessId, u64, u64)>,
        cap: usize,
        retention: u64,
        evictions: usize,
    }

    impl ScannedNews {
        fn push(&mut self, j: ProcessId, t: u64, round: u64) {
            match self.news.iter_mut().find(|(p, _, _)| *p == j) {
                Some(entry) => {
                    entry.1 = t;
                    entry.2 = round;
                }
                None => {
                    if self.news.len() >= self.cap {
                        let idx = (0..self.news.len())
                            .min_by_key(|&i| (self.news[i].2, self.news[i].0.index()))
                            .unwrap();
                        self.news.swap_remove(idx);
                        self.evictions += 1;
                    }
                    self.news.push((j, t, round));
                }
            }
        }

        fn retire(&mut self, round: u64) {
            let retention = self.retention;
            self.news
                .retain(|&(_, _, added)| round - added <= retention);
        }
    }

    /// Replay `ops` — `(kind, pid, timestamp offset)` triples over local
    /// detections, proofs of life, merged ack entries (rumours about
    /// ourselves included) and round ends — on a detector and on the
    /// scanned buffer, which is told of a re-share exactly when the op
    /// moved the process's timestamp. After every op the two buffers
    /// must hold the same entries in the same order and `news_slot`
    /// must index them. Returns how many cap evictions the replay hit.
    fn replay_against_scanned_news(n: usize, ops: &[(u8, usize, u64)]) -> usize {
        let me = ProcessId(n / 2);
        let mut d = VCubeDetector::new(me, n, VCubeConfig::default());
        let mut old = ScannedNews {
            news: Vec::new(),
            cap: d.news_cap(),
            retention: d.dim as u64 + 2,
            evictions: 0,
        };
        // Few enough distinct processes that re-shares hit the buffer,
        // enough that the cap (where n allows) overflows.
        let pool = n.min(2 * d.news_cap());
        for &(kind, pid, offset) in ops {
            let p = ProcessId(pid % pool);
            let before = d.ts[p.index()];
            match kind {
                0 => {
                    d.round += 1;
                    d.retire_news();
                    old.retire(d.round);
                }
                1..=4 if p != me => d.mark_down(p),
                5..=7 if p != me => d.mark_up(p),
                _ => d.merge_news(p, before + offset),
            }
            if d.ts[p.index()] != before {
                old.push(p, d.ts[p.index()], d.round);
            }
            assert_eq!(d.news, old.news, "n = {n}, after {kind} on {p:?}");
            for (at, &(q, _, _)) in d.news.iter().enumerate() {
                assert_eq!(d.news_slot[q.index()], at as u16, "slot of {q:?}");
            }
            let indexed = d.news_slot.iter().filter(|&&s| s != NO_NEWS).count();
            assert_eq!(indexed, d.news.len(), "stale news_slot entries");
        }
        old.evictions
    }

    proptest::proptest! {
        /// The indexed news buffer is the scanned one: same contents,
        /// same order, through cap evictions and retirement, at a size
        /// whose cap exceeds n (8: cap 20, never full) and at sizes that
        /// overflow caps 32 and 56.
        #[test]
        fn indexed_news_equals_the_scanned_buffer(
            ops in proptest::prop::collection::vec((0u8..24, 0usize..4096, 0u64..4), 1..400),
        ) {
            for n in [8, 64, 4096] {
                replay_against_scanned_news(n, &ops);
            }
        }
    }

    /// The differential above is only worth its name if the cap is hit:
    /// one local detection per process of the pool overflows it.
    #[test]
    fn scanned_news_replay_reaches_cap_evictions() {
        let sweep: Vec<(u8, usize, u64)> = (0..200).map(|i| (1 + (i % 9) as u8, i, 1)).collect();
        assert_eq!(replay_against_scanned_news(8, &sweep), 0, "cap 20 > n = 8");
        assert!(replay_against_scanned_news(64, &sweep) > 0, "cap 32");
        assert!(replay_against_scanned_news(4096, &sweep) > 0, "cap 56");
    }

    /// The linear search `first_candidate` replaced: walk the cluster's
    /// candidates in order, probe each one.
    fn first_candidate_by_walking(
        d: &VCubeDetector,
        s: usize,
        want_suspected: bool,
    ) -> Option<ProcessId> {
        (0..1usize << (s - 1)).find_map(|k| {
            d.candidate(s, k)
                .filter(|&q| d.suspected.contains(q) == want_suspected)
        })
    }

    #[test]
    fn first_candidate_matches_the_linear_search() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x7c);
        for n in [5, 8, 13, 256] {
            for me in 0..n {
                let mut d = VCubeDetector::new(ProcessId(me), n, VCubeConfig::default());
                // Empty, sparse, half and nearly full suspect sets.
                for density in [0.0, 0.05, 0.5, 0.95] {
                    d.suspected = (0..n)
                        .filter(|&q| q != me && rng.gen_bool(density))
                        .map(ProcessId)
                        .collect();
                    for s in 1..=d.dim {
                        for want in [false, true] {
                            assert_eq!(
                                d.first_candidate(s, want),
                                first_candidate_by_walking(&d, s, want),
                                "n={n} me={me} s={s} suspected={want} set={}",
                                d.suspected
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cluster_candidates_follow_the_vcube_order() {
        let d = VCubeDetector::new(ProcessId(0), 8, VCubeConfig::default());
        // c_{0,1} = (1); c_{0,2} = (2,3); c_{0,3} = (4,5,6,7).
        assert_eq!(d.candidate(1, 0), Some(ProcessId(1)));
        assert_eq!(d.candidate(2, 0), Some(ProcessId(2)));
        assert_eq!(d.candidate(2, 1), Some(ProcessId(3)));
        let c3: Vec<_> = (0..4).filter_map(|k| d.candidate(3, k)).collect();
        assert_eq!(
            c3,
            vec![ProcessId(4), ProcessId(5), ProcessId(6), ProcessId(7)]
        );
        // Non-power-of-two n: out-of-range candidates vanish.
        let d6 = VCubeDetector::new(ProcessId(5), 6, VCubeConfig::default());
        assert_eq!(d6.dim, 3);
        let c3: Vec<_> = (0..4).filter_map(|k| d6.candidate(3, k)).collect();
        assert_eq!(
            c3,
            vec![ProcessId(1), ProcessId(0), ProcessId(3), ProcessId(2)]
        );
    }

    #[test]
    fn crash_free_run_is_eventually_accurate() {
        let (trace, end) = run_world(8, &[], 500, 21);
        FdRun::new(&trace, 8, end)
            .check_class(FdClass::EventuallyPerfect)
            .unwrap();
    }

    #[test]
    fn crashes_are_detected_by_everyone() {
        let (trace, end) = run_world(8, &[(3, 100), (6, 150)], 1500, 22);
        let run = FdRun::new(&trace, 8, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        let crashed: ProcessSet = [ProcessId(3), ProcessId(6)].into_iter().collect();
        for p in [0usize, 1, 2, 4, 5, 7] {
            assert_eq!(run.final_suspects(ProcessId(p)), crashed, "at p{p}");
        }
    }

    #[test]
    fn works_for_non_power_of_two_n() {
        let (trace, end) = run_world(6, &[(4, 80)], 1200, 23);
        let run = FdRun::new(&trace, 6, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        for p in [0usize, 1, 2, 3, 5] {
            assert_eq!(
                run.final_suspects(ProcessId(p)),
                ProcessSet::singleton(ProcessId(4))
            );
        }
    }

    #[test]
    fn survives_pre_gst_chaos() {
        let n = 8;
        let net = NetworkConfig::partially_synchronous(
            n,
            Time::from_millis(300),
            SimDuration::from_millis(5),
            SimDuration::from_millis(120),
            0.4,
        );
        let mut w = WorldBuilder::new(net)
            .seed(24)
            .crash_at(ProcessId(5), Time::from_millis(600))
            .build(|pid, n| Standalone(VCubeDetector::new(pid, n, VCubeConfig::default())));
        let end = Time::from_secs(4);
        w.run_until_time(end);
        let mistakes: u64 = (0..n).map(|i| w.actor(ProcessId(i)).mistakes()).sum();
        let (trace, _) = w.into_results();
        FdRun::new(&trace, n, end)
            .check_class(FdClass::EventuallyPerfect)
            .unwrap();
        assert!(mistakes > 0, "expected pre-GST false suspicions");
    }

    /// The §4-style cost comparison: a fault-free vCube round costs
    /// `2·n·⌈log₂ n⌉` messages (test + ack per hypercube edge endpoint)
    /// versus the heartbeat's `n(n−1)`.
    #[test]
    fn message_cost_is_n_log_n_per_period() {
        let n = 16;
        let net = NetworkConfig::new(n)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        let mut w = WorldBuilder::new(net)
            .seed(25)
            .build(|pid, n| Standalone(VCubeDetector::new(pid, n, VCubeConfig::default())));
        // 100ms horizon, 10ms period → ~10 testing rounds per process.
        w.run_until_time(Time::from_millis(100));
        let tests = w.metrics().sent_of_kind("vc.test") as f64;
        let expected = (n as f64) * 4.0 * 10.0; // n · log₂16 · rounds
        assert!(
            (tests - expected).abs() <= expected * 0.25,
            "measured {tests} tests, expected ≈{expected}"
        );
        let acks = w.metrics().sent_of_kind("vc.ack");
        assert!(acks > 0);
        let total = tests as u64 + acks;
        let heartbeat_equiv = (n * (n - 1) * 10) as u64;
        assert!(
            total < heartbeat_equiv,
            "vCube {total} ≥ heartbeat {heartbeat_equiv}"
        );
    }

    /// Reliable links with 1–4 ms delay answer every test inside its
    /// 30 ms deadline, so no test reaches a second attempt. Digest,
    /// events and messages of these crash-free runs were recorded at the
    /// commit before tests retried and must not move.
    #[test]
    fn reliable_links_never_reach_the_retry_arm() {
        for (n, want) in [
            (16, (12257640839960312978, 7200, 6464)),
            (64, (13645065096580432373, 41600, 38784)),
        ] {
            let mut w = WorldBuilder::new(stable_net(n))
                .seed(27)
                .build(|pid, n| Standalone(VCubeDetector::new(pid, n, VCubeConfig::default())));
            w.run_until_time(Time::from_millis(500));
            let (trace, metrics) = w.into_results();
            let got = (
                trace.digest(),
                metrics.events_processed(),
                metrics.sent_total(),
            );
            assert_eq!(got, want, "n = {n}");
        }
    }

    /// Two processes on 1 ms links that are dead in both directions from
    /// `cut` to `heal` (ms), run to 600 ms. Each is the other's only
    /// testee, so nothing is learned by hearsay; rounds fall on
    /// multiples of 10 ms, and the first test the cut swallows is the
    /// one sent at 110 ms.
    fn pair_through_a_cut(heal: u64) -> fd_sim::World<Standalone<VCubeDetector>> {
        use fd_sim::chaos::{self, Intervention, NetChange};
        let link = LinkModel::reliable_const(SimDuration::from_millis(1));
        let mut w = WorldBuilder::new(NetworkConfig::new(2).with_default(link.clone()))
            .seed(29)
            .build(|pid, n| Standalone(VCubeDetector::new(pid, n, VCubeConfig::default())));
        for (at, tag, model) in [
            (105, chaos::PARTITION, LinkModel::Dead),
            (heal, chaos::HEAL, link),
        ] {
            let (a, b) = (ProcessId(0), ProcessId(1));
            let change = NetChange::SetLinks(vec![(a, b, model.clone()), (b, a, model)]);
            let payload = fd_sim::Payload::None;
            let cut_or_heal = Intervention {
                tag,
                payload,
                change,
            };
            w.schedule_intervention(Time::from_millis(at), cut_or_heal);
        }
        w.run_until_time(Time::from_millis(600));
        w
    }

    /// A cut of 100 ms swallows attempts one to four (110 … 200 ms); the
    /// fifth, at 230 ms, is answered. Nobody's output moves.
    #[test]
    fn a_cut_shorter_than_the_procedure_is_no_suspicion() {
        let w = pair_through_a_cut(205);
        for p in [ProcessId(0), ProcessId(1)] {
            assert_eq!(w.actor(p).0.mistakes(), 0, "{p}");
            let outputs = w.trace().observations_of(p, fd_core::obs::SUSPECTS);
            assert_eq!(outputs.count(), 1, "{p} reported more than its initial set");
        }
    }

    /// A cut of 300 ms outlasts the procedure: each end suspects the
    /// other when its fifth attempt times out, 5 × 30 ms after the first
    /// lost send and no sooner, takes it back after the heal, and has
    /// then made one mistake and grown that peer's timeout once.
    #[test]
    fn a_longer_cut_is_suspected_after_five_timeouts_and_revoked() {
        let w = pair_through_a_cut(405);
        let cfg = VCubeConfig::default();
        let run = FdRun::new(w.trace(), 2, Time::from_millis(600));
        for (p, q) in [(ProcessId(0), ProcessId(1)), (ProcessId(1), ProcessId(0))] {
            let at = run.first_suspicion_of(p, q).expect("the cut is noticed");
            assert_eq!(
                at,
                Time::from_millis(110) + SimDuration(5 * cfg.initial_timeout.0)
            );
            assert!(run.final_suspects(p).is_empty(), "{p} after the heal");
            assert_eq!(run.suspicion_entries(p, q), 1);
            let d = &w.actor(p).0;
            assert_eq!(d.mistakes(), 1, "{p}");
            let grown = SimDuration(cfg.initial_timeout.0 + cfg.timeout_increment.0);
            assert_eq!(d.timeouts.get(q), grown);
        }
    }

    /// A crashed process's direct testers suspect it at most five
    /// timeouts after the first test it does not answer, which leaves
    /// at most a round after the crash: `5 × timeout + 2 × period`
    /// covers it with a period to spare.
    #[test]
    fn a_crashed_testee_is_suspected_within_five_timeouts_and_two_periods() {
        let (trace, end) = run_world(8, &[(3, 103)], 400, 30);
        let run = FdRun::new(&trace, 8, end);
        let cfg = VCubeConfig::default();
        let bound = SimDuration(5 * cfg.initial_timeout.0 + 2 * cfg.period.0);
        // p3's hypercube neighbours: 3 ⊕ 1, 3 ⊕ 2, 3 ⊕ 4.
        for tester in [2usize, 1, 7] {
            let at = run.first_suspicion_of(ProcessId(tester), ProcessId(3));
            let at = at.unwrap_or_else(|| panic!("p{tester} never suspects p3"));
            let took = at.since(Time::from_millis(103));
            assert!(took <= bound, "p{tester} took {took}, bound {bound}");
            assert!(
                took >= SimDuration(4 * cfg.initial_timeout.0),
                "p{tester}: {took}"
            );
        }
    }

    /// Under perpetual 15 % loss a five-attempt test still fails about
    /// once in 600, so mistakes never stop — but they are rare: 4.8 per
    /// process-second here, where a single attempt made 807. The bound
    /// is twice the measurement.
    #[test]
    fn lossy_links_raise_few_false_suspicions() {
        let n = 64;
        let net = NetworkConfig::new(n).with_default(LinkModel::fair_lossy(
            SimDuration::from_millis(1),
            SimDuration::from_millis(8),
            0.15,
        ));
        let mut w = WorldBuilder::new(net)
            .seed(31)
            .build(|pid, n| Standalone(VCubeDetector::new(pid, n, VCubeConfig::default())));
        let end = Time::from_secs(1);
        w.run_until_time(end);
        let rate = FdRun::new(w.trace(), n, end).qos().mistake_rate();
        assert!(rate <= 10.0, "{rate} false suspicions per process-second");
    }

    /// Dissemination, not just direct testing: with n = 32 only the 5
    /// hypercube neighbours of a crashed process test it directly, yet
    /// every correct process must learn of the crash through ack news.
    #[test]
    fn news_disseminates_beyond_direct_testers() {
        let (trace, end) = run_world(32, &[(13, 100)], 2000, 26);
        let run = FdRun::new(&trace, 32, end);
        run.check_class(FdClass::EventuallyPerfect).unwrap();
        for p in 0..32usize {
            if p == 13 {
                continue;
            }
            assert_eq!(
                run.final_suspects(ProcessId(p)),
                ProcessSet::singleton(ProcessId(13)),
                "p{p} never learned of the crash"
            );
        }
    }
}
