//! The generated observation-key registry — the single source of truth
//! for every stringly-typed key the workspace emits or consumes.
//!
//! A typo'd key makes a monitor silently vacuous: the emitter writes
//! `fd.weak_completeness`, the checker greps for `fd.weak_completness`,
//! and every seed "passes" because the property was never evaluated.
//! PR 6's round-wedge class was exactly this failure mode one layer
//! down (a silently dropped message instead of a silently missed key).
//! This module closes the gap: the `obs_keys!` macro generates one
//! `pub const` per key *and* the [`ALL`] table the `fd-lint` OBS001 /
//! OBS002 rules check against, so "key exists", "key is emitted", and
//! "key is consumed" are machine-checked at build time.
//!
//! Conventions:
//!
//! - Const names are the key with `.` → `_`, upper-cased
//!   (`"sim.events"` → [`SIM_EVENTS`]); fd-lint relies on this to map
//!   identifier uses back to registry entries across re-exports.
//! - Raw key literals outside this file are an OBS001 finding in
//!   non-test code; reference the const (directly or through a
//!   re-exporting convenience module such as `fd_sim::chaos` or
//!   `fd_core::obs`) instead.

/// What role a registered key plays — this decides which cross-file
/// consistency rules `fd-lint` applies to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyCategory {
    /// A `Registry` counter/gauge/histogram name. Must be both emitted
    /// and consumed somewhere in the workspace (OBS002).
    Metric,
    /// A trace observation tag (`Context::observe` /
    /// `World::annotate`). Must be both emitted and consumed (OBS002).
    Obs,
    /// A named property check (`run_named_check`) or monitor name.
    /// Consumed by the checker tables; has no single emit site, so
    /// OBS002's emitter rule does not apply.
    Check,
    /// A `SimMessage::kind()` label. Aggregated generically by the
    /// metrics layer; exempt from OBS002.
    Kind,
}

impl KeyCategory {
    /// Lowercase label used in reports and the graph dump.
    pub fn label(self) -> &'static str {
        match self {
            KeyCategory::Metric => "metric",
            KeyCategory::Obs => "obs",
            KeyCategory::Check => "check",
            KeyCategory::Kind => "kind",
        }
    }
}

/// One generated registry row: `(const_name, key, category)`.
pub type KeyEntry = (&'static str, &'static str, KeyCategory);

macro_rules! obs_keys {
    ($( $(#[$doc:meta])* $cat:ident $name:ident = $key:literal; )+) => {
        $( $(#[$doc])* pub const $name: &str = $key; )+

        /// Every registered key, in declaration order.
        pub const ALL: &[KeyEntry] = &[
            $( (stringify!($name), $key, KeyCategory::$cat), )+
        ];
    };
}

obs_keys! {
    // ── Kernel metrics ─────────────────────────────────────────────
    /// Counter: events dispatched by the kernel loop.
    Metric SIM_EVENTS = "sim.events";
    /// Gauge (high-water mark): event-queue depth.
    Metric SIM_QUEUE_DEPTH_HWM = "sim.queue_depth_hwm";
    /// Histogram: sampled actor-callback latency, nanoseconds.
    Metric SIM_CALLBACK_NS = "sim.callback_ns";
    /// Counter: messages dropped by the installed link mangler.
    Metric CHAOS_MSGS_DROPPED = "chaos.msgs_dropped";
    /// Counter: messages duplicated by the installed link mangler.
    Metric CHAOS_MSGS_DUPLICATED = "chaos.msgs_duplicated";
    /// Counter: messages delay-reordered by the installed link mangler.
    Metric CHAOS_MSGS_REORDERED = "chaos.msgs_reordered";
    /// Gauge (high-water mark): concurrently open partitions.
    Metric CHAOS_PARTITIONS_ACTIVE = "chaos.partitions_active";
    /// Counter: shrink steps that stuck (`ecfd campaign --shrink`).
    Metric CAMPAIGN_SHRINK_STEPS = "campaign.shrink_steps";
    /// Counter: shrink candidates attempted (`ecfd campaign --shrink`).
    Metric CAMPAIGN_SHRINK_ATTEMPTS = "campaign.shrink_attempts";

    // ── Detector / consensus observation tags ──────────────────────
    /// Suspect-set change: payload `Pids` with the new set.
    Obs FD_SUSPECTS = "fd.suspects";
    /// Trusted-process change: payload `Pid` with the new leader.
    Obs FD_TRUSTED = "fd.trusted";
    /// Consensus proposal: payload `U64` with the value.
    Obs CONSENSUS_PROPOSE = "consensus.propose";
    /// Consensus decision: payload `U64Pair` (value, round).
    Obs CONSENSUS_DECIDE = "consensus.decide";
    /// Multi-instance replica proposed a non-empty batch:
    /// `U64Pair(slot, commands in the batch)`.
    Obs MULTI_PROPOSE = "multi.propose";
    /// A slot's batch was appended to the replicated log:
    /// `U64Pair(slot, fold of the batch's commands)`.
    Obs MULTI_APPEND = "multi.append";
    /// An amplified ◇P suspect-set change (distinct from the inner ◇C
    /// detector's `fd.suspects`): payload `Pids`.
    Obs EP_SUSPECTS_OUT = "ep.suspects.out";
    /// The weak→strong amplifier's output suspect set: payload `Pids`.
    Obs W2S_SUSPECTS_OUT = "w2s.suspects.out";
    /// Quiescent channel delivered a payload: `U64Pair(seq, payload)`.
    Obs QC_DELIVERED = "qc.delivered";

    // ── Chaos schedule annotation tags ─────────────────────────────
    /// An intervention cut one or more links.
    Obs CHAOS_PARTITION = "chaos.partition";
    /// An intervention restored previously cut links.
    Obs CHAOS_HEAL = "chaos.heal";
    /// An intervention installed a link mangler.
    Obs CHAOS_MANGLE = "chaos.mangle";
    /// An intervention removed the installed link mangler.
    Obs CHAOS_UNMANGLE = "chaos.unmangle";
    /// The scenario-chosen global stabilization time.
    Obs CHAOS_GST = "chaos.gst";
    /// A scheduled crash intervention fired.
    Obs CHAOS_CRASH = "chaos.crash";
    /// A warm restart of a previously crashed process.
    Obs CHAOS_RESTART = "chaos.restart";
    /// Which detector class the scenario expects after the faults
    /// (payload: index into `fd-core`'s class list).
    Obs CHAOS_EXPECT_CLASS = "chaos.expect_class";

    // ── KV serving-stack observation tags ──────────────────────────
    /// A client op arrived at its replica: `U64Pair(uid, cmd)`.
    Obs KV_SUBMIT = "kv.submit";
    /// A slot was applied to the store: `U64Pair(slot, digest)`.
    Obs KV_APPLY = "kv.apply";
    /// An op submitted here is decided *and* durable: `U64Pair(uid, slot)`.
    Obs KV_COMMIT = "kv.commit";
    /// Crash recovery finished its local WAL replay:
    /// `U64Pair(records_replayed, applied_after_replay)`. Doubles as the
    /// restart catch-up monitor's name.
    Obs KV_RECOVERY = "kv.recovery";
    /// Catch-up reached a peer's frontier: `U64Pair(applied, fetched)`.
    Obs KV_SYNC_DONE = "kv.sync_done";
    /// An in-flight ack was abandoned because an adopted snapshot hid
    /// its slot's decision: `U64Pair(uid, proposed_slot)`.
    Obs KV_ABANDON = "kv.abandon";

    // ── Named property checks and monitors ─────────────────────────
    /// Every crashed process is eventually suspected by every correct one.
    Check FD_STRONG_COMPLETENESS = "fd.strong_completeness";
    /// Every crashed process is eventually suspected by some correct one.
    Check FD_WEAK_COMPLETENESS = "fd.weak_completeness";
    /// Eventually no correct process is suspected by any correct one.
    Check FD_EVENTUAL_STRONG_ACCURACY = "fd.eventual_strong_accuracy";
    /// Eventually some correct process is never suspected.
    Check FD_EVENTUAL_WEAK_ACCURACY = "fd.eventual_weak_accuracy";
    /// Eventually all correct processes trust the same correct process.
    Check FD_OMEGA = "fd.omega";
    /// The trusted process is never in the suspect set (◇C consistency).
    Check FD_TRUSTED_NOT_SUSPECTED = "fd.trusted_not_suspected";
    /// The paper's ◇C class: Ω plus trusted-not-suspected.
    Check FD_EVENTUALLY_CONSISTENT = "fd.eventually_consistent";
    /// No two processes decide differently.
    Check CONSENSUS_AGREEMENT = "consensus.agreement";
    /// Every decided value was proposed.
    Check CONSENSUS_VALIDITY = "consensus.validity";
    /// No process decides twice.
    Check CONSENSUS_INTEGRITY = "consensus.integrity";
    /// Every correct process eventually decides.
    Check CONSENSUS_TERMINATION = "consensus.termination";
    /// Agreement + validity + integrity.
    Check CONSENSUS_SAFETY = "consensus.safety";
    /// All four consensus properties.
    Check CONSENSUS_ALL = "consensus.all";
    /// The run upholds ◇P after the chaos schedule's quiet point.
    Check CHAOS_EP_AFTER_FAULTS = "chaos.ep_after_faults";
    /// The run upholds ◇S after the chaos schedule's quiet point.
    Check CHAOS_ES_AFTER_FAULTS = "chaos.es_after_faults";
    /// The run upholds Ω after the chaos schedule's quiet point.
    Check CHAOS_OMEGA_AFTER_FAULTS = "chaos.omega_after_faults";
    /// The run upholds the class its `chaos.expect_class` annotation names.
    Check CHAOS_CLASS_AFTER_FAULTS = "chaos.class_after_faults";
    /// No two processes append different commands to the same slot.
    Check MULTI_LOG_AGREEMENT = "multi.log_agreement";
    /// All replicas applied byte-identical log prefixes.
    Check KV_LOG_AGREEMENT = "kv.log_agreement";
    /// Every survivor-submitted op committed (or visibly abandoned).
    Check KV_COMMITTED = "kv.committed";

    // ── Message-kind labels (metrics aggregation) ──────────────────
    /// EC round protocol: coordinator announcement.
    Kind EC_COORDINATOR = "ec.coordinator";
    /// EC round protocol: estimate carrying a value.
    Kind EC_ESTIMATE = "ec.estimate";
    /// EC round protocol: null estimate (not yet proposed).
    Kind EC_NULL_ESTIMATE = "ec.null_estimate";
    /// EC round protocol: proposition carrying a value.
    Kind EC_PROPOSITION = "ec.proposition";
    /// EC round protocol: null proposition (coordinator gave up the round).
    Kind EC_NULL_PROPOSITION = "ec.null_proposition";
    /// EC round protocol: acknowledgement.
    Kind EC_ACK = "ec.ack";
    /// EC round protocol: negative acknowledgement.
    Kind EC_NACK = "ec.nack";
    /// Merged-EC variant: estimate.
    Kind ECM_ESTIMATE = "ecm.estimate";
    /// Merged-EC variant: null estimate.
    Kind ECM_NULL_ESTIMATE = "ecm.null_estimate";
    /// Merged-EC variant: proposition.
    Kind ECM_PROPOSITION = "ecm.proposition";
    /// Merged-EC variant: null proposition.
    Kind ECM_NULL_PROPOSITION = "ecm.null_proposition";
    /// Merged-EC variant: acknowledgement.
    Kind ECM_ACK = "ecm.ack";
    /// Merged-EC variant: negative acknowledgement.
    Kind ECM_NACK = "ecm.nack";
    /// Chandra–Toueg: estimate.
    Kind CT_ESTIMATE = "ct.estimate";
    /// Chandra–Toueg: proposition.
    Kind CT_PROPOSITION = "ct.proposition";
    /// Chandra–Toueg: acknowledgement.
    Kind CT_ACK = "ct.ack";
    /// Chandra–Toueg: negative acknowledgement.
    Kind CT_NACK = "ct.nack";
    /// Mostefaoui–Raynal: phase-1 broadcast.
    Kind MR_PHASE1 = "mr.phase1";
    /// Mostefaoui–Raynal: phase-2 broadcast.
    Kind MR_PHASE2 = "mr.phase2";
    /// Mostefaoui–Raynal: phase-3 broadcast.
    Kind MR_PHASE3 = "mr.phase3";
    /// Paxos: phase-1a prepare.
    Kind PAXOS_PREPARE = "paxos.prepare";
    /// Paxos: phase-1b promise.
    Kind PAXOS_PROMISE = "paxos.promise";
    /// Paxos: phase-2a accept request.
    Kind PAXOS_ACCEPT = "paxos.accept";
    /// Paxos: phase-2b accepted.
    Kind PAXOS_ACCEPTED = "paxos.accepted";
    /// Paxos: rejection (higher ballot promised).
    Kind PAXOS_REJECT = "paxos.reject";
    /// Heartbeat detector: I-am-alive beat.
    Kind HB_ALIVE = "hb.alive";
    /// Ring detector: poll of the monitored predecessor segment.
    Kind RING_POLL = "ring.poll";
    /// Ring detector: poll reply.
    Kind RING_REPLY = "ring.reply";
    /// vCube detector: cluster test probe.
    Kind VC_TEST = "vc.test";
    /// vCube detector: test acknowledgement (with piggybacked news).
    Kind VC_ACK = "vc.ack";
    /// Quiescent channel: payload (re)transmission.
    Kind QC_DATA = "qc.data";
    /// Quiescent channel: acknowledgement.
    Kind QC_ACK = "qc.ack";
    /// Ω gossip reduction: candidate-set gossip.
    Kind OMEGA_GOSSIP = "omega.gossip";
    /// Reliable broadcast envelope.
    Kind RB_MSG = "rb.msg";
    /// Fused detector: leader-list share.
    Kind FUSED_LEADERLIST = "fused.leaderlist";
    /// Fused detector: alive beat.
    Kind FUSED_ALIVE = "fused.alive";
    /// Leader-election wrapper: alive beat.
    Kind LEADER_ALIVE = "leader.alive";
    /// Stable-leader Ω detector: alive beat.
    Kind STABLE_ALIVE = "stable.alive";
    /// EC→◇P amplifier: alive beat.
    Kind EP_ALIVE = "ep.alive";
    /// EC→◇P amplifier: suspect-set share.
    Kind EP_SUSPECTS = "ep.suspects";
    /// Weak→strong amplifier: suspect-set share.
    Kind W2S_SUSPECTS = "w2s.suspects";
    /// Heartbeat-counter channel: beat.
    Kind HBC_BEAT = "hbc.beat";
    /// Blind builtin scenario: heartbeat.
    Kind BLIND_HB = "blind.hb";
    /// Multi-instance consensus: slot-open announcement.
    Kind MULTI_OPEN = "multi.open";
    /// KV catch-up: snapshot/log-tail request.
    Kind KV_SYNC_REQ = "kv.sync_req";
    /// KV catch-up: snapshot/log-tail response.
    Kind KV_SYNC_RESP = "kv.sync_resp";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn keys_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for (name, key, _) in ALL {
            assert!(seen.insert(*key), "duplicate key {key}");
            assert!(
                key.split('.').count() >= 2,
                "{key}: keys are namespace.name"
            );
            for seg in key.split('.') {
                assert!(
                    !seg.is_empty()
                        && seg
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                    "{key}: segments are lowercase snake_case"
                );
            }
            let derived = key.replace('.', "_").to_uppercase();
            assert_eq!(
                *name, derived,
                "const name must be mechanically derived from the key"
            );
        }
    }

    #[test]
    fn const_names_are_unique() {
        let mut seen = BTreeSet::new();
        for (name, _, _) in ALL {
            assert!(seen.insert(*name), "duplicate const name {name}");
        }
    }
}
