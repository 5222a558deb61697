//! Deterministic durable-storage model: a simulated disk with explicit
//! fsync and crash-truncation semantics.
//!
//! The paper's system model has no disks — processes fail by crashing
//! and never recover. The warm-restart extension
//! ([`NetChange::Restart`](crate::chaos::NetChange::Restart)) keeps the
//! actor's in-memory state, which models a process *pause*, not a real
//! crash. A replicated service that claims durability needs the
//! stronger story: on a crash, everything volatile is lost and only
//! what was explicitly fsynced survives. [`SimDisk`] provides exactly
//! that boundary, deterministically:
//!
//! * **Appends are volatile until fsync.** [`SimDisk::append`] stages
//!   bytes; [`SimDisk::fsync`] moves them to the durable image. The
//!   *cost* of an fsync is not modeled here — it is simulated time, so
//!   the actor charges it by scheduling its group-commit timer
//!   [`StorageConfig::fsync_interval`]` + `[`StorageConfig::fsync_cost`]
//!   after the first dirty write (see `fd-kv`'s replica).
//! * **Atomic replace.** [`SimDisk::replace`] stages a whole-image
//!   swap (the rename-over trick used for snapshot files); the swap
//!   becomes durable only at the next [`SimDisk::fsync`]. A crash
//!   before that keeps the *old* image intact.
//! * **Crash truncation with torn tails.** [`SimDisk::crash`] discards
//!   any staged replace and keeps only a caller-chosen prefix of the
//!   unsynced appends — modeling the real-world failure mode where a
//!   crash tears the last partially-written record. The caller derives
//!   the prefix length from its process RNG so recovery is a pure
//!   function of the seed.
//!
//! Nothing here reads a clock or an RNG; `SimDisk` is plain state, so
//! it composes with [`World::reset`](crate::World::reset) and
//! byte-identical replay for free.

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Timing knobs of the simulated durability layer. The disk itself is
/// untimed; actors apply these when scheduling their commit timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageConfig {
    /// Fixed latency of one fsync (charged once per group commit).
    pub fsync_cost: SimDuration,
    /// Group-commit window: dirty appends are fsynced together at this
    /// cadence rather than one syscall per record.
    pub fsync_interval: SimDuration,
}

impl Default for StorageConfig {
    fn default() -> StorageConfig {
        StorageConfig {
            fsync_cost: SimDuration::from_millis(2),
            fsync_interval: SimDuration::from_millis(5),
        }
    }
}

/// One simulated disk file: a durable byte image plus the volatile
/// write-ahead of bytes appended (or a whole-image replace staged)
/// since the last fsync.
#[derive(Debug, Clone, Default)]
pub struct SimDisk {
    durable: Vec<u8>,
    /// Bytes appended since the last fsync (lost or torn on crash).
    pending: Vec<u8>,
    /// A staged whole-image swap (`None` = none staged).
    staged: Option<Vec<u8>>,
    fsyncs: u64,
}

impl SimDisk {
    /// An empty disk.
    pub fn new() -> SimDisk {
        SimDisk::default()
    }

    /// Stage `bytes` at the end of the file. Volatile until
    /// [`fsync`](SimDisk::fsync).
    pub fn append(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// Stage an atomic whole-image replacement (write-temp-then-rename).
    /// Discards any pending appends — they were relative to the old
    /// image. Durable only after the next [`fsync`](SimDisk::fsync); a
    /// crash first keeps the old image.
    pub fn replace(&mut self, image: Vec<u8>) {
        self.pending.clear();
        self.staged = Some(image);
    }

    /// Make everything staged durable: an in-flight replace first, then
    /// the pending appends.
    pub fn fsync(&mut self) {
        if let Some(image) = self.staged.take() {
            self.durable = image;
        }
        self.durable.extend_from_slice(&self.pending);
        self.pending.clear();
        self.fsyncs += 1;
    }

    /// Whether anything is staged but not yet durable.
    pub fn dirty(&self) -> bool {
        !self.pending.is_empty() || self.staged.is_some()
    }

    /// The durable image — all a recovery ever gets to read.
    pub fn durable(&self) -> &[u8] {
        &self.durable
    }

    /// Bytes appended since the last fsync (exposed so a crash can tear
    /// a prefix of exactly this region).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Apply crash-truncation semantics: the staged replace (if any) is
    /// discarded whole — the rename never happened — and only the first
    /// `keep_pending` bytes of the unsynced appends reach the durable
    /// image, modeling a torn final write. `keep_pending` is clamped to
    /// the pending length; the caller typically draws it from its
    /// process RNG so the tear point is seed-deterministic.
    pub fn crash(&mut self, keep_pending: usize) {
        self.staged = None;
        let keep = keep_pending.min(self.pending.len());
        self.durable.extend_from_slice(&self.pending[..keep]);
        self.pending.clear();
    }

    /// Number of fsyncs since creation (reporting only).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_are_volatile_until_fsync() {
        let mut d = SimDisk::new();
        d.append(b"abc");
        assert!(d.dirty());
        assert_eq!(d.durable(), b"");
        d.fsync();
        assert!(!d.dirty());
        assert_eq!(d.durable(), b"abc");
        assert_eq!(d.fsyncs(), 1);
    }

    #[test]
    fn crash_keeps_only_the_torn_prefix_of_pending_appends() {
        let mut d = SimDisk::new();
        d.append(b"abc");
        d.fsync();
        d.append(b"defgh");
        d.crash(2);
        assert_eq!(d.durable(), b"abcde", "synced prefix + 2 torn bytes");
        assert!(!d.dirty());
        // The clamp: a keep larger than pending is the whole tail.
        let mut d = SimDisk::new();
        d.append(b"xy");
        d.crash(99);
        assert_eq!(d.durable(), b"xy");
    }

    #[test]
    fn replace_is_atomic_across_crashes() {
        let mut d = SimDisk::new();
        d.append(b"old");
        d.fsync();
        d.replace(b"NEWIMAGE".to_vec());
        // Crash before fsync: the old image survives untouched.
        let mut crashed = d.clone();
        crashed.crash(usize::MAX);
        assert_eq!(crashed.durable(), b"old");
        // Fsync commits the swap.
        d.fsync();
        assert_eq!(d.durable(), b"NEWIMAGE");
    }

    #[test]
    fn replace_discards_appends_staged_against_the_old_image() {
        let mut d = SimDisk::new();
        d.append(b"tail");
        d.replace(b"snap".to_vec());
        d.append(b"+rec");
        d.fsync();
        assert_eq!(d.durable(), b"snap+rec");
    }

    #[test]
    fn byte_counters_track_appends() {
        let mut d = SimDisk::new();
        d.append(b"12345");
        d.append(b"678");
        assert_eq!(d.pending_len(), 8);
    }
}
