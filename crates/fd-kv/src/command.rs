//! The KV command codec: one operation packed into a `u64` command word.
//!
//! `fd-consensus::multi` moves opaque `u64` command words — a log slot
//! decides a *batch* of them — so KV operations travel bit-packed. The
//! opcode lives in the top two bits and is never zero, which keeps
//! every encoded command distinct from the reserved
//! [`NOOP`](fd_consensus::NOOP) (0), the log entry of an empty slot.
//! Which batch wins a contended slot is settled by batch *names*
//! (length, then proposer), never by comparing command words — so
//! neither the opcode nor the uid ranks one client's op above another's.
//!
//! Layout (most-significant first):
//!
//! ```text
//! | op: 2 bits | uid: 14 bits | key: 16 bits | arg1: 16 bits | arg2: 16 bits |
//! ```
//!
//! `uid` is a campaign-wide operation index: the workload generator
//! numbers ops `0, 1, 2, …`, so a decided command can be matched back
//! to its submission (and its arrival time) from the trace alone.

/// One client operation against the replicated store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Read `key` (reads go through the log: linearizable by slot order).
    Get {
        /// The key.
        key: u16,
    },
    /// Write `value` to `key`.
    Put {
        /// The key.
        key: u16,
        /// The new value.
        value: u16,
    },
    /// Compare-and-swap: set `key` to `new` iff its current value is
    /// `expect` (absent keys read as 0).
    Cas {
        /// The key.
        key: u16,
        /// The expected current value.
        expect: u16,
        /// The replacement value.
        new: u16,
    },
}

/// Largest encodable operation uid (14 bits).
pub const MAX_UID: u64 = (1 << 14) - 1;

const OP_GET: u64 = 1;
const OP_PUT: u64 = 2;
const OP_CAS: u64 = 3;

/// Pack `(uid, op)` into a log command word. Panics if `uid` exceeds
/// [`MAX_UID`] — the workload generator never issues that many ops.
pub fn encode(uid: u64, op: KvOp) -> u64 {
    assert!(uid <= MAX_UID, "uid {uid} exceeds {MAX_UID}");
    let (code, key, a1, a2) = match op {
        KvOp::Get { key } => (OP_GET, key, 0, 0),
        KvOp::Put { key, value } => (OP_PUT, key, value, 0),
        KvOp::Cas { key, expect, new } => (OP_CAS, key, expect, new),
    };
    (code << 62) | (uid << 48) | ((key as u64) << 32) | ((a1 as u64) << 16) | a2 as u64
}

/// Unpack a command word. `None` for words with an invalid opcode —
/// in particular the `NOOP` gap-filler (opcode 0), which applications
/// skip.
pub fn decode(word: u64) -> Option<(u64, KvOp)> {
    let uid = (word >> 48) & MAX_UID;
    let key = (word >> 32) as u16;
    let a1 = (word >> 16) as u16;
    let a2 = word as u16;
    let op = match word >> 62 {
        OP_GET => KvOp::Get { key },
        OP_PUT => KvOp::Put { key, value: a1 },
        OP_CAS => KvOp::Cas {
            key,
            expect: a1,
            new: a2,
        },
        _ => return None,
    };
    Some((uid, op))
}

/// The uid of an encoded command (without decoding the operation).
pub fn uid_of(word: u64) -> u64 {
    (word >> 48) & MAX_UID
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_op_shape() {
        let ops = [
            KvOp::Get { key: 7 },
            KvOp::Put {
                key: 0xffff,
                value: 0xabcd,
            },
            KvOp::Cas {
                key: 3,
                expect: 0,
                new: 0xffff,
            },
        ];
        for (uid, op) in ops.into_iter().enumerate() {
            let word = encode(uid as u64, op);
            assert_eq!(decode(word), Some((uid as u64, op)));
            assert_eq!(uid_of(word), uid as u64);
            assert_ne!(word, fd_consensus::NOOP, "commands never collide with NOOP");
        }
    }

    #[test]
    fn noop_decodes_to_none() {
        assert_eq!(decode(fd_consensus::NOOP), None);
    }

    #[test]
    fn commands_exceed_noop_in_value_order() {
        // NOOP (0) is reserved for empty slots; the non-zero opcode in the
        // top bits puts every real command above it.
        let word = encode(0, KvOp::Get { key: 0 });
        assert!(word > fd_consensus::NOOP);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_uid_rejected() {
        let _ = encode(MAX_UID + 1, KvOp::Get { key: 0 });
    }
}
