//! The replicated state machine: an ordered `u16 → u16` map plus its
//! snapshot codec and the running apply digest.

use crate::command::KvOp;
use crate::wal::crc32;
use std::collections::BTreeMap;

/// FNV-1a step: fold `x` into digest `h`. The same digest family the
/// kernel trace uses, so replica-state digests are cheap and stable.
pub fn fnv_step(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seed of the apply-digest chain (standard FNV-1a offset basis).
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The in-memory key-value state of one replica.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<u16, u16>,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> KvStore {
        KvStore::default()
    }

    /// Current value of `key`; absent keys read as 0.
    pub fn get(&self, key: u16) -> u16 {
        self.map.get(&key).copied().unwrap_or(0)
    }

    /// Apply one operation, returning the value of the touched key
    /// afterwards (the op's "result" — folded into the apply digest so
    /// replicas that disagree on outcomes, not just ops, diverge).
    pub fn apply(&mut self, op: KvOp) -> u16 {
        match op {
            KvOp::Get { key } => self.get(key),
            KvOp::Put { key, value } => {
                self.map.insert(key, value);
                value
            }
            KvOp::Cas { key, expect, new } => {
                if self.get(key) == expect {
                    self.map.insert(key, new);
                }
                self.get(key)
            }
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Serialize a snapshot: the full store image plus the apply cursor
    /// and digest needed to resume the chain, CRC-sealed.
    ///
    /// ```text
    /// applied: u64 | digest: u64 | count: u32 | count × (key: u16, value: u16) | crc32: u32
    /// ```
    pub fn encode_snapshot(&self, applied: u64, digest: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.map.len() * 4);
        out.extend_from_slice(&applied.to_le_bytes());
        out.extend_from_slice(&digest.to_le_bytes());
        out.extend_from_slice(&(self.map.len() as u32).to_le_bytes());
        for (&k, &v) in &self.map {
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode a snapshot produced by [`KvStore::encode_snapshot`]: the store,
    /// the apply cursor, and the digest. `None` on any framing or CRC
    /// mismatch — a recovery then falls back to an empty store and full
    /// catch-up rather than trusting torn bytes.
    pub fn decode_snapshot(bytes: &[u8]) -> Option<(KvStore, u64, u64)> {
        if bytes.len() < 24 {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let crc = u32::from_le_bytes(tail.try_into().ok()?);
        if crc32(body) != crc {
            return None;
        }
        let applied = u64::from_le_bytes(body[0..8].try_into().ok()?);
        let digest = u64::from_le_bytes(body[8..16].try_into().ok()?);
        let count = u32::from_le_bytes(body[16..20].try_into().ok()?) as usize;
        if body.len() != 20 + count * 4 {
            return None;
        }
        let mut map = BTreeMap::new();
        for i in 0..count {
            let off = 20 + i * 4;
            let k = u16::from_le_bytes(body[off..off + 2].try_into().ok()?);
            let v = u16::from_le_bytes(body[off + 2..off + 4].try_into().ok()?);
            map.insert(k, v);
        }
        Some((KvStore { map }, applied, digest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_semantics() {
        let mut s = KvStore::new();
        assert_eq!(s.apply(KvOp::Get { key: 1 }), 0, "absent reads as 0");
        assert_eq!(s.apply(KvOp::Put { key: 1, value: 5 }), 5);
        assert_eq!(
            s.apply(KvOp::Cas {
                key: 1,
                expect: 5,
                new: 9
            }),
            9,
            "matching cas swaps"
        );
        assert_eq!(
            s.apply(KvOp::Cas {
                key: 1,
                expect: 5,
                new: 7
            }),
            9,
            "stale cas is a no-op returning the current value"
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut s = KvStore::new();
        for k in 0..20u16 {
            s.apply(KvOp::Put {
                key: k,
                value: k * 3,
            });
        }
        let bytes = s.encode_snapshot(42, 0xdead_beef);
        let (back, applied, digest) = KvStore::decode_snapshot(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(applied, 42);
        assert_eq!(digest, 0xdead_beef);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let s = KvStore::new();
        let mut bytes = s.encode_snapshot(7, 1);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert_eq!(KvStore::decode_snapshot(&bytes), None, "bad crc");
        assert_eq!(KvStore::decode_snapshot(&[1, 2, 3]), None, "short input");
    }

    proptest::proptest! {
        /// Arbitrary bytes; arbitrary bytes given a near-miss entry count
        /// and re-sealed with their own CRC, so the framing check behind
        /// the CRC gate is reached; and a valid image with one byte
        /// damaged. `decode_snapshot` never panics, returns a store only
        /// under a good CRC and a count that matches the length, and
        /// never accepts the damage.
        #[test]
        fn decode_snapshot_never_panics_and_never_trusts_a_bad_image(
            noise in proptest::prop::collection::vec(0u8..=255, 0..96),
            skew in 0u32..3,
            puts in proptest::prop::collection::vec((0u16..=u16::MAX, 0u16..=u16::MAX), 0..12),
            at in proptest::any::<usize>(),
            flip in 1u8..=255,
        ) {
            if let Some(split) = noise.len().checked_sub(4) {
                let sealed = crc32(&noise[..split]).to_le_bytes() == noise[split..];
                proptest::prop_assert!(KvStore::decode_snapshot(&noise).is_none() || sealed);
            }

            let mut body = noise;
            let mut fits = false;
            if let Some(entries) = body.len().checked_sub(20) {
                let count = ((entries / 4) as u32).wrapping_add(skew).wrapping_sub(1);
                body[16..20].copy_from_slice(&count.to_le_bytes());
                fits = entries == 4 * count as usize;
            }
            body.extend_from_slice(&crc32(&body).to_le_bytes());
            proptest::prop_assert_eq!(KvStore::decode_snapshot(&body).is_some(), fits);

            let mut store = KvStore::new();
            for (key, value) in puts {
                store.apply(KvOp::Put { key, value });
            }
            let mut image = store.encode_snapshot(at as u64, !(at as u64));
            proptest::prop_assert!(KvStore::decode_snapshot(&image).is_some());
            let at = at % image.len();
            image[at] ^= flip;
            proptest::prop_assert_eq!(KvStore::decode_snapshot(&image), None);
            image.truncate(at);
            proptest::prop_assert_eq!(KvStore::decode_snapshot(&image), None);
        }
    }

    #[test]
    fn digest_chain_is_order_sensitive() {
        let a = fnv_step(fnv_step(DIGEST_SEED, 1), 2);
        let b = fnv_step(fnv_step(DIGEST_SEED, 2), 1);
        assert_ne!(a, b);
    }
}
