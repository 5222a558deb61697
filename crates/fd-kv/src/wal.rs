//! The write-ahead log: CRC-framed records over a [`SimDisk`], with
//! torn-tail recovery.
//!
//! Record frame:
//!
//! ```text
//! | len: u32 LE | crc32(payload): u32 LE | payload (len bytes) |
//! ```
//!
//! Payloads are fixed-shape: a type byte plus two `u64`s.
//!
//! * [`WalRecord::Apply`]`(slot, cmd)` — `cmd` is the next command of
//!   the batch decided in `slot`. A slot logs one per command, in batch
//!   order, slots in log order.
//! * [`WalRecord::Seal`]`(slot, name)` — every command of `slot`'s
//!   batch (the one consensus decided under `name`) is logged above.
//!   Recovery replays a slot only once it reads its seal, so a crash
//!   that tears the log inside a batch loses the whole slot — to be
//!   fetched again from a peer — never part of one. An empty slot is a
//!   seal alone.
//! * [`WalRecord::Join`]`(slot)` — this replica is about to send its
//!   first consensus message in `slot`. Fsynced *before* the message
//!   leaves, so a recovering replica knows which in-flight slots it may
//!   have voted in pre-crash and must never vote in again (re-voting
//!   with fresh state could equivocate).
//!
//! Recovery ([`recover`]) scans from the start and stops at the first
//! frame that is short or fails its CRC — the torn tail a crash leaves
//! behind — returning every complete record before it.

use fd_sim::SimDisk;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// One WAL record (see the module docs for the three kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord {
    /// `(slot, cmd)`: one command of the batch decided in `slot`.
    Apply(u64, u64),
    /// `(slot, name)`: `slot`'s batch is logged in full.
    Seal(u64, u64),
    /// `(slot)`: first consensus participation in `slot`.
    Join(u64),
}

const TYPE_APPLY: u8 = 1;
const TYPE_JOIN: u8 = 2;
const TYPE_SEAL: u8 = 3;
const PAYLOAD_LEN: usize = 17;
const FRAME_LEN: usize = 8 + PAYLOAD_LEN;

impl WalRecord {
    fn payload(self) -> [u8; PAYLOAD_LEN] {
        let (ty, a, b) = match self {
            WalRecord::Apply(slot, cmd) => (TYPE_APPLY, slot, cmd),
            WalRecord::Join(slot) => (TYPE_JOIN, slot, 0),
            WalRecord::Seal(slot, name) => (TYPE_SEAL, slot, name),
        };
        let mut out = [0u8; PAYLOAD_LEN];
        out[0] = ty;
        out[1..9].copy_from_slice(&a.to_le_bytes());
        out[9..17].copy_from_slice(&b.to_le_bytes());
        out
    }

    fn parse(payload: &[u8]) -> Option<WalRecord> {
        if payload.len() != PAYLOAD_LEN {
            return None;
        }
        let a = u64::from_le_bytes(payload[1..9].try_into().ok()?);
        let b = u64::from_le_bytes(payload[9..17].try_into().ok()?);
        match payload[0] {
            TYPE_APPLY => Some(WalRecord::Apply(a, b)),
            TYPE_JOIN => Some(WalRecord::Join(a)),
            TYPE_SEAL => Some(WalRecord::Seal(a, b)),
            _ => None,
        }
    }

    /// Frame this record (length + CRC + payload). Frames are
    /// fixed-size, so appending one allocates nothing.
    pub fn frame(self) -> [u8; FRAME_LEN] {
        let payload = self.payload();
        let mut out = [0u8; FRAME_LEN];
        out[..4].copy_from_slice(&(PAYLOAD_LEN as u32).to_le_bytes());
        out[4..8].copy_from_slice(&crc32(&payload).to_le_bytes());
        out[8..].copy_from_slice(&payload);
        out
    }
}

/// Append one framed record to `disk` (volatile until the next fsync).
pub fn append(disk: &mut SimDisk, record: WalRecord) {
    disk.append(&record.frame());
}

/// Serialize `records` back-to-back — the compaction path, which
/// rewrites the WAL as one atomic [`SimDisk::replace`].
pub fn encode_log(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * FRAME_LEN);
    for r in records {
        out.extend_from_slice(&r.frame());
    }
    out
}

/// Scan a durable WAL image: every complete, CRC-valid record up to the
/// first torn or corrupt frame, plus the byte length of that valid
/// prefix. Bytes past the returned length are the torn tail a crash
/// left behind; recovery truncates (ignores) them.
pub fn recover(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut off = 0;
    while bytes.len() - off >= 8 {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        let start = off + 8;
        if len != PAYLOAD_LEN || bytes.len() - start < len {
            break; // torn or alien frame
        }
        let payload = &bytes[start..start + len];
        if crc32(payload) != crc {
            break; // torn inside the payload
        }
        let Some(record) = WalRecord::parse(payload) else {
            break;
        };
        records.push(record);
        off = start + len;
    }
    (records, off)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_a_disk() {
        let mut disk = SimDisk::new();
        let written = vec![
            WalRecord::Join(0),
            WalRecord::Apply(0, 77),
            WalRecord::Seal(0, 0x1_0002),
            WalRecord::Seal(1, 0),
            WalRecord::Join(5),
        ];
        for &r in &written {
            append(&mut disk, r);
        }
        disk.fsync();
        let (back, valid) = recover(disk.durable());
        assert_eq!(back, written);
        assert_eq!(valid, disk.durable().len());
    }

    #[test]
    fn torn_tail_recovers_to_the_last_complete_record() {
        let mut disk = SimDisk::new();
        append(&mut disk, WalRecord::Apply(0, 10));
        append(&mut disk, WalRecord::Apply(1, 11));
        disk.fsync();
        append(&mut disk, WalRecord::Apply(2, 12));
        // Crash mid-write: only 5 bytes of the third frame survive.
        disk.crash(5);
        let (records, valid) = recover(disk.durable());
        assert_eq!(
            records,
            vec![WalRecord::Apply(0, 10), WalRecord::Apply(1, 11)],
            "the torn third record is discarded"
        );
        assert!(valid <= disk.durable().len());
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let mut bytes = encode_log(&[WalRecord::Apply(0, 1), WalRecord::Apply(1, 2)]);
        // Flip a payload byte of the second record.
        let second_payload = 8 + PAYLOAD_LEN + 8;
        bytes[second_payload + 3] ^= 0x40;
        let (records, _) = recover(&bytes);
        assert_eq!(records, vec![WalRecord::Apply(0, 1)]);
    }

    #[test]
    fn empty_and_garbage_images_recover_to_nothing() {
        assert_eq!(recover(&[]), (Vec::new(), 0));
        let (records, valid) = recover(&[0xff; 6]);
        assert!(records.is_empty());
        assert_eq!(valid, 0);
    }

    proptest::proptest! {
        /// A soup of valid frames of every kind, frames with one byte
        /// flipped, and raw noise, cut at an arbitrary offset: `recover`
        /// never panics, and what it returns is exactly the bytes it
        /// says it read — re-encoding the records gives back the valid
        /// prefix, which holds nothing but whole frames.
        #[test]
        fn recover_never_panics_and_returns_what_it_read(
            pieces in proptest::prop::collection::vec(
                (0u8..6, proptest::any::<u64>(), proptest::any::<u64>(), 0usize..64),
                0..24,
            ),
            cut in 0usize..2048,
        ) {
            let mut bytes = Vec::new();
            for (kind, a, b, at) in pieces {
                let mut frame = match kind % 3 {
                    0 => WalRecord::Apply(a, b),
                    1 => WalRecord::Seal(a, b),
                    _ => WalRecord::Join(a),
                }
                .frame()
                .to_vec();
                let at = at % frame.len();
                match kind {
                    0..=2 => {}
                    3 => frame[at] ^= 1 << (b % 8),
                    4 => frame.truncate(at),
                    _ => frame = a.to_le_bytes().repeat(at % 8),
                }
                bytes.extend_from_slice(&frame);
            }
            bytes.truncate(cut);
            let (records, valid) = recover(&bytes);
            proptest::prop_assert!(valid <= bytes.len());
            proptest::prop_assert_eq!(&encode_log(&records)[..], &bytes[..valid]);
            proptest::prop_assert_eq!(recover(&bytes[..valid]), (records, valid));
        }
    }
}
