//! The on-disk `ChunkFrame` header and the native hash functions.
//!
//! A transformed file is an append-only sequence of frames, each
//! self-describing:
//!
//! ```text
//! ┌──────────────── 40-byte header ────────────────┬─────────────────┐
//! │ magic codec flags  logical_off  logical_len    │ stored payload  │
//! │       stored_len  payload_check  header CRC    │ (stored_len B)  │
//! └────────────────────────────────────────────────┴─────────────────┘
//! ```
//!
//! - `payload_check` is an FNV-1a-64 over the *logical* (decoded)
//!   payload — verified after decode on every read, so corruption
//!   anywhere between encode and decode surfaces as an integrity error.
//! - the header carries its own CRC-32, so a corrupted header is
//!   detected as corruption rather than misparsed.
//! - frames appear in the file in *allocation order*; that order is the
//!   newest-wins authority for overlapping logical ranges and lets a
//!   fresh mount rebuild the frame map with a single header scan.
//!
//! All integers are little-endian.

use std::io;

use crate::aggregator::format::crc32;

/// Magic word opening every frame header ("CRFK").
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"CRFK");
/// Byte size of a frame header.
pub const FRAME_HEADER_LEN: u64 = 40;

/// Flag bit: the payload is a dedup *reference record* (origin stored
/// offset + origin path), not chunk bytes.
pub const FLAG_REF: u8 = 1 << 0;
/// Flag bit: a truncation marker — no payload; `logical_offset` is the
/// new logical length.
pub const FLAG_TRUNC: u8 = 1 << 1;
/// Flag bit: a padding frame covering stored space whose chunk write
/// failed — carries no logical data; scans skip it, keeping the frame
/// chain walkable past the damage.
pub const FLAG_PAD: u8 = 1 << 2;

/// One decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Stored codec id ([`super::codec::STORED_RAW`] etc.).
    pub codec: u8,
    /// [`FLAG_REF`] / [`FLAG_TRUNC`] bits.
    pub flags: u8,
    /// Byte offset of this chunk within the logical file (for `TRUNC`:
    /// the new logical length).
    pub logical_offset: u64,
    /// Decoded payload length in bytes.
    pub logical_len: u32,
    /// Stored payload length in bytes (follows the header).
    pub stored_len: u32,
    /// FNV-1a-64 of the logical payload.
    pub payload_check: u64,
}

impl FrameHeader {
    /// Serializes the header into its 40-byte form (CRC appended last).
    pub fn encode(&self) -> [u8; FRAME_HEADER_LEN as usize] {
        let mut out = [0u8; FRAME_HEADER_LEN as usize];
        out[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
        out[4] = self.codec;
        out[5] = self.flags;
        // bytes 6..8 reserved, zero.
        out[8..16].copy_from_slice(&self.logical_offset.to_le_bytes());
        out[16..20].copy_from_slice(&self.logical_len.to_le_bytes());
        out[20..24].copy_from_slice(&self.stored_len.to_le_bytes());
        out[24..32].copy_from_slice(&self.payload_check.to_le_bytes());
        // bytes 32..36 reserved, zero.
        let crc = crc32(&out[..36]);
        out[36..40].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates a header (magic + CRC). An
    /// `InvalidData` error means the bytes are not an intact frame
    /// header — corruption, a torn write, or a raw (unframed) file.
    pub fn decode(buf: &[u8]) -> io::Result<FrameHeader> {
        if buf.len() < FRAME_HEADER_LEN as usize {
            return Err(corrupt("truncated frame header"));
        }
        if u32::from_le_bytes(buf[..4].try_into().unwrap()) != FRAME_MAGIC {
            return Err(corrupt("bad frame magic"));
        }
        let crc = u32::from_le_bytes(buf[36..40].try_into().unwrap());
        if crc32(&buf[..36]) != crc {
            return Err(corrupt("frame header CRC mismatch"));
        }
        Ok(FrameHeader {
            codec: buf[4],
            flags: buf[5],
            logical_offset: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            logical_len: u32::from_le_bytes(buf[16..20].try_into().unwrap()),
            stored_len: u32::from_le_bytes(buf[20..24].try_into().unwrap()),
            payload_check: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
        })
    }
}

/// FNV-1a 64-bit — the per-chunk integrity checksum. Cheap (one
/// multiply per byte), dependency-free, and plenty for corruption
/// *detection* (the adversary here is bit rot, not an attacker).
pub fn fnv1a64(data: &[u8]) -> u64 {
    hash_pass::<false>(data).0
}

/// 128-bit content hash for the dedup index: two independent 64-bit
/// lanes (FNV-1a and an xxhash-style multiply-rotate over 8-byte
/// words), combined. Collision probability at checkpoint scale
/// (~2^-64 per pair even if one lane is weak) is negligible, and a
/// collision cannot corrupt data silently: the reference record still
/// carries the original chunk's `payload_check`, which is verified
/// against the resolved bytes on every read.
pub fn content_hash128(data: &[u8]) -> u128 {
    payload_hashes(data).1
}

/// Both persisted hashes of a chunk from one pass over its bytes:
/// `(fnv1a64(data), content_hash128(data))`. The write path needs the
/// frame checksum and the dedup key of every fresh chunk; the key's
/// first lane *is* the checksum, so hashing twice would run the serial
/// FNV multiply chain twice.
pub fn payload_hashes(data: &[u8]) -> (u64, u128) {
    let (fnv, mix) = hash_pass::<true>(data);
    (fnv, ((fnv as u128) << 64) | mix as u128)
}

/// The one hashing loop behind [`fnv1a64`], [`content_hash128`] and
/// [`payload_hashes`]: FNV-1a byte by byte and, when `MIX`, the
/// word-wise mix lane in the same loop. The two dependency chains are
/// independent, so the mix lane rides in the FNV chain's multiply
/// latency almost for free. Returns `(fnv, finalized mix)`; the mix
/// lane is 0 when `MIX` is false.
#[inline(always)]
fn hash_pass<const MIX: bool>(data: &[u8]) -> (u64, u64) {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix: u64 = P2 ^ (data.len() as u64);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        for &b in w {
            fnv = (fnv ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        if MIX {
            let v = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
            mix = (mix ^ v.wrapping_mul(P1)).rotate_left(27).wrapping_mul(P2);
        }
    }
    for &b in words.remainder() {
        fnv = (fnv ^ b as u64).wrapping_mul(FNV_PRIME);
        if MIX {
            mix = (mix ^ (b as u64).wrapping_mul(P1))
                .rotate_left(11)
                .wrapping_mul(P2);
        }
    }
    if !MIX {
        return (fnv, 0);
    }
    mix ^= mix >> 29;
    mix = mix.wrapping_mul(P1);
    mix ^= mix >> 32;
    (fnv, mix)
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = FrameHeader {
            codec: 2,
            flags: FLAG_REF,
            logical_offset: 1 << 40,
            logical_len: 4096,
            stored_len: 123,
            payload_check: 0xDEAD_BEEF_CAFE_F00D,
        };
        assert_eq!(FrameHeader::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn header_rejects_corruption() {
        let h = FrameHeader {
            codec: 0,
            flags: 0,
            logical_offset: 0,
            logical_len: 10,
            stored_len: 10,
            payload_check: 1,
        };
        let enc = h.encode();
        for i in 0..enc.len() {
            let mut bad = enc;
            bad[i] ^= 0x10;
            assert!(
                FrameHeader::decode(&bad).is_err(),
                "flip at byte {i} must be detected"
            );
        }
        assert!(FrameHeader::decode(&enc[..20]).is_err(), "short buffer");
    }

    #[test]
    fn hashes_distinguish_and_are_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_ne!(content_hash128(b"aaaa"), content_hash128(b"aaab"));
        assert_eq!(content_hash128(b"same"), content_hash128(b"same"));
        // Length is part of the mix lane: a zero-run prefix differs
        // from a shorter zero run.
        assert_ne!(content_hash128(&[0; 16]), content_hash128(&[0; 17]));
    }

    /// The byte-at-a-time FNV-1a and the separate two-lane hash as
    /// first shipped: the oracle the one-pass loop must reproduce bit
    /// for bit. Both values are persisted (frame headers, CAS paths,
    /// manifests), so any drift would break dedup across remounts and
    /// GC reachability.
    fn oracle_fnv(data: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn oracle_hash128(data: &[u8]) -> u128 {
        const P1: u64 = 0x9E37_79B1_85EB_CA87;
        const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
        let mut h: u64 = P2 ^ (data.len() as u64);
        let mut chunks = data.chunks_exact(8);
        for w in &mut chunks {
            let v = u64::from_le_bytes(w.try_into().unwrap());
            h = (h ^ v.wrapping_mul(P1)).rotate_left(27).wrapping_mul(P2);
        }
        for &b in chunks.remainder() {
            h = (h ^ (b as u64).wrapping_mul(P1))
                .rotate_left(11)
                .wrapping_mul(P2);
        }
        h ^= h >> 29;
        h = h.wrapping_mul(P1);
        h ^= h >> 32;
        ((oracle_fnv(data) as u128) << 64) | h as u128
    }

    fn assert_matches_oracle(data: &[u8]) {
        let want = (oracle_fnv(data), oracle_hash128(data));
        assert_eq!(payload_hashes(data), want, "len {}", data.len());
        assert_eq!(fnv1a64(data), want.0, "len {}", data.len());
        assert_eq!(content_hash128(data), want.1, "len {}", data.len());
    }

    #[test]
    fn one_pass_hashes_match_oracle_at_every_remainder() {
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=bytes.len() {
            assert_matches_oracle(&bytes[..len]);
        }
        // One full 4 MiB chunk.
        let big: Vec<u8> = (0..4u64 << 20)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect();
        assert_matches_oracle(&big);
    }

    /// Golden values for one fixed input (1003 bytes: 125 words plus a
    /// 3-byte remainder), pinned independently of the oracle.
    #[test]
    fn hash_golden_values() {
        const CHECK: u64 = 0x9118_d1ce_3afc_f61a;
        const KEY: u128 = 0x9118_d1ce_3afc_f61a_c40d_74e5_8fa6_83a0;
        let input: Vec<u8> = (0..1003u32).map(|i| ((i * 131 + 17) % 251) as u8).collect();
        assert_eq!(payload_hashes(&input), (CHECK, KEY));
        assert_eq!(fnv1a64(&input), CHECK);
        assert_eq!(content_hash128(&input), KEY);
    }
}
