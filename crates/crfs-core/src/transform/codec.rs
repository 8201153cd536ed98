//! Native, dependency-free chunk codecs.
//!
//! The transform stage compresses each sealed chunk independently, so a
//! codec here is a pure `encode`/`decode` pair over one payload — no
//! streaming state, no cross-chunk history. Two real codecs are
//! provided, bracketing the effort/ratio space the offline build can
//! reach without crates.io:
//!
//! - [`Rle`] — packbits-style run-length encoding. Near-memcpy speed;
//!   wins only on long byte runs (zero pages, untouched VMAs).
//! - [`Lz`] — a greedy LZ77 with a rolling 4-byte hash-table match
//!   finder (the format every fast LZ family — LZ4, snappy — builds
//!   on). Catches the repeated structure stdchk observed in checkpoint
//!   streams, not just runs. Like LZ4 it skips ahead through
//!   incompressible data: after each miss the probe advances
//!   `1 + misses >> 8` bytes, and the step resets on a match.
//!
//! Both decoders write into a caller-sized slice ([`decode_into`]), so
//! the read path can decode a whole frame straight into its destination
//! buffer. They are fully bounds-checked: corrupted stored bytes must
//! surface as an error, never as a panic or an out-of-bounds copy — the
//! integrity path depends on it.
//!
//! Every encoder honours the *store-raw escape hatch*: if the encoded
//! form would not be strictly smaller than the payload, the chunk is
//! stored raw (codec id [`STORED_RAW`]), so incompressible data costs
//! only the frame header, never an inflation. `Lz` makes that decision
//! arithmetically before copying pending literals (a run of `n` costs
//! `n + ceil(n / 128)` bytes), so a chunk that escapes is never copied
//! into the output first; [`encode_payload`] sizes the output once for
//! the raw worst case.

use std::io;

/// Which codec a mount's transform stage runs.
///
/// `None` disables the transform stage entirely: chunks are written raw
/// at their logical offsets, byte-for-byte the paper's layout (and this
/// repository's layout before the transform pipeline existed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecKind {
    /// No transform stage at all (raw layout, no frames, no checksums).
    #[default]
    None,
    /// Framed layout with checksums and dedup support, payloads stored
    /// verbatim — the baseline that isolates framing overhead.
    Identity,
    /// Packbits-style run-length encoding.
    Rle,
    /// Greedy LZ77 with a hash-table match finder.
    Lz,
}

impl CodecKind {
    /// Parses a codec name (`none`, `identity`, `rle`, `lz`) as used by
    /// CLI flags and the `CRFS_TEST_CODEC` environment selector.
    pub fn parse(name: &str) -> Option<CodecKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "none" | "raw" => Some(CodecKind::None),
            "identity" => Some(CodecKind::Identity),
            "rle" => Some(CodecKind::Rle),
            "lz" => Some(CodecKind::Lz),
            _ => None,
        }
    }

    /// Codec name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CodecKind::None => "none",
            CodecKind::Identity => "identity",
            CodecKind::Rle => "rle",
            CodecKind::Lz => "lz",
        }
    }
}

/// On-disk codec ids stamped into frame headers. Distinct from
/// [`CodecKind`]: a mount configured for `Lz` still stores raw frames
/// through the escape hatch, and the reader must decode whatever each
/// frame says it holds.
pub const STORED_RAW: u8 = 0;
/// Frame payload is RLE-encoded.
pub const STORED_RLE: u8 = 1;
/// Frame payload is LZ-encoded.
pub const STORED_LZ: u8 = 2;

/// A per-chunk compressor/decompressor.
///
/// `encode` appends the encoded form of `src` to `dst` and returns
/// `true`, or returns `false` without obligation on `dst`'s tail when
/// the encoding would reach `src.len()` bytes (the caller then stores
/// raw). `decode_into` fills exactly `dst.len()` bytes with the
/// original payload or fails with `InvalidData` (leaving `dst`'s
/// contents unspecified) — it never panics.
pub trait Codec {
    /// The id stamped into frames this codec produces.
    fn id(&self) -> u8;
    /// Appends the encoding of `src` to `dst`; `false` if not smaller.
    fn encode(&self, src: &[u8], dst: &mut Vec<u8>) -> bool;
    /// Decodes `src` into `dst`, which must be exactly the payload's
    /// length.
    fn decode_into(&self, src: &[u8], dst: &mut [u8]) -> io::Result<()>;
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Encodes `src` with the codec `kind` selects, falling back to raw
/// when the codec declines (escape hatch). Returns the stored codec id;
/// the encoded bytes are appended to `dst`, which is grown once, to
/// room for the raw worst case, before encoding starts.
pub fn encode_payload(kind: CodecKind, src: &[u8], dst: &mut Vec<u8>) -> u8 {
    let mark = dst.len();
    dst.reserve_exact(src.len());
    let encoded = match kind {
        CodecKind::None | CodecKind::Identity => false,
        CodecKind::Rle => {
            if Rle.encode(src, dst) {
                return STORED_RLE;
            }
            false
        }
        CodecKind::Lz => {
            if Lz.encode(src, dst) {
                return STORED_LZ;
            }
            false
        }
    };
    debug_assert!(!encoded);
    dst.truncate(mark); // drop any partial attempt
    dst.extend_from_slice(src);
    STORED_RAW
}

/// Decodes a payload stored under `stored_codec` into `dst`, which must
/// be exactly the payload's logical length. Fails with `InvalidData` on
/// any malformed input or length mismatch; `dst` is then unspecified.
pub fn decode_into(stored_codec: u8, src: &[u8], dst: &mut [u8]) -> io::Result<()> {
    match stored_codec {
        STORED_RAW if src.len() == dst.len() => {
            dst.copy_from_slice(src);
            Ok(())
        }
        STORED_RAW => Err(corrupt("raw payload length mismatch")),
        STORED_RLE => Rle.decode_into(src, dst),
        STORED_LZ => Lz.decode_into(src, dst),
        other => Err(corrupt(&format!("unknown stored codec id {other}"))),
    }
}

/// Decodes a stored payload back to its `logical_len` original bytes,
/// appended to `dst`. Fails with `InvalidData` on any malformed input,
/// leaving `dst` as it was.
pub fn decode_payload(
    stored_codec: u8,
    src: &[u8],
    logical_len: usize,
    dst: &mut Vec<u8>,
) -> io::Result<()> {
    let mark = dst.len();
    dst.resize(mark + logical_len, 0);
    let res = decode_into(stored_codec, src, &mut dst[mark..]);
    if res.is_err() {
        dst.truncate(mark);
    }
    res
}

// ---------------------------------------------------------------------
// RLE (packbits)
// ---------------------------------------------------------------------

/// Packbits-style run-length codec: a control byte `c` introduces
/// either a literal run (`c < 128`: the next `c + 1` bytes are
/// verbatim) or a repeat run (`c >= 128`: the next byte repeats
/// `c - 128 + 3` times). Runs shorter than 3 are not worth a control
/// byte and stay literal.
pub struct Rle;

const RLE_MIN_RUN: usize = 3;
const RLE_MAX_LITERAL: usize = 128;
const RLE_MAX_RUN: usize = 127 + RLE_MIN_RUN;

impl Codec for Rle {
    fn id(&self) -> u8 {
        STORED_RLE
    }

    fn encode(&self, src: &[u8], dst: &mut Vec<u8>) -> bool {
        let start = dst.len();
        let budget = src.len(); // must beat raw
        let mut i = 0;
        let mut lit_start = 0;
        let flush_literals = |dst: &mut Vec<u8>, from: usize, to: usize| {
            let mut at = from;
            while at < to {
                let n = (to - at).min(RLE_MAX_LITERAL);
                dst.push((n - 1) as u8);
                dst.extend_from_slice(&src[at..at + n]);
                at += n;
            }
        };
        while i < src.len() {
            let b = src[i];
            let mut run = 1;
            while i + run < src.len() && src[i + run] == b && run < RLE_MAX_RUN {
                run += 1;
            }
            if run >= RLE_MIN_RUN {
                flush_literals(dst, lit_start, i);
                dst.push((128 + (run - RLE_MIN_RUN)) as u8);
                dst.push(b);
                i += run;
                lit_start = i;
            } else {
                i += run;
            }
            if dst.len() - start >= budget {
                return false;
            }
        }
        flush_literals(dst, lit_start, src.len());
        dst.len() - start < budget
    }

    fn decode_into(&self, src: &[u8], dst: &mut [u8]) -> io::Result<()> {
        let overrun = || corrupt("RLE output overruns logical length");
        let (mut i, mut o) = (0, 0);
        while i < src.len() {
            let c = src[i] as usize;
            i += 1;
            if c < 128 {
                let n = c + 1;
                let lit = src
                    .get(i..i + n)
                    .ok_or_else(|| corrupt("RLE literal run overruns input"))?;
                dst.get_mut(o..o + n)
                    .ok_or_else(overrun)?
                    .copy_from_slice(lit);
                i += n;
                o += n;
            } else {
                let &b = src
                    .get(i)
                    .ok_or_else(|| corrupt("RLE repeat run missing byte"))?;
                let n = c - 128 + RLE_MIN_RUN;
                i += 1;
                dst.get_mut(o..o + n).ok_or_else(overrun)?.fill(b);
                o += n;
            }
        }
        if o != dst.len() {
            return Err(corrupt("RLE output shorter than logical length"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// LZ (greedy LZ77, hash-table match finder)
// ---------------------------------------------------------------------

/// Token format: a control byte `c`.
/// - `c < 128`: literal run of `c + 1` bytes follows verbatim.
/// - `c >= 128`: a match of `c - 128 + LZ_MIN_MATCH` bytes at a 2-byte
///   little-endian backward distance (1-based) that follows.
///
/// Matches are found with a 4-byte rolling hash over a power-of-two
/// table of candidate positions — the classic single-probe greedy
/// scheme every fast LZ uses.
pub struct Lz;

const LZ_MIN_MATCH: usize = 4;
const LZ_MAX_MATCH: usize = 127 + LZ_MIN_MATCH;
const LZ_MAX_LITERAL: usize = 128;
const LZ_MAX_DIST: usize = u16::MAX as usize;
const LZ_HASH_BITS: u32 = 14;
/// Bytes a match token takes: control byte + 2-byte distance.
const LZ_MATCH_TOKEN: usize = 3;
/// Misses per extra byte of skip step (the step is
/// `1 + misses >> LZ_SKIP_TRIGGER`). A smaller trigger skips sooner
/// but misses matches in compressible data.
const LZ_SKIP_TRIGGER: u32 = 8;

/// Encoded size of an `n`-byte literal run: the bytes plus one control
/// byte per [`LZ_MAX_LITERAL`] of them.
#[inline]
fn literal_cost(n: usize) -> usize {
    n + n.div_ceil(LZ_MAX_LITERAL)
}

#[inline]
fn lz_hash(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - LZ_HASH_BITS)) as usize
}

impl Codec for Lz {
    fn id(&self) -> u8 {
        STORED_LZ
    }

    fn encode(&self, src: &[u8], dst: &mut Vec<u8>) -> bool {
        let start = dst.len();
        let budget = src.len();
        if src.len() < LZ_MIN_MATCH {
            return false;
        }
        let mut table = vec![usize::MAX; 1 << LZ_HASH_BITS];
        let flush_literals = |dst: &mut Vec<u8>, from: usize, to: usize| {
            let mut at = from;
            while at < to {
                let n = (to - at).min(LZ_MAX_LITERAL);
                dst.push((n - 1) as u8);
                dst.extend_from_slice(&src[at..at + n]);
                at += n;
            }
        };
        let mut i = 0;
        let mut lit_start = 0;
        let mut misses = 0usize;
        while i + LZ_MIN_MATCH <= src.len() {
            let h = lz_hash(&src[i..]);
            let cand = table[h];
            table[h] = i;
            let matched = cand != usize::MAX
                && i - cand <= LZ_MAX_DIST
                && src[cand..cand + LZ_MIN_MATCH] == src[i..i + LZ_MIN_MATCH];
            if !matched {
                // Skip acceleration: the longer the miss streak, the
                // wider the step, so incompressible data is scanned
                // sparsely instead of probed at every byte.
                i += 1 + (misses >> LZ_SKIP_TRIGGER);
                misses += 1;
                continue;
            }
            misses = 0;
            // Output only grows here; decide the escape before copying
            // the pending literals.
            if dst.len() - start + literal_cost(i - lit_start) + LZ_MATCH_TOKEN >= budget {
                return false;
            }
            let mut len = LZ_MIN_MATCH;
            let max = (src.len() - i).min(LZ_MAX_MATCH);
            while len < max && src[cand + len] == src[i + len] {
                len += 1;
            }
            flush_literals(dst, lit_start, i);
            dst.push((128 + (len - LZ_MIN_MATCH)) as u8);
            dst.extend_from_slice(&((i - cand) as u16).to_le_bytes());
            // Seed the table inside the match so later data can
            // reference it (sparse stride keeps encoding fast).
            let mut j = i + 1;
            let seed_end = (i + len).min(src.len() - LZ_MIN_MATCH);
            while j < seed_end {
                table[lz_hash(&src[j..])] = j;
                j += 2;
            }
            i += len;
            lit_start = i;
        }
        // The trailing literal run decides the escape arithmetically:
        // an incompressible chunk is never copied just to be dropped.
        if dst.len() - start + literal_cost(src.len() - lit_start) >= budget {
            return false;
        }
        flush_literals(dst, lit_start, src.len());
        true
    }

    fn decode_into(&self, src: &[u8], dst: &mut [u8]) -> io::Result<()> {
        let overrun = || corrupt("LZ output overruns logical length");
        let (mut i, mut o) = (0, 0);
        while i < src.len() {
            let c = src[i] as usize;
            i += 1;
            if c < 128 {
                let n = c + 1;
                let lit = src
                    .get(i..i + n)
                    .ok_or_else(|| corrupt("LZ literal run overruns input"))?;
                dst.get_mut(o..o + n)
                    .ok_or_else(overrun)?
                    .copy_from_slice(lit);
                i += n;
                o += n;
            } else {
                let Some(d) = src.get(i..i + 2) else {
                    return Err(corrupt("LZ match missing distance"));
                };
                let len = c - 128 + LZ_MIN_MATCH;
                let dist = u16::from_le_bytes([d[0], d[1]]) as usize;
                i += 2;
                if dist == 0 || dist > o {
                    return Err(corrupt("LZ match distance out of range"));
                }
                if o + len > dst.len() {
                    return Err(overrun());
                }
                let from = o - dist;
                if dist >= len {
                    dst.copy_within(from..from + len, o);
                } else {
                    // Self-overlapping match (dist < len encodes a
                    // repeating pattern): each byte may read one this
                    // match just wrote, so copy forward byte by byte.
                    for k in o..o + len {
                        dst[k] = dst[k - dist];
                    }
                }
                o += len;
            }
        }
        if o != dst.len() {
            return Err(corrupt("LZ output shorter than logical length"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(kind: CodecKind, data: &[u8]) -> (u8, usize) {
        let mut enc = Vec::new();
        let id = encode_payload(kind, data, &mut enc);
        let mut dec = Vec::new();
        decode_payload(id, &enc, data.len(), &mut dec).expect("decode");
        assert_eq!(dec, data, "{kind:?} round trip");
        (id, enc.len())
    }

    /// Deterministic mixed payload: runs, repeated structure, and a
    /// pseudo-random incompressible region.
    fn mixed_payload(len: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut x = seed | 1;
        while out.len() < len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match (x >> 60) % 3 {
                0 => out.resize(out.len() + 64, (x >> 8) as u8), // run
                1 => {
                    // repeated 16-byte tile
                    let tile: Vec<u8> = (0..16).map(|i| ((x >> (i % 48)) & 0xFF) as u8).collect();
                    for _ in 0..8 {
                        out.extend_from_slice(&tile);
                    }
                }
                _ => {
                    for _ in 0..32 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(99991);
                        out.push((x >> 33) as u8);
                    }
                }
            }
        }
        out.truncate(len);
        out
    }

    #[test]
    fn codec_kind_parses() {
        assert_eq!(CodecKind::parse("lz"), Some(CodecKind::Lz));
        assert_eq!(CodecKind::parse(" RLE "), Some(CodecKind::Rle));
        assert_eq!(CodecKind::parse("identity"), Some(CodecKind::Identity));
        assert_eq!(CodecKind::parse("none"), Some(CodecKind::None));
        assert_eq!(CodecKind::parse("zstd"), None);
    }

    #[test]
    fn identity_stores_raw() {
        let data = b"hello world, stored verbatim";
        let (id, n) = roundtrip(CodecKind::Identity, data);
        assert_eq!(id, STORED_RAW);
        assert_eq!(n, data.len());
    }

    #[test]
    fn rle_compresses_runs_and_roundtrips() {
        let mut data = vec![0u8; 4096];
        data[100..200].copy_from_slice(&[7; 100]);
        let (id, n) = roundtrip(CodecKind::Rle, &data);
        assert_eq!(id, STORED_RLE);
        assert!(n < data.len() / 10, "runs must compress hard: {n}");
    }

    #[test]
    fn lz_compresses_structure_and_roundtrips() {
        let data = mixed_payload(64 << 10, 42);
        let (id, n) = roundtrip(CodecKind::Lz, &data);
        assert_eq!(id, STORED_LZ);
        assert!(
            (n as f64) < data.len() as f64 / 1.5,
            "mixed payload should compress ≥1.5x under LZ: {} -> {}",
            data.len(),
            n
        );
    }

    #[test]
    fn incompressible_data_escapes_to_raw() {
        // High-entropy bytes: both codecs must decline and store raw,
        // for a small payload and for a full 4 MiB chunk of splitmix64
        // (the content of the benchmark's BLCR images).
        let mut small = vec![0u8; 4096];
        let mut x = 0x12345u64;
        for b in small.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (x >> 33) as u8;
        }
        for data in [small, splitmix_bytes(4 << 20, 0xC4F5)] {
            for kind in [CodecKind::Rle, CodecKind::Lz] {
                let mut enc = Vec::new();
                let id = encode_payload(kind, &data, &mut enc);
                assert_eq!(id, STORED_RAW, "{kind:?} must escape");
                assert!(enc == data, "{kind:?} escape stores the raw bytes");
            }
        }
    }

    #[test]
    fn empty_and_tiny_payloads_roundtrip() {
        for kind in [CodecKind::Identity, CodecKind::Rle, CodecKind::Lz] {
            roundtrip(kind, b"");
            roundtrip(kind, b"a");
            roundtrip(kind, b"ab");
            roundtrip(kind, b"aaaa");
        }
    }

    #[test]
    fn random_payloads_roundtrip_exhaustively() {
        for seed in 0..20u64 {
            let data = mixed_payload(1 + (seed as usize * 611) % 8192, seed);
            for kind in [CodecKind::Rle, CodecKind::Lz] {
                roundtrip(kind, &data);
            }
        }
    }

    #[test]
    fn decoders_reject_corruption_without_panicking() {
        let data = mixed_payload(4096, 7);
        for kind in [CodecKind::Rle, CodecKind::Lz] {
            let mut enc = Vec::new();
            let id = encode_payload(kind, &data, &mut enc);
            // Flip every byte position once; decode must error or
            // produce output that differs — never panic or overrun.
            for i in 0..enc.len().min(512) {
                let mut bad = enc.clone();
                bad[i] ^= 0xFF;
                let mut dst = Vec::new();
                let _ = decode_payload(id, &bad, data.len(), &mut dst);
            }
            // Truncations likewise.
            for cut in [0, 1, enc.len() / 2, enc.len().saturating_sub(1)] {
                let mut dst = Vec::new();
                assert!(
                    decode_payload(id, &enc[..cut], data.len(), &mut dst).is_err()
                        || dst == data[..],
                    "{kind:?}: truncated input accepted with wrong output"
                );
            }
        }
        // Unknown codec id.
        let mut dst = Vec::new();
        assert!(decode_payload(9, b"xx", 2, &mut dst).is_err());
    }

    /// The same corruption corpus as above, decoded into a slice of the
    /// payload's length: every flip or cut must error or produce the
    /// original bytes — never panic or write past the slice.
    #[test]
    fn decode_into_rejects_corruption_without_panicking() {
        let data = mixed_payload(4096, 7);
        for kind in [CodecKind::Rle, CodecKind::Lz] {
            let mut enc = Vec::new();
            let id = encode_payload(kind, &data, &mut enc);
            let mut dst = vec![0u8; data.len()];
            for i in 0..enc.len().min(512) {
                let mut bad = enc.clone();
                bad[i] ^= 0xFF;
                let _ = decode_into(id, &bad, &mut dst);
            }
            for cut in [0, 1, enc.len() / 2, enc.len().saturating_sub(1)] {
                assert!(
                    decode_into(id, &enc[..cut], &mut dst).is_err() || dst == data,
                    "{kind:?}: truncated input accepted with wrong output"
                );
            }
        }
        let mut dst = [0u8; 2];
        assert!(decode_into(9, b"xx", &mut dst).is_err());
    }

    /// `decode_into` fills exactly `dst.len()` bytes: a slice one byte
    /// longer or shorter than the decoded payload is rejected for every
    /// stored form, raw included.
    #[test]
    fn decode_into_rejects_wrong_destination_length() {
        let data = mixed_payload(4096, 11);
        for kind in [CodecKind::Identity, CodecKind::Rle, CodecKind::Lz] {
            let mut enc = Vec::new();
            let id = encode_payload(kind, &data, &mut enc);
            let mut exact = vec![0u8; data.len()];
            decode_into(id, &enc, &mut exact).expect("exact length decodes");
            assert_eq!(exact, data, "{kind:?}");
            for len in [data.len() - 1, data.len() + 1, 0] {
                let mut dst = vec![0u8; len];
                let err = decode_into(id, &enc, &mut dst).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{kind:?} len {len}");
            }
        }
    }

    /// Byte-serial LZ reference decoder (the pre-slice algorithm), the
    /// oracle for the slice decoder's `copy_within` and overlap paths.
    fn lz_reference_decode(src: &[u8]) -> Vec<u8> {
        let (mut out, mut i) = (Vec::new(), 0);
        while i < src.len() {
            let c = src[i] as usize;
            i += 1;
            if c < 128 {
                out.extend_from_slice(&src[i..i + c + 1]);
                i += c + 1;
            } else {
                let dist = u16::from_le_bytes([src[i], src[i + 1]]) as usize;
                i += 2;
                for _ in 0..c - 128 + LZ_MIN_MATCH {
                    out.push(out[out.len() - dist]);
                }
            }
        }
        out
    }

    #[test]
    fn decode_into_roundtrips_self_overlapping_lz_matches() {
        // Periodic data of every short period forces dist < len.
        for period in 1..=9usize {
            let data: Vec<u8> = (0..5000).map(|i| (i % period) as u8 + 1).collect();
            let mut enc = Vec::new();
            assert_eq!(encode_payload(CodecKind::Lz, &data, &mut enc), STORED_LZ);
            let mut dst = vec![0u8; data.len()];
            decode_into(STORED_LZ, &enc, &mut dst).unwrap();
            assert_eq!(dst, data, "period {period}");
        }
        // Hand-built streams, checked against the reference: a 2-byte
        // literal then one overlapping match (dist 1 or 2), and a
        // 128-byte literal then matches both overlapping (dist 3) and
        // not (dist >= len: the copy_within path).
        for dist in 1..=2usize {
            for len in [LZ_MIN_MATCH, 7, LZ_MAX_MATCH] {
                let token = (128 + len - LZ_MIN_MATCH) as u8;
                let src = [1, 0xA5, 0x3C, token, dist as u8, 0];
                let want = lz_reference_decode(&src);
                let mut dst = vec![0u8; want.len()];
                Lz.decode_into(&src, &mut dst).unwrap();
                assert_eq!(dst, want, "dist {dist} len {len}");
            }
        }
        let mut src = vec![127u8];
        src.extend((0..128u8).map(|b| b.wrapping_mul(37)));
        for dist in [3usize, 64, 100, 128] {
            src.extend_from_slice(&[(128 + 20) as u8, dist as u8, 0]);
        }
        let want = lz_reference_decode(&src);
        let mut dst = vec![0u8; want.len()];
        Lz.decode_into(&src, &mut dst).unwrap();
        assert_eq!(dst, want);
    }

    /// splitmix64 output: incompressible, the worst case for LZ.
    fn splitmix_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// The skip step resets on a match: a compressible region after a
    /// long incompressible one is still found and compressed.
    #[test]
    fn lz_compresses_tail_after_incompressible_prefix() {
        let prefix = 1 << 20;
        let mut data = splitmix_bytes(prefix, 0xF00D);
        data.extend_from_slice(&mixed_payload(1 << 20, 3));
        let (id, n) = roundtrip(CodecKind::Lz, &data);
        assert_eq!(id, STORED_LZ);
        let tail = n - literal_cost(prefix);
        let alone = roundtrip(CodecKind::Lz, &data[prefix..]).1;
        assert!(
            tail <= alone + alone / 10,
            "tail after random prefix: {tail} B vs {alone} B encoded alone"
        );
    }

    /// The escape decision for the trailing literal run is arithmetic;
    /// it must agree with flushing at the exact boundary. Input: 132
    /// zeros (one 1-byte literal + one 131-byte match = 5 bytes) then
    /// `tail` random bytes, so the flushed size is
    /// `5 + tail + ceil(tail / 128)` against a budget of `132 + tail`.
    #[test]
    fn lz_final_literal_escape_is_exact_at_budget() {
        let input = |tail: usize| {
            let mut v = vec![0u8; 132];
            let mut t = splitmix_bytes(tail, 0xB0D6E7);
            t[0] |= 1; // the zero run's match ends at the boundary
            v.extend_from_slice(&t);
            v
        };
        // ceil(16200 / 128) = 127: flushing lands exactly at budget.
        let at = input(16_200);
        let mut enc = Vec::new();
        assert!(!Lz.encode(&at, &mut enc), "== budget must escape");
        assert_eq!(encode_payload(CodecKind::Lz, &at, &mut enc), STORED_RAW);
        // ceil(16100 / 128) = 126: one byte under budget compresses.
        let under = input(16_100);
        let mut enc = Vec::new();
        assert!(Lz.encode(&under, &mut enc), "budget - 1 must compress");
        assert_eq!(enc.len(), under.len() - 1);
        let (id, n) = roundtrip(CodecKind::Lz, &under);
        assert_eq!((id, n), (STORED_LZ, under.len() - 1));
    }

    #[test]
    fn lz_handles_self_overlapping_matches() {
        // "abcabcabc..." forces dist < len copies.
        let data: Vec<u8> = b"abc".iter().cycle().take(3000).cloned().collect();
        let (id, n) = roundtrip(CodecKind::Lz, &data);
        assert_eq!(id, STORED_LZ);
        assert!(n < 100, "periodic data collapses: {n}");
    }
}
