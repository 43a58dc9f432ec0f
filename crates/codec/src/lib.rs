//! The chunk compression codec behind `ChunkCodec::Fast`.
//!
//! A small in-house LZ4-style block codec: greedy hash-table matching,
//! byte-aligned output, no entropy stage — tuned for the throughput-bound
//! data plane, where a codec only pays for itself if it is much faster than
//! the wire. The build environment has no registry access, so this is a
//! from-scratch dependency-free implementation, not a binding.
//!
//! ## Block format
//!
//! A compressed block is a sequence of *sequences*. Each sequence is:
//!
//! 1. a token byte — high nibble = literal count, low nibble = match length
//!    minus [`MIN_MATCH`]; a nibble of 15 is extended by following bytes
//!    (each `255` adds 255, the first byte `< 255` terminates and adds
//!    itself);
//! 2. the literal-count extension bytes, if any;
//! 3. the literal bytes;
//! 4. a little-endian `u16` match offset (`1..=65535`, distance back into
//!    the already-decoded output);
//! 5. the match-length extension bytes, if any.
//!
//! The final literals of a block (if any) form a trailing sequence that ends
//! after its literal bytes — the decoder knows it is final because the input
//! is exhausted. Matches may overlap their own output (offset < length),
//! which is how runs compress.
//!
//! ## Contract with the chunk envelope
//!
//! [`compress`] returns `None` whenever compression does not strictly win,
//! and [`seal`] then falls back to a verbatim envelope — a refcount bump of
//! the caller's `Bytes`, no copy. [`open`] is the single decompression
//! point: verbatim envelopes hand their payload back refcounted, compressed
//! ones materialise exactly one freshly allocated buffer. Every decode
//! failure maps to the retryable `BlobError::Transport` class, so a reader
//! that receives a mangled compressed chunk probes the next replica exactly
//! like it would for a mangled frame.

use blobseer_types::{BlobError, ChunkCodec, ChunkEnvelope, Result};
use bytes::Bytes;

/// Shortest match worth encoding (a sequence costs at least 3 bytes:
/// token + offset).
pub const MIN_MATCH: usize = 4;

/// Furthest back a match may reach (the offset is a `u16`; 0 is invalid).
pub const MAX_OFFSET: usize = 65_535;

/// Inputs shorter than this are never worth compressing: the first sequence
/// alone costs three bytes of framing, and chunks this small are dominated
/// by per-request overhead anyway.
pub const MIN_COMPRESS_INPUT: usize = 32;

/// Most output bytes one block byte can stand for. A literal byte decodes to
/// itself; offset bytes and literal-count extension bytes decode to nothing
/// of their own (the literals they announce are block bytes too); a token
/// contributes at most `MIN_MATCH + 15` = 19 match bytes; and a match-length
/// extension byte contributes at most 255 — the maximum. So no block of `n`
/// bytes decodes to more than `255 * n`, and a constant run approaches that.
pub const MAX_EXPANSION: usize = 255;

const HASH_BITS: u32 = 14;

#[inline]
fn hash4(v: u32) -> usize {
    // Knuth's multiplicative hash over the next four bytes.
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn read_u32_le(input: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(input[pos..pos + 4].try_into().unwrap())
}

fn put_nibble_ext(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn put_sequence(out: &mut Vec<u8>, literals: &[u8], offset: u16, match_len: usize) {
    debug_assert!(match_len >= MIN_MATCH);
    debug_assert!(offset > 0);
    let lit_nibble = literals.len().min(15);
    let match_extra = match_len - MIN_MATCH;
    let match_nibble = match_extra.min(15);
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        put_nibble_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&offset.to_le_bytes());
    if match_nibble == 15 {
        put_nibble_ext(out, match_extra - 15);
    }
}

fn put_trailing_literals(out: &mut Vec<u8>, literals: &[u8]) {
    if literals.is_empty() {
        return;
    }
    let lit_nibble = literals.len().min(15);
    out.push((lit_nibble as u8) << 4);
    if lit_nibble == 15 {
        put_nibble_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
}

/// Compresses `input`, returning `None` unless the compressed block is
/// *strictly* smaller than the input (the caller then ships the input
/// verbatim — the zero-copy passthrough escape).
#[must_use]
pub fn compress(input: &[u8]) -> Option<Vec<u8>> {
    if input.len() < MIN_COMPRESS_INPUT {
        return None;
    }
    let mut out = Vec::with_capacity(input.len() / 2);
    // Positions are stored +1 so 0 can mean "empty slot".
    let mut table = vec![0u32; 1 << HASH_BITS];
    let end = input.len();
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= end {
        let h = hash4(read_u32_le(input, i));
        let candidate = table[h] as usize;
        table[h] = (i + 1) as u32;
        if candidate > 0 {
            let cand = candidate - 1;
            if i - cand <= MAX_OFFSET && input[cand..cand + MIN_MATCH] == input[i..i + MIN_MATCH] {
                let mut match_len = MIN_MATCH;
                while i + match_len < end && input[cand + match_len] == input[i + match_len] {
                    match_len += 1;
                }
                put_sequence(&mut out, &input[anchor..i], (i - cand) as u16, match_len);
                if out.len() >= input.len() {
                    return None; // compression is losing; bail early
                }
                i += match_len;
                anchor = i;
                continue;
            }
        }
        i += 1;
    }
    put_trailing_literals(&mut out, &input[anchor..end]);
    (out.len() < input.len()).then_some(out)
}

fn truncated() -> BlobError {
    BlobError::Transport("codec: truncated compressed block".into())
}

fn get_nibble_ext(input: &[u8], pos: &mut usize) -> Result<usize> {
    let mut extra = 0usize;
    loop {
        let byte = *input.get(*pos).ok_or_else(truncated)?;
        *pos += 1;
        extra += byte as usize;
        if byte < 255 {
            return Ok(extra);
        }
    }
}

/// Decompresses a block produced by [`compress`] into exactly
/// `logical_len` bytes. Any malformed input — truncation, a bad offset, a
/// length disagreement — is rejected as the retryable transport error it
/// is, never panicked on and never silently padded.
///
/// `logical_len` comes from an envelope header the peer wrote, so it is
/// checked against [`MAX_EXPANSION`] before it sizes the output buffer: a
/// forged header can make this allocate at most 255× the bytes it actually
/// delivered.
pub fn decompress(input: &[u8], logical_len: usize) -> Result<Vec<u8>> {
    if logical_len > input.len().saturating_mul(MAX_EXPANSION) {
        return Err(BlobError::Transport(format!(
            "codec: a {}-byte block cannot decode to the declared {logical_len} bytes",
            input.len()
        )));
    }
    let mut out = Vec::with_capacity(logical_len);
    let mut pos = 0usize;
    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        let mut literal_len = (token >> 4) as usize;
        if literal_len == 15 {
            literal_len += get_nibble_ext(input, &mut pos)?;
        }
        if input.len() - pos < literal_len {
            return Err(truncated());
        }
        out.extend_from_slice(&input[pos..pos + literal_len]);
        pos += literal_len;
        if out.len() > logical_len {
            return Err(BlobError::Transport(format!(
                "codec: block decodes past its {logical_len}-byte logical length"
            )));
        }
        if pos == input.len() {
            break; // trailing-literal sequence: no match follows
        }
        if input.len() - pos < 2 {
            return Err(truncated());
        }
        let offset = u16::from_le_bytes(input[pos..pos + 2].try_into().unwrap()) as usize;
        pos += 2;
        if offset == 0 || offset > out.len() {
            return Err(BlobError::Transport(format!(
                "codec: match offset {offset} reaches before the block start"
            )));
        }
        let mut match_len = (token & 0x0f) as usize + MIN_MATCH;
        if token & 0x0f == 15 {
            match_len += get_nibble_ext(input, &mut pos)?;
        }
        if logical_len - out.len() < match_len {
            return Err(BlobError::Transport(format!(
                "codec: block decodes past its {logical_len}-byte logical length"
            )));
        }
        // Byte-by-byte so a match may overlap its own output (runs).
        let start = out.len() - offset;
        for k in 0..match_len {
            let byte = out[start + k];
            out.push(byte);
        }
    }
    if out.len() != logical_len {
        return Err(BlobError::Transport(format!(
            "codec: block decoded to {} bytes, envelope declared {logical_len}",
            out.len()
        )));
    }
    Ok(out)
}

/// Seals one chunk into its envelope under `codec`.
///
/// `Off` and any chunk that does not strictly shrink ship verbatim — the
/// envelope then holds a refcount bump of `data`, preserving the zero-copy
/// write path end to end. Compression happens at most once per chunk, here,
/// at the writing client.
#[must_use]
pub fn seal(codec: ChunkCodec, data: Bytes) -> ChunkEnvelope {
    match codec {
        ChunkCodec::Off => ChunkEnvelope::verbatim(data),
        ChunkCodec::Fast => match compress(&data) {
            Some(block) => ChunkEnvelope::compressed(data.len() as u64, Bytes::from(block)),
            None => ChunkEnvelope::verbatim(data),
        },
    }
}

/// Opens one envelope back into the chunk's bytes.
///
/// Verbatim envelopes hand their payload back as a refcounted clone (no
/// copy); compressed envelopes materialise exactly one fresh buffer. This
/// is the single decompression point of the whole pipeline — providers and
/// frames carry envelopes verbatim.
pub fn open(envelope: &ChunkEnvelope) -> Result<Bytes> {
    if envelope.is_verbatim() {
        return Ok(envelope.payload().clone());
    }
    let logical = usize::try_from(envelope.logical_len())
        .map_err(|_| BlobError::Transport("codec: logical length overflows usize".into()))?;
    Ok(Bytes::from(decompress(envelope.payload(), logical)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(input: &[u8]) {
        match compress(input) {
            Some(block) => {
                assert!(block.len() < input.len(), "compress must strictly win");
                assert_eq!(decompress(&block, input.len()).unwrap(), input);
            }
            None => { /* verbatim passthrough: nothing to verify */ }
        }
    }

    #[test]
    fn repetitive_input_compresses_hard_and_roundtrips() {
        let input: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .copied()
            .cycle()
            .take(64 * 1024)
            .collect();
        let block = compress(&input).expect("repetitive text must compress");
        assert!(
            block.len() * 4 < input.len(),
            "expected >4x on cyclic text, got {} -> {}",
            input.len(),
            block.len()
        );
        assert_eq!(decompress(&block, input.len()).unwrap(), input);
    }

    #[test]
    fn constant_runs_compress_to_almost_nothing() {
        let input = vec![7u8; 100_000];
        let block = compress(&input).unwrap();
        assert!(
            block.len() < 500,
            "a run must collapse, got {}",
            block.len()
        );
        assert_eq!(decompress(&block, input.len()).unwrap(), input);
    }

    #[test]
    fn random_input_is_passed_through() {
        let mut rng = StdRng::seed_from_u64(7);
        let input: Vec<u8> = (0..64 * 1024).map(|_| rng.gen()).collect();
        assert!(
            compress(&input).is_none(),
            "random bytes must not pretend to compress"
        );
    }

    #[test]
    fn tiny_inputs_are_never_compressed() {
        assert!(compress(b"").is_none());
        assert!(compress(&[0u8; MIN_COMPRESS_INPUT - 1]).is_none());
    }

    #[test]
    fn seal_and_open_respect_the_codec() {
        let compressible = Bytes::from(vec![42u8; 4096]);
        let off = seal(ChunkCodec::Off, compressible.clone());
        assert!(off.is_verbatim());
        // Verbatim seal is a refcount bump of the caller's buffer.
        assert_eq!(off.payload().as_ptr(), compressible.as_ptr());
        assert_eq!(open(&off).unwrap(), compressible);

        let fast = seal(ChunkCodec::Fast, compressible.clone());
        assert!(!fast.is_verbatim());
        assert!(fast.physical_len() < fast.logical_len());
        assert_eq!(open(&fast).unwrap(), compressible);

        // Incompressible data passes through verbatim even under Fast.
        let mut rng = StdRng::seed_from_u64(3);
        let noise = Bytes::from((0..4096).map(|_| rng.gen()).collect::<Vec<u8>>());
        let sealed = seal(ChunkCodec::Fast, noise.clone());
        assert!(sealed.is_verbatim());
        assert_eq!(sealed.payload().as_ptr(), noise.as_ptr());
        assert_eq!(open(&sealed).unwrap(), noise);
    }

    #[test]
    fn truncated_blocks_are_rejected_not_panicked_on() {
        let input: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(4096).collect();
        let block = compress(&input).unwrap();
        for cut in 0..block.len() {
            assert!(
                decompress(&block[..cut], input.len()).is_err(),
                "cut at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn mangled_blocks_are_rejected_not_panicked_on() {
        let input: Vec<u8> = b"0123456789".iter().copied().cycle().take(2048).collect();
        let block = compress(&input).unwrap();
        for i in 0..block.len() {
            let mut mangled = block.clone();
            mangled[i] ^= 0xA5;
            // Every single-byte corruption either still decodes to the right
            // length (possible: a literal byte flip) or errors — never panics.
            let _ = decompress(&mangled, input.len());
        }
        // A wrong logical length is always caught.
        assert!(decompress(&block, input.len() + 1).is_err());
        assert!(decompress(&block, input.len() - 1).is_err());
    }

    #[test]
    fn forged_logical_lengths_are_rejected_before_allocating() {
        // A ~40-byte compressed envelope whose header claims an absurd
        // logical length: must be a typed error, not a multi-GiB
        // `Vec::with_capacity` (which aborts the process when it fails).
        let block = compress(&[7u8; 4096]).unwrap();
        assert!(block.len() < 40);
        for declared in [u64::MAX, 1 << 40] {
            let forged = ChunkEnvelope::compressed(declared, Bytes::from(block.clone()));
            assert!(matches!(open(&forged), Err(BlobError::Transport(_))));
        }
        let just_over = block.len() * MAX_EXPANSION + 1;
        assert!(matches!(
            decompress(&block, just_over),
            Err(BlobError::Transport(_))
        ));
        assert!(matches!(decompress(&[], 1), Err(BlobError::Transport(_))));
    }

    #[test]
    fn zero_offset_is_rejected() {
        // token: 0 literals, match of 4; offset 0 is invalid.
        assert!(decompress(&[0x00, 0x00, 0x00], 4).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_buffers_roundtrip(data in proptest::collection::vec(0u16..256, 0..4096)) {
            let data: Vec<u8> = data.into_iter().map(|b| b as u8).collect();
            roundtrip(&data);
        }

        #[test]
        fn compress_output_stays_within_the_expansion_bound(
            byte in 0u16..256,
            len in MIN_COMPRESS_INPUT..(1usize << 20),
        ) {
            // Constant runs are the format's densest blocks (one 255-valued
            // extension byte per 255 output bytes): if any `compress` output
            // tripped the decoder's allocation bound, these would.
            let input = vec![byte as u8; len];
            let block = compress(&input).expect("runs compress");
            prop_assert!(input.len() <= block.len() * MAX_EXPANSION);
            prop_assert_eq!(decompress(&block, input.len()).unwrap(), input);
        }

        #[test]
        fn structured_buffers_roundtrip(
            seed in 0u64..1_000_000,
            run in 1usize..64,
            len in 64usize..8192,
        ) {
            // Alternating runs and noise: exercises both match emission and
            // literal runs, with plenty of boundary cases.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut data = Vec::with_capacity(len);
            while data.len() < len {
                if rng.gen_bool(0.5) {
                    let byte: u8 = rng.gen();
                    let n = run.min(len - data.len());
                    data.extend(std::iter::repeat_n(byte, n));
                } else {
                    let n = run.min(len - data.len());
                    data.extend((0..n).map(|_| rng.gen::<u8>()));
                }
            }
            roundtrip(&data);
        }

        #[test]
        fn sealed_envelopes_always_open_to_the_input(
            seed in 0u64..1_000_000,
            len in 0usize..4096,
            fast in proptest::any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let compressible = rng.gen_bool(0.5);
            let data: Vec<u8> = if compressible {
                b"blobseer".iter().copied().cycle().take(len).collect()
            } else {
                (0..len).map(|_| rng.gen()).collect()
            };
            let codec = if fast { ChunkCodec::Fast } else { ChunkCodec::Off };
            let bytes = Bytes::from(data.clone());
            let env = seal(codec, bytes);
            prop_assert_eq!(env.logical_len(), data.len() as u64);
            prop_assert_eq!(open(&env).unwrap(), Bytes::from(data));
        }
    }
}
