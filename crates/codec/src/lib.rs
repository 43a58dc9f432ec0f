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
//! ## Encoder and decoder
//!
//! Both cost what memory costs rather than a loop trip per byte, and
//! neither moves the format: [`compress`] emits byte-for-byte the blocks the
//! original byte-at-a-time encoder did (a differential test holds it to that
//! copy, kept as the test-only `reference` module), so stored chunks, wire
//! bytes and on-disk segments are unchanged. The encoder keeps its hash
//! table on the stack, compares a candidate as one `u32`, extends a match
//! eight bytes per step (XOR of two `u64`s, then `trailing_zeros`) and
//! writes sequences into a buffer sized for the input, with the same
//! bail-out as soon as the block stops winning.
//!
//! [`decompress`] writes at a cursor into exactly `logical_len` bytes. The
//! fixed-width copy rule: while at least 32 bytes of room remain (in the
//! output, and for literals in the block too), a literal run of at most 16
//! bytes, and a match of at most 16 bytes whose offset is at least 16, move
//! as one 16-byte block — the bytes it writes past its end are overwritten
//! by what decodes next. A match offset under 16 would read bytes this same
//! copy writes, so such a match takes the exact path: one `copy_within`
//! when it does not overlap itself, and a doubling copy (period, then
//! twice the period, ...) when it does.
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

#[cfg(test)]
mod reference;

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

/// Width of the decoder's fixed-size copies: a literal run or a short match
/// of at most this many bytes moves as one 16-byte block, and the bytes it
/// writes past its own end are overwritten by whatever decodes next.
const WILD_COPY: usize = 16;

/// Room a fixed-width copy needs, in the output and (for literals) in the
/// block: twice [`WILD_COPY`], so a block's last few sequences — where the
/// over-write could reach past the end — take the exact path instead.
const WILD_ROOM: usize = 2 * WILD_COPY;

#[inline]
fn hash4(v: u32) -> usize {
    // Knuth's multiplicative hash over the next four bytes.
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn read_u32_le(input: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(input[pos..pos + 4].try_into().unwrap())
}

#[inline]
fn read_u64_le(input: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(input[pos..pos + 8].try_into().unwrap())
}

/// How many bytes `input[older..]` and `input[newer..]` (`older < newer`)
/// have in common, eight at a time: the lowest set bit of the XOR of two
/// little-endian words falls in the first byte that differs.
fn common_len(input: &[u8], older: usize, newer: usize) -> usize {
    let mut len = 0;
    while newer + len + 8 <= input.len() {
        let diff = read_u64_le(input, older + len) ^ read_u64_le(input, newer + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while newer + len < input.len() && input[older + len] == input[newer + len] {
        len += 1;
    }
    len
}

/// Bytes a nibble extension of `len` takes (0 below 15).
fn nibble_ext_len(len: usize) -> usize {
    if len < 15 {
        0
    } else {
        (len - 15) / 255 + 1
    }
}

fn put_nibble_ext(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn put_literals(out: &mut Vec<u8>, token_low: u8, literals: &[u8]) {
    let lit_nibble = literals.len().min(15);
    out.push(((lit_nibble as u8) << 4) | token_low);
    if lit_nibble == 15 {
        put_nibble_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
}

fn put_sequence(out: &mut Vec<u8>, literals: &[u8], offset: u16, match_len: usize) {
    debug_assert!(match_len >= MIN_MATCH);
    debug_assert!(offset > 0);
    let match_extra = match_len - MIN_MATCH;
    let match_nibble = match_extra.min(15);
    put_literals(out, match_nibble as u8, literals);
    out.extend_from_slice(&offset.to_le_bytes());
    if match_nibble == 15 {
        put_nibble_ext(out, match_extra - 15);
    }
}

/// Compresses `input`, returning `None` unless the compressed block is
/// *strictly* smaller than the input (the caller then ships the input
/// verbatim — the zero-copy passthrough escape).
#[must_use]
pub fn compress(input: &[u8]) -> Option<Vec<u8>> {
    let end = input.len();
    if end < MIN_COMPRESS_INPUT {
        return None;
    }
    // Positions are stored +1 so 0 can mean "empty slot".
    let mut table = [0u32; 1 << HASH_BITS];
    // The bail-out keeps the block under `end` bytes between sequences, so
    // this capacity is only outgrown by a block that is about to lose.
    let mut out = Vec::with_capacity(end);
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= end {
        let word = read_u32_le(input, i);
        let h = hash4(word);
        let candidate = table[h] as usize;
        table[h] = (i + 1) as u32;
        if candidate > 0 {
            let cand = candidate - 1;
            if i - cand <= MAX_OFFSET && read_u32_le(input, cand) == word {
                let match_len = MIN_MATCH + common_len(input, cand + MIN_MATCH, i + MIN_MATCH);
                put_sequence(&mut out, &input[anchor..i], (i - cand) as u16, match_len);
                if out.len() >= end {
                    return None; // compression is losing; bail early
                }
                i += match_len;
                anchor = i;
                continue;
            }
        }
        i += 1;
    }
    let literals = &input[anchor..];
    if !literals.is_empty() {
        if out.len() + 1 + nibble_ext_len(literals.len()) + literals.len() >= end {
            return None; // the trailing literals would lose: skip copying them
        }
        put_literals(&mut out, 0, literals);
    }
    // The block becomes a `Bytes` that may rest in a provider: pin only its
    // own length.
    out.shrink_to_fit();
    Some(out)
}

fn truncated() -> BlobError {
    BlobError::Transport("codec: truncated compressed block".into())
}

fn overrun(logical_len: usize) -> BlobError {
    BlobError::Transport(format!(
        "codec: block decodes past its {logical_len}-byte logical length"
    ))
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

/// Writes at `op` the `len`-byte match that starts `offset` bytes before
/// it. The caller has checked `offset <= op` and `op + len <= out.len()`;
/// every byte this reads lies before `op` or was written by this call.
#[inline]
fn copy_match(out: &mut [u8], op: usize, offset: usize, len: usize) {
    let start = op - offset;
    if offset >= WILD_COPY && len <= WILD_COPY && out.len() - op >= WILD_ROOM {
        // The whole 16-byte source ends at or before `op`.
        out.copy_within(start..start + WILD_COPY, op);
    } else if offset >= len {
        out.copy_within(start..start + len, op);
    } else {
        // Overlapping (a run): the output repeats with period `offset`, so
        // each copy can take twice the pattern the last one did.
        let mut done = 0;
        while done < len {
            let n = (len - done).min(offset + done);
            out.copy_within(start..start + n, op + done);
            done += n;
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
    let mut out = vec![0u8; logical_len];
    let mut op = 0usize;
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
        if logical_len - op < literal_len {
            return Err(overrun(logical_len));
        }
        if literal_len <= WILD_COPY
            && input.len() - pos >= WILD_ROOM
            && logical_len - op >= WILD_ROOM
        {
            out[op..op + WILD_COPY].copy_from_slice(&input[pos..pos + WILD_COPY]);
        } else {
            out[op..op + literal_len].copy_from_slice(&input[pos..pos + literal_len]);
        }
        pos += literal_len;
        op += literal_len;
        if pos == input.len() {
            break; // trailing-literal sequence: no match follows
        }
        if input.len() - pos < 2 {
            return Err(truncated());
        }
        let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
        pos += 2;
        if offset == 0 || offset > op {
            return Err(BlobError::Transport(format!(
                "codec: match offset {offset} reaches before the block start"
            )));
        }
        let mut match_len = (token & 0x0f) as usize + MIN_MATCH;
        if token & 0x0f == 15 {
            match_len += get_nibble_ext(input, &mut pos)?;
        }
        if logical_len - op < match_len {
            return Err(overrun(logical_len));
        }
        copy_match(&mut out, op, offset, match_len);
        op += match_len;
    }
    if op != logical_len {
        return Err(BlobError::Transport(format!(
            "codec: block decoded to {op} bytes, envelope declared {logical_len}"
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

    /// Compressible inputs whose blocks the hostile-input tests take apart:
    /// a short-period cycle, and the two structured corpora.
    fn real_inputs(cycle: &[u8], len: usize) -> [Vec<u8>; 3] {
        [
            cycle.iter().copied().cycle().take(len).collect(),
            corpus(Corpus::RunsAndNoise, 1, len),
            corpus(Corpus::LogText, 2, len),
        ]
    }

    #[test]
    fn truncated_blocks_are_rejected_not_panicked_on() {
        for input in real_inputs(b"abcdefgh", 4096) {
            let block = compress(&input).unwrap();
            for cut in 0..block.len() {
                assert!(
                    decompress(&block[..cut], input.len()).is_err(),
                    "cut at {cut} must be rejected"
                );
                assert_decode_agrees(&block[..cut], input.len());
            }
        }
    }

    #[test]
    fn mangled_blocks_are_rejected_not_panicked_on() {
        for input in real_inputs(b"0123456789", 2048) {
            let block = compress(&input).unwrap();
            for i in 0..block.len() {
                for mask in [0x01, 0x10, 0x80, 0xA5, 0xFF] {
                    let mut mangled = block.clone();
                    mangled[i] ^= mask;
                    // Every single-byte corruption either still decodes to
                    // the right length (possible: a literal byte flip) or
                    // errors — never panics, and always as the reference does.
                    for declared in [input.len() - 1, input.len(), input.len() + 1] {
                        assert_decode_agrees(&mangled, declared);
                    }
                }
            }
            // A wrong logical length is always caught.
            assert!(decompress(&block, input.len() + 1).is_err());
            assert!(decompress(&block, input.len() - 1).is_err());
        }
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

    /// The inputs the differential tests draw from.
    #[derive(Clone, Copy, Debug)]
    enum Corpus {
        /// Uniform random bytes: nothing to match.
        Noise,
        /// Periodic runs (period 1 to 23, so matches overlap themselves at
        /// offsets on both sides of the fixed-width copy's 16) between
        /// stretches of noise.
        RunsAndNoise,
        /// Log lines as the benchmark writes them: 16 hex digits, then a few
        /// three-word phrases.
        LogText,
    }

    const CORPORA: [Corpus; 3] = [Corpus::Noise, Corpus::RunsAndNoise, Corpus::LogText];

    const WORDS: [&str; 8] = [
        "version", "chunk", "provider", "append", "snapshot", "replica", "commit", "read",
    ];

    fn corpus(kind: Corpus, seed: u64, len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(len + 128);
        while data.len() < len {
            match kind {
                Corpus::Noise => data.push(rng.gen::<u8>()),
                Corpus::RunsAndNoise => {
                    let n = rng.gen_range(1usize..64);
                    if rng.gen_bool(0.5) {
                        let period = rng.gen_range(1usize..24);
                        let pattern: Vec<u8> = (0..period).map(|_| rng.gen()).collect();
                        data.extend(pattern.iter().cycle().take(n));
                    } else {
                        data.extend((0..n).map(|_| rng.gen::<u8>()));
                    }
                }
                Corpus::LogText => {
                    data.extend_from_slice(format!("{:016x} ", rng.gen::<u64>()).as_bytes());
                    for _ in 0..rng.gen_range(3usize..5) {
                        let first = rng.gen_range(0..WORDS.len());
                        for word in WORDS.iter().cycle().skip(first).take(3) {
                            data.extend_from_slice(word.as_bytes());
                            data.push(b' ');
                        }
                    }
                    data.push(b'\n');
                }
            }
        }
        data.truncate(len);
        data
    }

    /// `compress` emits exactly the reference's block, which decodes back
    /// to the input and pins no allocation beyond its own length.
    fn assert_identical_blocks(input: &[u8]) {
        let block = compress(input);
        assert_eq!(
            block,
            reference::reference_compress(input),
            "a {}-byte input compressed differently from the reference",
            input.len()
        );
        if let Some(block) = block {
            assert_eq!(block.capacity(), block.len());
            assert_eq!(decompress(&block, input.len()).unwrap(), input);
        }
    }

    /// `decompress` and the reference accept the same blocks, with the same
    /// bytes, and reject the same blocks with a transport error.
    fn assert_decode_agrees(block: &[u8], declared: usize) {
        match (
            decompress(block, declared),
            reference::reference_decompress(block, declared),
        ) {
            (Ok(fast), Ok(slow)) => assert_eq!(fast, slow),
            (Err(BlobError::Transport(_)), Err(BlobError::Transport(_))) => {}
            (fast, slow) => panic!(
                "decoders disagree on a {}-byte block declared {declared}: {:?} vs {:?}",
                block.len(),
                fast.map(|v| v.len()),
                slow.map(|v| v.len()),
            ),
        }
    }

    #[test]
    fn blocks_are_identical_to_the_reference_at_edge_lengths() {
        for kind in CORPORA {
            for len in [0, 1, 31, 32, 33, 64 * 1024, 256 * 1024] {
                assert_identical_blocks(&corpus(kind, len as u64, len));
            }
        }
    }

    #[test]
    fn a_block_written_by_the_original_encoder_still_decodes() {
        // Written by the byte-at-a-time encoder this crate shipped first, so
        // a segment that encoder stored must keep reading back. It covers
        // literals, a long self-overlapping run, short matches at offsets
        // above and below 16, and trailing literals.
        let input: &[u8] = b"blob 42 v7 published; blob 42 v8 published; \
            zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz abcdefghijabcdefghijabcde \
            0123456789abcdef end";
        let golden: &[u8] = &GOLDEN_BLOCK;
        assert_eq!(decompress(golden, input.len()).unwrap(), input);
        assert_eq!(compress(input).unwrap(), golden);
    }

    const GOLDEN_BLOCK: [u8; 68] = [
        0xf5, 0x07, 0x62, 0x6c, 0x6f, 0x62, 0x20, 0x34, 0x32, 0x20, 0x76, 0x37, 0x20, 0x70, 0x75,
        0x62, 0x6c, 0x69, 0x73, 0x68, 0x65, 0x64, 0x3b, 0x20, 0x16, 0x00, 0x18, 0x38, 0x16, 0x00,
        0x1f, 0x7a, 0x01, 0x00, 0x14, 0xbb, 0x20, 0x61, 0x62, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
        0x69, 0x6a, 0x0a, 0x00, 0xb2, 0x20, 0x30, 0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x1a, 0x00, 0x40, 0x20, 0x65, 0x6e, 0x64,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_buffers_roundtrip(data in proptest::collection::vec(0u16..256, 0..4096)) {
            let data: Vec<u8> = data.into_iter().map(|b| b as u8).collect();
            roundtrip(&data);
        }

        #[test]
        fn blocks_are_identical_to_the_reference(
            seed in 0u64..1_000_000,
            kind in 0usize..3,
            len in 0usize..256 * 1024,
            short in proptest::any::<bool>(),
        ) {
            // Half the cases stay under 4 KiB, where the block edges are.
            let len = if short { len % 4096 } else { len };
            assert_identical_blocks(&corpus(CORPORA[kind], seed, len));
        }

        #[test]
        fn arbitrary_bytes_decode_like_the_reference(
            block in proptest::collection::vec(proptest::any::<u8>(), 0..512),
            declared in 0usize..16 * 1024,
        ) {
            assert_decode_agrees(&block, declared);
            assert_decode_agrees(&block, declared % 64);
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
