//! Seeded payload generation and read verification.
//!
//! Every byte the benchmark writes is a function of `--seed`: a pool of
//! [`POOL_CHUNKS`] chunk bodies is generated once per run, and chunk number
//! `index` of write stream `stream` is pool body `(index + 31 * stream) mod
//! POOL_CHUNKS` with its first [`STAMP_BYTES`] bytes replaced by the stamp
//! `(seed, stream, index)`. A *stream* is one writer's sequence of chunks
//! into one blob (the preload is stream 0, client threads are 1 and 2):
//! with two clients appending to one shared blob a writer cannot know where
//! in the blob its chunk will land, only which of its own chunks it is, so
//! the stamp names the writer and a [`Layout`] — built from the versions the
//! appends were acknowledged with — maps blob offsets back to stamps.

use blobseer_types::BlobSlice;
use bytes::Bytes;

/// Chunk size of every blob the benchmark creates.
pub const CHUNK: usize = 64 * 1024;
/// Bytes of the stamp at the start of every chunk.
pub const STAMP_BYTES: usize = 16;
/// Distinct chunk bodies per run (16 MiB — larger than the CPU caches, small
/// enough to generate in a few milliseconds).
const POOL_CHUNKS: usize = 256;

/// SplitMix64: the benchmark's only source of randomness, so the same seed
/// gives the same inputs on every machine and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything a
    /// workload mix could notice.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What the chunk bodies look like to the chunk codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavour {
    /// Uniform random bytes: `chunk_codec = fast` passes them through.
    Incompressible,
    /// Log-like text that `chunk_codec = fast` shrinks about 3:1.
    Text,
}

const WORDS: &[&str] = &[
    "append",
    "read",
    "version",
    "snapshot",
    "provider",
    "metadata",
    "segment",
    "tree",
    "chunk",
    "blob",
    "client",
    "writer",
    "reader",
    "publish",
    "commit",
    "ticket",
    "range",
    "offset",
    "lease",
    "replica",
    "manager",
    "shard",
    "descent",
    "weave",
    "frontier",
    "stripe",
    "latency",
    "throughput",
    "concurrent",
    "immutable",
    "ok",
    "retry",
    "flush",
    "sync",
    "queue",
    "window",
];

fn fill_text(rng: &mut Rng, out: &mut [u8]) {
    // One log line per iteration: a hexadecimal field (literals the codec
    // cannot match) followed by a few three-word phrases (matches). The mix
    // is tuned so the in-house LZ4-style codec lands near 3:1.
    let mut at = 0;
    let mut line = Vec::with_capacity(128);
    while at < out.len() {
        line.clear();
        line.extend_from_slice(format!("{:016x} ", rng.next_u64()).as_bytes());
        for _ in 0..3 + rng.below(2) {
            let first = rng.below(WORDS.len() as u64) as usize;
            for word in WORDS.iter().cycle().skip(first).take(3) {
                line.extend_from_slice(word.as_bytes());
                line.push(b' ');
            }
        }
        line.push(b'\n');
        let n = line.len().min(out.len() - at);
        out[at..at + n].copy_from_slice(&line[..n]);
        at += n;
    }
}

/// The run's payload generator.
pub struct Payload {
    seed: u64,
    pool: Vec<u8>,
}

impl Payload {
    #[must_use]
    pub fn new(seed: u64, flavour: Flavour) -> Self {
        let mut rng = Rng::new(seed ^ 0x5EED_B10B_5EE2_0001);
        let mut pool = vec![0u8; POOL_CHUNKS * CHUNK];
        match flavour {
            Flavour::Incompressible => {
                for word in pool.chunks_exact_mut(8) {
                    word.copy_from_slice(&rng.next_u64().to_le_bytes());
                }
            }
            Flavour::Text => fill_text(&mut rng, &mut pool),
        }
        Payload { seed, pool }
    }

    fn stamp(&self, stream: u32, index: u64) -> [u8; STAMP_BYTES] {
        let mut stamp = [0u8; STAMP_BYTES];
        stamp[0..4].copy_from_slice(&(self.seed as u32).to_le_bytes());
        stamp[4..8].copy_from_slice(&stream.to_le_bytes());
        stamp[8..16].copy_from_slice(&index.to_le_bytes());
        stamp
    }

    /// Writes chunk `index` of `stream` into `out` (exactly one chunk).
    pub fn chunk_into(&self, stream: u32, index: u64, out: &mut [u8]) {
        let body = (index as usize).wrapping_add(31 * stream as usize) % POOL_CHUNKS;
        out.copy_from_slice(&self.pool[body * CHUNK..(body + 1) * CHUNK]);
        out[..STAMP_BYTES].copy_from_slice(&self.stamp(stream, index));
    }

    /// `chunks` consecutive chunks of `stream` starting at `first`, as one
    /// buffer ready to append.
    #[must_use]
    pub fn make(&self, stream: u32, first: u64, chunks: usize) -> Bytes {
        let mut data = vec![0u8; chunks * CHUNK];
        for (i, chunk) in data.chunks_exact_mut(CHUNK).enumerate() {
            self.chunk_into(stream, first + i as u64, chunk);
        }
        Bytes::from(data)
    }

    /// Checks what a read of `len` bytes at blob offset `offset` returned:
    /// the length, the stamp of every chunk that starts inside the range
    /// and, when `full`, every byte.
    #[must_use]
    pub fn verify(
        &self,
        layout: &Layout,
        offset: u64,
        len: u64,
        data: &BlobSlice,
        full: bool,
    ) -> bool {
        if data.len() != len {
            return false;
        }
        let chunk = CHUNK as u64;
        let end = offset + len;
        let mut expected = vec![0u8; if full { CHUNK } else { 0 }];
        let mut got = vec![0u8; if full { CHUNK } else { STAMP_BYTES }];
        let mut pos = offset;
        while pos < end {
            let chunk_start = pos - pos % chunk;
            let piece_end = end.min(chunk_start + chunk);
            let Some((stream, index)) = layout.chunk_at(chunk_start) else {
                return false;
            };
            if full {
                self.chunk_into(stream, index, &mut expected);
                let want =
                    &expected[(pos - chunk_start) as usize..(piece_end - chunk_start) as usize];
                let got = &mut got[..want.len()];
                if data.copy_range_to(pos - offset, got) != want.len() || got != want {
                    return false;
                }
            } else if pos == chunk_start && piece_end - pos >= STAMP_BYTES as u64 {
                let got = &mut got[..STAMP_BYTES];
                if data.copy_range_to(pos - offset, got) != STAMP_BYTES
                    || got != self.stamp(stream, index)
                {
                    return false;
                }
            }
            pos = piece_end;
        }
        true
    }
}

/// Which stream chunk the benchmark expects at each offset of one blob:
/// chunk-aligned extents sorted by offset.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// `(blob offset, bytes, stream, first chunk index)`.
    extents: Vec<(u64, u64, u32, u64)>,
}

impl Layout {
    /// Adds an extent. Extents must be added in increasing offset order.
    pub fn push(&mut self, offset: u64, bytes: u64, stream: u32, first_index: u64) {
        debug_assert!(offset % CHUNK as u64 == 0 && bytes % CHUNK as u64 == 0);
        debug_assert!(self.extents.last().is_none_or(|e| e.0 + e.1 <= offset));
        self.extents.push((offset, bytes, stream, first_index));
    }

    /// Bytes covered, from offset zero, without a gap.
    #[must_use]
    pub fn contiguous_bytes(&self) -> u64 {
        let mut end = 0;
        for &(offset, bytes, ..) in &self.extents {
            if offset != end {
                break;
            }
            end += bytes;
        }
        end
    }

    fn chunk_at(&self, chunk_start: u64) -> Option<(u32, u64)> {
        let i = self.extents.partition_point(|e| e.0 <= chunk_start);
        let &(offset, bytes, stream, first) = self.extents.get(i.checked_sub(1)?)?;
        (chunk_start < offset + bytes)
            .then(|| (stream, first + (chunk_start - offset) / CHUNK as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for flavour in [Flavour::Incompressible, Flavour::Text] {
            let a = Payload::new(7, flavour).make(1, 40, 3);
            let b = Payload::new(7, flavour).make(1, 40, 3);
            let c = Payload::new(8, flavour).make(1, 40, 3);
            assert_eq!(a, b);
            assert_ne!(a, c);
            assert_ne!(a.slice(..CHUNK), a.slice(CHUNK..2 * CHUNK), "chunks differ");
        }
    }

    #[test]
    fn text_compresses_about_three_to_one_and_noise_not_at_all() {
        let text = Payload::new(3, Flavour::Text).make(0, 0, 4);
        let packed: usize = text
            .chunks(CHUNK)
            .map(|c| blobseer_codec::compress(c).map_or(c.len(), |p| p.len()))
            .sum();
        let ratio = text.len() as f64 / packed as f64;
        assert!((2.7..3.3).contains(&ratio), "text ratio {ratio}");
        let noise = Payload::new(3, Flavour::Incompressible).make(0, 0, 1);
        assert!(blobseer_codec::compress(&noise).is_none());
    }

    #[test]
    fn verify_accepts_what_was_written_and_rejects_anything_else() {
        let payload = Payload::new(11, Flavour::Incompressible);
        let mut layout = Layout::default();
        layout.push(0, 2 * CHUNK as u64, 0, 0);
        layout.push(2 * CHUNK as u64, 2 * CHUNK as u64, 2, 10);
        assert_eq!(layout.contiguous_bytes(), 4 * CHUNK as u64);
        let mut blob = payload.make(0, 0, 2).to_vec();
        blob.extend_from_slice(&payload.make(2, 10, 2));

        let read = |offset: usize, len: usize| {
            BlobSlice::from_bytes(Bytes::from(blob[offset..offset + len].to_vec()))
        };
        for full in [false, true] {
            assert!(payload.verify(&layout, 0, blob.len() as u64, &read(0, blob.len()), full));
            // An unaligned range that starts and ends inside chunks.
            assert!(payload.verify(&layout, 100, 3 * CHUNK as u64, &read(100, 3 * CHUNK), full));
        }
        // Wrong length, wrong place, flipped stamp byte, flipped body byte.
        assert!(!payload.verify(&layout, 0, 10, &read(0, 9), true));
        assert!(!payload.verify(&layout, CHUNK as u64, CHUNK as u64, &read(0, CHUNK), false));
        let mut bad = blob.clone();
        bad[2 * CHUNK + 9] ^= 1;
        let slice = BlobSlice::from_bytes(Bytes::from(bad));
        assert!(!payload.verify(&layout, 0, blob.len() as u64, &slice, false));
        let mut bad = blob.clone();
        bad[CHUNK + 5000] ^= 1;
        let slice = BlobSlice::from_bytes(Bytes::from(bad));
        assert!(payload.verify(&layout, 0, blob.len() as u64, &slice, false));
        assert!(!payload.verify(&layout, 0, blob.len() as u64, &slice, true));
        // Past the layout.
        assert!(!payload.verify(&layout, 4 * CHUNK as u64, 16, &read(0, 16), true));
    }
}
