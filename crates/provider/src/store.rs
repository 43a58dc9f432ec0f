//! Chunk storage backends.
//!
//! This module defines the [`ChunkStore`] trait every backend implements and
//! the [`RamStore`] in-memory backend — the original BlobSeer prototype's
//! storage scheme, the RAM tier of a RAM-resident deployment, and the
//! default for tests, examples and the simulator. The durable tier
//! (`blobseer-persist`'s segment store: append-only CRC-framed segment
//! files with crash recovery) implements the same trait from its own crate,
//! mirroring Section IV.B ("persistent data and metadata storage while
//! keeping our initial RAM-based storage scheme as an underlying caching
//! mechanism"). There the segment files are the store and a bounded
//! write-through chunk cache on the serving side is that caching tier.
//!
//! Every backend stores [`ChunkEnvelope`]s — the chunk codec's unit of
//! at-rest storage. A compressed chunk stays compressed on the provider
//! (RAM and disk hold the physical bytes); decompression happens only at
//! the reading client. `bytes_stored` therefore counts *physical* bytes,
//! which is what the provider's memory and disk actually pay.

use blobseer_types::{BlobError, ChunkEnvelope, ChunkId, ProviderId, Result};
use parking_lot::RwLock;
use std::collections::HashMap;

/// Abstraction over chunk storage so that providers can swap backends.
pub trait ChunkStore: Send + Sync {
    /// Stores a chunk envelope. Chunks are immutable: storing the same id
    /// twice with different contents is an error, storing identical contents
    /// is a no-op.
    fn put(&self, id: ChunkId, data: ChunkEnvelope) -> Result<()>;

    /// Fetches a chunk envelope. `Ok(None)` means this store does not hold
    /// the chunk; `Err` means the store holds a record for it but cannot
    /// produce the bytes (an at-rest CRC mismatch surfaces here as
    /// [`BlobError::Transport`], so readers treat it as retryable and rotate
    /// to another replica instead of reading it back as a clean miss).
    fn get(&self, id: &ChunkId) -> Result<Option<ChunkEnvelope>>;

    /// Whether the store holds the chunk (a record it cannot verify still
    /// counts as held — the chunk exists, it is just unreadable here).
    fn contains(&self, id: &ChunkId) -> bool {
        !matches!(self.get(id), Ok(None))
    }

    /// Removes a chunk, returning the physical bytes freed, or `None` if
    /// the store did not hold it. Only the lifecycle sweeper removes chunks,
    /// and only ones unreachable from every retained version — immutability
    /// of *live* chunk ids is untouched.
    fn remove(&self, id: &ChunkId) -> Option<u64>;

    /// Number of chunks held.
    fn chunk_count(&self) -> usize;

    /// Total physical payload bytes held (compressed chunks count at their
    /// compressed size).
    fn bytes_stored(&self) -> u64;
}

/// In-memory chunk store: the RAM tier of a RAM-resident deployment.
///
/// It keeps every chunk it is given until the lifecycle sweeper removes
/// it — the behaviour of the original RAM-only prototype. A store never
/// drops a chunk on its own; bounding memory is the serving cache's job,
/// and only in front of a durable store.
pub struct RamStore {
    inner: RwLock<RamInner>,
}

#[derive(Default)]
struct RamInner {
    chunks: HashMap<ChunkId, ChunkEnvelope>,
    bytes: u64,
}

impl RamStore {
    /// Creates an empty in-memory store.
    #[must_use]
    pub fn unbounded() -> Self {
        RamStore {
            inner: RwLock::new(RamInner::default()),
        }
    }
}

impl Default for RamStore {
    fn default() -> Self {
        RamStore::unbounded()
    }
}

impl ChunkStore for RamStore {
    fn put(&self, id: ChunkId, data: ChunkEnvelope) -> Result<()> {
        let mut inner = self.inner.write();
        if let Some(existing) = inner.chunks.get(&id) {
            if existing == &data {
                return Ok(());
            }
            return Err(BlobError::Internal(format!(
                "conflicting immutable chunk write for {id}"
            )));
        }
        inner.bytes += data.physical_len();
        inner.chunks.insert(id, data);
        Ok(())
    }

    fn get(&self, id: &ChunkId) -> Result<Option<ChunkEnvelope>> {
        Ok(self.inner.read().chunks.get(id).cloned())
    }

    fn remove(&self, id: &ChunkId) -> Option<u64> {
        let mut inner = self.inner.write();
        let data = inner.chunks.remove(id)?;
        let freed = data.physical_len();
        inner.bytes -= freed;
        Some(freed)
    }

    fn chunk_count(&self) -> usize {
        self.inner.read().chunks.len()
    }

    fn bytes_stored(&self) -> u64 {
        self.inner.read().bytes
    }
}

/// Convenience used by tests in several crates: a provider id that is never
/// registered anywhere.
pub const TEST_PROVIDER: ProviderId = ProviderId(u32::MAX);

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn chunk(blob: u64, tag: u64, slot: u64) -> ChunkId {
        ChunkId {
            blob: blobseer_types::BlobId(blob),
            write_tag: tag,
            slot,
        }
    }

    fn env(data: &'static [u8]) -> ChunkEnvelope {
        ChunkEnvelope::verbatim(Bytes::from_static(data))
    }

    #[test]
    fn ram_store_roundtrip_and_accounting() {
        let s = RamStore::unbounded();
        s.put(chunk(1, 1, 0), env(b"hello")).unwrap();
        s.put(chunk(1, 1, 1), env(b"world!")).unwrap();
        assert_eq!(s.get(&chunk(1, 1, 0)).unwrap(), Some(env(b"hello")));
        assert_eq!(s.get(&chunk(1, 2, 0)).unwrap(), None);
        assert_eq!(s.chunk_count(), 2);
        assert_eq!(s.bytes_stored(), 11);
        assert!(s.contains(&chunk(1, 1, 1)));
    }

    #[test]
    fn ram_store_rejects_conflicting_rewrites() {
        let s = RamStore::unbounded();
        s.put(chunk(1, 1, 0), env(b"aaaa")).unwrap();
        s.put(chunk(1, 1, 0), env(b"aaaa")).unwrap();
        assert!(s.put(chunk(1, 1, 0), env(b"bbbb")).is_err());
    }

    #[test]
    fn ram_store_accounts_compressed_chunks_at_physical_size() {
        let s = RamStore::unbounded();
        // A 1024-byte chunk that compressed down to 64 physical bytes.
        let sealed = ChunkEnvelope::compressed(1024, Bytes::from(vec![9u8; 64]));
        s.put(chunk(2, 1, 0), sealed.clone()).unwrap();
        assert_eq!(s.bytes_stored(), 64);
        let back = s.get(&chunk(2, 1, 0)).unwrap().unwrap();
        assert_eq!(back, sealed);
        assert_eq!(back.logical_len(), 1024);
    }

    #[test]
    fn concurrent_ram_store_access_is_consistent() {
        use std::sync::Arc;
        let s = Arc::new(RamStore::unbounded());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let id = chunk(t, t, i);
                    s.put(id, ChunkEnvelope::verbatim(Bytes::from(vec![t as u8; 16])))
                        .unwrap();
                    assert_eq!(s.get(&id).unwrap().unwrap().physical_len(), 16);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.chunk_count(), 1_600);
        assert_eq!(s.bytes_stored(), 1_600 * 16);
    }
}
