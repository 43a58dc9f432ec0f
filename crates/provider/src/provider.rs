//! A data provider node: a chunk store plus statistics and a failure switch.

use crate::store::{ChunkStore, RamStore};
use blobseer_types::{BlobError, ChunkEnvelope, ChunkId, ProviderId, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Usage statistics of one data provider, reported to the provider manager
/// and consumed by the QoS layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProviderStats {
    /// Chunks currently stored.
    pub chunks: u64,
    /// Physical payload bytes currently stored (compressed chunks count at
    /// their compressed size — what the provider's memory or disk pays).
    pub bytes: u64,
    /// Successful chunk writes served since start.
    pub writes: u64,
    /// Successful chunk reads served since start.
    pub reads: u64,
    /// Requests rejected because the provider was failed.
    pub rejected: u64,
    /// Physical payload bytes reclaimed by the lifecycle sweeper since
    /// start (chunks of evicted versions removed from this provider).
    pub reclaimed_bytes: u64,
    /// Chunks reclaimed by the lifecycle sweeper since start.
    pub reclaimed_chunks: u64,
}

/// One data provider of the BlobSeer deployment.
///
/// A provider wraps a [`ChunkStore`] backend, tracks usage statistics and can
/// be switched off and on again to emulate failures (experiment E).
pub struct DataProvider {
    id: ProviderId,
    store: Arc<dyn ChunkStore>,
    alive: AtomicBool,
    writes: AtomicU64,
    reads: AtomicU64,
    rejected: AtomicU64,
    reclaimed_bytes: AtomicU64,
    reclaimed_chunks: AtomicU64,
}

impl DataProvider {
    /// Creates a provider backed by an unbounded RAM store.
    #[must_use]
    pub fn in_memory(id: ProviderId) -> Self {
        DataProvider::with_store(id, Arc::new(RamStore::unbounded()))
    }

    /// Creates a provider backed by an arbitrary chunk store.
    #[must_use]
    pub fn with_store(id: ProviderId, store: Arc<dyn ChunkStore>) -> Self {
        DataProvider {
            id,
            store,
            alive: AtomicBool::new(true),
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            reclaimed_bytes: AtomicU64::new(0),
            reclaimed_chunks: AtomicU64::new(0),
        }
    }

    /// The provider's identifier.
    pub fn id(&self) -> ProviderId {
        self.id
    }

    /// Whether the provider is serving requests.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Switches the provider off (`false`) or back on (`true`).
    pub fn set_alive(&self, alive: bool) {
        self.alive.store(alive, Ordering::Release);
    }

    /// Stores a chunk envelope on this provider. Envelopes are stored as
    /// received — a provider never compresses or decompresses chunk data.
    pub fn put_chunk(&self, id: ChunkId, data: ChunkEnvelope) -> Result<()> {
        if !self.is_alive() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(BlobError::ProviderUnavailable(self.id));
        }
        self.store.put(id, data)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reads a chunk envelope from this provider.
    pub fn get_chunk(&self, id: &ChunkId) -> Result<ChunkEnvelope> {
        if !self.is_alive() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(BlobError::ProviderUnavailable(self.id));
        }
        match self.store.get(id) {
            Ok(Some(data)) => {
                self.reads.fetch_add(1, Ordering::Relaxed);
                Ok(data)
            }
            Ok(None) => Err(BlobError::ChunkNotFound(*id, self.id)),
            // A held-but-unreadable record (at-rest corruption) propagates
            // as the store's retryable error so readers rotate replicas
            // instead of treating it as a clean miss.
            Err(err) => Err(err),
        }
    }

    /// Whether this provider currently stores the chunk (failed providers
    /// report `false`).
    pub fn has_chunk(&self, id: &ChunkId) -> bool {
        self.is_alive() && self.store.contains(id)
    }

    /// Removes a batch of chunks reclaimed by the lifecycle sweeper and
    /// returns the physical bytes freed. Chunks the provider does not hold
    /// are skipped (sweeps are idempotent); a failed provider rejects the
    /// whole batch, and the sweeper retries on a later pass.
    pub fn remove_chunks(&self, ids: &[ChunkId]) -> Result<u64> {
        if !self.is_alive() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(BlobError::ProviderUnavailable(self.id));
        }
        let mut freed = 0u64;
        let mut removed = 0u64;
        for id in ids {
            if let Some(bytes) = self.store.remove(id) {
                freed += bytes;
                removed += 1;
            }
        }
        self.reclaimed_bytes.fetch_add(freed, Ordering::Relaxed);
        self.reclaimed_chunks.fetch_add(removed, Ordering::Relaxed);
        Ok(freed)
    }

    /// Current usage statistics.
    pub fn stats(&self) -> ProviderStats {
        ProviderStats {
            chunks: self.store.chunk_count() as u64,
            bytes: self.store.bytes_stored(),
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            reclaimed_bytes: self.reclaimed_bytes.load(Ordering::Relaxed),
            reclaimed_chunks: self.reclaimed_chunks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_types::BlobId;
    use bytes::Bytes;

    fn cid(slot: u64) -> ChunkId {
        ChunkId {
            blob: BlobId(1),
            write_tag: 42,
            slot,
        }
    }

    fn env(data: &'static [u8]) -> ChunkEnvelope {
        ChunkEnvelope::verbatim(Bytes::from_static(data))
    }

    #[test]
    fn put_get_and_stats() {
        let p = DataProvider::in_memory(ProviderId(0));
        p.put_chunk(cid(0), env(b"abcd")).unwrap();
        p.put_chunk(cid(1), env(b"efgh")).unwrap();
        assert_eq!(p.get_chunk(&cid(0)).unwrap(), env(b"abcd"));
        assert!(p.has_chunk(&cid(1)));
        assert!(!p.has_chunk(&cid(2)));
        let stats = p.stats();
        assert_eq!(stats.chunks, 2);
        assert_eq!(stats.bytes, 8);
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn missing_chunk_is_an_error() {
        let p = DataProvider::in_memory(ProviderId(3));
        assert!(matches!(
            p.get_chunk(&cid(9)),
            Err(BlobError::ChunkNotFound(_, ProviderId(3)))
        ));
    }

    #[test]
    fn failed_provider_rejects_requests() {
        let p = DataProvider::in_memory(ProviderId(1));
        p.put_chunk(cid(0), env(b"abcd")).unwrap();
        p.set_alive(false);
        assert!(matches!(
            p.put_chunk(cid(1), env(b"x")),
            Err(BlobError::ProviderUnavailable(ProviderId(1)))
        ));
        assert!(matches!(
            p.get_chunk(&cid(0)),
            Err(BlobError::ProviderUnavailable(ProviderId(1)))
        ));
        assert!(!p.has_chunk(&cid(0)));
        assert_eq!(p.stats().rejected, 2);
        // Recover and serve again: the chunk survived the outage.
        p.set_alive(true);
        assert_eq!(p.get_chunk(&cid(0)).unwrap(), env(b"abcd"));
    }

    #[test]
    fn concurrent_clients_share_one_provider() {
        use std::sync::Arc;
        let p = Arc::new(DataProvider::in_memory(ProviderId(7)));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let id = ChunkId {
                        blob: BlobId(t),
                        write_tag: t,
                        slot: i,
                    };
                    p.put_chunk(id, ChunkEnvelope::verbatim(Bytes::from(vec![t as u8; 32])))
                        .unwrap();
                    assert_eq!(p.get_chunk(&id).unwrap().physical_len(), 32);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = p.stats();
        assert_eq!(stats.chunks, 800);
        assert_eq!(stats.writes, 800);
        assert_eq!(stats.reads, 800);
    }
}
