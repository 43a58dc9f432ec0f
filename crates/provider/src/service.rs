//! The chunk half of the client–service boundary.
//!
//! [`ChunkService`] is everything a BlobSeer client needs from the data
//! plane: ask *where* chunks should go (the provider manager's placement
//! decision) and move chunk payloads to and from the providers holding them.
//! Clients hold a `ChunkService` trait object instead of concrete
//! [`ProviderManager`]/[`DataProvider`] handles, so the same client code runs
//! against the in-process wiring ([`InProcessChunkService`]), a simulator
//! shim, or — eventually — a networked transport.

use crate::manager::{PlacementRequest, ProviderManager};
use crate::provider::DataProvider;
use blobseer_types::{BlobError, ChunkEnvelope, ChunkId, ProviderId, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// Placement and chunk transfer, as seen by a client.
///
/// Implementations must be cheap to share between threads: every client of a
/// deployment holds the same service handle and calls it concurrently.
pub trait ChunkService: Send + Sync {
    /// Decides which providers should store each chunk of an upcoming write.
    fn allocate(&self, request: PlacementRequest) -> Result<Vec<Vec<ProviderId>>>;

    /// Providers currently believed alive, in registration order. Used by
    /// writers to find substitutes when an assigned provider fails mid-write.
    fn live_providers(&self) -> Vec<ProviderId>;

    /// Stores one chunk replica (as a codec envelope) on the given provider.
    fn put_chunk(&self, provider: ProviderId, chunk: ChunkId, data: ChunkEnvelope) -> Result<()>;

    /// Stores several chunks on one provider, returning one result per
    /// chunk (same order). Transports that can pipeline override this to
    /// ship the whole batch in one send — that is where client-side frame
    /// coalescing comes from — while the default simply loops
    /// [`ChunkService::put_chunk`], so every implementation keeps identical
    /// per-chunk semantics.
    fn put_chunks(
        &self,
        provider: ProviderId,
        chunks: &[(ChunkId, ChunkEnvelope)],
    ) -> Vec<Result<()>> {
        chunks
            .iter()
            .map(|(chunk, data)| self.put_chunk(provider, *chunk, data.clone()))
            .collect()
    }

    /// Fetches one chunk replica from the given provider. The envelope comes
    /// back exactly as stored; opening it is the caller's job.
    fn get_chunk(&self, provider: ProviderId, chunk: &ChunkId) -> Result<ChunkEnvelope>;

    /// Fetches several chunks from one provider, returning one result per
    /// chunk (same order) — the read-side twin of
    /// [`ChunkService::put_chunks`]. Readers hand each provider its whole
    /// run of chunks in one call; transports that can pipeline override
    /// this to ship the run as one send, while the default loops
    /// [`ChunkService::get_chunk`], so a failure stays per chunk everywhere.
    /// An override may stop trying the provider once one chunk's retries
    /// there fail at the transport level, returning that same error for
    /// every later chunk of the run, so that a hung provider costs one
    /// retry budget rather than one per chunk.
    fn get_chunks(&self, provider: ProviderId, chunks: &[ChunkId]) -> Vec<Result<ChunkEnvelope>> {
        chunks
            .iter()
            .map(|chunk| self.get_chunk(provider, chunk))
            .collect()
    }

    /// Removes a batch of reclaimed chunks from one provider, returning the
    /// physical bytes freed. Only the lifecycle sweeper calls this, and only
    /// for chunks unreachable from every retained version. The default is a
    /// safe no-op so transports without reclamation support merely never
    /// shrink — they are never wrong.
    fn remove_chunks(&self, provider: ProviderId, chunks: &[ChunkId]) -> Result<u64> {
        let _ = (provider, chunks);
        Ok(0)
    }
}

/// The shared-memory implementation of [`ChunkService`]: a provider manager
/// plus direct handles to every data provider of an in-process cluster.
pub struct InProcessChunkService {
    manager: Arc<ProviderManager>,
    providers: HashMap<ProviderId, Arc<DataProvider>>,
}

impl InProcessChunkService {
    /// Wires a manager and a set of provider handles into one service.
    #[must_use]
    pub fn new(
        manager: Arc<ProviderManager>,
        providers: HashMap<ProviderId, Arc<DataProvider>>,
    ) -> Self {
        InProcessChunkService { manager, providers }
    }

    /// The provider manager behind this service.
    pub fn manager(&self) -> &Arc<ProviderManager> {
        &self.manager
    }

    /// Handle of one data provider, if registered.
    pub fn provider(&self, id: ProviderId) -> Option<Arc<DataProvider>> {
        self.providers.get(&id).cloned()
    }

    /// Handles of every data provider, in id order.
    pub fn providers(&self) -> Vec<Arc<DataProvider>> {
        let mut ids: Vec<ProviderId> = self.providers.keys().copied().collect();
        ids.sort();
        ids.iter().map(|id| self.providers[id].clone()).collect()
    }

    /// Iterates over the provider handles without cloning or ordering them
    /// (for statistics sweeps that visit every provider).
    pub fn iter_providers(&self) -> impl Iterator<Item = &Arc<DataProvider>> {
        self.providers.values()
    }
}

impl ChunkService for InProcessChunkService {
    fn allocate(&self, request: PlacementRequest) -> Result<Vec<Vec<ProviderId>>> {
        self.manager.allocate(request)
    }

    fn live_providers(&self) -> Vec<ProviderId> {
        self.manager.live_providers()
    }

    fn put_chunk(&self, provider: ProviderId, chunk: ChunkId, data: ChunkEnvelope) -> Result<()> {
        self.providers
            .get(&provider)
            .ok_or(BlobError::UnknownProvider(provider))?
            .put_chunk(chunk, data)
    }

    fn get_chunk(&self, provider: ProviderId, chunk: &ChunkId) -> Result<ChunkEnvelope> {
        self.providers
            .get(&provider)
            .ok_or(BlobError::UnknownProvider(provider))?
            .get_chunk(chunk)
    }

    fn remove_chunks(&self, provider: ProviderId, chunks: &[ChunkId]) -> Result<u64> {
        self.providers
            .get(&provider)
            .ok_or(BlobError::UnknownProvider(provider))?
            .remove_chunks(chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_types::{BlobId, PlacementPolicy};

    fn service(providers: usize) -> InProcessChunkService {
        let manager = Arc::new(ProviderManager::with_providers(
            PlacementPolicy::RoundRobin,
            providers,
        ));
        let map = (0..providers)
            .map(|i| {
                let id = ProviderId(i as u32);
                (id, Arc::new(DataProvider::in_memory(id)))
            })
            .collect();
        InProcessChunkService::new(manager, map)
    }

    fn cid(slot: u64) -> ChunkId {
        ChunkId {
            blob: BlobId(1),
            write_tag: 1,
            slot,
        }
    }

    fn env(data: &'static [u8]) -> ChunkEnvelope {
        ChunkEnvelope::verbatim(bytes::Bytes::from_static(data))
    }

    #[test]
    fn chunks_roundtrip_through_the_service() {
        let svc = service(2);
        svc.put_chunk(ProviderId(0), cid(0), env(b"abc")).unwrap();
        assert_eq!(svc.get_chunk(ProviderId(0), &cid(0)).unwrap(), env(b"abc"));
        assert!(matches!(
            svc.get_chunk(ProviderId(1), &cid(0)),
            Err(BlobError::ChunkNotFound(_, _))
        ));
    }

    #[test]
    fn unknown_providers_are_reported() {
        let svc = service(1);
        assert!(matches!(
            svc.put_chunk(ProviderId(7), cid(0), env(b"x")),
            Err(BlobError::UnknownProvider(ProviderId(7)))
        ));
        assert!(matches!(
            svc.get_chunk(ProviderId(7), &cid(0)),
            Err(BlobError::UnknownProvider(ProviderId(7)))
        ));
    }

    #[test]
    fn allocation_and_liveness_delegate_to_the_manager() {
        let svc = service(4);
        let placement = svc
            .allocate(PlacementRequest {
                chunk_count: 4,
                replication: 1,
            })
            .unwrap();
        assert_eq!(placement.len(), 4);
        svc.manager().set_alive(ProviderId(2), false).unwrap();
        assert_eq!(
            svc.live_providers(),
            vec![ProviderId(0), ProviderId(1), ProviderId(3)]
        );
    }

    #[test]
    fn provider_handles_are_exposed_in_id_order() {
        let svc = service(3);
        let handles = svc.providers();
        assert_eq!(handles.len(), 3);
        for (i, p) in handles.iter().enumerate() {
            assert_eq!(p.id(), ProviderId(i as u32));
        }
        assert!(svc.provider(ProviderId(1)).is_some());
        assert!(svc.provider(ProviderId(9)).is_none());
    }
}
