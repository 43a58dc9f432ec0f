//! The pluggable client–service boundary.
//!
//! A [`crate::client::BlobClient`] talks to exactly three services, each
//! behind an interface it holds as a trait object:
//!
//! * the **version manager** (the tiny serialisation point — still a
//!   concrete type, [`crate::version_manager::VersionManager`], because the
//!   paper's protocol gives it exactly one implementation);
//! * a [`MetadataService`] — where segment-tree nodes live. The in-process
//!   deployment plugs in the metadata-provider DHT
//!   (`blobseer_dht::Dht<NodeKey, NodeBody>`), optionally wrapped in a
//!   client-side [`blobseer_meta::CachedMetadataStore`]; unit tests plug in
//!   [`blobseer_meta::InMemoryMetaStore`]; the simulator plugs in a
//!   recording wrapper that charges DHT traffic to simulated resources.
//! * a [`ChunkService`] — where chunk payloads live and how placement is
//!   decided. The in-process deployment plugs in
//!   [`InProcessChunkService`]; a networked deployment would plug in an RPC
//!   client speaking to remote providers.
//!
//! Because clients only name these traits, every ROADMAP direction that
//! changes *where* the services run (sharded metadata, async transports,
//! remote providers) is a new trait implementation, not a client rewrite.

use crate::version_service::VersionService;
use blobseer_meta::{MetadataStore, NodeBody, NodeKey};
use std::sync::Arc;

pub use blobseer_provider::{ChunkService, InProcessChunkService};

/// The three service handles one client is assembled from: the concrete
/// services in process, their wire stubs on a networked deployment.
pub struct ClientServices {
    /// The version manager.
    pub versions: Arc<dyn VersionService>,
    /// The chunk plane.
    pub chunks: Arc<dyn ChunkService>,
    /// The metadata plane, uncached (client assembly adds the node cache).
    pub metadata: Arc<dyn MetadataService>,
}

/// The metadata half of the service boundary.
///
/// Everything a client needs from metadata is the write-once node store
/// defined by [`MetadataStore`] — including its batched
/// [`MetadataStore::get_nodes`] / [`MetadataStore::put_nodes`], which the
/// hot read and publish paths are built on; this trait adds the client-side
/// helper for following repair aliases and is blanket-implemented for every
/// store, so any `MetadataStore` (the DHT, an in-memory map, a caching
/// wrapper, a simulator shim) is automatically a `MetadataService`.
pub trait MetadataService: MetadataStore {
    /// Fetches `key`, transparently following [`NodeBody::Alias`] forwarding
    /// nodes (created by repair weaving for aborted writes) to the node that
    /// actually holds content. Returns `Ok(None)` if the chain dead-ends on a
    /// node that was never stored, or if it exceeds 64 hops (alias chains
    /// grow by one per repaired write of a range; a longer chain means the
    /// metadata is corrupted, and hanging on a cycle would be worse than
    /// reporting the node missing). An unreachable store propagates as `Err`,
    /// never as a fake absence.
    fn get_node_resolved(&self, key: &NodeKey) -> blobseer_types::Result<Option<NodeBody>> {
        let mut key = *key;
        for _ in 0..64 {
            match self.get_node(&key)? {
                Some(NodeBody::Alias(target)) => key = target.key(key.blob),
                body => return Ok(body),
            }
        }
        Ok(None)
    }
}

impl<S: MetadataStore + ?Sized> MetadataService for S {}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_meta::{ChildRef, InMemoryMetaStore, LeafNode};
    use blobseer_types::{BlobId, ByteRange, Version};

    fn key(version: u64) -> NodeKey {
        NodeKey {
            blob: BlobId(1),
            version: Version(version),
            range: ByteRange::new(0, 64),
        }
    }

    #[test]
    fn resolution_follows_alias_chains() {
        let store = InMemoryMetaStore::new();
        let leaf = NodeBody::Leaf(LeafNode::hole(BlobId(1), 0));
        store.put_node(key(1), leaf.clone()).unwrap();
        store
            .put_node(
                key(2),
                NodeBody::Alias(ChildRef {
                    version: Version(1),
                    range: ByteRange::new(0, 64),
                }),
            )
            .unwrap();
        store
            .put_node(
                key(3),
                NodeBody::Alias(ChildRef {
                    version: Version(2),
                    range: ByteRange::new(0, 64),
                }),
            )
            .unwrap();
        assert_eq!(
            store.get_node_resolved(&key(3)).unwrap(),
            Some(leaf.clone())
        );
        assert_eq!(store.get_node_resolved(&key(1)).unwrap(), Some(leaf));
        assert_eq!(store.get_node_resolved(&key(9)).unwrap(), None);
    }

    #[test]
    fn resolution_bails_out_of_alias_cycles() {
        let store = InMemoryMetaStore::new();
        // Corrupted metadata: an alias pointing at itself.
        store
            .put_node(
                key(1),
                NodeBody::Alias(ChildRef {
                    version: Version(1),
                    range: ByteRange::new(0, 64),
                }),
            )
            .unwrap();
        assert_eq!(store.get_node_resolved(&key(1)).unwrap(), None);
    }

    #[test]
    fn every_store_is_a_metadata_service() {
        // The blanket impl must cover plain stores, trait objects and Arcs.
        let store = InMemoryMetaStore::new();
        let as_service: &dyn MetadataService = &store;
        assert_eq!(as_service.node_count(), 0);
        let arc: Arc<dyn MetadataService> = Arc::new(InMemoryMetaStore::new());
        assert!(arc.get_node_resolved(&key(1)).unwrap().is_none());
    }

    #[test]
    fn batched_store_api_is_reachable_through_the_service_object() {
        // Clients hold `Arc<dyn MetadataService>`: the batched calls the hot
        // paths use must dispatch through the trait object.
        let arc: Arc<dyn MetadataService> = Arc::new(InMemoryMetaStore::new());
        let leaf = NodeBody::Leaf(LeafNode::hole(BlobId(1), 0));
        arc.put_nodes(vec![(key(1), leaf.clone()), (key(2), leaf.clone())])
            .unwrap();
        assert_eq!(
            arc.get_nodes(&[key(2), key(9), key(1)]).unwrap(),
            vec![Some(leaf.clone()), None, Some(leaf)]
        );
    }
}
