//! Metadata storage abstraction.
//!
//! Tree nodes are write-once values; any key/value store can hold them. The
//! production deployment uses the metadata-provider DHT
//! ([`blobseer_dht::Dht`]); unit tests use [`InMemoryMetaStore`]; clients can
//! wrap either in a [`CachedMetadataStore`] to exploit the immutability of
//! nodes for free client-side caching (the paper's Section IV.A reports
//! clear benefits from metadata caching).

use crate::node::{NodeBody, NodeKey};
use blobseer_dht::Dht;
use blobseer_types::Result;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Abstraction over the place segment-tree nodes are stored in.
///
/// Besides per-key access, the trait carries the *batched* operations the
/// hot paths are built on: a level-order read descent fetches one whole tree
/// level per [`MetadataStore::get_nodes_prefetching`] call, naming the
/// same-version subtree below that level as hints, and publication uploads
/// a whole write's nodes per [`MetadataStore::put_nodes`] call. Distributed
/// stores group a batch by owning node, turning O(nodes) round-trips into
/// O(owning nodes); the trivial defaults keep single-map stores correct.
pub trait MetadataStore: Send + Sync {
    /// Stores a node. Nodes are write-once: storing a different body under
    /// an existing key is an error, re-storing an identical body is a no-op.
    fn put_node(&self, key: NodeKey, body: NodeBody) -> Result<()>;

    /// Fetches a node by key.
    ///
    /// The two failure shapes are deliberately distinct: `Ok(None)` means the
    /// store answered and the node is *absent* (a reader may be racing a
    /// publication and can keep waiting), while `Err` means the store could
    /// not be reached at all (the caller must propagate, not treat the plane
    /// as empty — conflating the two is how a boundary merge reads garbage).
    fn get_node(&self, key: &NodeKey) -> Result<Option<NodeBody>>;

    /// Fetches a batch of nodes, one result slot per key in order.
    /// Implementations route the batch once per owning node. Same
    /// absent-versus-unreachable contract as [`MetadataStore::get_node`].
    fn get_nodes(&self, keys: &[NodeKey]) -> Result<Vec<Option<NodeBody>>> {
        keys.iter().map(|key| self.get_node(key)).collect()
    }

    /// [`MetadataStore::get_nodes`] for a caller that can name the nodes it
    /// will most likely ask for next. `prefetch` lists them on demand; a
    /// caching store calls it once on a cache miss and fetches the listed
    /// keys in the same batch as the misses, so the next request hits.
    /// The default ignores the hints: a store that keeps nothing has
    /// nowhere to put them.
    fn get_nodes_prefetching(
        &self,
        keys: &[NodeKey],
        prefetch: &mut dyn FnMut() -> Vec<NodeKey>,
    ) -> Result<Vec<Option<NodeBody>>> {
        let _ = prefetch;
        self.get_nodes(keys)
    }

    /// Stores a batch of nodes with per-entry write-once semantics, routing
    /// the batch once per owning node. The bodies are moved, not cloned.
    fn put_nodes(&self, nodes: Vec<(NodeKey, NodeBody)>) -> Result<()> {
        for (key, body) in nodes {
            self.put_node(key, body)?;
        }
        Ok(())
    }

    /// Deletes a batch of nodes, routing the batch once per owning node, and
    /// returns the number of keys that were present and removed. Deleting an
    /// absent key is a no-op — sweeps are idempotent and may race each other.
    ///
    /// Only the version-lifecycle sweeper calls this, and only for nodes
    /// unreachable from every retained version; write-once semantics for
    /// live keys are untouched. The default is a safe no-op: a store without
    /// reclamation support never deletes anything (it merely never shrinks).
    fn delete_nodes(&self, keys: &[NodeKey]) -> Result<usize> {
        let _ = keys;
        Ok(0)
    }

    /// Number of nodes held (across all replicas for distributed stores the
    /// count is per-holding-node; used only for statistics and tests).
    fn node_count(&self) -> usize;

    /// Every distinct node held (replicas deduplicated). The durable tier's
    /// metadata checkpoint walks this to write a compacted image of the
    /// live node set; it is a full scan, never a hot-path call. Stores that
    /// cannot enumerate themselves (client-side RPC views) return `Err`, so
    /// a checkpoint against them fails loudly instead of writing an empty
    /// image.
    fn snapshot_nodes(&self) -> Result<Vec<(NodeKey, NodeBody)>> {
        Err(blobseer_types::BlobError::Internal(
            "this metadata store cannot enumerate its nodes".into(),
        ))
    }
}

/// The metadata-provider DHT is the canonical metadata store.
impl MetadataStore for Dht<NodeKey, NodeBody> {
    fn put_node(&self, key: NodeKey, body: NodeBody) -> Result<()> {
        self.put(key, body)
    }

    fn get_node(&self, key: &NodeKey) -> Result<Option<NodeBody>> {
        Ok(self.get(key))
    }

    fn get_nodes(&self, keys: &[NodeKey]) -> Result<Vec<Option<NodeBody>>> {
        Ok(self.get_batch(keys))
    }

    fn put_nodes(&self, nodes: Vec<(NodeKey, NodeBody)>) -> Result<()> {
        self.put_batch(nodes)
    }

    fn delete_nodes(&self, keys: &[NodeKey]) -> Result<usize> {
        Ok(self.remove_batch(keys))
    }

    fn node_count(&self) -> usize {
        self.total_entries()
    }

    fn snapshot_nodes(&self) -> Result<Vec<(NodeKey, NodeBody)>> {
        Ok(self.export_entries())
    }
}

/// A single-map in-memory metadata store, used by unit tests and by the
/// centralised-metadata baseline of experiment C.
#[derive(Default)]
pub struct InMemoryMetaStore {
    nodes: RwLock<HashMap<NodeKey, NodeBody>>,
}

impl InMemoryMetaStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        InMemoryMetaStore::default()
    }
}

impl MetadataStore for InMemoryMetaStore {
    fn put_node(&self, key: NodeKey, body: NodeBody) -> Result<()> {
        let mut nodes = self.nodes.write();
        match nodes.get(&key) {
            Some(existing) if *existing != body => Err(blobseer_types::BlobError::Internal(
                format!("conflicting write-once metadata put for {key}"),
            )),
            Some(_) => Ok(()),
            None => {
                nodes.insert(key, body);
                Ok(())
            }
        }
    }

    fn get_node(&self, key: &NodeKey) -> Result<Option<NodeBody>> {
        Ok(self.nodes.read().get(key).cloned())
    }

    fn get_nodes(&self, keys: &[NodeKey]) -> Result<Vec<Option<NodeBody>>> {
        let nodes = self.nodes.read();
        Ok(keys.iter().map(|key| nodes.get(key).cloned()).collect())
    }

    fn put_nodes(&self, batch: Vec<(NodeKey, NodeBody)>) -> Result<()> {
        let mut nodes = self.nodes.write();
        for (key, body) in batch {
            match nodes.get(&key) {
                Some(existing) if *existing != body => {
                    return Err(blobseer_types::BlobError::Internal(format!(
                        "conflicting write-once metadata put for {key}"
                    )))
                }
                Some(_) => {}
                None => {
                    nodes.insert(key, body);
                }
            }
        }
        Ok(())
    }

    fn delete_nodes(&self, keys: &[NodeKey]) -> Result<usize> {
        let mut nodes = self.nodes.write();
        Ok(keys
            .iter()
            .filter(|key| nodes.remove(key).is_some())
            .count())
    }

    fn node_count(&self) -> usize {
        self.nodes.read().len()
    }

    fn snapshot_nodes(&self) -> Result<Vec<(NodeKey, NodeBody)>> {
        Ok(self
            .nodes
            .read()
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect())
    }
}

/// Client-side metadata cache layered over another store.
///
/// Because tree nodes are immutable, cached entries can never become stale;
/// the cache therefore needs no invalidation protocol at all — one of the
/// pay-offs of versioning-based concurrency control highlighted by the
/// paper. For the same reason it can fetch ahead: on a miss,
/// [`MetadataStore::get_nodes_prefetching`] fetches the caller's hints in
/// the same inner batch as the misses and caches every node that exists.
/// Only nodes are cached, never absences: a reader waiting for a
/// concurrent writer's node to appear must see it once it is stored.
pub struct CachedMetadataStore<S: ?Sized> {
    inner: Arc<S>,
    cache: RwLock<HashMap<NodeKey, NodeBody>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<S: MetadataStore + ?Sized> CachedMetadataStore<S> {
    /// Wraps `inner` with an unbounded client-side cache.
    pub fn new(inner: Arc<S>) -> Self {
        CachedMetadataStore {
            inner,
            cache: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of cache hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses since creation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<S> {
        &self.inner
    }
}

impl<S: MetadataStore + ?Sized> MetadataStore for CachedMetadataStore<S> {
    fn put_node(&self, key: NodeKey, body: NodeBody) -> Result<()> {
        self.inner.put_node(key, body.clone())?;
        self.cache.write().insert(key, body);
        Ok(())
    }

    fn get_node(&self, key: &NodeKey) -> Result<Option<NodeBody>> {
        if let Some(hit) = self.cache.read().get(key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(hit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let Some(fetched) = self.inner.get_node(key)? else {
            return Ok(None);
        };
        self.cache.write().insert(*key, fetched.clone());
        Ok(Some(fetched))
    }

    fn get_nodes(&self, keys: &[NodeKey]) -> Result<Vec<Option<NodeBody>>> {
        self.get_nodes_prefetching(keys, &mut Vec::new)
    }

    fn get_nodes_prefetching(
        &self,
        keys: &[NodeKey],
        prefetch: &mut dyn FnMut() -> Vec<NodeKey>,
    ) -> Result<Vec<Option<NodeBody>>> {
        // Serve what the cache holds, then fetch every miss in one inner
        // batch so the round-trip grouping of the wrapped store is preserved.
        let mut out: Vec<Option<NodeBody>> = vec![None; keys.len()];
        let mut missing: Vec<usize> = Vec::new();
        {
            let cache = self.cache.read();
            for (index, key) in keys.iter().enumerate() {
                match cache.get(key) {
                    Some(hit) => out[index] = Some(hit.clone()),
                    None => missing.push(index),
                }
            }
        }
        self.hits
            .fetch_add((keys.len() - missing.len()) as u64, Ordering::Relaxed);
        if missing.is_empty() {
            return Ok(out);
        }
        self.misses
            .fetch_add(missing.len() as u64, Ordering::Relaxed);
        // The hints ride in the same batch, minus those already cached.
        let mut wanted: Vec<NodeKey> = missing.iter().map(|&i| keys[i]).collect();
        let hints = prefetch();
        if !hints.is_empty() {
            let cache = self.cache.read();
            wanted.extend(hints.into_iter().filter(|key| !cache.contains_key(key)));
        }
        // An unreachable inner store propagates without poisoning the cache:
        // nothing was learned about any key, so nothing is inserted.
        let fetched = self.inner.get_nodes(&wanted)?;
        let mut cache = self.cache.write();
        for (position, (key, body)) in wanted.iter().zip(fetched).enumerate() {
            let Some(body) = body else { continue };
            if let Some(&index) = missing.get(position) {
                out[index] = Some(body.clone());
            }
            cache.insert(*key, body);
        }
        Ok(out)
    }

    fn put_nodes(&self, nodes: Vec<(NodeKey, NodeBody)>) -> Result<()> {
        // One clone per node for the wire (the same price a single put_node
        // paid), with the originals kept for the cache.
        self.inner
            .put_nodes(nodes.iter().map(|(k, b)| (*k, b.clone())).collect())?;
        let mut cache = self.cache.write();
        for (key, body) in nodes {
            cache.insert(key, body);
        }
        Ok(())
    }

    fn delete_nodes(&self, keys: &[NodeKey]) -> Result<usize> {
        // Evict our own copies first so a failed inner delete can at worst
        // leave extra nodes behind, never serve a node the sweeper removed.
        {
            let mut cache = self.cache.write();
            for key in keys {
                cache.remove(key);
            }
        }
        self.inner.delete_nodes(keys)
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn snapshot_nodes(&self) -> Result<Vec<(NodeKey, NodeBody)>> {
        self.inner.snapshot_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{InnerNode, LeafNode};
    use blobseer_types::{BlobId, ByteRange, ChunkId, ProviderId, Version};

    fn key(v: u64, offset: u64, len: u64) -> NodeKey {
        NodeKey {
            blob: BlobId(1),
            version: Version(v),
            range: ByteRange::new(offset, len),
        }
    }

    fn leaf(slot: u64) -> NodeBody {
        NodeBody::Leaf(LeafNode {
            chunk: ChunkId {
                blob: BlobId(1),
                write_tag: 99,
                slot,
            },
            providers: vec![ProviderId(0)],
            len: 64,
        })
    }

    #[test]
    fn in_memory_store_roundtrip_and_write_once() {
        let s = InMemoryMetaStore::new();
        s.put_node(key(1, 0, 64), leaf(0)).unwrap();
        assert_eq!(s.get_node(&key(1, 0, 64)).unwrap(), Some(leaf(0)));
        assert_eq!(s.get_node(&key(2, 0, 64)).unwrap(), None);
        assert_eq!(s.node_count(), 1);
        // idempotent
        s.put_node(key(1, 0, 64), leaf(0)).unwrap();
        // conflicting
        assert!(s.put_node(key(1, 0, 64), leaf(1)).is_err());
    }

    #[test]
    fn dht_implements_metadata_store() {
        let dht: Dht<NodeKey, NodeBody> = Dht::new(4, 16, 2).unwrap();
        let store: &dyn MetadataStore = &dht;
        store.put_node(key(1, 0, 64), leaf(0)).unwrap();
        store.put_node(key(1, 64, 64), leaf(1)).unwrap();
        assert_eq!(store.get_node(&key(1, 0, 64)).unwrap(), Some(leaf(0)));
        // With replication 2 each node is stored twice across the DHT.
        assert_eq!(store.node_count(), 4);
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let inner = Arc::new(InMemoryMetaStore::new());
        inner.put_node(key(3, 0, 64), leaf(0)).unwrap();
        let cached = CachedMetadataStore::new(Arc::clone(&inner));

        // First get: miss, populated from inner.
        assert_eq!(cached.get_node(&key(3, 0, 64)).unwrap(), Some(leaf(0)));
        assert_eq!(cached.misses(), 1);
        assert_eq!(cached.hits(), 0);
        // Second get: hit.
        assert_eq!(cached.get_node(&key(3, 0, 64)).unwrap(), Some(leaf(0)));
        assert_eq!(cached.hits(), 1);
        // Unknown key: miss, not cached.
        assert_eq!(cached.get_node(&key(9, 0, 64)).unwrap(), None);
        assert_eq!(cached.misses(), 2);
    }

    #[test]
    fn batched_store_ops_roundtrip() {
        let s = InMemoryMetaStore::new();
        s.put_nodes(vec![(key(1, 0, 64), leaf(0)), (key(1, 64, 64), leaf(1))])
            .unwrap();
        assert_eq!(s.node_count(), 2);
        let got = s
            .get_nodes(&[key(1, 64, 64), key(9, 0, 64), key(1, 0, 64)])
            .unwrap();
        assert_eq!(got, vec![Some(leaf(1)), None, Some(leaf(0))]);
        // Batched puts keep write-once semantics.
        s.put_nodes(vec![(key(1, 0, 64), leaf(0))]).unwrap();
        assert!(s.put_nodes(vec![(key(1, 0, 64), leaf(7))]).is_err());
    }

    #[test]
    fn cached_batch_get_fetches_only_misses() {
        let inner = Arc::new(InMemoryMetaStore::new());
        inner.put_node(key(1, 0, 64), leaf(0)).unwrap();
        inner.put_node(key(1, 64, 64), leaf(1)).unwrap();
        let cached = CachedMetadataStore::new(Arc::clone(&inner));
        // Prime the cache with one of the two keys.
        assert!(cached.get_node(&key(1, 0, 64)).unwrap().is_some());
        assert_eq!((cached.hits(), cached.misses()), (0, 1));

        let got = cached
            .get_nodes(&[key(1, 0, 64), key(1, 64, 64), key(9, 0, 64)])
            .unwrap();
        assert_eq!(got, vec![Some(leaf(0)), Some(leaf(1)), None]);
        // One hit (primed key), two misses (fetched key + unknown key).
        assert_eq!((cached.hits(), cached.misses()), (1, 3));

        // The fetched key is now cached; the unknown key stays a miss.
        let again = cached.get_nodes(&[key(1, 64, 64), key(9, 0, 64)]).unwrap();
        assert_eq!(again, vec![Some(leaf(1)), None]);
        assert_eq!((cached.hits(), cached.misses()), (2, 4));
    }

    #[test]
    fn cached_batch_put_populates_cache_and_inner() {
        let inner = Arc::new(InMemoryMetaStore::new());
        let cached = CachedMetadataStore::new(Arc::clone(&inner));
        cached
            .put_nodes(vec![(key(1, 0, 64), leaf(0)), (key(1, 64, 64), leaf(1))])
            .unwrap();
        assert_eq!(inner.node_count(), 2);
        // Served from cache without touching the miss counter.
        assert_eq!(cached.get_node(&key(1, 64, 64)).unwrap(), Some(leaf(1)));
        assert_eq!(cached.misses(), 0);
    }

    #[test]
    fn dht_reads_and_publishes_cost_depth_times_shards_round_trips() {
        use crate::tree::{
            build_write_metadata, collect_leaves, publish_metadata, SnapshotDescriptor,
            WrittenChunk,
        };
        let shards = 4u64;
        let dht: Dht<NodeKey, NodeBody> = Dht::new(shards as usize, 16, 1).unwrap();
        let chunk_size = 64u64;
        let chunks = 64u64; // expanse 64 → depth 7, 127 tree nodes
        let chunk_list: Vec<WrittenChunk> = (0..chunks)
            .map(|slot| WrittenChunk {
                slot,
                chunk: ChunkId {
                    blob: BlobId(1),
                    write_tag: 1,
                    slot,
                },
                providers: vec![ProviderId(0)],
                len: chunk_size,
            })
            .collect();
        let meta = build_write_metadata(
            &dht,
            BlobId(1),
            &SnapshotDescriptor::initial(chunk_size),
            Version(1),
            chunks * chunk_size,
            &chunk_list,
        )
        .unwrap();
        let descriptor = meta.descriptor;
        let node_count = meta.node_count() as u64;
        assert_eq!(node_count, 127);

        // Publication is one batched put: at most one trip per shard.
        let before = dht.round_trips();
        publish_metadata(&dht, meta).unwrap();
        let publish_trips = dht.round_trips() - before;
        assert!(
            publish_trips <= shards,
            "publishing {node_count} nodes took {publish_trips} trips (> {shards} shards)"
        );

        // A full-range read is one batch per level: O(depth × shards), not
        // O(nodes).
        let before = dht.round_trips();
        let leaves = collect_leaves(
            &dht,
            BlobId(1),
            &descriptor,
            blobseer_types::ByteRange::new(0, chunks * chunk_size),
        )
        .unwrap();
        assert_eq!(leaves.len() as u64, chunks);
        let read_trips = dht.round_trips() - before;
        let bound = u64::from(descriptor.tree_depth()) * shards;
        assert!(
            read_trips <= bound,
            "reading {node_count} nodes took {read_trips} trips (> depth×shards = {bound})"
        );
        assert!(read_trips < node_count / 2);

        // Through a node cache the root's miss prefetches the whole
        // one-version tree: one batch, at most one trip per shard.
        let dht = Arc::new(dht);
        let cached = CachedMetadataStore::new(Arc::clone(&dht));
        let before = dht.round_trips();
        let cached_leaves = collect_leaves(
            &cached,
            BlobId(1),
            &descriptor,
            blobseer_types::ByteRange::new(0, chunks * chunk_size),
        )
        .unwrap();
        assert_eq!(cached_leaves, leaves);
        let cached_trips = dht.round_trips() - before;
        assert!(
            cached_trips <= shards,
            "a cold cached read took {cached_trips} trips (> {shards} shards)"
        );
    }

    /// An inner store that counts the batches it serves and keeps the keys
    /// of the last one.
    #[derive(Default)]
    struct CountingStore {
        nodes: InMemoryMetaStore,
        batches: AtomicU64,
        last_batch: RwLock<Vec<NodeKey>>,
    }

    impl MetadataStore for CountingStore {
        fn put_node(&self, key: NodeKey, body: NodeBody) -> Result<()> {
            self.nodes.put_node(key, body)
        }

        fn get_node(&self, key: &NodeKey) -> Result<Option<NodeBody>> {
            self.get_nodes(std::slice::from_ref(key))
                .map(|mut bodies| bodies.remove(0))
        }

        fn get_nodes(&self, keys: &[NodeKey]) -> Result<Vec<Option<NodeBody>>> {
            self.batches.fetch_add(1, Ordering::Relaxed);
            *self.last_batch.write() = keys.to_vec();
            self.nodes.get_nodes(keys)
        }

        fn node_count(&self) -> usize {
            self.nodes.node_count()
        }
    }

    #[test]
    fn prefetch_is_not_listed_when_every_key_hits() {
        let inner = Arc::new(CountingStore::default());
        let cached = CachedMetadataStore::new(Arc::clone(&inner));
        cached
            .put_nodes(vec![(key(1, 0, 64), leaf(0)), (key(1, 64, 64), leaf(1))])
            .unwrap();
        let mut listed = 0;
        let got = cached
            .get_nodes_prefetching(&[key(1, 0, 64), key(1, 64, 64)], &mut || {
                listed += 1;
                vec![key(1, 128, 64)]
            })
            .unwrap();
        assert_eq!(got, vec![Some(leaf(0)), Some(leaf(1))]);
        assert_eq!(listed, 0, "a full hit must not build the hint list");
        assert_eq!(inner.batches.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_miss_fetches_the_uncached_hints_in_the_same_batch() {
        let inner = Arc::new(CountingStore::default());
        for slot in 0..4 {
            inner.put_node(key(1, slot * 64, 64), leaf(slot)).unwrap();
        }
        let cached = CachedMetadataStore::new(Arc::clone(&inner));
        // Slot 0 is cached; slot 1 misses; slots 2 and 3 are hints, of
        // which 2 is already cached; slot 4 is a hint that does not exist.
        cached.get_nodes(&[key(1, 0, 64), key(1, 128, 64)]).unwrap();
        assert_eq!(inner.batches.load(Ordering::Relaxed), 1);

        let mut listed = 0;
        let got = cached
            .get_nodes_prefetching(&[key(1, 0, 64), key(1, 64, 64)], &mut || {
                listed += 1;
                vec![key(1, 128, 64), key(1, 192, 64), key(1, 256, 64)]
            })
            .unwrap();
        assert_eq!(got, vec![Some(leaf(0)), Some(leaf(1))]);
        assert_eq!(listed, 1);
        assert_eq!(inner.batches.load(Ordering::Relaxed), 2);
        assert_eq!(
            *inner.last_batch.read(),
            vec![key(1, 64, 64), key(1, 192, 64), key(1, 256, 64)],
            "one batch: the miss, then the hints not already cached"
        );
        // Hints are not requests: only the one requested miss counts.
        assert_eq!((cached.hits(), cached.misses()), (1, 3));

        // The prefetched hint is now served from the cache.
        assert_eq!(
            cached.get_nodes(&[key(1, 192, 64)]).unwrap(),
            vec![Some(leaf(3))]
        );
        assert_eq!(inner.batches.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn an_absent_hint_is_not_cached() {
        let inner = Arc::new(CountingStore::default());
        inner.put_node(key(1, 0, 64), leaf(0)).unwrap();
        let cached = CachedMetadataStore::new(Arc::clone(&inner));
        cached
            .get_nodes_prefetching(&[key(1, 0, 64)], &mut || vec![key(2, 0, 64)])
            .unwrap();
        assert_eq!(*inner.last_batch.read(), vec![key(1, 0, 64), key(2, 0, 64)]);
        // A writer stores the hinted key after the prefetch missed it.
        inner.put_node(key(2, 0, 64), leaf(7)).unwrap();
        assert_eq!(
            cached.get_nodes(&[key(2, 0, 64)]).unwrap(),
            vec![Some(leaf(7))]
        );
    }

    #[test]
    fn cache_put_populates_cache_and_inner() {
        let inner = Arc::new(InMemoryMetaStore::new());
        let cached = CachedMetadataStore::new(Arc::clone(&inner));
        let inner_body = NodeBody::Inner(InnerNode {
            left: None,
            right: None,
        });
        cached.put_node(key(2, 0, 128), inner_body.clone()).unwrap();
        // Served from cache without touching the inner store's counters.
        assert_eq!(
            cached.get_node(&key(2, 0, 128)).unwrap(),
            Some(inner_body.clone())
        );
        assert_eq!(cached.hits(), 1);
        assert_eq!(cached.misses(), 0);
        // And the inner store holds it too.
        assert_eq!(inner.get_node(&key(2, 0, 128)).unwrap(), Some(inner_body));
    }
}
