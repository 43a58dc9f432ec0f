//! The versioned segment-tree algorithms: metadata weaving for writes and
//! appends, and leaf collection for reads.
//!
//! These functions are deliberately free of any I/O beyond the
//! [`MetadataStore`] trait so that the same code drives the real in-process
//! cluster, the unit tests and the discrete-event simulator (which only
//! needs to know *which* nodes a write creates and *where* they are routed).

use crate::node::{ChildRef, InnerNode, LeafNode, NodeBody, NodeKey};
use crate::store::MetadataStore;
use blobseer_types::{BlobError, BlobId, ByteRange, ChunkId, ProviderId, Result, Version};
use std::collections::HashMap;

/// Description of one published (or about to be published) snapshot of a
/// blob: everything a reader needs to start descending the snapshot's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotDescriptor {
    /// The snapshot's version.
    pub version: Version,
    /// Size of the blob in this snapshot, in bytes.
    pub size: u64,
    /// Chunk size the blob was created with.
    pub chunk_size: u64,
    /// Whether this snapshot is *flat*: produced by the lifecycle flattener,
    /// with every leaf slot of the blob materialised at this very version
    /// (explicit holes included). Readers of a flat snapshot skip the tree
    /// descent entirely — leaf keys are deterministic `(version, slot)`
    /// functions, so a read costs one batched round per owning metadata
    /// shard regardless of tree depth or history length.
    pub flat: bool,
}

impl SnapshotDescriptor {
    /// The descriptor of the empty snapshot (version 0) of a blob with the
    /// given chunk size.
    #[must_use]
    pub fn initial(chunk_size: u64) -> Self {
        SnapshotDescriptor {
            version: Version::ZERO,
            size: 0,
            chunk_size,
            flat: false,
        }
    }

    /// Number of chunk slots the snapshot's data spans (the last slot may be
    /// partially filled).
    #[must_use]
    pub fn used_chunks(&self) -> u64 {
        self.size.div_ceil(self.chunk_size)
    }

    /// Number of chunk slots covered by the snapshot's tree: the smallest
    /// power of two at least as large as [`Self::used_chunks`]. Zero for the
    /// empty snapshot.
    #[must_use]
    pub fn expanse_chunks(&self) -> u64 {
        if self.size == 0 {
            0
        } else {
            self.used_chunks().next_power_of_two()
        }
    }

    /// The byte range covered by the snapshot's root node, or `None` for the
    /// empty snapshot (which has no tree at all).
    #[must_use]
    pub fn root_range(&self) -> Option<ByteRange> {
        if self.size == 0 {
            None
        } else {
            Some(ByteRange::new(0, self.expanse_chunks() * self.chunk_size))
        }
    }

    /// The key of the snapshot's root node for blob `blob`, or `None` for
    /// the empty snapshot.
    #[must_use]
    pub fn root_key(&self, blob: BlobId) -> Option<NodeKey> {
        self.root_range().map(|range| NodeKey {
            blob,
            version: self.version,
            range,
        })
    }

    /// Depth of the snapshot's tree (number of levels, leaves included);
    /// zero for the empty snapshot.
    #[must_use]
    pub fn tree_depth(&self) -> u32 {
        let expanse = self.expanse_chunks();
        if expanse == 0 {
            0
        } else {
            expanse.trailing_zeros() + 1
        }
    }
}

/// Summary of a write whose version has been assigned but whose metadata
/// may not be woven yet.
///
/// The version manager hands the chain of such summaries to every new
/// writer: because tree-node keys are deterministic functions of
/// `(version, range)`, a writer can link to the nodes a *concurrent* writer
/// will create without waiting for them — this is what lets metadata weaving
/// proceed in parallel under write/write concurrency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    /// The version assigned to the write.
    pub version: Version,
    /// The chunk-slot-aligned byte range the write stores new leaves for.
    pub written_slots: ByteRange,
    /// The blob size after the write.
    pub size: u64,
    /// Chunk size of the blob.
    pub chunk_size: u64,
}

impl WriteSummary {
    /// The root range of this write's tree.
    #[must_use]
    pub fn root_range(&self) -> ByteRange {
        let expanse = self.size.div_ceil(self.chunk_size).next_power_of_two();
        ByteRange::new(0, expanse * self.chunk_size)
    }

    /// Whether this write creates a node covering exactly `range`, given the
    /// root range of its own reference snapshot (`predecessor_root`).
    ///
    /// A node is created either because the write touches it or because the
    /// write grew the expanse and `range` lies on the bridging path between
    /// the new root and the old one.
    #[must_use]
    pub fn creates_node(&self, range: ByteRange, predecessor_root: Option<ByteRange>) -> bool {
        if !self.root_range().contains_range(&range) {
            return false;
        }
        if range.overlaps(&self.written_slots) {
            return true;
        }
        predecessor_root
            .map(|rr| range.contains_range(&rr) && range != rr)
            .unwrap_or(false)
    }
}

/// The view a writer resolves borrowed subtrees against: the latest snapshot
/// whose metadata is already complete (`base`) plus the ordered list of
/// assigned-but-unpublished writes between `base` and the writer's own
/// version (`pending`, ascending version order).
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceChain {
    /// The most recent snapshot whose metadata is known to be complete.
    pub base: SnapshotDescriptor,
    /// Writes with versions greater than `base.version`, in ascending
    /// version order, whose metadata may still be woven concurrently.
    pub pending: Vec<WriteSummary>,
}

impl ReferenceChain {
    /// A chain with no in-flight predecessors (single-writer case).
    #[must_use]
    pub fn published_only(base: SnapshotDescriptor) -> Self {
        ReferenceChain {
            base,
            pending: Vec::new(),
        }
    }

    /// Version of the immediate predecessor snapshot (the last pending write
    /// if any, the base otherwise).
    #[must_use]
    pub fn predecessor_version(&self) -> Version {
        self.pending
            .last()
            .map(|s| s.version)
            .unwrap_or(self.base.version)
    }

    /// Size of the immediate predecessor snapshot.
    #[must_use]
    pub fn predecessor_size(&self) -> u64 {
        self.pending
            .last()
            .map(|s| s.size)
            .unwrap_or(self.base.size)
    }

    /// Root range of the immediate predecessor snapshot, or `None` if the
    /// blob is still empty.
    #[must_use]
    pub fn predecessor_root_range(&self) -> Option<ByteRange> {
        match self.pending.last() {
            Some(s) => Some(s.root_range()),
            None => self.base.root_range(),
        }
    }

    /// Root range of the reference snapshot of pending write `index` (the
    /// previous pending entry, or the base).
    fn predecessor_root_of(&self, index: usize) -> Option<ByteRange> {
        if index == 0 {
            self.base.root_range()
        } else {
            Some(self.pending[index - 1].root_range())
        }
    }

    /// Resolves the node covering exactly `range` in the predecessor
    /// snapshot: the newest pending write that (will) create it, falling
    /// back to descending the base snapshot's tree, or `None` for a hole.
    pub fn resolve(
        &self,
        store: &dyn MetadataStore,
        blob: BlobId,
        range: ByteRange,
    ) -> Result<Option<ChildRef>> {
        // Newest pending write first: later versions shadow earlier ones.
        for index in (0..self.pending.len()).rev() {
            let summary = &self.pending[index];
            if summary.creates_node(range, self.predecessor_root_of(index)) {
                return Ok(Some(ChildRef {
                    version: summary.version,
                    range,
                }));
            }
        }
        // Fall back to the base snapshot's (complete) tree.
        let Some(base_root) = self.base.root_range() else {
            return Ok(None);
        };
        if !base_root.contains_range(&range) {
            return Ok(None);
        }
        let mut current = ChildRef {
            version: self.base.version,
            range: base_root,
        };
        while current.range != range {
            let key = current.key(blob);
            let body = store.get_node(&key)?.ok_or(BlobError::MissingMetadata {
                blob,
                version: key.version,
                range: key.range,
            })?;
            if let Some(target) = body.as_alias() {
                current = target;
                continue;
            }
            let inner = body.as_inner().ok_or_else(|| {
                BlobError::Internal(format!("expected inner node at {key}, found leaf"))
            })?;
            let (left_range, _) = current.range.split();
            let next = if left_range.contains_range(&range) {
                inner.left
            } else {
                inner.right
            };
            match next {
                Some(child) => current = child,
                None => return Ok(None),
            }
        }
        Ok(Some(current))
    }
}

/// One chunk written by a write or append operation, as reported to the
/// metadata weaving step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrittenChunk {
    /// Index of the chunk slot the chunk was written for.
    pub slot: u64,
    /// Identifier of the stored chunk.
    pub chunk: ChunkId,
    /// Providers holding a replica of the chunk.
    pub providers: Vec<ProviderId>,
    /// Number of valid payload bytes in the chunk.
    pub len: u64,
}

/// The outcome of metadata weaving for one write: the new snapshot
/// descriptor plus every tree node that must be stored for it.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteMetadata {
    /// Descriptor of the snapshot the write produces.
    pub descriptor: SnapshotDescriptor,
    /// New tree nodes to store, children before parents (so the root is the
    /// last entry).
    pub nodes: Vec<(NodeKey, NodeBody)>,
    /// Reference to the new root node.
    pub root: ChildRef,
}

impl WriteMetadata {
    /// Total number of new tree nodes the write creates.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of new leaf nodes.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|(_, b)| b.is_leaf()).count()
    }

    /// Number of new inner nodes.
    #[must_use]
    pub fn inner_count(&self) -> usize {
        self.node_count() - self.leaf_count()
    }

    /// Depth of the new snapshot's tree.
    #[must_use]
    pub fn tree_depth(&self) -> u32 {
        self.descriptor.tree_depth()
    }

    /// A rough size in bytes of the new metadata (used by the metadata
    /// overhead experiment, Fig. A1): each leaf is ~64 bytes plus 8 bytes
    /// per replica, each inner node ~48 bytes.
    #[must_use]
    pub fn metadata_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|(_, b)| match b {
                NodeBody::Leaf(l) => 64 + 8 * l.providers.len() as u64,
                NodeBody::Inner(_) => 48,
                NodeBody::Alias(_) => 40,
            })
            .sum()
    }
}

/// Weaves the metadata for a write or append.
///
/// * `reference` — the snapshot the write links against (normally the most
///   recently assigned snapshot at ticket time);
/// * `new_version` — the version assigned to this write by the version
///   manager;
/// * `new_size` — the blob size after the write
///   (`max(reference.size, offset + len)`);
/// * `chunks` — one entry per chunk slot the write stored a new chunk for.
///
/// Returns every node that must be inserted into the metadata store. The
/// nodes reference untouched subtrees of the reference snapshot by key, so
/// the reference tree is read (never written) during weaving.
pub fn build_write_metadata(
    store: &dyn MetadataStore,
    blob: BlobId,
    reference: &SnapshotDescriptor,
    new_version: Version,
    new_size: u64,
    chunks: &[WrittenChunk],
) -> Result<WriteMetadata> {
    build_write_metadata_chained(
        store,
        blob,
        &ReferenceChain::published_only(*reference),
        new_version,
        new_size,
        chunks,
    )
}

/// Weaves the metadata for a write whose reference view is a chain of
/// possibly still in-flight predecessors (the general, write/write
/// concurrent case). See [`ReferenceChain`].
pub fn build_write_metadata_chained(
    store: &dyn MetadataStore,
    blob: BlobId,
    chain: &ReferenceChain,
    new_version: Version,
    new_size: u64,
    chunks: &[WrittenChunk],
) -> Result<WriteMetadata> {
    if chunks.is_empty() {
        return Err(BlobError::EmptyWrite);
    }
    if new_size < chain.predecessor_size() {
        return Err(BlobError::Internal(format!(
            "snapshot size cannot shrink: {} -> {new_size}",
            chain.predecessor_size()
        )));
    }
    if new_version <= chain.predecessor_version() {
        return Err(BlobError::Internal(format!(
            "new version {new_version} must follow predecessor {}",
            chain.predecessor_version()
        )));
    }
    let chunk_size = chain.base.chunk_size;
    let mut leaf_map: HashMap<u64, &WrittenChunk> = HashMap::with_capacity(chunks.len());
    let mut min_slot = u64::MAX;
    let mut max_slot = 0u64;
    for c in chunks {
        if c.len == 0 || c.len > chunk_size {
            return Err(BlobError::Internal(format!(
                "chunk for slot {} has invalid length {} (chunk size {chunk_size})",
                c.slot, c.len
            )));
        }
        if leaf_map.insert(c.slot, c).is_some() {
            return Err(BlobError::Internal(format!(
                "duplicate chunk for slot {}",
                c.slot
            )));
        }
        min_slot = min_slot.min(c.slot);
        max_slot = max_slot.max(c.slot);
    }
    // The written region, rounded out to whole chunk slots: this is what
    // decides which paths of the tree must be rebuilt.
    let write_range = ByteRange::new(
        min_slot * chunk_size,
        (max_slot - min_slot + 1) * chunk_size,
    );
    if write_range.end() > new_size.div_ceil(chunk_size) * chunk_size {
        return Err(BlobError::Internal(format!(
            "written slots {write_range} extend past the declared new size {new_size}"
        )));
    }

    let descriptor = SnapshotDescriptor {
        version: new_version,
        size: new_size,
        chunk_size,
        flat: false,
    };
    let root_range = descriptor
        .root_range()
        .ok_or_else(|| BlobError::Internal("write produced an empty snapshot".into()))?;

    let mut builder = TreeBuilder {
        store,
        blob,
        chain,
        chunk_size,
        new_version,
        write_range,
        leaf_map,
        nodes: Vec::new(),
    };
    let root = builder
        .build(root_range)?
        .ok_or_else(|| BlobError::Internal("write produced no root node".into()))?;

    Ok(WriteMetadata {
        descriptor,
        nodes: builder.nodes,
        root,
    })
}

struct TreeBuilder<'a> {
    store: &'a dyn MetadataStore,
    blob: BlobId,
    chain: &'a ReferenceChain,
    chunk_size: u64,
    new_version: Version,
    write_range: ByteRange,
    leaf_map: HashMap<u64, &'a WrittenChunk>,
    nodes: Vec<(NodeKey, NodeBody)>,
}

impl TreeBuilder<'_> {
    /// Creates the new node covering `range` (recursively creating the new
    /// children it needs) and returns a reference to it.
    fn build(&mut self, range: ByteRange) -> Result<Option<ChildRef>> {
        if range.len == self.chunk_size {
            // Leaf level.
            let slot = range.offset / self.chunk_size;
            if let Some(written) = self.leaf_map.get(&slot) {
                let body = NodeBody::Leaf(LeafNode {
                    chunk: written.chunk,
                    providers: written.providers.clone(),
                    len: written.len,
                });
                self.emit(range, body);
                return Ok(Some(ChildRef {
                    version: self.new_version,
                    range,
                }));
            }
            // A leaf we were asked to build but did not write: borrow it.
            return self.chain.resolve(self.store, self.blob, range);
        }

        let (left_range, right_range) = range.split();
        let left = self.child_for(left_range)?;
        let right = self.child_for(right_range)?;
        if left.is_none() && right.is_none() {
            return Ok(None);
        }
        self.emit(range, NodeBody::Inner(InnerNode { left, right }));
        Ok(Some(ChildRef {
            version: self.new_version,
            range,
        }))
    }

    /// Decides whether the node covering `range` must be rebuilt at the new
    /// version or can be borrowed from the reference snapshot.
    fn child_for(&mut self, range: ByteRange) -> Result<Option<ChildRef>> {
        let touches_write = range.overlaps(&self.write_range);
        // When the expanse grows by more than one doubling, ranges on the
        // left spine strictly contain the whole reference tree without
        // overlapping the write; they still need new bridging nodes.
        let bridges_reference = self
            .chain
            .predecessor_root_range()
            .map(|rr| range.contains_range(&rr) && range != rr)
            .unwrap_or(false);
        if touches_write || bridges_reference {
            self.build(range)
        } else {
            self.chain.resolve(self.store, self.blob, range)
        }
    }

    fn emit(&mut self, range: ByteRange, body: NodeBody) {
        self.nodes.push((
            NodeKey {
                blob: self.blob,
                version: self.new_version,
                range,
            },
            body,
        ));
    }
}

/// Weaves *repair metadata* for a write whose writer died after being
/// assigned a version but before (fully) weaving its own metadata.
///
/// Later writers may already have linked against the node keys this version
/// was going to create (see [`WriteSummary::creates_node`]); the repair pass
/// materialises exactly those keys, each one either forwarding to the node
/// of the predecessor snapshot covering the same range ([`NodeBody::Alias`])
/// or recording an explicit hole. The resulting snapshot has the size the
/// aborted write claimed, with the claimed-but-never-written region reading
/// back as zeros.
pub fn build_repair_metadata(
    store: &dyn MetadataStore,
    blob: BlobId,
    chain: &ReferenceChain,
    summary: &WriteSummary,
) -> Result<WriteMetadata> {
    if summary.version <= chain.predecessor_version() {
        return Err(BlobError::Internal(format!(
            "repaired version {} must follow predecessor {}",
            summary.version,
            chain.predecessor_version()
        )));
    }
    let chunk_size = summary.chunk_size;
    let predecessor_root = chain.predecessor_root_range();
    let mut nodes = Vec::new();
    let root_range = summary.root_range();
    let root = repair_node(
        store,
        blob,
        chain,
        summary,
        predecessor_root,
        chunk_size,
        root_range,
        &mut nodes,
    )?;
    Ok(WriteMetadata {
        descriptor: SnapshotDescriptor {
            version: summary.version,
            size: summary.size,
            chunk_size,
            flat: false,
        },
        nodes,
        root,
    })
}

#[allow(clippy::too_many_arguments)]
fn repair_node(
    store: &dyn MetadataStore,
    blob: BlobId,
    chain: &ReferenceChain,
    summary: &WriteSummary,
    predecessor_root: Option<ByteRange>,
    chunk_size: u64,
    range: ByteRange,
    nodes: &mut Vec<(NodeKey, NodeBody)>,
) -> Result<ChildRef> {
    let key = NodeKey {
        blob,
        version: summary.version,
        range,
    };
    let body = if range.len == chunk_size {
        match chain.resolve(store, blob, range)? {
            Some(target) => NodeBody::Alias(target),
            None => NodeBody::Leaf(LeafNode::hole(blob, range.offset / chunk_size)),
        }
    } else {
        let (left_range, right_range) = range.split();
        let mut resolve_half = |half: ByteRange| -> Result<Option<ChildRef>> {
            if summary.creates_node(half, predecessor_root) {
                repair_node(
                    store,
                    blob,
                    chain,
                    summary,
                    predecessor_root,
                    chunk_size,
                    half,
                    nodes,
                )
                .map(Some)
            } else {
                chain.resolve(store, blob, half)
            }
        };
        let left = resolve_half(left_range)?;
        let right = resolve_half(right_range)?;
        NodeBody::Inner(InnerNode { left, right })
    };
    nodes.push((key, body));
    Ok(ChildRef {
        version: summary.version,
        range,
    })
}

/// Stores every node of a woven write into the metadata store as one
/// batched upload.
///
/// The metadata is consumed: the node bodies are *moved* into the store's
/// [`MetadataStore::put_nodes`], which groups them by owning metadata node —
/// publication costs one round-trip per shard holding a piece of the write,
/// not one per node, and never clones a body. Callers that still need the
/// write's summary afterwards copy [`WriteMetadata::descriptor`] (which is
/// `Copy`) or the node count before publishing.
///
/// Kept separate from [`build_write_metadata`] so that callers (in
/// particular the simulator) can inspect or route the nodes before they are
/// persisted.
pub fn publish_metadata(store: &dyn MetadataStore, meta: WriteMetadata) -> Result<()> {
    store.put_nodes(meta.nodes)
}

/// Mapping of one chunk slot touched by a read.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafMapping {
    /// The slot's byte range within the blob (always `chunk_size` long).
    pub slot_range: ByteRange,
    /// The leaf stored for the slot, or `None` if the slot is a hole (never
    /// written in this snapshot's history; reads return zeros).
    pub leaf: Option<LeafNode>,
}

/// Collects the leaves covering `range` in the given snapshot, in increasing
/// offset order. Holes are reported explicitly so the caller can zero-fill.
///
/// The descent is *frontier based*: the tree is walked level by level, and
/// every node of a level is fetched through one
/// [`MetadataStore::get_nodes_prefetching`] batch. Against the metadata DHT
/// a batch costs one round-trip per owning metadata node. Node keys are
/// `(version, range)` over power-of-two ranges, so each batch also names,
/// as prefetch hints, every key the frontier nodes' own versions could have
/// written below them inside the read range. A caching store fetches those
/// with its misses, and the levels below then hit the cache until the path
/// reaches an older version. Through the client's node cache a cold read
/// therefore costs one batch per *change of version* along its paths, not
/// one per level; a bare store ignores the hints and pays
/// O(tree-depth × shards) round-trips, still not the O(N) a node-at-a-time
/// walk pays.
pub fn collect_leaves(
    store: &dyn MetadataStore,
    blob: BlobId,
    snapshot: &SnapshotDescriptor,
    range: ByteRange,
) -> Result<Vec<LeafMapping>> {
    collect_leaves_streaming(store, blob, snapshot, range, |_| {})
}

/// [`collect_leaves`] with a *level-streaming* hook: after every batched
/// round-trip of the frontier descent, `on_level` receives the leaf
/// mappings that round-trip discovered (written leaves and holes alike, in
/// discovery order — not yet sorted by offset).
///
/// This is what lets the read path pipeline: a client can submit the chunk
/// fetches for the leaves of level N to the transfer scheduler while the
/// level-N+1 metadata batch is still in flight, instead of waiting for the
/// whole descent to finish before moving the first data byte. The function
/// still returns the complete, offset-sorted mapping at the end, so
/// non-streaming callers lose nothing.
pub fn collect_leaves_streaming(
    store: &dyn MetadataStore,
    blob: BlobId,
    snapshot: &SnapshotDescriptor,
    range: ByteRange,
    mut on_level: impl FnMut(&[LeafMapping]),
) -> Result<Vec<LeafMapping>> {
    let Some(root) = check_read(blob, snapshot, range)? else {
        return Ok(Vec::new());
    };
    if snapshot.flat {
        // Flat snapshots materialise every leaf slot at their own version,
        // so the leaf keys are known without descending: one batched fetch,
        // one round-trip per owning shard, independent of tree depth.
        return collect_leaves_flat(store, blob, snapshot, range, &mut on_level);
    }
    let mut out = Vec::new();
    let mut frontier = vec![root];
    while !frontier.is_empty() {
        let level_start = out.len();
        let keys: Vec<NodeKey> = frontier.iter().map(|node| node.key(blob)).collect();
        // Built only when the store misses: a warm read lists nothing.
        let mut same_version_below = || {
            let mut hints = Vec::new();
            for node in &frontier {
                same_version_subtree(blob, *node, range, snapshot.chunk_size, &mut hints);
            }
            hints
        };
        let bodies = store.get_nodes_prefetching(&keys, &mut same_version_below)?;
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for (node, body) in frontier.iter().zip(bodies) {
            let body = body.ok_or(BlobError::MissingMetadata {
                blob,
                version: node.version,
                range: node.range,
            })?;
            match body {
                NodeBody::Leaf(leaf) => out.push(LeafMapping {
                    slot_range: node.range,
                    leaf: if leaf.is_hole() { None } else { Some(leaf) },
                }),
                NodeBody::Inner(inner) => {
                    let (left_range, right_range) = node.range.split();
                    expand_half(
                        inner.left,
                        left_range,
                        range,
                        snapshot.chunk_size,
                        &mut next,
                        &mut out,
                    );
                    expand_half(
                        inner.right,
                        right_range,
                        range,
                        snapshot.chunk_size,
                        &mut next,
                        &mut out,
                    );
                }
                // An alias covers the same range at an older version; it
                // stays in flight and resolves in a later batch.
                NodeBody::Alias(target) => next.push(target),
            }
        }
        on_level(&out[level_start..]);
        frontier = next;
    }
    // Holes surface at whatever level discovers them and aliases resolve a
    // level late, so restore increasing offset order at the end.
    out.sort_by_key(|mapping| mapping.slot_range.offset);
    Ok(out)
}

/// The flat-snapshot read path: every leaf slot of a flat snapshot exists at
/// the snapshot's own version, so the keys covering `range` are constructed
/// directly and fetched in one batch.
fn collect_leaves_flat(
    store: &dyn MetadataStore,
    blob: BlobId,
    snapshot: &SnapshotDescriptor,
    range: ByteRange,
    on_level: &mut impl FnMut(&[LeafMapping]),
) -> Result<Vec<LeafMapping>> {
    let keys: Vec<NodeKey> = blobseer_types::chunk_span(range, snapshot.chunk_size)
        .into_iter()
        .map(|slot| NodeKey {
            blob,
            version: snapshot.version,
            range: slot.range(),
        })
        .collect();
    let bodies = store.get_nodes(&keys)?;
    let mut out = Vec::with_capacity(keys.len());
    for (key, body) in keys.iter().zip(bodies) {
        let body = body.ok_or(BlobError::MissingMetadata {
            blob,
            version: key.version,
            range: key.range,
        })?;
        match body {
            NodeBody::Leaf(leaf) => out.push(LeafMapping {
                slot_range: key.range,
                leaf: if leaf.is_hole() { None } else { Some(leaf) },
            }),
            _ => {
                return Err(BlobError::Internal(format!(
                    "expected a leaf at {key} of a flat snapshot"
                )))
            }
        }
    }
    on_level(&out);
    Ok(out)
}

/// Weaves a *flat* consolidated snapshot of `source` at `flatten_version`: a
/// self-contained tree whose every leaf slot is materialised at the new
/// version — written leaves referencing the *same* chunks as the source
/// snapshot, never-written slots recorded as explicit holes — plus the inner
/// spine above them. Publishing it is one batched [`MetadataStore::put_nodes`]
/// upload like any write; afterwards no node or chunk of any older version is
/// needed to serve the flat snapshot, so once the retention policy evicts
/// those versions the sweeper can reclaim their whole history.
pub fn build_flat_metadata(
    store: &dyn MetadataStore,
    blob: BlobId,
    source: &SnapshotDescriptor,
    flatten_version: Version,
) -> Result<WriteMetadata> {
    if source.size == 0 {
        return Err(BlobError::Internal(
            "cannot flatten an empty snapshot".into(),
        ));
    }
    if flatten_version <= source.version {
        return Err(BlobError::Internal(format!(
            "flatten version {flatten_version} must follow source {}",
            source.version
        )));
    }
    let chunk_size = source.chunk_size;
    let leaves = collect_leaves(store, blob, source, ByteRange::new(0, source.size))?;
    let mut by_slot: HashMap<u64, LeafNode> = HashMap::with_capacity(leaves.len());
    for mapping in leaves {
        if let Some(leaf) = mapping.leaf {
            by_slot.insert(mapping.slot_range.offset / chunk_size, leaf);
        }
    }
    let descriptor = SnapshotDescriptor {
        version: flatten_version,
        size: source.size,
        chunk_size,
        flat: true,
    };
    let root_range = descriptor
        .root_range()
        .ok_or_else(|| BlobError::Internal("flatten source lost its root".into()))?;
    let mut nodes = Vec::new();
    let root = flat_node(
        blob,
        flatten_version,
        chunk_size,
        descriptor.used_chunks(),
        &by_slot,
        root_range,
        &mut nodes,
    )
    .ok_or_else(|| BlobError::Internal("flattening produced no root node".into()))?;
    Ok(WriteMetadata {
        descriptor,
        nodes,
        root,
    })
}

/// Builds the flat-tree node covering `range` (children before parents, so
/// the root lands last), or `None` for subtrees entirely past the used slots.
fn flat_node(
    blob: BlobId,
    version: Version,
    chunk_size: u64,
    used_chunks: u64,
    leaves: &HashMap<u64, LeafNode>,
    range: ByteRange,
    nodes: &mut Vec<(NodeKey, NodeBody)>,
) -> Option<ChildRef> {
    if range.offset >= used_chunks * chunk_size {
        return None;
    }
    let body = if range.len == chunk_size {
        let slot = range.offset / chunk_size;
        NodeBody::Leaf(
            leaves
                .get(&slot)
                .cloned()
                .unwrap_or_else(|| LeafNode::hole(blob, slot)),
        )
    } else {
        let (left_range, right_range) = range.split();
        let left = flat_node(
            blob,
            version,
            chunk_size,
            used_chunks,
            leaves,
            left_range,
            nodes,
        );
        let right = flat_node(
            blob,
            version,
            chunk_size,
            used_chunks,
            leaves,
            right_range,
            nodes,
        );
        NodeBody::Inner(InnerNode { left, right })
    };
    nodes.push((
        NodeKey {
            blob,
            version,
            range,
        },
        body,
    ));
    Some(ChildRef { version, range })
}

/// Queues the node covering one half of a split range for the next level of
/// the frontier descent, or emits the half's holes if it was never written.
fn expand_half(
    child: Option<ChildRef>,
    half_range: ByteRange,
    read_range: ByteRange,
    chunk_size: u64,
    next: &mut Vec<ChildRef>,
    out: &mut Vec<LeafMapping>,
) {
    if !half_range.overlaps(&read_range) {
        return;
    }
    match child {
        Some(child) => next.push(child),
        None => {
            let touched = half_range
                .intersect(&read_range)
                .expect("overlap was checked above");
            for slot in blobseer_types::chunk_span(touched, chunk_size) {
                out.push(LeafMapping {
                    slot_range: slot.range(),
                    leaf: None,
                });
            }
        }
    }
}

/// Pushes every key `node.version` could have written strictly below
/// `node` that overlaps `read`: the aligned halves, recursively, down to
/// single chunk slots. A version that wrote such a key also wrote each
/// ancestor of it below `node`, each pointing to it, so every key that
/// exists lies on the read's own path. (A repaired version's aliases are
/// the exception; a hinted key below one only costs a cache entry.)
fn same_version_subtree(
    blob: BlobId,
    node: ChildRef,
    read: ByteRange,
    chunk_size: u64,
    out: &mut Vec<NodeKey>,
) {
    if node.range.len <= chunk_size {
        return;
    }
    let (left, right) = node.range.split();
    for half in [left, right] {
        if half.overlaps(&read) {
            let child = ChildRef {
                version: node.version,
                range: half,
            };
            out.push(child.key(blob));
            same_version_subtree(blob, child, read, chunk_size, out);
        }
    }
}

/// Validates a read request and returns the root to descend from, `None`
/// for the trivial empty read.
fn check_read(
    blob: BlobId,
    snapshot: &SnapshotDescriptor,
    range: ByteRange,
) -> Result<Option<ChildRef>> {
    if range.is_empty() {
        return Ok(None);
    }
    if range.end() > snapshot.size {
        return Err(BlobError::ReadOutOfBounds {
            blob,
            version: snapshot.version,
            requested: range,
            snapshot_size: snapshot.size,
        });
    }
    let root_range = snapshot.root_range().ok_or(BlobError::ReadOutOfBounds {
        blob,
        version: snapshot.version,
        requested: range,
        snapshot_size: 0,
    })?;
    Ok(Some(ChildRef {
        version: snapshot.version,
        range: root_range,
    }))
}

/// The node-at-a-time recursive variant of [`collect_leaves`]: one store
/// lookup per tree node visited.
///
/// Kept *test-only* as the executable specification of the read descent —
/// the differential tests assert that the batched frontier walk returns
/// exactly what this does. Production builds compile only the frontier
/// descent, so the legacy recursive walk can never silently diverge from it
/// in shipped code.
#[cfg(test)]
pub(crate) fn collect_leaves_unbatched(
    store: &dyn MetadataStore,
    blob: BlobId,
    snapshot: &SnapshotDescriptor,
    range: ByteRange,
) -> Result<Vec<LeafMapping>> {
    let Some(root) = check_read(blob, snapshot, range)? else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    descend(store, blob, snapshot.chunk_size, &root, range, &mut out)?;
    Ok(out)
}

#[cfg(test)]
fn descend(
    store: &dyn MetadataStore,
    blob: BlobId,
    chunk_size: u64,
    node: &ChildRef,
    read_range: ByteRange,
    out: &mut Vec<LeafMapping>,
) -> Result<()> {
    if !node.range.overlaps(&read_range) {
        return Ok(());
    }
    let key = node.key(blob);
    let body = store.get_node(&key)?.ok_or(BlobError::MissingMetadata {
        blob,
        version: key.version,
        range: key.range,
    })?;
    match body {
        NodeBody::Leaf(leaf) => out.push(LeafMapping {
            slot_range: node.range,
            leaf: if leaf.is_hole() { None } else { Some(leaf) },
        }),
        NodeBody::Inner(inner) => {
            let (left_range, right_range) = node.range.split();
            visit_half(
                store, blob, chunk_size, inner.left, left_range, read_range, out,
            )?;
            visit_half(
                store,
                blob,
                chunk_size,
                inner.right,
                right_range,
                read_range,
                out,
            )?;
        }
        NodeBody::Alias(target) => descend(store, blob, chunk_size, &target, read_range, out)?,
    }
    Ok(())
}

#[cfg(test)]
fn visit_half(
    store: &dyn MetadataStore,
    blob: BlobId,
    chunk_size: u64,
    child: Option<ChildRef>,
    half_range: ByteRange,
    read_range: ByteRange,
    out: &mut Vec<LeafMapping>,
) -> Result<()> {
    if !half_range.overlaps(&read_range) {
        return Ok(());
    }
    match child {
        Some(child) => descend(store, blob, chunk_size, &child, read_range, out),
        None => {
            // The half has never been written: report one hole per slot that
            // the read actually touches.
            let touched = half_range
                .intersect(&read_range)
                .expect("overlap was checked above");
            for slot in blobseer_types::chunk_span(touched, chunk_size) {
                out.push(LeafMapping {
                    slot_range: slot.range(),
                    leaf: None,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{CachedMetadataStore, InMemoryMetaStore};
    use proptest::prelude::*;
    use std::sync::Arc;

    const CS: u64 = 64; // chunk size used throughout the tests

    fn blob() -> BlobId {
        BlobId(1)
    }

    fn chunk_id(tag: u64, slot: u64) -> ChunkId {
        ChunkId {
            blob: blob(),
            write_tag: tag,
            slot,
        }
    }

    fn written(tag: u64, slot: u64, len: u64) -> WrittenChunk {
        WrittenChunk {
            slot,
            chunk: chunk_id(tag, slot),
            providers: vec![ProviderId((slot % 4) as u32)],
            len,
        }
    }

    /// Applies a write covering `[offset, offset+len)` (whole slots assumed)
    /// on top of `reference`, storing its metadata, and returns the new
    /// descriptor.
    fn apply_write(
        store: &dyn MetadataStore,
        reference: &SnapshotDescriptor,
        tag: u64,
        offset: u64,
        len: u64,
    ) -> SnapshotDescriptor {
        assert_eq!(offset % CS, 0, "test writes are slot aligned");
        let new_size = reference.size.max(offset + len);
        let slots = blobseer_types::chunk_span(ByteRange::new(offset, len), CS);
        let chunks: Vec<WrittenChunk> = slots
            .iter()
            .map(|s| {
                let slot_end = (s.index + 1) * CS;
                let chunk_len = if slot_end > new_size {
                    new_size - s.index * CS
                } else {
                    CS
                };
                written(tag, s.index, chunk_len)
            })
            .collect();
        let meta = build_write_metadata(
            store,
            blob(),
            reference,
            reference.version.next(),
            new_size,
            &chunks,
        )
        .unwrap();
        let descriptor = meta.descriptor;
        publish_metadata(store, meta).unwrap();
        descriptor
    }

    #[test]
    fn empty_snapshot_descriptor() {
        let d = SnapshotDescriptor::initial(CS);
        assert_eq!(d.version, Version::ZERO);
        assert_eq!(d.size, 0);
        assert_eq!(d.expanse_chunks(), 0);
        assert_eq!(d.root_range(), None);
        assert_eq!(d.root_key(blob()), None);
        assert_eq!(d.tree_depth(), 0);
    }

    #[test]
    fn descriptor_expanse_rounds_to_power_of_two() {
        let d = SnapshotDescriptor {
            version: Version(1),
            size: 5 * CS,
            chunk_size: CS,
            flat: false,
        };
        assert_eq!(d.used_chunks(), 5);
        assert_eq!(d.expanse_chunks(), 8);
        assert_eq!(d.root_range(), Some(ByteRange::new(0, 8 * CS)));
        assert_eq!(d.tree_depth(), 4);

        let partial = SnapshotDescriptor {
            version: Version(1),
            size: CS + 1,
            chunk_size: CS,
            flat: false,
        };
        assert_eq!(partial.used_chunks(), 2);
        assert_eq!(partial.expanse_chunks(), 2);
    }

    #[test]
    fn first_write_builds_a_complete_path() {
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        // Write 4 chunks: expanse 4, depth 3 (leaves + 2 inner levels).
        let chunks: Vec<WrittenChunk> = (0..4).map(|s| written(1, s, CS)).collect();
        let meta = build_write_metadata(&store, blob(), &v0, Version(1), 4 * CS, &chunks).unwrap();
        assert_eq!(meta.descriptor.size, 4 * CS);
        assert_eq!(meta.leaf_count(), 4);
        assert_eq!(meta.inner_count(), 3); // two level-1 nodes + root
        assert_eq!(meta.tree_depth(), 3);
        assert_eq!(meta.root.range, ByteRange::new(0, 4 * CS));
        assert_eq!(meta.root.version, Version(1));
        // Children come before parents so the store never holds dangling
        // parents while weaving.
        let root_index = meta
            .nodes
            .iter()
            .position(|(k, _)| k.range == meta.root.range)
            .unwrap();
        assert_eq!(root_index, meta.nodes.len() - 1);
        assert!(meta.metadata_bytes() > 0);
    }

    #[test]
    fn read_after_single_write_maps_every_slot() {
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 0, 3 * CS);
        let leaves = collect_leaves(&store, blob(), &v1, ByteRange::new(0, 3 * CS)).unwrap();
        assert_eq!(leaves.len(), 3);
        for (i, mapping) in leaves.iter().enumerate() {
            assert_eq!(mapping.slot_range, ByteRange::new(i as u64 * CS, CS));
            let leaf = mapping.leaf.as_ref().expect("no holes expected");
            assert_eq!(leaf.chunk, chunk_id(1, i as u64));
            assert_eq!(leaf.len, CS);
        }
    }

    #[test]
    fn partial_overwrite_borrows_untouched_subtrees() {
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 0, 8 * CS);
        let nodes_before = store.node_count();

        // Overwrite only slot 5.
        let v2 = apply_write(&store, &v1, 2, 5 * CS, CS);
        let new_nodes = store.node_count() - nodes_before;
        // One leaf plus one inner node per level above it: depth is 4
        // (8 slots), so 1 leaf + 3 inner nodes.
        assert_eq!(new_nodes, 4);

        // The new snapshot sees the new chunk at slot 5 and the old ones
        // elsewhere.
        let leaves = collect_leaves(&store, blob(), &v2, ByteRange::new(0, 8 * CS)).unwrap();
        assert_eq!(leaves.len(), 8);
        for (i, mapping) in leaves.iter().enumerate() {
            let leaf = mapping.leaf.as_ref().unwrap();
            let expected_tag = if i == 5 { 2 } else { 1 };
            assert_eq!(leaf.chunk, chunk_id(expected_tag, i as u64), "slot {i}");
        }

        // The old snapshot is untouched (versioning: readers of v1 never see
        // the concurrent writer's chunk).
        let old = collect_leaves(&store, blob(), &v1, ByteRange::new(5 * CS, CS)).unwrap();
        assert_eq!(old[0].leaf.as_ref().unwrap().chunk, chunk_id(1, 5));
    }

    #[test]
    fn append_grows_the_expanse_and_borrows_the_old_root() {
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 0, 4 * CS);
        assert_eq!(v1.expanse_chunks(), 4);

        // Append one chunk: expanse doubles to 8.
        let v2 = apply_write(&store, &v1, 2, 4 * CS, CS);
        assert_eq!(v2.expanse_chunks(), 8);
        assert_eq!(v2.size, 5 * CS);

        // Reading the old region still returns tag-1 chunks, the new region
        // returns the appended chunk.
        let leaves = collect_leaves(&store, blob(), &v2, ByteRange::new(0, 5 * CS)).unwrap();
        assert_eq!(leaves.len(), 5);
        assert_eq!(leaves[0].leaf.as_ref().unwrap().chunk, chunk_id(1, 0));
        assert_eq!(leaves[4].leaf.as_ref().unwrap().chunk, chunk_id(2, 4));
    }

    #[test]
    fn large_append_bridges_multiple_expanse_doublings() {
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        // 2 chunks -> expanse 2.
        let v1 = apply_write(&store, &v0, 1, 0, 2 * CS);
        assert_eq!(v1.expanse_chunks(), 2);
        // Append 10 chunks -> 12 used, expanse 16 (three doublings).
        let v2 = apply_write(&store, &v1, 2, 2 * CS, 10 * CS);
        assert_eq!(v2.expanse_chunks(), 16);
        // Every slot is reachable: old ones from the borrowed subtree, new
        // ones from the append, and the never-written tail is out of bounds.
        let leaves = collect_leaves(&store, blob(), &v2, ByteRange::new(0, 12 * CS)).unwrap();
        assert_eq!(leaves.len(), 12);
        assert_eq!(leaves[0].leaf.as_ref().unwrap().chunk, chunk_id(1, 0));
        assert_eq!(leaves[1].leaf.as_ref().unwrap().chunk, chunk_id(1, 1));
        for slot in 2..12u64 {
            assert_eq!(
                leaves[slot as usize].leaf.as_ref().unwrap().chunk,
                chunk_id(2, slot),
                "slot {slot}"
            );
        }
    }

    #[test]
    fn sparse_write_leaves_holes() {
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        // Write only slots 6 and 7 of an 8-slot expanse.
        let v1 = apply_write(&store, &v0, 1, 6 * CS, 2 * CS);
        assert_eq!(v1.size, 8 * CS);
        let leaves = collect_leaves(&store, blob(), &v1, ByteRange::new(0, 8 * CS)).unwrap();
        assert_eq!(leaves.len(), 8);
        for (i, mapping) in leaves.iter().enumerate() {
            if i < 6 {
                assert!(mapping.leaf.is_none(), "slot {i} should be a hole");
            } else {
                assert_eq!(mapping.leaf.as_ref().unwrap().chunk, chunk_id(1, i as u64));
            }
        }
    }

    #[test]
    fn reads_are_clipped_to_the_requested_range() {
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 0, 16 * CS);
        let leaves =
            collect_leaves(&store, blob(), &v1, ByteRange::new(5 * CS + 10, 2 * CS)).unwrap();
        // Bytes [5*CS+10, 7*CS+10) touch slots 5, 6 and 7.
        let slots: Vec<u64> = leaves.iter().map(|m| m.slot_range.offset / CS).collect();
        assert_eq!(slots, vec![5, 6, 7]);
    }

    #[test]
    fn out_of_bounds_reads_are_rejected() {
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 0, 2 * CS);
        let err = collect_leaves(&store, blob(), &v1, ByteRange::new(CS, 2 * CS)).unwrap_err();
        assert!(matches!(err, BlobError::ReadOutOfBounds { .. }));
        // Reading the empty snapshot is always out of bounds.
        let err = collect_leaves(&store, blob(), &v0, ByteRange::new(0, 1)).unwrap_err();
        assert!(matches!(err, BlobError::ReadOutOfBounds { .. }));
        // Empty reads succeed trivially.
        assert!(collect_leaves(&store, blob(), &v1, ByteRange::new(0, 0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn final_partial_chunk_records_its_true_length() {
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let new_size = CS + 10;
        let chunks = vec![written(1, 0, CS), written(1, 1, 10)];
        let meta =
            build_write_metadata(&store, blob(), &v0, Version(1), new_size, &chunks).unwrap();
        let descriptor = meta.descriptor;
        publish_metadata(&store, meta).unwrap();
        let leaves =
            collect_leaves(&store, blob(), &descriptor, ByteRange::new(0, new_size)).unwrap();
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[1].leaf.as_ref().unwrap().len, 10);
    }

    #[test]
    fn invalid_writes_are_rejected() {
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        // No chunks.
        assert!(matches!(
            build_write_metadata(&store, blob(), &v0, Version(1), CS, &[]),
            Err(BlobError::EmptyWrite)
        ));
        // Chunk longer than the chunk size.
        assert!(build_write_metadata(
            &store,
            blob(),
            &v0,
            Version(1),
            2 * CS,
            &[written(1, 0, CS + 1)],
        )
        .is_err());
        // Duplicate slot.
        assert!(build_write_metadata(
            &store,
            blob(),
            &v0,
            Version(1),
            CS,
            &[written(1, 0, CS), written(2, 0, CS)],
        )
        .is_err());
        // Shrinking size.
        let v1 = apply_write(&store, &v0, 1, 0, 4 * CS);
        assert!(
            build_write_metadata(&store, blob(), &v1, Version(2), CS, &[written(2, 0, CS)],)
                .is_err()
        );
        // Slots past the declared size.
        assert!(
            build_write_metadata(&store, blob(), &v0, Version(1), CS, &[written(1, 5, CS)],)
                .is_err()
        );
    }

    #[test]
    fn metadata_overhead_is_logarithmic_in_blob_size() {
        // The property behind Fig. A1: once the blob is large, a
        // single-chunk write creates O(log(number of chunks)) nodes.
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 0, 1024 * CS); // 1024 chunks
        let meta = build_write_metadata(
            &store,
            blob(),
            &v1,
            Version(2),
            v1.size,
            &[written(2, 17, CS)],
        )
        .unwrap();
        // depth = log2(1024) + 1 = 11: one new leaf + 10 inner nodes.
        assert_eq!(meta.node_count(), 11);
        assert_eq!(meta.tree_depth(), 11);
    }

    #[test]
    fn concurrent_style_writes_against_same_reference_do_not_conflict() {
        // Two writers weaving against the same reference snapshot (as
        // happens under write/write concurrency) produce disjoint node sets
        // as long as the version manager assigned them different versions.
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 0, 8 * CS);

        let w2 = build_write_metadata(
            &store,
            blob(),
            &v1,
            Version(2),
            v1.size,
            &[written(2, 1, CS)],
        )
        .unwrap();
        let w3 = build_write_metadata(
            &store,
            blob(),
            &v1,
            Version(3),
            v1.size,
            &[written(3, 6, CS)],
        )
        .unwrap();
        publish_metadata(&store, w2.clone()).unwrap();
        publish_metadata(&store, w3.clone()).unwrap();

        // Version 3 linked against version 1, so it does not see writer 2's
        // chunk — the version manager is responsible for serialising the
        // reference snapshots when strict last-writer-wins ordering is
        // needed; here we only check isolation.
        let leaves =
            collect_leaves(&store, blob(), &w3.descriptor, ByteRange::new(0, 8 * CS)).unwrap();
        assert_eq!(leaves[6].leaf.as_ref().unwrap().chunk, chunk_id(3, 6));
        assert_eq!(leaves[1].leaf.as_ref().unwrap().chunk, chunk_id(1, 1));

        let leaves_v2 =
            collect_leaves(&store, blob(), &w2.descriptor, ByteRange::new(0, 8 * CS)).unwrap();
        assert_eq!(leaves_v2[1].leaf.as_ref().unwrap().chunk, chunk_id(2, 1));
        assert_eq!(leaves_v2[6].leaf.as_ref().unwrap().chunk, chunk_id(1, 6));
    }

    #[test]
    fn missing_reference_node_is_reported() {
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        // Build v1 but "forget" to publish its nodes.
        let chunks: Vec<WrittenChunk> = (0..4).map(|s| written(1, s, CS)).collect();
        let meta = build_write_metadata(&store, blob(), &v0, Version(1), 4 * CS, &chunks).unwrap();
        // Weaving v2 against v1 needs v1's tree: it must fail loudly.
        let err = build_write_metadata(
            &store,
            blob(),
            &meta.descriptor,
            Version(2),
            meta.descriptor.size,
            &[written(2, 0, CS)],
        )
        .unwrap_err();
        assert!(matches!(err, BlobError::MissingMetadata { .. }));
    }

    #[test]
    fn chained_weaving_links_to_unwoven_predecessors() {
        // Writer A (v2) and writer B (v3) both weave against base v1 while
        // neither has published yet. B's chain contains A's summary, so B
        // links to A's future nodes for the ranges A rebuilds.
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 0, 8 * CS);

        // A: overwrite slot 2, assigned v2 (metadata NOT yet stored).
        let a_summary = WriteSummary {
            version: Version(2),
            written_slots: ByteRange::new(2 * CS, CS),
            size: v1.size,
            chunk_size: CS,
        };
        let a_meta = build_write_metadata_chained(
            &store,
            blob(),
            &ReferenceChain::published_only(v1),
            Version(2),
            v1.size,
            &[written(2, 2, CS)],
        )
        .unwrap();

        // B: overwrite slot 3, assigned v3; its chain includes A's summary.
        let b_chain = ReferenceChain {
            base: v1,
            pending: vec![a_summary],
        };
        let b_meta = build_write_metadata_chained(
            &store,
            blob(),
            &b_chain,
            Version(3),
            v1.size,
            &[written(3, 3, CS)],
        )
        .unwrap();

        // Slots 2 and 3 share the level-1 parent [2*CS, 4*CS): B's new
        // parent must reference A's future leaf for slot 2 at version 2.
        let parent = b_meta
            .nodes
            .iter()
            .find(|(k, _)| k.range == ByteRange::new(2 * CS, 2 * CS))
            .expect("B rebuilds the shared parent");
        let inner = parent.1.as_inner().unwrap();
        assert_eq!(
            inner.left,
            Some(ChildRef {
                version: Version(2),
                range: ByteRange::new(2 * CS, CS),
            })
        );

        // Once both writers have stored their nodes (in any order), reading
        // v3 sees both writes and v2 sees only A's.
        publish_metadata(&store, b_meta.clone()).unwrap();
        publish_metadata(&store, a_meta.clone()).unwrap();
        let v3_leaves = collect_leaves(
            &store,
            blob(),
            &b_meta.descriptor,
            ByteRange::new(0, 8 * CS),
        )
        .unwrap();
        assert_eq!(v3_leaves[2].leaf.as_ref().unwrap().chunk, chunk_id(2, 2));
        assert_eq!(v3_leaves[3].leaf.as_ref().unwrap().chunk, chunk_id(3, 3));
        assert_eq!(v3_leaves[1].leaf.as_ref().unwrap().chunk, chunk_id(1, 1));
        let v2_leaves = collect_leaves(
            &store,
            blob(),
            &a_meta.descriptor,
            ByteRange::new(0, 8 * CS),
        )
        .unwrap();
        assert_eq!(v2_leaves[2].leaf.as_ref().unwrap().chunk, chunk_id(2, 2));
        assert_eq!(v2_leaves[3].leaf.as_ref().unwrap().chunk, chunk_id(1, 3));
    }

    #[test]
    fn chained_weaving_handles_concurrent_appends() {
        // Two appenders get tickets for consecutive regions; the second
        // appender's tree must reference the first appender's future nodes
        // even though the first has not woven yet.
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 0, 2 * CS);

        // Appender A gets [2*CS, 4*CS), version 2.
        let a_summary = WriteSummary {
            version: Version(2),
            written_slots: ByteRange::new(2 * CS, 2 * CS),
            size: 4 * CS,
            chunk_size: CS,
        };
        let a_meta = build_write_metadata_chained(
            &store,
            blob(),
            &ReferenceChain::published_only(v1),
            Version(2),
            4 * CS,
            &[written(2, 2, CS), written(2, 3, CS)],
        )
        .unwrap();

        // Appender B gets [4*CS, 6*CS), version 3, chain includes A.
        let b_chain = ReferenceChain {
            base: v1,
            pending: vec![a_summary],
        };
        let b_meta = build_write_metadata_chained(
            &store,
            blob(),
            &b_chain,
            Version(3),
            6 * CS,
            &[written(3, 4, CS), written(3, 5, CS)],
        )
        .unwrap();
        assert_eq!(b_meta.descriptor.expanse_chunks(), 8);

        // B's root left child covers [0, 4*CS): exactly A's root, borrowed
        // at version 2.
        let root = b_meta.nodes.last().unwrap();
        let root_inner = root.1.as_inner().unwrap();
        assert_eq!(
            root_inner.left,
            Some(ChildRef {
                version: Version(2),
                range: ByteRange::new(0, 4 * CS),
            })
        );

        publish_metadata(&store, a_meta).unwrap();
        publish_metadata(&store, b_meta.clone()).unwrap();
        let leaves = collect_leaves(
            &store,
            blob(),
            &b_meta.descriptor,
            ByteRange::new(0, 6 * CS),
        )
        .unwrap();
        let tags: Vec<u64> = leaves
            .iter()
            .map(|m| m.leaf.as_ref().unwrap().chunk.write_tag)
            .collect();
        assert_eq!(tags, vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn repair_weaving_unblocks_later_writers() {
        // Writer A (v2) dies before weaving anything; writer B (v3) already
        // linked against A's future nodes. Repair weaving materialises A's
        // keys as aliases/holes so B's snapshot stays fully readable.
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 0, 4 * CS);

        // A claims an append of 2 chunks (slots 4 and 5) but never weaves.
        let a_summary = WriteSummary {
            version: Version(2),
            written_slots: ByteRange::new(4 * CS, 2 * CS),
            size: 6 * CS,
            chunk_size: CS,
        };
        // B overwrites slot 1 and links against the chain [A].
        let b_chain = ReferenceChain {
            base: v1,
            pending: vec![a_summary],
        };
        let b_meta = build_write_metadata_chained(
            &store,
            blob(),
            &b_chain,
            Version(3),
            6 * CS,
            &[written(3, 1, CS)],
        )
        .unwrap();
        publish_metadata(&store, b_meta.clone()).unwrap();

        // Without repair, reading B's snapshot would hit missing metadata in
        // the region A claimed.
        assert!(collect_leaves(
            &store,
            blob(),
            &b_meta.descriptor,
            ByteRange::new(0, 6 * CS)
        )
        .is_err());

        // Repair A.
        let repair = build_repair_metadata(
            &store,
            blob(),
            &ReferenceChain::published_only(v1),
            &a_summary,
        )
        .unwrap();
        publish_metadata(&store, repair.clone()).unwrap();
        assert_eq!(repair.descriptor.size, 6 * CS);

        // A's snapshot reads as v1 plus a zero hole in the claimed region.
        let a_leaves = collect_leaves(
            &store,
            blob(),
            &repair.descriptor,
            ByteRange::new(0, 6 * CS),
        )
        .unwrap();
        assert_eq!(a_leaves.len(), 6);
        assert_eq!(a_leaves[0].leaf.as_ref().unwrap().chunk, chunk_id(1, 0));
        assert!(a_leaves[4].leaf.is_none());
        assert!(a_leaves[5].leaf.is_none());

        // B's snapshot is now fully readable: its own write plus v1's data
        // plus holes where A claimed.
        let b_leaves = collect_leaves(
            &store,
            blob(),
            &b_meta.descriptor,
            ByteRange::new(0, 6 * CS),
        )
        .unwrap();
        assert_eq!(b_leaves[1].leaf.as_ref().unwrap().chunk, chunk_id(3, 1));
        assert_eq!(b_leaves[0].leaf.as_ref().unwrap().chunk, chunk_id(1, 0));
        assert!(b_leaves[4].leaf.is_none());
    }

    #[test]
    fn repair_weaving_rejects_stale_versions() {
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 0, 2 * CS);
        let stale = WriteSummary {
            version: Version(1),
            written_slots: ByteRange::new(0, CS),
            size: 2 * CS,
            chunk_size: CS,
        };
        assert!(
            build_repair_metadata(&store, blob(), &ReferenceChain::published_only(v1), &stale)
                .is_err()
        );
    }

    #[test]
    fn chained_weaving_rejects_stale_versions() {
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 0, 2 * CS);
        // A new write must carry a version greater than its predecessor's.
        let err = build_write_metadata_chained(
            &store,
            blob(),
            &ReferenceChain::published_only(v1),
            Version(1),
            v1.size,
            &[written(9, 0, CS)],
        )
        .unwrap_err();
        assert!(matches!(err, BlobError::Internal(_)));
    }

    #[test]
    fn write_summary_creates_node_predicate() {
        let s = WriteSummary {
            version: Version(5),
            written_slots: ByteRange::new(2 * CS, CS),
            size: 8 * CS,
            chunk_size: CS,
        };
        let prev_root = Some(ByteRange::new(0, 8 * CS));
        // Touched leaf and its ancestors.
        assert!(s.creates_node(ByteRange::new(2 * CS, CS), prev_root));
        assert!(s.creates_node(ByteRange::new(2 * CS, 2 * CS), prev_root));
        assert!(s.creates_node(ByteRange::new(0, 4 * CS), prev_root));
        assert!(s.creates_node(ByteRange::new(0, 8 * CS), prev_root));
        // Untouched sibling subtrees.
        assert!(!s.creates_node(ByteRange::new(3 * CS, CS), prev_root));
        assert!(!s.creates_node(ByteRange::new(4 * CS, 4 * CS), prev_root));
        // Ranges outside the summary's own expanse.
        assert!(!s.creates_node(ByteRange::new(0, 16 * CS), prev_root));

        // Expanse growth: an append whose write range is the new half also
        // creates the bridging nodes that contain the old root.
        let grow = WriteSummary {
            version: Version(6),
            written_slots: ByteRange::new(8 * CS, CS),
            size: 9 * CS,
            chunk_size: CS,
        };
        let old_root = Some(ByteRange::new(0, 2 * CS));
        assert!(grow.creates_node(ByteRange::new(0, 16 * CS), old_root));
        assert!(grow.creates_node(ByteRange::new(0, 8 * CS), old_root));
        assert!(grow.creates_node(ByteRange::new(0, 4 * CS), old_root));
        assert!(!grow.creates_node(ByteRange::new(0, 2 * CS), old_root));
        assert!(!grow.creates_node(ByteRange::new(4 * CS, 4 * CS), old_root));
    }

    #[test]
    fn streaming_levels_union_to_the_full_mapping() {
        // The level callback must report every mapping exactly once and the
        // union of all levels must equal the sorted final result, including
        // under holes (sparse write) and aliases (repaired write).
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 6 * CS, 2 * CS); // slots 0..6 are holes
        let aborted = WriteSummary {
            version: Version(2),
            written_slots: ByteRange::new(8 * CS, 2 * CS),
            size: 10 * CS,
            chunk_size: CS,
        };
        let chain = ReferenceChain {
            base: v1,
            pending: vec![aborted],
        };
        let b_meta = build_write_metadata_chained(
            &store,
            blob(),
            &chain,
            Version(3),
            10 * CS,
            &[written(3, 1, CS)],
        )
        .unwrap();
        publish_metadata(&store, b_meta.clone()).unwrap();
        let repair = build_repair_metadata(
            &store,
            blob(),
            &ReferenceChain::published_only(v1),
            &aborted,
        )
        .unwrap();
        publish_metadata(&store, repair).unwrap();

        let range = ByteRange::new(0, 10 * CS);
        let mut streamed: Vec<LeafMapping> = Vec::new();
        let mut levels = 0usize;
        let full = collect_leaves_streaming(&store, blob(), &b_meta.descriptor, range, |level| {
            levels += 1;
            streamed.extend_from_slice(level);
        })
        .unwrap();
        assert!(levels > 1, "a multi-level tree must stream multiple levels");
        streamed.sort_by_key(|m| m.slot_range.offset);
        assert_eq!(streamed, full);
        assert_eq!(
            full,
            collect_leaves(&store, blob(), &b_meta.descriptor, range).unwrap()
        );
    }

    #[test]
    fn frontier_descent_matches_recursive_descent_with_aliases_and_holes() {
        // Build a history containing every node flavour the descent can
        // meet: borrowed subtrees, holes from a sparse write, and aliases
        // from a repaired (aborted) write.
        let store = InMemoryMetaStore::new();
        let v0 = SnapshotDescriptor::initial(CS);
        let v1 = apply_write(&store, &v0, 1, 6 * CS, 2 * CS); // sparse: slots 0..6 are holes
        let aborted = WriteSummary {
            version: Version(2),
            written_slots: ByteRange::new(8 * CS, 2 * CS),
            size: 10 * CS,
            chunk_size: CS,
        };
        let b_chain = ReferenceChain {
            base: v1,
            pending: vec![aborted],
        };
        let b_meta = build_write_metadata_chained(
            &store,
            blob(),
            &b_chain,
            Version(3),
            10 * CS,
            &[written(3, 1, CS)],
        )
        .unwrap();
        publish_metadata(&store, b_meta.clone()).unwrap();
        let repair = build_repair_metadata(
            &store,
            blob(),
            &ReferenceChain::published_only(v1),
            &aborted,
        )
        .unwrap();
        publish_metadata(&store, repair.clone()).unwrap();

        // One node cache across every read: the first read is cold, later
        // ones are partly warm, and the prefetch hints run through aliases.
        let store = Arc::new(store);
        let cached = CachedMetadataStore::new(Arc::clone(&store));
        for snapshot in [v1, repair.descriptor, b_meta.descriptor] {
            for (offset, len) in [(0, snapshot.size), (CS + 7, 3 * CS), (5 * CS, 4 * CS)] {
                let len = len.min(snapshot.size - offset);
                let range = ByteRange::new(offset, len);
                let recursive =
                    collect_leaves_unbatched(&*store, blob(), &snapshot, range).unwrap();
                for descent_store in [&*store as &dyn MetadataStore, &cached] {
                    let batched = collect_leaves(descent_store, blob(), &snapshot, range).unwrap();
                    assert_eq!(
                        batched, recursive,
                        "divergence at v{} {range}",
                        snapshot.version
                    );
                }
            }
        }
    }

    /// Reference model for the property test: per-slot tag of the last
    /// writer, applied in version order.
    #[derive(Default, Clone)]
    struct SlotModel {
        last_writer: HashMap<u64, u64>,
        size: u64,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_linear_history_reads_match_model(
            ops in proptest::collection::vec((0u64..32, 1u64..8), 1..12)
        ) {
            let store = InMemoryMetaStore::new();
            let mut snapshot = SnapshotDescriptor::initial(CS);
            let mut model = SlotModel::default();

            for (tag0, (start_slot, slot_count)) in ops.iter().enumerate() {
                let tag = tag0 as u64 + 1;
                let offset = start_slot * CS;
                let len = slot_count * CS;
                snapshot = apply_write(&store, &snapshot, tag, offset, len);
                for s in *start_slot..start_slot + slot_count {
                    model.last_writer.insert(s, tag);
                }
                model.size = model.size.max(offset + len);
            }

            prop_assert_eq!(snapshot.size, model.size);
            let leaves = collect_leaves(
                &store,
                blob(),
                &snapshot,
                ByteRange::new(0, snapshot.size),
            ).unwrap();
            prop_assert_eq!(leaves.len() as u64, snapshot.size.div_ceil(CS));
            for mapping in leaves {
                let slot = mapping.slot_range.offset / CS;
                match model.last_writer.get(&slot) {
                    Some(&tag) => {
                        let leaf = mapping.leaf.as_ref().expect("written slot must have a leaf");
                        prop_assert_eq!(leaf.chunk, chunk_id(tag, slot));
                    }
                    None => prop_assert!(mapping.leaf.is_none(), "slot {} should be a hole", slot),
                }
            }
        }

        #[test]
        fn prop_frontier_descent_matches_recursive_descent(
            ops in proptest::collection::vec((0u64..32, 1u64..8), 1..12),
            read in (0u64..28, 1u64..12),
        ) {
            let store = Arc::new(InMemoryMetaStore::new());
            // Writes bypass the node cache, so every read through it starts
            // cold on the newest version and warm on what earlier reads saw.
            let cached = CachedMetadataStore::new(Arc::clone(&store));
            // Clip the read into bounds: the equivalence is about descent,
            // not the (shared) bounds check.
            let clip = |snapshot: &SnapshotDescriptor| {
                let (start_slot, slot_count) = read;
                let offset = (start_slot * CS).min(snapshot.size - 1);
                let len = (slot_count * CS).min(snapshot.size - offset);
                ByteRange::new(offset, len)
            };
            let mut snapshots = Vec::new();
            let mut snapshot = SnapshotDescriptor::initial(CS);
            for (tag0, (start_slot, slot_count)) in ops.iter().enumerate() {
                snapshot = apply_write(
                    &*store,
                    &snapshot,
                    tag0 as u64 + 1,
                    start_slot * CS,
                    slot_count * CS,
                );
                snapshots.push(snapshot);
                let range = clip(&snapshot);
                let recursive =
                    collect_leaves_unbatched(&*store, blob(), &snapshot, range).unwrap();
                let batched = collect_leaves(&*store, blob(), &snapshot, range).unwrap();
                prop_assert_eq!(&batched, &recursive);
                let cached_read = collect_leaves(&cached, blob(), &snapshot, range).unwrap();
                prop_assert_eq!(cached_read, recursive);
            }
            for snapshot in &snapshots {
                let range = ByteRange::new(0, snapshot.size);
                let recursive = collect_leaves_unbatched(&*store, blob(), snapshot, range).unwrap();
                let cached_read = collect_leaves(&cached, blob(), snapshot, range).unwrap();
                prop_assert_eq!(cached_read, recursive);
            }
        }

        #[test]
        fn prop_old_versions_are_immutable(
            ops in proptest::collection::vec((0u64..16, 1u64..4), 2..8)
        ) {
            let store = InMemoryMetaStore::new();
            let mut snapshots = vec![SnapshotDescriptor::initial(CS)];
            for (tag0, (start_slot, slot_count)) in ops.iter().enumerate() {
                let tag = tag0 as u64 + 1;
                let prev = *snapshots.last().unwrap();
                let next = apply_write(&store, &prev, tag, start_slot * CS, slot_count * CS);
                snapshots.push(next);
            }
            // Re-reading the *first* non-empty snapshot after all later
            // writes still returns only tag-1 chunks.
            let first = snapshots[1];
            let leaves = collect_leaves(
                &store,
                blob(),
                &first,
                ByteRange::new(0, first.size),
            ).unwrap();
            for mapping in leaves {
                if let Some(leaf) = mapping.leaf {
                    prop_assert_eq!(leaf.chunk.write_tag, 1);
                }
            }
        }
    }
}
