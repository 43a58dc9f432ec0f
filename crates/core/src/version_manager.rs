//! The version manager.
//!
//! The version manager is the (lightweight) serialisation point of BlobSeer:
//! it assigns a version to every write or append, resolves the offset of
//! appends, hands writers the [`ReferenceChain`] they weave their metadata
//! against, and publishes versions **strictly in assignment order** once
//! their metadata is complete. Reads only ever observe published versions,
//! which is what makes the whole protocol linearizable while keeping readers
//! and writers fully decoupled.
//!
//! With a durability [`Journal`] installed, readers see only the *durable*
//! prefix: a version becomes visible once its commit record is synced, and
//! a commit returns only once its own version is. The blob lock is never
//! held across an fsync (see [`Journal`] for the three commit steps).

use crate::version_service::{VersionPin, VersionService};
use blobseer_meta::{
    NodeBody, NodeKey, ReferenceChain, SnapshotDescriptor, WriteMetadata, WriteSummary,
};
use blobseer_persist::Journal;
use blobseer_types::{
    chunk_span, BlobConfig, BlobError, BlobId, ByteRange, ChunkId, IdGenerator, ProviderId, Result,
    Version,
};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The kind of mutation a client asks a ticket for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Write `len` bytes at an explicit `offset`.
    Write {
        /// First byte written.
        offset: u64,
        /// Number of bytes written.
        len: u64,
    },
    /// Append `len` bytes at the current end of the blob (the offset is
    /// resolved by the version manager at assignment time).
    Append {
        /// Number of bytes appended.
        len: u64,
    },
}

impl WriteKind {
    fn len(&self) -> u64 {
        match self {
            WriteKind::Write { len, .. } | WriteKind::Append { len } => *len,
        }
    }
}

/// Everything a writer needs to perform its write: the assigned version, the
/// resolved offset, and the reference chain to weave metadata against.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteTicket {
    /// Blob being written.
    pub blob: BlobId,
    /// Version assigned to this write.
    pub version: Version,
    /// Resolved first byte of the write (equals the snapshot size at
    /// assignment time for appends).
    pub offset: u64,
    /// Number of bytes the write covers.
    pub len: u64,
    /// Blob size once this write is applied.
    pub new_size: u64,
    /// Chunk size of the blob.
    pub chunk_size: u64,
    /// Reference view the writer resolves borrowed subtrees against.
    pub chain: ReferenceChain,
}

/// What a published version stored at one tree range, as reported by the
/// writer when it completes. The version manager folds these into its
/// per-range reference chains, which is how the lifecycle sweeper learns
/// which tree nodes and chunks became unreachable once old versions are
/// evicted.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeArtifact {
    /// Range the node covers (single slot for leaves).
    pub range: ByteRange,
    /// What kind of node was stored there.
    pub kind: ArtifactKind,
}

/// The node kinds the lifecycle tracker distinguishes.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactKind {
    /// A forwarding node woven by repair: it borrows the node currently
    /// resolving at its range, so it *extends* that node's liveness instead
    /// of superseding it.
    Alias,
    /// An inner tree node (supersedes the previous node at its range).
    Inner,
    /// A leaf. `chunk` names the sealed chunk the leaf points at together
    /// with its replica set; `None` for hole leaves.
    Leaf {
        /// Chunk referenced by the leaf, with the providers storing it.
        chunk: Option<(ChunkId, Vec<ProviderId>)>,
    },
}

impl NodeArtifact {
    /// Derives the artifact list of a woven write from its metadata. Called
    /// by writers (and the flattener) right before completing a version, so
    /// the version manager learns exactly which nodes the version stored
    /// without ever touching the metadata plane itself.
    #[must_use]
    pub fn from_metadata(meta: &WriteMetadata) -> Vec<NodeArtifact> {
        meta.nodes
            .iter()
            .map(|(key, body)| NodeArtifact {
                range: key.range,
                kind: match body {
                    NodeBody::Alias(_) => ArtifactKind::Alias,
                    NodeBody::Inner(_) => ArtifactKind::Inner,
                    NodeBody::Leaf(leaf) => ArtifactKind::Leaf {
                        chunk: if leaf.is_hole() {
                            None
                        } else {
                            Some((leaf.chunk, leaf.providers.clone()))
                        },
                    },
                },
            })
            .collect()
    }
}

/// Everything the lifecycle sweeper may reclaim right now for one blob:
/// tree nodes and chunks unreachable from every retained (or pinned)
/// version. Produced by [`VersionManager::take_collectable`]; once taken,
/// the entries are the caller's responsibility to delete.
#[derive(Debug, Clone, Default)]
pub struct CollectableSet {
    /// Metadata-tree nodes to delete.
    pub nodes: Vec<NodeKey>,
    /// Chunks to remove, each with the providers believed to store it.
    pub chunks: Vec<(ChunkId, Vec<ProviderId>)>,
}

impl CollectableSet {
    /// Whether there is nothing to reclaim.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.chunks.is_empty()
    }
}

/// Ticket handed to the flattener: the version reserved for the consolidated
/// snapshot and the published snapshot it materialises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlattenTicket {
    /// Blob being flattened.
    pub blob: BlobId,
    /// Version reserved for the flat snapshot.
    pub version: Version,
    /// Snapshot whose content the flat version reproduces.
    pub source: SnapshotDescriptor,
}

/// The versions whose trees reference the node currently resolving at one
/// range: the first entry created the node, later entries are repair aliases
/// borrowing it. The group lives until a later version stores a fresh
/// (non-alias) node at the same range.
#[derive(Debug, Clone)]
struct ChainGroup {
    versions: Vec<Version>,
    /// Chunk the current leaf at this range points at (leaves only).
    chunk: Option<(ChunkId, Vec<ProviderId>)>,
}

/// A chain group superseded by a newer node: its nodes (and chunk, unless
/// ownership was transferred to the superseding leaf) are referenced only by
/// versions older than `superseded_at`, so they become garbage as soon as
/// every such version is evicted and unpinned.
#[derive(Debug, Clone)]
struct RetiredGroup {
    /// First version whose tree no longer references this group.
    superseded_at: u64,
    range: ByteRange,
    versions: Vec<Version>,
    chunk: Option<(ChunkId, Vec<ProviderId>)>,
}

#[derive(Debug, Clone)]
struct PendingWrite {
    summary: WriteSummary,
    complete: bool,
    aborted: bool,
    /// Nodes the writer stored, reported at completion time (`None` until
    /// then, and forever for writers predating lifecycle tracking — those
    /// versions simply never become collectable, which is safe).
    artifacts: Option<Vec<NodeArtifact>>,
    /// Whether this version is a flat (consolidated) snapshot.
    flat: bool,
    /// Version pinned on behalf of this writer while it weaves (its chain
    /// base, or the flatten source); unpinned when the write settles.
    base_pin: Option<u64>,
}

#[derive(Debug)]
struct BlobState {
    config: BlobConfig,
    /// Published snapshot descriptors, indexed by version number. Writers
    /// link against all of them; readers see only `..=durable`.
    published: Vec<SnapshotDescriptor>,
    /// Newest version whose commit record is durable. Without a journal it
    /// moves at publication.
    durable: u64,
    /// Set once the journal failed a commit of this blob (fail-stop): every
    /// later commit, and every committer still waiting, gets this error.
    failed: Option<BlobError>,
    /// Assigned but not yet published writes, keyed by version number.
    pending: BTreeMap<u64, PendingWrite>,
    /// Next version to assign.
    next_version: u64,
    /// Blob size after the latest assigned (not necessarily published)
    /// write; appends are placed here.
    assigned_size: u64,
    /// Live chain group per tree range: which versions reference the node
    /// currently resolving there.
    ranges: HashMap<ByteRange, ChainGroup>,
    /// Superseded chain groups awaiting collection, oldest supersession
    /// first (supersession versions are published in order, so pushing at
    /// the back keeps the queue sorted).
    retired: VecDeque<RetiredGroup>,
    /// Oldest version still readable; versions below were evicted by the
    /// retention policy and answer [`BlobError::VersionRetired`].
    first_retained: u64,
    /// Reference counts of versions pinned by in-flight readers and
    /// writers. The sweep floor never passes a pinned version, which is
    /// what lets the sweeper run concurrently with reads without ever
    /// blocking them.
    pins: HashMap<u64, usize>,
    /// Non-flat versions published since the last flat snapshot — the
    /// flattener's trigger counter.
    writes_since_flatten: u64,
}

impl BlobState {
    fn new(config: BlobConfig) -> Self {
        BlobState {
            published: vec![SnapshotDescriptor::initial(config.chunk_size)],
            durable: 0,
            failed: None,
            pending: BTreeMap::new(),
            next_version: 1,
            assigned_size: 0,
            ranges: HashMap::new(),
            retired: VecDeque::new(),
            first_retained: 0,
            pins: HashMap::new(),
            writes_since_flatten: 0,
            config,
        }
    }

    fn latest_published(&self) -> SnapshotDescriptor {
        *self
            .published
            .last()
            .expect("a blob always has at least the empty snapshot")
    }

    /// The published versions readers may see: the durable prefix.
    fn visible(&self) -> &[SnapshotDescriptor] {
        &self.published[..=self.durable as usize]
    }

    /// The newest snapshot readers may see.
    fn latest_visible(&self) -> SnapshotDescriptor {
        self.published[self.durable as usize]
    }

    /// The chain a new writer links against: the latest published snapshot
    /// plus every live pending write, in version order.
    fn reference_chain(&self) -> ReferenceChain {
        ReferenceChain {
            base: self.latest_published(),
            pending: self
                .pending
                .values()
                .filter(|p| !p.aborted)
                .map(|p| p.summary)
                .collect(),
        }
    }

    /// Publishes every complete pending write that directly follows the
    /// published prefix; returns the newly published descriptors in version
    /// order (the caller journals them, in that order, when a durability
    /// journal is installed).
    fn advance_publication(&mut self) -> Vec<SnapshotDescriptor> {
        let mut published = Vec::new();
        loop {
            let next = self.published.len() as u64;
            let ready = matches!(self.pending.get(&next), Some(p) if p.aborted || p.complete);
            if !ready {
                break;
            }
            let p = self.pending.remove(&next).expect("readiness checked above");
            // Aborted writes publish with the size they claimed: the repair
            // weave (see `blobseer_meta::build_repair_metadata`) gives the
            // claimed-but-unwritten region hole semantics, so readers of the
            // aborted version see zeros there. An aborted flatten is just an
            // ordinary no-op version — its descriptor must not claim flat
            // layout.
            let descriptor = SnapshotDescriptor {
                version: Version(next),
                size: p.summary.size,
                chunk_size: p.summary.chunk_size,
                flat: p.flat && !p.aborted,
            };
            self.published.push(descriptor);
            published.push(descriptor);
            // Artifacts must be folded into the range chains strictly in
            // version order — supersession is defined by "next creator at
            // the same range" — which publishing in order gives us for free.
            if let Some(artifacts) = p.artifacts {
                for artifact in &artifacts {
                    self.apply_artifact(Version(next), artifact);
                }
            }
            if p.flat && !p.aborted {
                self.writes_since_flatten = 0;
            } else {
                self.writes_since_flatten += 1;
            }
        }
        published
    }

    /// Folds one stored node into the per-range chain groups.
    fn apply_artifact(&mut self, version: Version, artifact: &NodeArtifact) {
        if let ArtifactKind::Alias = artifact.kind {
            // The alias borrows whatever currently resolves at this range:
            // the live group gains one referencing version and nothing
            // retires.
            self.ranges
                .entry(artifact.range)
                .or_insert_with(|| ChainGroup {
                    versions: Vec::new(),
                    chunk: None,
                })
                .versions
                .push(version);
            return;
        }
        let chunk = match &artifact.kind {
            ArtifactKind::Leaf { chunk } => chunk.clone(),
            _ => None,
        };
        let new_chunk_id = chunk.as_ref().map(|(id, _)| *id);
        let replaced = self.ranges.insert(
            artifact.range,
            ChainGroup {
                versions: vec![version],
                chunk,
            },
        );
        if let Some(mut old) = replaced {
            // Chunk ownership transfer: a flat snapshot (or an idempotent
            // rewrite) stores a fresh leaf pointing at the *same* chunk the
            // superseded leaf held. The chunk stays live with the new
            // group; only the old tree nodes retire.
            if new_chunk_id.is_some() && old.chunk.as_ref().map(|(id, _)| *id) == new_chunk_id {
                old.chunk = None;
            }
            self.retired.push_back(RetiredGroup {
                superseded_at: version.0,
                range: artifact.range,
                versions: old.versions,
                chunk: old.chunk,
            });
        }
    }

    /// Looks up a visible snapshot descriptor, honouring the retention
    /// gate.
    fn lookup(&self, blob: BlobId, version: Version) -> Result<SnapshotDescriptor> {
        if version.0 < self.first_retained {
            return Err(BlobError::VersionRetired {
                blob,
                version,
                first_retained: Version(self.first_retained),
            });
        }
        self.visible()
            .get(version.0 as usize)
            .copied()
            .ok_or(BlobError::UnknownVersion(blob, version))
    }

    fn pin(&mut self, version: u64) {
        *self.pins.entry(version).or_insert(0) += 1;
    }

    fn unpin(&mut self, version: u64) {
        if let Some(count) = self.pins.get_mut(&version) {
            *count -= 1;
            if *count == 0 {
                self.pins.remove(&version);
            }
        }
    }

    /// The version below which nothing is readable any more: everything
    /// retired before it is collectable. Pins hold the floor down, which is
    /// the whole no-blocking story — a sweep racing a reader merely defers
    /// the reader's nodes to a later pass.
    fn sweep_floor(&self) -> u64 {
        let min_pin = self.pins.keys().copied().min().unwrap_or(u64::MAX);
        self.first_retained.min(min_pin)
    }
}

/// One blob's state, and the condition its committers wait on for their
/// version to become durable.
struct BlobSlot {
    state: Mutex<BlobState>,
    /// Signalled whenever `durable` moves or the blob fails.
    durable: Condvar,
}

impl BlobSlot {
    fn new(state: BlobState) -> Arc<Self> {
        Arc::new(BlobSlot {
            state: Mutex::new(state),
            durable: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, BlobState> {
        self.state.lock()
    }

    /// Fails the blob (fail-stop) with `err`, waking every waiting
    /// committer; returns the error for the caller to report too.
    fn fail(&self, state: &mut BlobState, err: BlobError) -> BlobError {
        state.failed.get_or_insert_with(|| err.clone());
        self.durable.notify_all();
        err
    }

    /// Blocks until `version` is durable and returns the newest durable
    /// version, or the error that failed the blob first. With `wait` set,
    /// gives up after that long with the retryable
    /// [`BlobError::Transport`]: the version waits on an earlier write of
    /// the blob that has not settled.
    fn await_durable(
        &self,
        blob: BlobId,
        version: Version,
        wait: Option<Duration>,
    ) -> Result<Version> {
        let deadline = wait.map(|wait| Instant::now() + wait);
        let mut state = self.lock();
        loop {
            if state.durable >= version.0 {
                return Ok(Version(state.durable));
            }
            if let Some(err) = &state.failed {
                return Err(err.clone());
            }
            match deadline {
                None => self.durable.wait(&mut state),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(BlobError::Transport(format!(
                            "version {version} of {blob} is not durable after {:?}: \
                             it waits on the commit of an earlier write",
                            wait.unwrap_or_default()
                        )));
                    }
                    self.durable.wait_for(&mut state, left);
                }
            }
        }
    }
}

/// Number of shards the blob map is split into. A power of two so the shard
/// index is a mask; 32 shards keep the map-level critical sections invisible
/// even with hundreds of client threads creating blobs.
const VM_SHARDS: usize = 32;

/// The version manager service. One instance serves every blob of a
/// deployment; all methods are safe to call from many client threads.
///
/// The serialisation the paper's protocol actually needs is *per blob*
/// (version assignment and in-order publication of one blob's writes), so
/// that is the only lock this type takes on the hot path: blob states live
/// behind individual mutexes inside a sharded, read-mostly outer map.
/// Operations on distinct blobs never contend on any shared lock — the shard
/// maps are only write-locked by blob creation.
pub struct VersionManager {
    shards: Vec<RwLock<HashMap<BlobId, Arc<BlobSlot>>>>,
    blob_ids: IdGenerator,
    /// Durability hook: when set (durable deployments), blob creations,
    /// publications and retention moves are journaled through it, and
    /// readers see only what it made durable. `None` for the RAM-resident
    /// deployments tests and benchmarks run.
    journal: RwLock<Option<Arc<dyn Journal>>>,
}

impl VersionManager {
    /// Creates an empty version manager.
    #[must_use]
    pub fn new() -> Self {
        VersionManager {
            shards: (0..VM_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            blob_ids: IdGenerator::starting_at(1),
            journal: RwLock::new(None),
        }
    }

    /// Installs the durability journal. Called once at cluster construction,
    /// before any client operation; every subsequent blob creation,
    /// publication and retention move is journaled through it.
    pub fn set_journal(&self, journal: Arc<dyn Journal>) {
        *self.journal.write() = Some(journal);
    }

    /// Whether a durability journal is installed: then commits and blob
    /// creations wait on the disk.
    #[must_use]
    pub fn is_journaled(&self) -> bool {
        self.journal.read().is_some()
    }

    fn shard(&self, blob: BlobId) -> &RwLock<HashMap<BlobId, Arc<BlobSlot>>> {
        &self.shards[(blob.0 as usize) & (VM_SHARDS - 1)]
    }

    /// The state handle of one blob: cloned out of the shard map under a
    /// read lock, so holding the returned per-blob mutex never blocks
    /// operations on other blobs.
    fn state(&self, blob: BlobId) -> Result<Arc<BlobSlot>> {
        self.shard(blob)
            .read()
            .get(&blob)
            .cloned()
            .ok_or(BlobError::UnknownBlob(blob))
    }

    /// Registers a new blob and returns its identifier. The blob starts at
    /// version 0 (the empty snapshot).
    pub fn create_blob(&self, config: BlobConfig) -> Result<BlobId> {
        config.validate()?;
        let id = BlobId(self.blob_ids.next_id());
        // Registered before it is journaled: a WAL checkpoint captures the
        // blob map without holding the log and carries only the records
        // appended after it began, so a create record must never precede
        // the blob it names. The id is still handed out only once the record
        // is in: a restart that forgot a handed-out id would mint it twice.
        self.shard(id)
            .write()
            .insert(id, BlobSlot::new(BlobState::new(config)));
        if let Some(journal) = self.journal.read().as_ref() {
            if let Err(err) = journal.record_create_blob(id, &config) {
                self.shard(id).write().remove(&id);
                return Err(err);
            }
        }
        Ok(id)
    }

    /// Re-registers a blob recovered from the durability journal: its
    /// creation-time configuration, the contiguous published prefix (the
    /// initial empty snapshot included) and the replayed retention floor.
    /// The blob-id generator is advanced past the restored id so new blobs
    /// never collide with recovered ones.
    ///
    /// Restored blobs start with empty reference chains: nodes published
    /// before the restart never become collectable again (a bounded leak the
    /// WAL checkpoint's compaction documents), which is safe — the sweeper
    /// can only leak, never double-free.
    pub fn restore_blob(
        &self,
        id: BlobId,
        config: BlobConfig,
        published: Vec<SnapshotDescriptor>,
        first_retained: Version,
    ) -> Result<()> {
        config.validate()?;
        if published.is_empty() || published[0].version != Version::ZERO {
            return Err(BlobError::Internal(
                "a restored blob needs its contiguous published prefix, version 0 first"
                    .to_string(),
            ));
        }
        let mut state = BlobState::new(config);
        state.next_version = published.len() as u64;
        state.assigned_size = published.last().expect("checked non-empty").size;
        state.first_retained = first_retained.0;
        state.writes_since_flatten = published
            .iter()
            .rev()
            .take_while(|d| !d.flat && d.version.0 > 0)
            .count() as u64;
        state.durable = published.len() as u64 - 1;
        state.published = published;
        self.shard(id).write().insert(id, BlobSlot::new(state));
        self.blob_ids.advance_past(id.0);
        Ok(())
    }

    /// The configuration a blob was created with.
    pub fn blob_config(&self, blob: BlobId) -> Result<BlobConfig> {
        Ok(self.state(blob)?.lock().config)
    }

    /// All blobs currently registered.
    pub fn blob_ids(&self) -> Vec<BlobId> {
        let mut ids: Vec<BlobId> = self
            .shards
            .iter()
            .flat_map(|shard| shard.read().keys().copied().collect::<Vec<_>>())
            .collect();
        ids.sort();
        ids
    }

    /// Assigns a version (and, for appends, an offset) to a write.
    pub fn assign_ticket(&self, blob: BlobId, kind: WriteKind) -> Result<WriteTicket> {
        if kind.len() == 0 {
            return Err(BlobError::EmptyWrite);
        }
        let state = self.state(blob)?;
        let mut state = state.lock();
        let chunk_size = state.config.chunk_size;
        let (offset, len) = match kind {
            WriteKind::Write { offset, len } => (offset, len),
            WriteKind::Append { len } => (state.assigned_size, len),
        };
        let new_size = state.assigned_size.max(offset + len);
        let chain = state.reference_chain();
        let version = Version(state.next_version);
        state.next_version += 1;
        state.assigned_size = new_size;

        // Pin the chain base for the duration of the weave: the writer
        // descends the base tree to find borrowable subtrees, and the pin
        // keeps the sweeper from collecting those nodes under its feet even
        // if the retention policy evicts the base version meanwhile.
        let base_version = chain.base.version.0;
        state.pin(base_version);

        // Slot-aligned region the write rebuilds leaves for (used by later
        // writers to link against this one before it finishes weaving).
        let slots = chunk_span(ByteRange::new(offset, len), chunk_size);
        let first = slots.first().expect("len > 0 yields at least one slot");
        let written_slots =
            ByteRange::new(first.index * chunk_size, slots.len() as u64 * chunk_size);
        state.pending.insert(
            version.0,
            PendingWrite {
                summary: WriteSummary {
                    version,
                    written_slots,
                    size: new_size,
                    chunk_size,
                },
                complete: false,
                aborted: false,
                artifacts: None,
                flat: false,
                base_pin: Some(base_version),
            },
        );
        Ok(WriteTicket {
            blob,
            version,
            offset,
            len,
            new_size,
            chunk_size,
            chain,
        })
    }

    /// Reports that the metadata of `version` is fully woven. The version
    /// manager publishes it (and any directly following complete versions)
    /// in order; returns the latest visible version after the call. With a
    /// journal it returns only once `version` itself is durable, which may
    /// mean waiting for an earlier writer of the blob to settle.
    ///
    /// Versions completed through this entry point report no node
    /// artifacts, so the lifecycle tracker never considers their nodes (or
    /// the nodes they superseded) collectable — safe, merely unreclaimed.
    /// Lifecycle-aware writers use
    /// [`VersionManager::complete_write_with_artifacts`].
    pub fn complete_write(&self, blob: BlobId, version: Version) -> Result<Version> {
        self.complete_write_with_artifacts(blob, version, None)
    }

    /// [`VersionManager::complete_write`] plus the list of nodes the writer
    /// stored, which feeds snapshot flattening and garbage collection.
    pub fn complete_write_with_artifacts(
        &self,
        blob: BlobId,
        version: Version,
        artifacts: Option<Vec<NodeArtifact>>,
    ) -> Result<Version> {
        self.settle_write(blob, version, artifacts, false, None)
    }

    /// Reports that the writer of `version` failed and will never weave its
    /// metadata. The version is published as a no-op snapshot (identical to
    /// its predecessor) so that later writers and readers are not blocked.
    ///
    /// Later writers may have linked against the ranges this write claimed;
    /// those links resolve to nodes the aborted writer never stored, so the
    /// caller (the cluster layer) is expected to weave *repair metadata* for
    /// the aborted version before calling this. See
    /// [`crate::client::BlobClient::repair_aborted_write`].
    pub fn abort_write(&self, blob: BlobId, version: Version) -> Result<Version> {
        self.abort_write_with_artifacts(blob, version, None)
    }

    /// [`VersionManager::abort_write`] plus the artifacts of the *repair*
    /// weave published on the aborted writer's behalf (aliases extending
    /// their borrowed subtrees, hole leaves for the claimed region).
    pub fn abort_write_with_artifacts(
        &self,
        blob: BlobId,
        version: Version,
        artifacts: Option<Vec<NodeArtifact>>,
    ) -> Result<Version> {
        self.settle_write(blob, version, artifacts, true, None)
    }

    /// Completes (or, with `abort`, aborts) one pending write and publishes
    /// whatever now directly follows the published prefix. With a journal,
    /// the commit takes the journal's three steps so that no fsync runs
    /// under the blob lock: prepare before it, append (in publication
    /// order) under it, and the group fsync after it, which moves `durable`
    /// and wakes the waiting committers. Any journal failure fails the
    /// blob.
    ///
    /// Returns once `version` is durable. A version that waits on an
    /// earlier, unsettled write of the blob waits at most `wait` (`None`:
    /// for ever) and then answers the retryable [`BlobError::Transport`];
    /// its completion stands, and a retry ([`VersionManager::await_durable`]
    /// once it is published) picks the wait up again. The RPC host bounds
    /// the wait below its clients' I/O timeout, so a writer that died
    /// holding an earlier version holds no server thread for longer than
    /// one attempt of each later committer.
    pub fn settle_write(
        &self,
        blob: BlobId,
        version: Version,
        artifacts: Option<Vec<NodeArtifact>>,
        abort: bool,
        wait: Option<Duration>,
    ) -> Result<Version> {
        let slot = self.state(blob)?;
        let journal = self.journal.read().clone();
        if let Some(journal) = &journal {
            if let Err(err) = journal.prepare_commit() {
                return Err(slot.fail(&mut slot.lock(), err));
            }
        }
        let mut state = slot.lock();
        if let Some(err) = &state.failed {
            return Err(err.clone());
        }
        let pending = state
            .pending
            .get_mut(&version.0)
            .ok_or(BlobError::UnknownVersion(blob, version))?;
        if abort {
            pending.aborted = true;
        } else {
            pending.complete = true;
        }
        pending.artifacts = artifacts;
        if let Some(base) = pending.base_pin.take() {
            state.unpin(base);
        }
        let published = state.advance_publication();
        let Some(journal) = journal else {
            state.durable = state.latest_published().version.0;
            return Ok(Version(state.durable));
        };
        // Commit records must hit the log in the order they published, or
        // recovery's contiguous-prefix rule would drop them as torn.
        let mut newest = None;
        for descriptor in &published {
            match journal.append_commit(blob, descriptor) {
                Ok(seq) => newest = Some((seq, descriptor.version.0)),
                Err(err) => return Err(slot.fail(&mut state, err)),
            }
        }
        drop(state);
        if let Some((seq, appended_through)) = newest {
            let synced = journal.sync_commits(seq);
            let mut state = slot.lock();
            match synced {
                Ok(()) => {
                    state.durable = state.durable.max(appended_through);
                    slot.durable.notify_all();
                }
                Err(err) => return Err(slot.fail(&mut state, err)),
            }
        }
        slot.await_durable(blob, version, wait)
    }

    /// Waits until `version`, already published, is durable, and returns
    /// the latest visible version; a version not published yet answers
    /// [`BlobError::UnknownVersion`]. A completion retried while the first
    /// attempt is still syncing learns that attempt's outcome here. `wait`
    /// bounds the wait as in [`VersionManager::settle_write`].
    pub fn await_durable(
        &self,
        blob: BlobId,
        version: Version,
        wait: Option<Duration>,
    ) -> Result<Version> {
        let slot = self.state(blob)?;
        if version.0 >= slot.lock().published.len() as u64 {
            return Err(BlobError::UnknownVersion(blob, version));
        }
        slot.await_durable(blob, version, wait)
    }

    /// Summaries of the writes assigned after the latest published snapshot
    /// (used by repair weaving).
    pub fn pending_summaries(&self, blob: BlobId) -> Result<Vec<WriteSummary>> {
        let state = self.state(blob)?;
        let state = state.lock();
        Ok(state
            .pending
            .values()
            .filter(|p| !p.aborted)
            .map(|p| p.summary)
            .collect())
    }

    /// Descriptor of the latest published snapshot that is durable.
    pub fn latest_snapshot(&self, blob: BlobId) -> Result<SnapshotDescriptor> {
        Ok(self.state(blob)?.lock().latest_visible())
    }

    /// Descriptor of an arbitrary published snapshot. Versions evicted by
    /// the retention policy answer [`BlobError::VersionRetired`].
    pub fn snapshot(&self, blob: BlobId, version: Version) -> Result<SnapshotDescriptor> {
        self.state(blob)?.lock().lookup(blob, version)
    }

    /// Resolves a snapshot descriptor and pins its version until the
    /// returned guard drops. Readers take a pin before descending the
    /// metadata tree: while any pin on a version is held, the lifecycle
    /// sweeper will not collect a single node or chunk that version can
    /// reach, so a concurrent sweep can never tear an in-flight read.
    /// `version: None` pins the latest durable published snapshot.
    pub fn pin_snapshot(
        self: &Arc<Self>,
        blob: BlobId,
        version: Option<Version>,
    ) -> Result<(SnapshotDescriptor, VersionPin)> {
        let state = self.state(blob)?;
        let mut state = state.lock();
        let descriptor = match version {
            Some(v) => state.lookup(blob, v)?,
            None => state.latest_visible(),
        };
        state.pin(descriptor.version.0);
        let me: Arc<VersionManager> = Arc::clone(self);
        let svc: Arc<dyn VersionService> = me;
        Ok((
            descriptor,
            VersionPin::new(svc, blob, descriptor.version, 0),
        ))
    }

    fn unpin_version(&self, blob: BlobId, version: Version) {
        // The blob may have vanished (nothing deletes blobs today, but stay
        // graceful): a missing state simply means there is nothing to
        // unpin.
        if let Ok(state) = self.state(blob) {
            state.lock().unpin(version.0);
        }
    }

    /// Reserves the next version for a flat (consolidated) snapshot of the
    /// latest published state and pins the source snapshot for the
    /// flattener. Returns `Ok(None)` when flattening is not possible or
    /// pointless right now: writes are in flight (the flattener needs a
    /// quiescent chain so it never blocks or is raced by writers — it
    /// simply retries later), the blob is empty, or the latest snapshot is
    /// already flat.
    ///
    /// The flattener materialises every slot of the blob as a leaf of the
    /// reserved version (chunks are re-referenced, not copied) and then
    /// completes the version like any writer. Readers of a flat snapshot
    /// address its leaves directly instead of descending the tree.
    pub fn begin_flatten(&self, blob: BlobId) -> Result<Option<FlattenTicket>> {
        let state = self.state(blob)?;
        let mut state = state.lock();
        if !state.pending.is_empty() {
            return Ok(None);
        }
        let source = state.latest_published();
        if source.size == 0 || source.flat {
            return Ok(None);
        }
        let chunk_size = source.chunk_size;
        let version = Version(state.next_version);
        state.next_version += 1;
        state.pin(source.version.0);
        let slots = chunk_span(ByteRange::new(0, source.size), chunk_size);
        let first = slots.first().expect("non-empty blob has slots");
        let written_slots =
            ByteRange::new(first.index * chunk_size, slots.len() as u64 * chunk_size);
        state.pending.insert(
            version.0,
            PendingWrite {
                summary: WriteSummary {
                    version,
                    written_slots,
                    size: source.size,
                    chunk_size,
                },
                complete: false,
                aborted: false,
                artifacts: None,
                flat: true,
                base_pin: Some(source.version.0),
            },
        );
        Ok(Some(FlattenTicket {
            blob,
            version,
            source,
        }))
    }

    /// Number of non-flat versions published since the last flat snapshot
    /// (the flattener's trigger counter).
    pub fn writes_since_flatten(&self, blob: BlobId) -> Result<u64> {
        Ok(self.state(blob)?.lock().writes_since_flatten)
    }

    /// Applies the retention policy: evicts every published version older
    /// than the newest `retained` ones. Evicted versions answer
    /// [`BlobError::VersionRetired`] to new readers; in-flight readers that
    /// pinned an evicted version before the call keep reading safely,
    /// because the sweeper honours their pins. `retained == 0` means "keep
    /// everything" (the policy is off). Returns the oldest retained
    /// version.
    pub fn evict_versions(&self, blob: BlobId, retained: usize) -> Result<Version> {
        let state = self.state(blob)?;
        let mut state = state.lock();
        if retained > 0 {
            // Only visible versions count: a version still syncing must not
            // push the floor past the newest one readers can see.
            let target = (state.durable + 1).saturating_sub(retained as u64);
            if target > state.first_retained {
                state.first_retained = target;
                // Journal the new floor so a restart does not resurrect
                // versions whose chunks the sweeper may already have
                // tombstoned.
                if let Some(journal) = self.journal.read().as_ref() {
                    journal.record_retire(blob, Version(target))?;
                }
            }
        }
        Ok(Version(state.first_retained))
    }

    /// Oldest version still readable for the blob.
    pub fn first_retained(&self, blob: BlobId) -> Result<Version> {
        Ok(Version(self.state(blob)?.lock().first_retained))
    }

    /// Drains every retired chain group that no retained or pinned version
    /// can reach and returns its nodes and chunks for deletion. The caller
    /// (the lifecycle sweeper) performs the actual deletes *without any
    /// version-manager lock held*; once taken, the entries will not be
    /// handed out again, so a sweeper that dies mid-delete leaks at worst —
    /// it never double-frees live data.
    pub fn take_collectable(&self, blob: BlobId) -> Result<CollectableSet> {
        let state = self.state(blob)?;
        let mut state = state.lock();
        let floor = state.sweep_floor();
        let mut set = CollectableSet::default();
        while let Some(front) = state.retired.front() {
            if front.superseded_at > floor {
                break;
            }
            let group = state.retired.pop_front().expect("front checked above");
            for version in group.versions {
                set.nodes.push(NodeKey {
                    blob,
                    version,
                    range: group.range,
                });
            }
            if let Some(chunk) = group.chunk {
                set.chunks.push(chunk);
            }
        }
        Ok(set)
    }

    /// Returns entries a sweeper failed to delete back to the head of the
    /// retired queue, immediately collectable by the next pass. This closes
    /// the sweeper's single-shot leak: [`VersionManager::take_collectable`]
    /// hands entries out exactly once, so without requeueing, a delete that
    /// failed (provider down mid-sweep, metadata plane unreachable) leaked
    /// its garbage forever.
    pub fn requeue_collectable(&self, blob: BlobId, set: CollectableSet) -> Result<()> {
        if set.is_empty() {
            return Ok(());
        }
        let state = self.state(blob)?;
        let mut state = state.lock();
        // `superseded_at: 0` sorts at (and is pushed to) the front, keeping
        // the queue ordered and the entries collectable on any floor.
        for key in set.nodes {
            state.retired.push_front(RetiredGroup {
                superseded_at: 0,
                range: key.range,
                versions: vec![key.version],
                chunk: None,
            });
        }
        for chunk in set.chunks {
            state.retired.push_front(RetiredGroup {
                superseded_at: 0,
                range: ByteRange::new(0, 0),
                versions: Vec::new(),
                chunk: Some(chunk),
            });
        }
        Ok(())
    }

    /// Number of retired chain groups currently queued (collectable or
    /// not), for monitoring and tests.
    pub fn retired_group_count(&self, blob: BlobId) -> Result<usize> {
        Ok(self.state(blob)?.lock().retired.len())
    }

    /// Exports every blob's durable image — id, creation config, published
    /// prefix and retention floor — for a WAL checkpoint. The prefix is the
    /// in-memory one, durable or not: a commit record appended before the
    /// checkpoint's mark is carried only by this capture.
    pub fn export_blobs(&self) -> Vec<(BlobId, BlobConfig, Vec<SnapshotDescriptor>, Version)> {
        let mut out = Vec::new();
        for id in self.blob_ids() {
            if let Ok(state) = self.state(id) {
                let state = state.lock();
                out.push((
                    id,
                    state.config,
                    state.published.clone(),
                    Version(state.first_retained),
                ));
            }
        }
        out
    }

    /// Every published version of the blob that is durable, oldest first.
    pub fn published_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        let state = self.state(blob)?;
        let state = state.lock();
        Ok(state.visible().iter().map(|d| d.version).collect())
    }

    /// Number of writes assigned but not yet published for the blob.
    pub fn pending_count(&self, blob: BlobId) -> Result<usize> {
        Ok(self.state(blob)?.lock().pending.len())
    }
}

impl Default for VersionManager {
    fn default() -> Self {
        VersionManager::new()
    }
}

impl VersionService for VersionManager {
    fn create_blob(&self, config: BlobConfig) -> Result<BlobId> {
        VersionManager::create_blob(self, config)
    }

    fn blob_config(&self, blob: BlobId) -> Result<BlobConfig> {
        VersionManager::blob_config(self, blob)
    }

    fn latest_snapshot(&self, blob: BlobId) -> Result<SnapshotDescriptor> {
        VersionManager::latest_snapshot(self, blob)
    }

    fn snapshot(&self, blob: BlobId, version: Version) -> Result<SnapshotDescriptor> {
        VersionManager::snapshot(self, blob, version)
    }

    fn published_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        VersionManager::published_versions(self, blob)
    }

    fn assign_ticket(&self, blob: BlobId, kind: WriteKind) -> Result<WriteTicket> {
        VersionManager::assign_ticket(self, blob, kind)
    }

    fn complete_write(
        &self,
        blob: BlobId,
        version: Version,
        artifacts: Option<Vec<NodeArtifact>>,
    ) -> Result<Version> {
        self.complete_write_with_artifacts(blob, version, artifacts)
    }

    fn abort_write(
        &self,
        blob: BlobId,
        version: Version,
        artifacts: Option<Vec<NodeArtifact>>,
    ) -> Result<Version> {
        self.abort_write_with_artifacts(blob, version, artifacts)
    }

    fn pin(&self, blob: BlobId, version: Option<Version>) -> Result<(SnapshotDescriptor, u64)> {
        // The in-process pin is a reference count keyed by version — no
        // lease state to name, so the token is always 0.
        let state = self.state(blob)?;
        let mut state = state.lock();
        let descriptor = match version {
            Some(v) => state.lookup(blob, v)?,
            None => state.latest_visible(),
        };
        state.pin(descriptor.version.0);
        Ok((descriptor, 0))
    }

    fn unpin(&self, blob: BlobId, version: Version, _token: u64) {
        self.unpin_version(blob, version);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    const CS: u64 = 64;

    fn vm_with_blob() -> (VersionManager, BlobId) {
        let vm = VersionManager::new();
        let blob = vm.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        (vm, blob)
    }

    #[test]
    fn create_blob_starts_at_the_empty_snapshot() {
        let (vm, blob) = vm_with_blob();
        let latest = vm.latest_snapshot(blob).unwrap();
        assert_eq!(latest.version, Version::ZERO);
        assert_eq!(latest.size, 0);
        assert_eq!(vm.published_versions(blob).unwrap(), vec![Version::ZERO]);
        assert_eq!(vm.blob_config(blob).unwrap().chunk_size, CS);
        assert_eq!(vm.blob_ids(), vec![blob]);
    }

    #[test]
    fn unknown_blob_is_an_error() {
        let vm = VersionManager::new();
        let ghost = BlobId(999);
        assert!(matches!(
            vm.latest_snapshot(ghost),
            Err(BlobError::UnknownBlob(_))
        ));
        assert!(vm
            .assign_ticket(ghost, WriteKind::Append { len: 1 })
            .is_err());
        assert!(vm.complete_write(ghost, Version(1)).is_err());
        assert!(vm.blob_config(ghost).is_err());
    }

    #[test]
    fn invalid_blob_config_is_rejected() {
        let vm = VersionManager::new();
        assert!(vm
            .create_blob(BlobConfig {
                chunk_size: 0,
                ..BlobConfig::default()
            })
            .is_err());
    }

    #[test]
    fn ticket_resolves_append_offsets_in_assignment_order() {
        let (vm, blob) = vm_with_blob();
        let t1 = vm
            .assign_ticket(blob, WriteKind::Append { len: 100 })
            .unwrap();
        let t2 = vm
            .assign_ticket(blob, WriteKind::Append { len: 50 })
            .unwrap();
        assert_eq!(t1.version, Version(1));
        assert_eq!(t1.offset, 0);
        assert_eq!(t1.new_size, 100);
        assert_eq!(t2.version, Version(2));
        assert_eq!(t2.offset, 100);
        assert_eq!(t2.new_size, 150);
        // The second ticket's chain contains the first writer's summary.
        assert_eq!(t2.chain.pending.len(), 1);
        assert_eq!(t2.chain.pending[0].version, Version(1));
        assert_eq!(t2.chain.base.version, Version::ZERO);
    }

    #[test]
    fn publication_is_strictly_in_version_order() {
        let (vm, blob) = vm_with_blob();
        let t1 = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        let t2 = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        // Writer 2 finishes first: nothing is published yet.
        let latest = vm.complete_write(blob, t2.version).unwrap();
        assert_eq!(latest, Version::ZERO);
        assert_eq!(vm.pending_count(blob).unwrap(), 2);
        // Writer 1 finishes: both versions become visible at once.
        let latest = vm.complete_write(blob, t1.version).unwrap();
        assert_eq!(latest, Version(2));
        assert_eq!(vm.pending_count(blob).unwrap(), 0);
        assert_eq!(
            vm.published_versions(blob).unwrap(),
            vec![Version(0), Version(1), Version(2)]
        );
        assert_eq!(vm.snapshot(blob, Version(1)).unwrap().size, CS);
        assert_eq!(vm.snapshot(blob, Version(2)).unwrap().size, 2 * CS);
    }

    #[test]
    fn writes_extend_size_only_when_past_the_end() {
        let (vm, blob) = vm_with_blob();
        let t1 = vm
            .assign_ticket(
                blob,
                WriteKind::Write {
                    offset: 0,
                    len: 4 * CS,
                },
            )
            .unwrap();
        vm.complete_write(blob, t1.version).unwrap();
        // Overwrite inside the blob: size unchanged.
        let t2 = vm
            .assign_ticket(
                blob,
                WriteKind::Write {
                    offset: CS,
                    len: CS,
                },
            )
            .unwrap();
        assert_eq!(t2.new_size, 4 * CS);
        // Write past the end: size grows.
        let t3 = vm
            .assign_ticket(
                blob,
                WriteKind::Write {
                    offset: 6 * CS,
                    len: CS,
                },
            )
            .unwrap();
        assert_eq!(t3.new_size, 7 * CS);
    }

    #[test]
    fn empty_writes_are_rejected() {
        let (vm, blob) = vm_with_blob();
        assert!(matches!(
            vm.assign_ticket(blob, WriteKind::Append { len: 0 }),
            Err(BlobError::EmptyWrite)
        ));
        assert!(matches!(
            vm.assign_ticket(blob, WriteKind::Write { offset: 10, len: 0 }),
            Err(BlobError::EmptyWrite)
        ));
    }

    #[test]
    fn snapshot_lookup_rejects_unpublished_versions() {
        let (vm, blob) = vm_with_blob();
        let t1 = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        assert!(matches!(
            vm.snapshot(blob, t1.version),
            Err(BlobError::UnknownVersion(_, _))
        ));
        vm.complete_write(blob, t1.version).unwrap();
        assert!(vm.snapshot(blob, t1.version).is_ok());
        assert!(vm.snapshot(blob, Version(99)).is_err());
    }

    #[test]
    fn aborted_writes_publish_as_no_ops() {
        let (vm, blob) = vm_with_blob();
        let t1 = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        let t2 = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        vm.complete_write(blob, t1.version).unwrap();
        // Writer 2 dies.
        let latest = vm.abort_write(blob, t2.version).unwrap();
        assert_eq!(latest, Version(2));
        // Version 2 exists with the size it claimed; its appended region is
        // repaired to holes (zeros) by the repair weave.
        assert_eq!(vm.snapshot(blob, Version(2)).unwrap().size, 2 * CS);
    }

    #[test]
    fn ticket_chain_excludes_aborted_predecessors() {
        let (vm, blob) = vm_with_blob();
        let t1 = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        let _t2 = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        vm.abort_write(blob, Version(2)).unwrap();
        vm.complete_write(blob, t1.version).unwrap();
        let t3 = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        // Both predecessors already published (v1 complete, v2 aborted), so
        // the chain is empty and based on v2.
        assert!(t3.chain.pending.is_empty());
        assert_eq!(t3.chain.base.version, Version(2));
        // The aborted append still consumed its byte range: the next append
        // lands after it.
        assert_eq!(t3.offset, 2 * CS);
    }

    #[test]
    fn aborting_the_head_of_the_chain_unblocks_successors() {
        let (vm, blob) = vm_with_blob();
        let t1 = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        let t2 = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        // Writer 2 completes first: still unpublished behind writer 1.
        vm.complete_write(blob, t2.version).unwrap();
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, Version::ZERO);
        // Writer 1 dies. Aborting it must publish both versions at once:
        // v1 as a no-op snapshot, v2 with its data.
        let latest = vm.abort_write(blob, t1.version).unwrap();
        assert_eq!(latest, Version(2));
        assert_eq!(vm.pending_count(blob).unwrap(), 0);
        assert_eq!(vm.snapshot(blob, Version(1)).unwrap().size, CS);
        assert_eq!(vm.snapshot(blob, Version(2)).unwrap().size, 2 * CS);
    }

    #[test]
    fn every_abort_publishes_a_no_op_snapshot() {
        let (vm, blob) = vm_with_blob();
        for n in 1..=3u64 {
            let t = vm
                .assign_ticket(blob, WriteKind::Append { len: CS })
                .unwrap();
            assert_eq!(vm.abort_write(blob, t.version).unwrap(), Version(n));
        }
        // Three aborted appends: three no-op snapshots, size still grows
        // because each aborted append consumed its byte range.
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, Version(3));
        assert_eq!(vm.latest_snapshot(blob).unwrap().size, 3 * CS);
    }

    #[test]
    fn abort_of_unknown_or_settled_versions_is_rejected() {
        let (vm, blob) = vm_with_blob();
        assert!(matches!(
            vm.abort_write(blob, Version(9)),
            Err(BlobError::UnknownVersion(_, _))
        ));
        let t = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        vm.complete_write(blob, t.version).unwrap();
        // Already published: there is no pending entry left to abort.
        assert!(vm.abort_write(blob, t.version).is_err());
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, Version(1));
        assert!(vm.abort_write(BlobId(999), Version(1)).is_err());
    }

    #[test]
    fn distinct_blobs_never_share_a_lock() {
        use std::sync::mpsc;
        use std::time::Duration;
        let vm = Arc::new(VersionManager::new());
        let a = vm.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let b = vm.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        // Hold blob a's per-blob lock for the whole test, as a stuck writer
        // would.
        let a_state = vm.state(a).unwrap();
        let _guard = a_state.lock();
        // A full ticket + publish cycle on blob b must complete anyway: with
        // the old global blob map mutex this deadlocked.
        let (tx, rx) = mpsc::channel();
        let vm2 = Arc::clone(&vm);
        let worker = std::thread::spawn(move || {
            let t = vm2.assign_ticket(b, WriteKind::Append { len: CS }).unwrap();
            vm2.complete_write(b, t.version).unwrap();
            let _ = tx.send(t.version);
        });
        let version = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("operations on blob b blocked behind blob a's lock");
        assert_eq!(version, Version(1));
        worker.join().unwrap();
        assert_eq!(vm.latest_snapshot(b).unwrap().version, Version(1));
    }

    #[test]
    fn many_threads_get_distinct_versions() {
        use std::sync::Arc;
        let vm = Arc::new(VersionManager::new());
        let blob = vm.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let vm = Arc::clone(&vm);
            handles.push(std::thread::spawn(move || {
                (0..50)
                    .map(|_| {
                        let t = vm
                            .assign_ticket(blob, WriteKind::Append { len: CS })
                            .unwrap();
                        vm.complete_write(blob, t.version).unwrap();
                        t.version.0
                    })
                    .collect::<Vec<_>>()
            }));
        }
        let mut versions: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        versions.sort_unstable();
        versions.dedup();
        assert_eq!(versions.len(), 400, "versions must be unique");
        // After all writers completed, everything is published.
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, Version(400));
        assert_eq!(vm.latest_snapshot(blob).unwrap().size, 400 * CS);
        assert_eq!(vm.pending_count(blob).unwrap(), 0);
    }

    // ------------------------------------------------------------------
    // Version lifecycle: retention, pins, flattening, collection.
    // ------------------------------------------------------------------

    fn chunk_for(blob: BlobId, tag: u64) -> ChunkId {
        ChunkId {
            blob,
            write_tag: tag,
            slot: 0,
        }
    }

    fn leaf_artifact(chunk: Option<ChunkId>) -> Vec<NodeArtifact> {
        vec![NodeArtifact {
            range: ByteRange::new(0, CS),
            kind: ArtifactKind::Leaf {
                chunk: chunk.map(|c| (c, vec![ProviderId(0)])),
            },
        }]
    }

    /// Publishes one slot-0 overwrite carrying a leaf artifact for `chunk`.
    fn publish_leaf(vm: &VersionManager, blob: BlobId, chunk: Option<ChunkId>) -> Version {
        let t = vm
            .assign_ticket(blob, WriteKind::Write { offset: 0, len: CS })
            .unwrap();
        vm.complete_write_with_artifacts(blob, t.version, Some(leaf_artifact(chunk)))
            .unwrap();
        t.version
    }

    #[test]
    fn eviction_gates_reads_and_is_monotone() {
        let (vm, blob) = vm_with_blob();
        for _ in 0..4 {
            publish_leaf(&vm, blob, None);
        }
        // retained == 0 means the policy is off: nothing is evicted.
        assert_eq!(vm.evict_versions(blob, 0).unwrap(), Version::ZERO);
        assert!(vm.snapshot(blob, Version::ZERO).is_ok());
        // Keep the newest two of the five published versions (0..=4).
        assert_eq!(vm.evict_versions(blob, 2).unwrap(), Version(3));
        assert_eq!(vm.first_retained(blob).unwrap(), Version(3));
        for evicted in 0..3 {
            assert!(matches!(
                vm.snapshot(blob, Version(evicted)),
                Err(BlobError::VersionRetired { .. })
            ));
        }
        assert!(vm.snapshot(blob, Version(3)).is_ok());
        assert!(vm.snapshot(blob, Version(4)).is_ok());
        // A wider window later never resurrects evicted versions: the
        // retention floor only moves forward.
        assert_eq!(vm.evict_versions(blob, 100).unwrap(), Version(3));
        assert!(matches!(
            vm.snapshot(blob, Version(2)),
            Err(BlobError::VersionRetired { .. })
        ));
    }

    #[test]
    fn supersession_retires_nodes_and_chunks() {
        let (vm, blob) = vm_with_blob();
        let old_chunk = chunk_for(blob, 1);
        let v1 = publish_leaf(&vm, blob, Some(old_chunk));
        publish_leaf(&vm, blob, Some(chunk_for(blob, 2)));
        assert_eq!(vm.retired_group_count(blob).unwrap(), 1);
        // The superseding version (2) is still below the sweep floor until
        // eviction passes it: nothing is collectable yet.
        assert!(vm.take_collectable(blob).unwrap().is_empty());
        vm.evict_versions(blob, 1).unwrap();
        let set = vm.take_collectable(blob).unwrap();
        assert_eq!(
            set.nodes,
            vec![NodeKey {
                blob,
                version: v1,
                range: ByteRange::new(0, CS),
            }]
        );
        assert_eq!(set.chunks.len(), 1);
        assert_eq!(set.chunks[0].0, old_chunk);
        // Collection is single-shot: once taken, the entries are gone.
        assert!(vm.take_collectable(blob).unwrap().is_empty());
        assert_eq!(vm.retired_group_count(blob).unwrap(), 0);
    }

    #[test]
    fn reader_pins_defer_collection_without_blocking_it() {
        let vm = Arc::new(VersionManager::new());
        let blob = vm.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let v1 = publish_leaf(&vm, blob, Some(chunk_for(blob, 1)));
        let (descriptor, pin) = vm.pin_snapshot(blob, Some(v1)).unwrap();
        assert_eq!(descriptor.version, v1);
        assert_eq!(pin.version(), v1);
        publish_leaf(&vm, blob, Some(chunk_for(blob, 2)));
        vm.evict_versions(blob, 1).unwrap();
        // The reader pinned v1 before eviction: its group stays uncollectable
        // (the sweeper defers, it never waits), and the pinned version keeps
        // answering lookups for in-flight use.
        assert!(vm.take_collectable(blob).unwrap().is_empty());
        assert_eq!(vm.retired_group_count(blob).unwrap(), 1);
        drop(pin);
        let set = vm.take_collectable(blob).unwrap();
        assert_eq!(set.nodes.len(), 1);
        assert_eq!(set.chunks.len(), 1);
    }

    #[test]
    fn pinning_an_evicted_version_is_rejected() {
        let vm = Arc::new(VersionManager::new());
        let blob = vm.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        publish_leaf(&vm, blob, None);
        publish_leaf(&vm, blob, None);
        vm.evict_versions(blob, 1).unwrap();
        assert!(matches!(
            vm.pin_snapshot(blob, Some(Version(1))),
            Err(BlobError::VersionRetired { .. })
        ));
        // The latest snapshot is always pinnable.
        assert!(vm.pin_snapshot(blob, None).is_ok());
    }

    #[test]
    fn repair_aliases_extend_the_borrowed_group() {
        let (vm, blob) = vm_with_blob();
        let old_chunk = chunk_for(blob, 1);
        let v1 = publish_leaf(&vm, blob, Some(old_chunk));
        // A repair weave aliases the range instead of storing a fresh node:
        // the alias joins v1's group rather than retiring it.
        let t = vm
            .assign_ticket(blob, WriteKind::Write { offset: 0, len: CS })
            .unwrap();
        vm.complete_write_with_artifacts(
            blob,
            t.version,
            Some(vec![NodeArtifact {
                range: ByteRange::new(0, CS),
                kind: ArtifactKind::Alias,
            }]),
        )
        .unwrap();
        assert_eq!(vm.retired_group_count(blob).unwrap(), 0);
        // A later fresh leaf retires the whole group: both referencing
        // versions' nodes plus the chunk go together.
        let v3 = publish_leaf(&vm, blob, Some(chunk_for(blob, 2)));
        vm.evict_versions(blob, 1).unwrap();
        let set = vm.take_collectable(blob).unwrap();
        let mut versions: Vec<Version> = set.nodes.iter().map(|k| k.version).collect();
        versions.sort();
        assert_eq!(versions, vec![v1, t.version]);
        assert_eq!(set.chunks[0].0, old_chunk);
        assert_eq!(vm.first_retained(blob).unwrap(), v3);
    }

    #[test]
    fn chunk_ownership_transfers_to_a_re_referencing_leaf() {
        let (vm, blob) = vm_with_blob();
        let shared = chunk_for(blob, 1);
        let v1 = publish_leaf(&vm, blob, Some(shared));
        // A flat snapshot stores a fresh leaf pointing at the *same* chunk:
        // the old tree node retires, the chunk stays live with the new leaf.
        publish_leaf(&vm, blob, Some(shared));
        vm.evict_versions(blob, 1).unwrap();
        let set = vm.take_collectable(blob).unwrap();
        assert_eq!(set.nodes.len(), 1);
        assert_eq!(set.nodes[0].version, v1);
        assert!(
            set.chunks.is_empty(),
            "a chunk re-referenced by the superseding leaf must never be freed"
        );
    }

    #[test]
    fn begin_flatten_requires_a_quiescent_non_flat_chain() {
        let (vm, blob) = vm_with_blob();
        // Empty blob: nothing to flatten.
        assert!(vm.begin_flatten(blob).unwrap().is_none());
        let t = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        // A write is in flight: the flattener backs off instead of racing it.
        assert!(vm.begin_flatten(blob).unwrap().is_none());
        vm.complete_write(blob, t.version).unwrap();
        assert_eq!(vm.writes_since_flatten(blob).unwrap(), 1);
        let ticket = vm.begin_flatten(blob).unwrap().expect("flatten possible");
        assert_eq!(ticket.source.version, t.version);
        assert_eq!(ticket.version, Version(2));
        // The reserved flatten version occupies the chain: no second
        // flattener can start meanwhile.
        assert!(vm.begin_flatten(blob).unwrap().is_none());
        vm.complete_write_with_artifacts(
            blob,
            ticket.version,
            Some(leaf_artifact(Some(chunk_for(blob, 1)))),
        )
        .unwrap();
        let latest = vm.latest_snapshot(blob).unwrap();
        assert!(latest.flat, "a completed flatten publishes a flat snapshot");
        assert_eq!(latest.size, CS);
        assert_eq!(vm.writes_since_flatten(blob).unwrap(), 0);
        // Already flat: flattening again is pointless.
        assert!(vm.begin_flatten(blob).unwrap().is_none());
    }

    #[test]
    fn aborted_flatten_publishes_a_non_flat_no_op() {
        let (vm, blob) = vm_with_blob();
        publish_leaf(&vm, blob, None);
        let ticket = vm.begin_flatten(blob).unwrap().expect("flatten possible");
        vm.abort_write(blob, ticket.version).unwrap();
        let latest = vm.latest_snapshot(blob).unwrap();
        assert_eq!(latest.version, ticket.version);
        assert!(
            !latest.flat,
            "an aborted flatten must not claim flat layout"
        );
        // The counter keeps growing: the aborted attempt consolidated
        // nothing.
        assert_eq!(vm.writes_since_flatten(blob).unwrap(), 2);
        // And the blob can be flattened again afterwards.
        assert!(vm.begin_flatten(blob).unwrap().is_some());
    }

    #[test]
    fn writer_base_pins_hold_the_sweep_floor_while_weaving() {
        let (vm, blob) = vm_with_blob();
        let old_chunk = chunk_for(blob, 1);
        publish_leaf(&vm, blob, Some(old_chunk));
        // A writer starts weaving against v1 (its chain base is pinned),
        // then a faster writer supersedes the range and eviction passes v1.
        let slow = vm
            .assign_ticket(blob, WriteKind::Write { offset: 0, len: CS })
            .unwrap();
        assert_eq!(slow.chain.base.version, Version(1));
        let fast = vm
            .assign_ticket(blob, WriteKind::Write { offset: 0, len: CS })
            .unwrap();
        vm.complete_write_with_artifacts(
            blob,
            fast.version,
            Some(leaf_artifact(Some(chunk_for(blob, 2)))),
        )
        .unwrap();
        // fast cannot publish while slow is unsettled (in-order publication),
        // so nothing retires yet; but even after slow settles and everything
        // publishes, the base pin must have protected v1's nodes while the
        // slow writer was still descending them.
        assert!(vm.take_collectable(blob).unwrap().is_empty());
        vm.complete_write_with_artifacts(blob, slow.version, Some(leaf_artifact(None)))
            .unwrap();
        vm.evict_versions(blob, 1).unwrap();
        let set = vm.take_collectable(blob).unwrap();
        // Both superseded groups (v1's leaf via slow's hole leaf, slow's via
        // fast's) are reclaimed now that no writer pins the chain.
        assert_eq!(set.nodes.len(), 2);
        assert_eq!(set.chunks.len(), 1);
        assert_eq!(set.chunks[0].0, old_chunk);
    }

    /// A journal over a real WAL that checkpoints the version manager right
    /// after logging each blob creation — the tightest a capture can race a
    /// create — or refuses every creation when `fail` is set.
    struct CheckpointingJournal {
        wal: blobseer_persist::MetaWal,
        vm: std::sync::Weak<VersionManager>,
        fail: bool,
    }

    impl Journal for CheckpointingJournal {
        fn record_create_blob(&self, blob: BlobId, config: &BlobConfig) -> Result<()> {
            if self.fail {
                return Err(BlobError::Storage("the journal refuses".into()));
            }
            self.wal.log_create_blob(blob, config)?;
            let vm = self.vm.upgrade().expect("the version manager is alive");
            self.wal.checkpoint(|| Ok((vm.export_blobs(), Vec::new())))
        }

        fn prepare_commit(&self) -> Result<()> {
            Ok(())
        }

        fn append_commit(&self, blob: BlobId, descriptor: &SnapshotDescriptor) -> Result<u64> {
            self.wal.append_commit(blob, descriptor)
        }

        fn sync_commits(&self, seq: u64) -> Result<()> {
            self.wal.sync_through(seq)
        }

        fn record_retire(&self, blob: BlobId, first_retained: Version) -> Result<()> {
            self.wal.log_retire(blob, first_retained)
        }
    }

    fn journaled_vm(tag: &str, fail: bool) -> (Arc<VersionManager>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("blobseer-vm-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meta.wal");
        let (wal, _) =
            blobseer_persist::MetaWal::open(&path, blobseer_types::Durability::Commit).unwrap();
        let vm = Arc::new(VersionManager::new());
        vm.set_journal(Arc::new(CheckpointingJournal {
            wal,
            vm: Arc::downgrade(&vm),
            fail,
        }));
        (vm, path)
    }

    /// A blob is registered before its create record is logged, so a
    /// checkpoint that marks the log after the record still captures it.
    #[test]
    fn a_blob_create_racing_a_checkpoint_survives_it() {
        let (vm, path) = journaled_vm("create", false);
        let blob = vm.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        drop(vm);
        let (_, recovered) =
            blobseer_persist::MetaWal::open(&path, blobseer_types::Durability::Commit).unwrap();
        assert_eq!(recovered.blobs.len(), 1, "the created blob survives");
        assert_eq!(recovered.blobs[0].id, blob);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A log file whose writes or fsyncs fail while the matching flag is
    /// set.
    struct FlakyLog {
        file: Box<dyn blobseer_persist::LogFile>,
        fail_write: Arc<std::sync::atomic::AtomicBool>,
        fail_sync: Arc<std::sync::atomic::AtomicBool>,
    }

    impl blobseer_persist::LogFile for FlakyLog {
        fn append(&self, buf: &[u8]) -> std::io::Result<()> {
            if self.fail_write.load(Ordering::SeqCst) {
                return Err(std::io::Error::other("injected write failure"));
            }
            self.file.append(buf)
        }

        fn truncate(&self, len: u64) -> std::io::Result<()> {
            self.file.truncate(len)
        }

        fn sync(&self) -> std::io::Result<()> {
            if self.fail_sync.load(Ordering::SeqCst) {
                return Err(std::io::Error::other("injected fsync failure"));
            }
            self.file.sync()
        }

        fn read_at(&self, buf: &mut [u8], at: u64) -> std::io::Result<()> {
            self.file.read_at(buf, at)
        }
    }

    /// A commit whose WAL append or fsync fails is never visible: the
    /// writer gets a typed error, no reader ever sees the version, later
    /// commits of the blob fail too, and a reopen recovers exactly the
    /// committed prefix. (Publishing before journaling let readers see a
    /// version the disk did not hold.)
    #[test]
    fn a_commit_the_wal_fails_is_never_visible() {
        use std::sync::atomic::AtomicBool;
        for fail_sync in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "blobseer-vm-{}-failed-commit-{fail_sync}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let path = dir.join("meta.wal");
            let (fail_write, fail_fsync) = (
                Arc::new(AtomicBool::new(false)),
                Arc::new(AtomicBool::new(false)),
            );
            let (write_flag, sync_flag) = (Arc::clone(&fail_write), Arc::clone(&fail_fsync));
            let (wal, _) = blobseer_persist::MetaWal::open_over(
                &path,
                blobseer_types::Durability::Commit,
                move |path| {
                    Ok(Box::new(FlakyLog {
                        file: blobseer_persist::open_log_file(path)?,
                        fail_write: Arc::clone(&write_flag),
                        fail_sync: Arc::clone(&sync_flag),
                    }))
                },
            )
            .unwrap();
            let vm = Arc::new(VersionManager::new());
            let journal = Arc::new(CheckpointingJournal {
                wal,
                vm: Arc::downgrade(&vm),
                fail: false,
            });
            vm.set_journal(Arc::clone(&journal) as Arc<dyn Journal>);
            let blob = vm.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
            publish_leaf(&vm, blob, None);

            let t2 = vm
                .assign_ticket(blob, WriteKind::Append { len: CS })
                .unwrap();
            if fail_sync {
                fail_fsync.store(true, Ordering::SeqCst);
            } else {
                fail_write.store(true, Ordering::SeqCst);
            }
            let err = vm.complete_write(blob, t2.version).unwrap_err();
            assert!(matches!(err, BlobError::Storage(_)), "{err:?}");
            assert!(
                journal.wal.failure().is_some(),
                "the WAL stops at the failure"
            );

            assert_eq!(vm.latest_snapshot(blob).unwrap().version, Version(1));
            assert_eq!(vm.pin_snapshot(blob, None).unwrap().0.version, Version(1));
            assert_eq!(
                VersionService::pin(vm.as_ref(), blob, None)
                    .unwrap()
                    .0
                    .version,
                Version(1)
            );
            assert!(matches!(
                vm.snapshot(blob, t2.version),
                Err(BlobError::UnknownVersion(..))
            ));
            assert!(vm.pin_snapshot(blob, Some(t2.version)).is_err());
            assert_eq!(
                vm.published_versions(blob).unwrap(),
                vec![Version(0), Version(1)]
            );

            // The disk is healthy again, but the log stays failed.
            fail_write.store(false, Ordering::SeqCst);
            fail_fsync.store(false, Ordering::SeqCst);
            let t3 = vm
                .assign_ticket(blob, WriteKind::Append { len: CS })
                .unwrap();
            assert!(vm.complete_write(blob, t3.version).is_err());
            assert_eq!(vm.latest_snapshot(blob).unwrap().version, Version(1));

            drop((vm, journal));
            let (_, recovered) =
                blobseer_persist::MetaWal::open(&path, blobseer_types::Durability::Commit).unwrap();
            let versions: Vec<Version> = recovered.blobs[0]
                .published
                .iter()
                .map(|d| d.version)
                .collect();
            assert_eq!(
                versions,
                vec![Version(0), Version(1)],
                "fsync failed: {fail_sync}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A segment store whose fsync fails stops for good, and the commit
    /// whose `prepare_commit` hit the failure is never visible: the writer
    /// gets a typed error, the WAL fails with the store, later puts to the
    /// store are refused, and a reopen recovers exactly the committed
    /// prefix.
    #[test]
    fn a_commit_a_segment_fsync_fails_is_never_visible() {
        use blobseer_persist::{DurableTier, DurableTierOptions};
        use blobseer_provider::ChunkStore;
        use std::sync::atomic::AtomicBool;
        let dir = std::env::temp_dir().join(format!(
            "blobseer-vm-{}-failed-segment-fsync",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fail_sync = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&fail_sync);
        let (tier, _) =
            DurableTier::open_over(&dir, 1, DurableTierOptions::default(), move |path| {
                // Only the segment files fail; the WAL's disk stays healthy.
                let segment = path.extension().is_some_and(|ext| ext == "log");
                Ok(Box::new(FlakyLog {
                    file: blobseer_persist::open_log_file(path)?,
                    fail_write: Arc::new(AtomicBool::new(false)),
                    fail_sync: if segment {
                        Arc::clone(&flag)
                    } else {
                        Arc::new(AtomicBool::new(false))
                    },
                }))
            })
            .unwrap();
        let tier = Arc::new(tier);
        let store = Arc::clone(&tier.stores()[0]);
        let chunk = |slot| ChunkId {
            blob: BlobId(1),
            write_tag: 9,
            slot,
        };
        let data =
            || blobseer_types::wire::ChunkEnvelope::verbatim(bytes::Bytes::from(vec![7u8; 64]));
        let vm = Arc::new(VersionManager::new());
        vm.set_journal(Arc::clone(&tier) as Arc<dyn Journal>);
        let blob = vm.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        store.put(chunk(1), data()).unwrap();
        publish_leaf(&vm, blob, Some(chunk(1)));

        store.put(chunk(2), data()).unwrap();
        let t2 = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        fail_sync.store(true, Ordering::SeqCst);
        let err = vm.complete_write(blob, t2.version).unwrap_err();
        assert!(matches!(err, BlobError::Storage(_)), "{err:?}");
        assert!(
            tier.wal().failure().is_some(),
            "the WAL stops with the store"
        );
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, Version(1));
        assert_eq!(
            vm.published_versions(blob).unwrap(),
            vec![Version(0), Version(1)]
        );

        // The disk is healthy again, but the store stays failed.
        fail_sync.store(false, Ordering::SeqCst);
        assert!(
            store.put(chunk(3), data()).is_err(),
            "a failed store takes no put"
        );
        assert!(store.sync().is_err());
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, Version(1));

        drop((vm, tier, store));
        let (tier, recovered) = DurableTier::open(&dir, 1, DurableTierOptions::default()).unwrap();
        let versions: Vec<Version> = recovered.blobs[0]
            .published
            .iter()
            .map(|d| d.version)
            .collect();
        assert_eq!(versions, vec![Version(0), Version(1)]);
        assert_eq!(tier.stores()[0].get(&chunk(1)).unwrap(), Some(data()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal whose `sync_commits` parks, once armed, until the test
    /// releases it: the first barrier wait says it is parked, the second
    /// lets it go.
    struct ParkingJournal {
        seq: AtomicU64,
        armed: std::sync::atomic::AtomicBool,
        gate: std::sync::Barrier,
    }

    impl ParkingJournal {
        fn new() -> Arc<Self> {
            Arc::new(ParkingJournal {
                seq: AtomicU64::new(0),
                armed: std::sync::atomic::AtomicBool::new(false),
                gate: std::sync::Barrier::new(2),
            })
        }
    }

    impl Journal for ParkingJournal {
        fn record_create_blob(&self, _blob: BlobId, _config: &BlobConfig) -> Result<()> {
            Ok(())
        }

        fn prepare_commit(&self) -> Result<()> {
            Ok(())
        }

        fn append_commit(&self, _blob: BlobId, _descriptor: &SnapshotDescriptor) -> Result<u64> {
            Ok(self.seq.fetch_add(1, Ordering::SeqCst) + 1)
        }

        fn sync_commits(&self, _seq: u64) -> Result<()> {
            if self.armed.load(Ordering::SeqCst) {
                self.gate.wait();
                self.gate.wait();
            }
            Ok(())
        }

        fn record_retire(&self, _blob: BlobId, _first_retained: Version) -> Result<()> {
            Ok(())
        }
    }

    fn parked_vm() -> (Arc<VersionManager>, Arc<ParkingJournal>, BlobId) {
        let vm = Arc::new(VersionManager::new());
        let journal = ParkingJournal::new();
        vm.set_journal(Arc::clone(&journal) as Arc<dyn Journal>);
        let blob = vm.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        (vm, journal, blob)
    }

    /// While a commit's fsync is in flight its version is invisible to
    /// every reader, and the blob lock is free: another writer gets a
    /// ticket. Once the fsync returns, every reader sees the version.
    #[test]
    fn readers_see_only_durable_versions_and_the_fsync_holds_no_lock() {
        use std::sync::mpsc;
        use std::time::Duration;
        let (vm, journal, blob) = parked_vm();
        publish_leaf(&vm, blob, None);
        journal.armed.store(true, Ordering::SeqCst);
        let t2 = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        let writer = {
            let vm = Arc::clone(&vm);
            std::thread::spawn(move || vm.complete_write(blob, t2.version))
        };
        journal.gate.wait(); // the commit of version 2 is parked in its fsync
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, Version(1));
        assert_eq!(vm.pin_snapshot(blob, None).unwrap().0.version, Version(1));
        assert!(vm.snapshot(blob, Version(1)).is_ok());
        assert!(matches!(
            vm.snapshot(blob, t2.version),
            Err(BlobError::UnknownVersion(..))
        ));
        assert_eq!(
            vm.published_versions(blob).unwrap(),
            vec![Version(0), Version(1)]
        );
        let (tx, rx) = mpsc::channel();
        let second = {
            let vm = Arc::clone(&vm);
            std::thread::spawn(move || {
                let _ = tx.send(vm.assign_ticket(blob, WriteKind::Append { len: CS }));
            })
        };
        let ticket = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("assign_ticket waited for a commit's fsync: the blob lock was held")
            .unwrap();
        assert_eq!(ticket.version, Version(3));
        second.join().unwrap();
        journal.gate.wait(); // release the fsync
        assert_eq!(writer.join().unwrap().unwrap(), t2.version);
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, t2.version);
        assert_eq!(vm.pin_snapshot(blob, None).unwrap().0.version, t2.version);
        assert_eq!(vm.snapshot(blob, t2.version).unwrap().size, 2 * CS);
        assert_eq!(
            vm.published_versions(blob).unwrap(),
            vec![Version(0), Version(1), Version(2)]
        );
    }

    /// B completes version 2 before A completes version 1. B's ack must
    /// mean durable, so B returns only after A's commit published both
    /// versions and their fsync returned.
    #[test]
    fn an_out_of_order_commit_returns_only_once_its_version_is_durable() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;
        use std::time::Duration;
        let (vm, journal, blob) = parked_vm();
        journal.armed.store(true, Ordering::SeqCst);
        let a = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        let b = vm
            .assign_ticket(blob, WriteKind::Append { len: CS })
            .unwrap();
        let released = Arc::new(AtomicBool::new(false));
        let (b_done, b_result) = mpsc::channel();
        let b_writer = {
            let vm = Arc::clone(&vm);
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                let outcome = vm.complete_write(blob, b.version);
                let _ = b_done.send((outcome, released.load(Ordering::SeqCst)));
            })
        };
        assert!(
            b_result.recv_timeout(Duration::from_millis(100)).is_err(),
            "B acknowledged a version that is not even published"
        );
        let a_writer = {
            let vm = Arc::clone(&vm);
            std::thread::spawn(move || vm.complete_write(blob, a.version))
        };
        journal.gate.wait(); // A's commit of versions 1 and 2 is in its fsync
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, Version::ZERO);
        assert!(
            b_result.recv_timeout(Duration::from_millis(100)).is_err(),
            "B acknowledged a version whose fsync is still running"
        );
        released.store(true, Ordering::SeqCst);
        journal.gate.wait();
        let (outcome, after_release) = b_result.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(after_release);
        assert_eq!(outcome.unwrap(), b.version);
        assert_eq!(a_writer.join().unwrap().unwrap(), b.version);
        b_writer.join().unwrap();
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, b.version);
    }

    /// A commit waiting on an earlier write that never settles gives up
    /// after its bounded wait with a retryable error, and its completion
    /// stands: once the earlier write settles both publish, and the retry
    /// gets the outcome.
    #[test]
    fn a_bounded_commit_wait_gives_up_retryably() {
        let (vm, _journal, blob) = parked_vm();
        let append = WriteKind::Append { len: CS };
        let a = vm.assign_ticket(blob, append).unwrap();
        let b = vm.assign_ticket(blob, append).unwrap();
        let wait = Some(Duration::from_millis(50));
        let err = vm
            .settle_write(blob, b.version, None, false, wait)
            .unwrap_err();
        assert!(matches!(err, BlobError::Transport(_)), "{err:?}");
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, Version(0));
        assert_eq!(vm.complete_write(blob, a.version).unwrap(), b.version);
        assert!(matches!(
            vm.settle_write(blob, b.version, None, false, wait),
            Err(BlobError::UnknownVersion(..))
        ));
        assert_eq!(vm.await_durable(blob, b.version, wait).unwrap(), b.version);
    }

    /// A creation the journal refuses is undone: no id is handed out and
    /// no blob stays registered.
    #[test]
    fn a_create_the_journal_refuses_leaves_no_blob() {
        let (vm, path) = journaled_vm("refused", true);
        assert!(vm.create_blob(BlobConfig::new(CS, 1).unwrap()).is_err());
        assert!(vm.blob_ids().is_empty());
        assert_eq!(vm.export_blobs().len(), 0);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
