//! The BlobSeer client library.
//!
//! A [`BlobClient`] implements the access interface of the paper: create a
//! blob, read a range of any published snapshot, write a range (producing a
//! new snapshot) and append (producing a new snapshot whose offset is
//! resolved by the version manager). All the heavy lifting — chunking,
//! boundary merging, placement, replication, parallel chunk transfer,
//! metadata weaving and publication — happens here, so that the service
//! processes stay as small as the paper describes them.
//!
//! Clients are decoupled from the deployment: they talk to metadata through
//! a [`MetadataService`] trait object, to the data plane through a
//! [`ChunkService`] trait object, and move chunks through the cluster-owned
//! [`TransferPool`] instead of spawning threads per operation (see
//! [`crate::services`]).
//!
//! Both hot paths are *pipelined*: the data and metadata planes proceed in
//! parallel. A read submits chunk fetches to the transfer scheduler level by
//! level — one request train per provider, shipped as one `get_chunks` —
//! while the segment-tree descent is still batching deeper levels; a write
//! submits each provider's chunk stores as one `put_chunks` group and weaves
//! the write's metadata while those transfers are on the wire, joining the
//! completions only right before publication.
//!
//! The data plane is *zero-copy* end to end: payloads enter as [`Bytes`]
//! (`impl Into<Bytes>` on [`BlobClient::write`]/[`BlobClient::append`]), a
//! chunk slot fully covered by the write becomes a reference-counted
//! sub-slice of the caller's buffer — no allocation, no memcpy, proven by
//! [`ClientStats::payload_bytes_copied`] — and reads return a scatter-gather
//! [`BlobSlice`] of the fetched chunks ([`BlobClient::read_bytes`]); the
//! contiguous `Vec<u8>` API is reimplemented on top of it. An optional
//! client [`ChunkCache`] (`ClusterConfig::chunk_cache_bytes`) exploits chunk
//! immutability: reads consult it before submitting a fetch, writes populate
//! it write-through, and re-reading a published version costs no data
//! round-trips at all.

use crate::admission::AdmissionController;
use crate::chunk_cache::ChunkCache;
use crate::services::{ChunkService, ClientServices, MetadataService};
use crate::transfer::{Completion, TransferPool};
use crate::version_manager::{NodeArtifact, WriteKind, WriteTicket};
use crate::version_service::{VersionPin, VersionService};
use blobseer_meta::{
    build_repair_metadata, build_write_metadata_chained, collect_leaves, collect_leaves_streaming,
    publish_metadata, CachedMetadataStore, LeafNode, SnapshotDescriptor, WriteMetadata,
    WriteSummary, WrittenChunk,
};
use blobseer_provider::PlacementRequest;
use blobseer_types::{
    chunk_span, BlobConfig, BlobError, BlobId, BlobSlice, ByteRange, ChunkCodec, ChunkEnvelope,
    ChunkId, ChunkSlot, ClientId, ClusterConfig, ProviderId, Result, RetryPolicy, Version,
};
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pipeline depth clients default to when built directly through
/// [`BlobClient::new`] (clusters pass their configured depth instead).
const DEFAULT_PIPELINE_DEPTH: usize = 4;

/// A chunk a read still has to fetch: its slot range, its leaf and the
/// start of its rotated replica probe.
type PlannedFetch = (ByteRange, LeafNode, usize);

/// A chunk a read holds: its slot range, its leaf and the opened payload.
type FetchedChunk = (ByteRange, LeafNode, Bytes);

/// Per-client operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Completed write operations.
    pub writes: u64,
    /// Completed append operations.
    pub appends: u64,
    /// Completed read operations.
    pub reads: u64,
    /// Payload bytes written (excluding replication copies).
    pub bytes_written: u64,
    /// Payload bytes read.
    pub bytes_read: u64,
    /// Chunks pushed to providers (replication copies included).
    pub chunks_written: u64,
    /// Chunks fetched from providers.
    pub chunks_read: u64,
    /// Metadata tree nodes created by this client's writes.
    pub meta_nodes_written: u64,
    /// Write operations that failed and were repaired/aborted.
    pub failed_writes: u64,
    /// Payload bytes memcpy'd while assembling chunk payloads. Chunk-aligned
    /// writes report zero: a slot fully covered by the caller's buffer is
    /// shipped as a reference-counted sub-slice, never copied. Only boundary
    /// slots (unaligned edges merging predecessor bytes) copy, and only the
    /// bytes they must.
    pub payload_bytes_copied: u64,
    /// Chunk lookups served by the client chunk cache (zero round-trips).
    pub cache_hits: u64,
    /// Chunk lookups that missed the cache and went to the providers. Zero
    /// when no cache is configured.
    pub cache_misses: u64,
    /// Total frame bytes this client's transport moved (sent and received).
    /// Zero for in-process clients — nothing crosses a wire.
    pub bytes_on_wire: u64,
    /// Request frames this client's transport sent. Zero for in-process
    /// clients.
    pub frames_sent: u64,
    /// Request frames that shared a syscall with another frame (small-frame
    /// coalescing): a batch of `n` frames flushed by one vectored write
    /// contributes `n - 1`. Zero for in-process clients.
    pub frames_coalesced: u64,
    /// Chunks this client sealed compressed (codec `Fast` and the codec
    /// won). Chunks shipped verbatim — codec `Off`, tiny chunks,
    /// incompressible data — are not counted.
    pub chunks_compressed: u64,
    /// Payload bytes the chunk codec saved across all compressed chunks
    /// (logical minus physical, summed). Zero when nothing compressed.
    pub compress_saved_bytes: u64,
    /// Chunk payload bytes this client's transport moved, counted at their
    /// logical (decompressed) size. Zero for in-process clients.
    pub bytes_on_wire_logical: u64,
    /// Chunk payload bytes this client's transport moved, counted at their
    /// physical (possibly compressed) size. Zero for in-process clients.
    pub bytes_on_wire_physical: u64,
}

/// The client's live counters: one atomic per field, so concurrent readers
/// and writers sharing a client never serialise on bookkeeping (the old
/// single `Mutex<ClientStats>` was taken on every chunk operation).
#[derive(Debug, Default)]
struct AtomicClientStats {
    writes: AtomicU64,
    appends: AtomicU64,
    reads: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    chunks_written: AtomicU64,
    chunks_read: AtomicU64,
    meta_nodes_written: AtomicU64,
    failed_writes: AtomicU64,
    payload_bytes_copied: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    chunks_compressed: AtomicU64,
    compress_saved_bytes: AtomicU64,
}

impl AtomicClientStats {
    fn snapshot(&self) -> ClientStats {
        ClientStats {
            writes: self.writes.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            chunks_written: self.chunks_written.load(Ordering::Relaxed),
            chunks_read: self.chunks_read.load(Ordering::Relaxed),
            meta_nodes_written: self.meta_nodes_written.load(Ordering::Relaxed),
            failed_writes: self.failed_writes.load(Ordering::Relaxed),
            payload_bytes_copied: self.payload_bytes_copied.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            chunks_compressed: self.chunks_compressed.load(Ordering::Relaxed),
            compress_saved_bytes: self.compress_saved_bytes.load(Ordering::Relaxed),
            // Filled from the transport metrics (if any) by the caller.
            bytes_on_wire: 0,
            frames_sent: 0,
            frames_coalesced: 0,
            bytes_on_wire_logical: 0,
            bytes_on_wire_physical: 0,
        }
    }
}

/// A client of a BlobSeer deployment.
///
/// Clients are cheap to create (one per thread is the intended usage) and
/// hold only shared handles to the services plus private statistics, a
/// private write-tag generator and an optional private metadata cache. The
/// services are named only by their traits — [`MetadataService`] and
/// [`ChunkService`] — so the same client runs unchanged against the
/// in-process wiring, a simulator shim or a future networked transport.
pub struct BlobClient {
    id: ClientId,
    version_manager: Arc<dyn VersionService>,
    chunks: Arc<dyn ChunkService>,
    metadata: Arc<dyn MetadataService>,
    transfers: Arc<TransferPool>,
    /// Transfer-pipeline depth: how many tree levels' worth of chunk
    /// transfers (per pool worker) this client keeps in flight while the
    /// metadata plane is still being walked. At least 1.
    pipeline_depth: usize,
    /// Client-owned generator for write tags and replica-rotation offsets,
    /// seeded once at creation so the hot paths never touch thread-local
    /// storage.
    rng: Mutex<StdRng>,
    /// Optional chunk cache, consulted before any fetch is submitted and
    /// populated write-through. `None` when `chunk_cache_bytes` is zero.
    /// Always holds *decompressed* chunk bytes — a hit never pays the codec.
    chunk_cache: Option<Arc<ChunkCache>>,
    /// Chunk codec applied when sealing payloads into envelopes on the
    /// write path. `Off` ships every chunk verbatim (refcounted, no copy).
    codec: ChunkCodec,
    /// Optional per-client admission throttle over the shared transfer
    /// pool; permits are taken on the submitting thread (see
    /// [`crate::admission`]).
    admission: Option<Arc<AdmissionController>>,
    /// Shared with the transfer closures, which account fetches and cache
    /// fills from the pool workers.
    stats: Arc<AtomicClientStats>,
    /// Counters of the transport carrying this client's service calls, when
    /// the services run remotely (`None` for in-process wiring). The
    /// transport layer owns and updates them; [`BlobClient::stats`] folds a
    /// snapshot into `bytes_on_wire`/`frames_sent`.
    transport_metrics: Option<Arc<blobseer_types::TransportMetrics>>,
}

impl BlobClient {
    /// Creates a client from service handles. Most users obtain clients from
    /// [`crate::cluster::Cluster::client`] instead.
    pub fn new(
        id: ClientId,
        version_manager: Arc<dyn VersionService>,
        chunks: Arc<dyn ChunkService>,
        metadata: Arc<dyn MetadataService>,
        transfers: Arc<TransferPool>,
    ) -> Self {
        BlobClient {
            id,
            version_manager,
            chunks,
            metadata,
            transfers,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            rng: Mutex::new(StdRng::from_entropy()),
            chunk_cache: None,
            codec: ChunkCodec::Off,
            admission: None,
            stats: Arc::new(AtomicClientStats::default()),
            transport_metrics: None,
        }
    }

    /// Assembles a client the way `config` asks: the metadata plane behind
    /// a private node cache when `client_metadata_cache` is set,
    /// `shared_cache` or else a private chunk cache of `chunk_cache_bytes`
    /// (none at zero), and the configured pipeline depth and chunk codec.
    /// Every deployment's clients are built here.
    pub fn configured(
        id: ClientId,
        services: ClientServices,
        transfers: Arc<TransferPool>,
        config: &ClusterConfig,
        shared_cache: Option<Arc<ChunkCache>>,
    ) -> Self {
        let metadata: Arc<dyn MetadataService> = if config.client_metadata_cache {
            Arc::new(CachedMetadataStore::new(services.metadata))
        } else {
            services.metadata
        };
        let chunk_cache = shared_cache.or_else(|| {
            (config.chunk_cache_bytes > 0)
                .then(|| Arc::new(ChunkCache::new(config.chunk_cache_bytes)))
        });
        BlobClient::new(id, services.versions, services.chunks, metadata, transfers)
            .with_pipeline_depth(config.pipeline_depth)
            .with_chunk_cache(chunk_cache)
            .with_chunk_codec(config.chunk_codec)
    }

    /// Attaches a per-client admission controller (`None` disables
    /// throttling). When set, every chunk transfer this client submits to
    /// the shared pool first takes a permit *on the submitting thread*, so
    /// a client over its budget blocks itself instead of crowding the pool.
    #[must_use]
    pub fn with_admission(mut self, admission: Option<Arc<AdmissionController>>) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the transfer-pipeline depth — the in-flight fetch window per
    /// transfer worker. Clamped to at least 1.
    #[must_use]
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Attaches a chunk cache (`None` disables caching). The cache may be
    /// private to this client or shared with other clients of the same
    /// process — chunk immutability makes sharing trivially safe.
    #[must_use]
    pub fn with_chunk_cache(mut self, cache: Option<Arc<ChunkCache>>) -> Self {
        self.chunk_cache = cache;
        self
    }

    /// The client's chunk cache, if one is attached.
    pub fn chunk_cache(&self) -> Option<&Arc<ChunkCache>> {
        self.chunk_cache.as_ref()
    }

    /// Sets the chunk codec this client seals written chunks with.
    /// Compression happens once, here at the writing client; providers and
    /// the wire carry the sealed envelope verbatim, and the reading client
    /// decompresses once. Readers are codec-agnostic — the envelope tags
    /// each chunk — so mixed-codec clusters interoperate freely.
    #[must_use]
    pub fn with_chunk_codec(mut self, codec: ChunkCodec) -> Self {
        self.codec = codec;
        self
    }

    /// The chunk codec this client writes with.
    pub fn chunk_codec(&self) -> ChunkCodec {
        self.codec
    }

    /// Attaches the transport counters of the services this client talks to
    /// (`None` for in-process wiring). Set by networked deployments so
    /// [`ClientStats::bytes_on_wire`]/[`ClientStats::frames_sent`] report
    /// real wire traffic.
    #[must_use]
    pub fn with_transport_metrics(
        mut self,
        metrics: Option<Arc<blobseer_types::TransportMetrics>>,
    ) -> Self {
        self.transport_metrics = metrics;
        self
    }

    /// The transport counters of this client's services, if networked.
    pub fn transport_metrics(&self) -> Option<&Arc<blobseer_types::TransportMetrics>> {
        self.transport_metrics.as_ref()
    }

    /// The client's transfer-pipeline depth.
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline_depth
    }

    /// This client's identifier.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Counters accumulated by this client.
    pub fn stats(&self) -> ClientStats {
        let mut stats = self.stats.snapshot();
        if let Some(metrics) = &self.transport_metrics {
            let wire = metrics.snapshot();
            stats.bytes_on_wire = wire.bytes_on_wire;
            stats.frames_sent = wire.frames_sent;
            stats.frames_coalesced = wire.frames_coalesced;
            stats.bytes_on_wire_logical = wire.bytes_on_wire_logical;
            stats.bytes_on_wire_physical = wire.bytes_on_wire_physical;
        }
        stats
    }

    /// Creates a new blob and returns its identifier.
    pub fn create_blob(&self, config: BlobConfig) -> Result<BlobId> {
        self.version_manager.create_blob(config)
    }

    /// The latest published version of a blob.
    pub fn latest_version(&self, blob: BlobId) -> Result<Version> {
        Ok(self.version_manager.latest_snapshot(blob)?.version)
    }

    /// Every published version of a blob, oldest first.
    pub fn published_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        self.version_manager.published_versions(blob)
    }

    /// Size in bytes of a snapshot (`None` means the latest published one).
    pub fn size(&self, blob: BlobId, version: Option<Version>) -> Result<u64> {
        Ok(self.snapshot(blob, version)?.size)
    }

    /// Writes `data` at `offset`, producing (and returning) a new version.
    ///
    /// Accepts anything convertible to [`Bytes`]; passing an owned `Vec<u8>`
    /// or a `Bytes` makes chunk-aligned writes fully zero-copy (chunk slots
    /// ship as reference-counted sub-slices of the caller's buffer).
    pub fn write(&self, blob: BlobId, offset: u64, data: impl Into<Bytes>) -> Result<Version> {
        let data = data.into();
        let len = data.len() as u64;
        let version = self.mutate(blob, WriteKind::Write { offset, len }, data)?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_written.fetch_add(len, Ordering::Relaxed);
        Ok(version)
    }

    /// Appends `data` at the end of the blob, producing (and returning) a
    /// new version. Accepts anything convertible to [`Bytes`] (see
    /// [`BlobClient::write`] for the zero-copy contract).
    pub fn append(&self, blob: BlobId, data: impl Into<Bytes>) -> Result<Version> {
        let data = data.into();
        let len = data.len() as u64;
        let version = self.mutate(blob, WriteKind::Append { len }, data)?;
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_written.fetch_add(len, Ordering::Relaxed);
        Ok(version)
    }

    /// Reads `len` bytes starting at `offset` from the given snapshot
    /// (`None` means the latest published one) as a scatter-gather
    /// [`BlobSlice`]: the fetched chunks stay exactly as the providers (or
    /// the chunk cache) handed them back — zero-copy sub-slices — and holes
    /// are implicit, backed by a shared static zero page when iterated.
    pub fn read_bytes(
        &self,
        blob: BlobId,
        version: Option<Version>,
        offset: u64,
        len: u64,
    ) -> Result<BlobSlice> {
        let (snapshot, _pin) = self.pinned_snapshot(blob, version)?;
        self.read_pinned(blob, &snapshot, ByteRange::new(offset, len))
    }

    /// Reads `range` of an already pinned snapshot (the caller holds the
    /// pin for the duration).
    fn read_pinned(
        &self,
        blob: BlobId,
        snapshot: &SnapshotDescriptor,
        range: ByteRange,
    ) -> Result<BlobSlice> {
        if range.is_empty() {
            return Ok(BlobSlice::empty());
        }
        let fetched = self.fetch_chunks_pipelined(blob, snapshot, range)?;
        let mut segments = Vec::with_capacity(fetched.len());
        for (slot_range, leaf, data) in fetched {
            let valid = ByteRange::new(slot_range.offset, leaf.len.min(data.len() as u64));
            let Some(need) = valid.intersect(&range) else {
                continue;
            };
            let src = (need.offset - valid.offset) as usize;
            segments.push((
                need.offset - range.offset,
                data.slice(src..src + need.len as usize),
            ));
        }
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        // Count the bytes the snapshot serves. Today the descent rejects any
        // range past the snapshot size, so `served == len` on every path
        // that reaches here; the clamp pins that invariant down so the
        // counter stays honest if short reads (POSIX-style clamping at EOF)
        // are ever allowed instead of rejected.
        let served = range.len.min(snapshot.size.saturating_sub(range.offset));
        debug_assert_eq!(served, range.len, "out-of-bounds reads are rejected");
        self.stats.bytes_read.fetch_add(served, Ordering::Relaxed);
        Ok(BlobSlice::new(range.len, segments))
    }

    /// Reads an entire snapshot as a scatter-gather [`BlobSlice`]. The
    /// version is resolved and pinned once, and the read covers exactly that
    /// snapshot's size — a write published meanwhile cannot mix in.
    pub fn read_all_bytes(&self, blob: BlobId, version: Option<Version>) -> Result<BlobSlice> {
        let (snapshot, _pin) = self.pinned_snapshot(blob, version)?;
        self.read_pinned(blob, &snapshot, ByteRange::new(0, snapshot.size))
    }

    /// Reads `len` bytes starting at `offset` from the given snapshot
    /// (`None` means the latest published one) into one contiguous buffer.
    /// Holes read back as zeros. This is [`BlobClient::read_bytes`] plus one
    /// flatten; segment-at-a-time consumers should prefer the slice API.
    pub fn read(
        &self,
        blob: BlobId,
        version: Option<Version>,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>> {
        Ok(self.read_bytes(blob, version, offset, len)?.to_vec())
    }

    /// Reads an entire snapshot (`None` means the latest published one).
    pub fn read_all(&self, blob: BlobId, version: Option<Version>) -> Result<Vec<u8>> {
        Ok(self.read_all_bytes(blob, version)?.to_vec())
    }

    /// Returns, for every chunk slot intersecting `range` in the given
    /// snapshot, the slot's byte range and the providers holding its chunk.
    /// Slots that are holes map to an empty provider list.
    ///
    /// This is the "expose the data location" interface BSFS uses to let the
    /// MapReduce scheduler place computation close to the data.
    pub fn chunk_locations(
        &self,
        blob: BlobId,
        version: Option<Version>,
        range: ByteRange,
    ) -> Result<Vec<(ByteRange, Vec<ProviderId>)>> {
        let (snapshot, _pin) = self.pinned_snapshot(blob, version)?;
        let leaves = collect_leaves(self.metadata.as_ref(), blob, &snapshot, range)?;
        Ok(leaves
            .into_iter()
            .map(|m| {
                let providers = m.leaf.map(|l| l.providers).unwrap_or_default();
                (m.slot_range, providers)
            })
            .collect())
    }

    /// Weaves repair metadata for a write that was assigned `ticket` but
    /// whose writer cannot complete it, so that later snapshots referencing
    /// it stay readable. Normally called internally on write failure; it is
    /// public so that an external failure detector can repair writes whose
    /// client process disappeared entirely.
    pub fn repair_aborted_write(&self, ticket: &WriteTicket) -> Result<()> {
        self.weave_repair(ticket).map(|_| ())
    }

    /// Weaves and publishes repair metadata for `ticket`, returning the
    /// node artifacts of the repair weave so the abort path can report them
    /// to the version manager's lifecycle tracker.
    fn weave_repair(&self, ticket: &WriteTicket) -> Result<Vec<NodeArtifact>> {
        let summary = Self::ticket_summary(ticket);
        let repair =
            build_repair_metadata(self.metadata.as_ref(), ticket.blob, &ticket.chain, &summary)?;
        let artifacts = NodeArtifact::from_metadata(&repair);
        publish_metadata(self.metadata.as_ref(), repair)?;
        Ok(artifacts)
    }

    // ----- internals -------------------------------------------------------

    fn snapshot(&self, blob: BlobId, version: Option<Version>) -> Result<SnapshotDescriptor> {
        match version {
            Some(v) => self.version_manager.snapshot(blob, v),
            None => self.version_manager.latest_snapshot(blob),
        }
    }

    /// Resolves a snapshot descriptor *and pins its version* for the
    /// duration of a read. The pin (released when the guard drops, on every
    /// exit path) is what makes reads and the lifecycle sweeper safely
    /// concurrent: the sweeper defers everything a pinned version reaches,
    /// so a reader that won the race against eviction never observes a torn
    /// tree or a vanished chunk.
    fn pinned_snapshot(
        &self,
        blob: BlobId,
        version: Option<Version>,
    ) -> Result<(SnapshotDescriptor, VersionPin)> {
        let (descriptor, token) = self.version_manager.pin(blob, version)?;
        let pin = VersionPin::new(
            Arc::clone(&self.version_manager),
            blob,
            descriptor.version,
            token,
        );
        Ok((descriptor, pin))
    }

    fn ticket_summary(ticket: &WriteTicket) -> WriteSummary {
        let slots = chunk_span(ByteRange::new(ticket.offset, ticket.len), ticket.chunk_size);
        let first = slots.first().expect("tickets always cover at least a byte");
        WriteSummary {
            version: ticket.version,
            written_slots: ByteRange::new(
                first.index * ticket.chunk_size,
                slots.len() as u64 * ticket.chunk_size,
            ),
            size: ticket.new_size,
            chunk_size: ticket.chunk_size,
        }
    }

    fn mutate(&self, blob: BlobId, kind: WriteKind, data: Bytes) -> Result<Version> {
        if data.is_empty() {
            return Err(BlobError::EmptyWrite);
        }
        let config = self.version_manager.blob_config(blob)?;
        let ticket = self.version_manager.assign_ticket(blob, kind)?;
        match self.perform_write(blob, &config, &ticket, &data) {
            Ok((meta_nodes, artifacts)) => {
                self.version_manager
                    .complete_write(blob, ticket.version, Some(artifacts))?;
                self.stats
                    .meta_nodes_written
                    .fetch_add(meta_nodes as u64, Ordering::Relaxed);
                Ok(ticket.version)
            }
            Err(err) => {
                // Make the claimed version harmless before giving up so that
                // concurrent writers and later readers are never blocked by
                // this failure. If even the repair weave fails, report no
                // artifacts: the version's nodes are then simply never
                // considered for collection.
                let artifacts = self.weave_repair(&ticket).ok();
                let _ = self
                    .version_manager
                    .abort_write(blob, ticket.version, artifacts);
                self.stats.failed_writes.fetch_add(1, Ordering::Relaxed);
                Err(err)
            }
        }
    }

    /// Pushes the chunks, weaves and stores the metadata. Returns the number
    /// of metadata nodes created.
    ///
    /// The data and metadata planes overlap: each chunk store is submitted
    /// to the transfer scheduler once its payload is assembled, the
    /// segment-tree metadata is woven from the *planned* placement while
    /// those transfers are on the wire, and the completions are joined only
    /// right before publication (leaves whose store had to fall back to
    /// substitute providers are patched first).
    fn perform_write(
        &self,
        blob: BlobId,
        config: &BlobConfig,
        ticket: &WriteTicket,
        data: &Bytes,
    ) -> Result<(usize, Vec<NodeArtifact>)> {
        // Per-blob codec override: a blob created with an explicit codec
        // seals with it regardless of what the cluster default (this
        // client's codec) says.
        let codec = config.chunk_codec.unwrap_or(self.codec);
        let chunk_size = ticket.chunk_size;
        let write_range = ByteRange::new(ticket.offset, data.len() as u64);
        let slots = chunk_span(write_range, chunk_size);
        let predecessor_size = ticket.chain.predecessor_size();

        // The largest offset this writer must materialise data up to: its own
        // write end, or the predecessor snapshot's extent within the touched
        // slots (a partially overwritten chunk keeps the predecessor's bytes).
        let known_size = predecessor_size.max(write_range.end());

        // Ask the chunk service where to put each chunk (the chunk count is
        // known from the slot span alone, so placement can precede payload
        // assembly). The tag salting chunk ids is drawn from the client-owned
        // generator: no thread-local lookup on the hot path.
        let placement = self.chunks.allocate(PlacementRequest {
            chunk_count: slots.len(),
            replication: config.replication,
        })?;
        let write_tag: u64 = self.rng.lock().gen();

        let mut planned = Vec::with_capacity(slots.len());
        let mut payloads = Vec::with_capacity(slots.len());
        for (slot, replicas) in slots.iter().zip(&placement) {
            let payload = self.slot_payload(blob, config, ticket, data, slot, known_size)?;
            planned.push(WrittenChunk {
                slot: slot.index,
                chunk: ChunkId {
                    blob,
                    write_tag,
                    slot: slot.index,
                },
                providers: replicas.clone(),
                len: payload.len() as u64,
            });
            payloads.push(payload);
        }
        let completions =
            self.submit_store_groups(blob, write_tag, codec, &slots, payloads, &placement);
        // Weave while the chunk transfers are in flight: the node keys and
        // chunk ids are deterministic, only the providers of a leaf can
        // differ if a store falls back mid-transfer.
        let woven = build_write_metadata_chained(
            self.metadata.as_ref(),
            blob,
            &ticket.chain,
            ticket.version,
            ticket.new_size,
            &planned,
        );
        // Join before inspecting the weaving outcome: even when weaving
        // failed, every in-flight store must be drained.
        let chunks = self.join_stores(completions)?;
        let mut meta = woven?;
        patch_stored_providers(&mut meta, ticket.version, chunk_size, &chunks);

        // Upload the woven nodes in one batched, shard-grouped publish, then
        // hand the version back to the version manager for in-order
        // publication (done by the caller). The artifacts feed the
        // lifecycle tracker at completion time.
        let node_count = meta.node_count();
        let artifacts = NodeArtifact::from_metadata(&meta);
        publish_metadata(self.metadata.as_ref(), meta)?;
        Ok((node_count, artifacts))
    }

    /// Assembles the payload of one touched chunk slot.
    ///
    /// Fast path: a slot fully covered by the caller's buffer ships as a
    /// reference-counted sub-slice of it — no allocation, no memcpy
    /// ([`ClientStats::payload_bytes_copied`] stays at zero). Only boundary
    /// slots of unaligned writes assemble a fresh buffer, merging the
    /// predecessor snapshot's bytes with at most two range copies (the
    /// prefix and suffix around the written range).
    fn slot_payload(
        &self,
        blob: BlobId,
        config: &BlobConfig,
        ticket: &WriteTicket,
        data: &Bytes,
        slot: &ChunkSlot,
        known_size: u64,
    ) -> Result<Bytes> {
        let chunk_size = ticket.chunk_size;
        let write_range = ByteRange::new(ticket.offset, data.len() as u64);
        let predecessor_size = ticket.chain.predecessor_size();
        let slot_range = slot.range();
        let payload_len = chunk_size.min(known_size - slot_range.offset);
        let valid = ByteRange::new(slot_range.offset, payload_len);

        // Zero-copy fast path: the write covers the whole slot payload.
        if valid.offset >= write_range.offset && valid.end() <= write_range.end() {
            let src = (valid.offset - write_range.offset) as usize;
            return Ok(data.slice(src..src + payload_len as usize));
        }

        let mut buf = BytesMut::zeroed(payload_len as usize);
        let mut copied = 0u64;

        // Bytes coming from this write.
        if let Some(from_write) = valid.intersect(&write_range) {
            let src = (from_write.offset - write_range.offset) as usize;
            let dst = (from_write.offset - valid.offset) as usize;
            let n = from_write.len as usize;
            buf[dst..dst + n].copy_from_slice(&data[src..src + n]);
            copied += from_write.len;
        }

        // Boundary bytes preserved from the predecessor snapshot (which may
        // include concurrent writers whose versions precede ours): the slice
        // of `valid` before the write range (prefix) and after it (suffix),
        // both clamped to the predecessor's extent. One reference read
        // covers their hull — they live in the same chunk — and each lands
        // in the payload with a single range copy.
        let pred_end = predecessor_size.clamp(valid.offset, valid.end());
        let prefix = ByteRange::new(
            valid.offset,
            write_range
                .offset
                .clamp(valid.offset, pred_end)
                .saturating_sub(valid.offset),
        );
        let suffix_start = write_range.end().clamp(valid.offset, valid.end());
        let suffix = ByteRange::new(suffix_start, pred_end.saturating_sub(suffix_start));
        if !prefix.is_empty() || !suffix.is_empty() {
            let old_range = prefix.hull(&suffix);
            let old =
                self.read_reference_range(blob, &ticket.chain, old_range, &config.meta_retry)?;
            for part in [prefix, suffix] {
                if part.is_empty() {
                    continue;
                }
                let src = (part.offset - old_range.offset) as usize;
                let dst = (part.offset - valid.offset) as usize;
                let n = part.len as usize;
                buf[dst..dst + n].copy_from_slice(&old[src..src + n]);
                copied += part.len;
            }
        }
        self.stats
            .payload_bytes_copied
            .fetch_add(copied, Ordering::Relaxed);
        Ok(buf.freeze())
    }

    /// Reads a range as it appears in a writer's *predecessor* snapshot,
    /// which may include concurrent earlier writers whose metadata is still
    /// being woven (used for boundary-chunk merging of unaligned writes).
    ///
    /// When the range falls in a chunk slot an in-flight predecessor claims,
    /// the reader waits briefly for that predecessor's leaf to appear in the
    /// metadata store — the only point where two writers of the *same chunk*
    /// ever synchronise. Holes (and predecessors that died without weaving)
    /// read back as zeros.
    fn read_reference_range(
        &self,
        blob: BlobId,
        chain: &blobseer_meta::ReferenceChain,
        range: ByteRange,
        retry: &RetryPolicy,
    ) -> Result<Vec<u8>> {
        let mut out = vec![0u8; range.len as usize];
        if range.is_empty() {
            return Ok(out);
        }
        let chunk_size = chain.base.chunk_size;
        for slot in chunk_span(range, chunk_size) {
            let slot_range = slot.range();
            let Some(need) = slot_range.intersect(&range) else {
                continue;
            };
            let Some(child) = chain.resolve(self.metadata.as_ref(), blob, slot_range)? else {
                continue; // never written: zeros
            };
            let Some(leaf) = self.wait_for_leaf(blob, child, retry)? else {
                continue; // predecessor never completed: repaired to a hole
            };
            if leaf.is_hole() {
                continue;
            }
            let data = self.fetch_chunk(&leaf)?;
            let valid = ByteRange::new(slot_range.offset, leaf.len.min(data.len() as u64));
            let Some(copy) = valid.intersect(&need) else {
                continue;
            };
            let src = (copy.offset - valid.offset) as usize;
            let dst = (copy.offset - range.offset) as usize;
            let n = copy.len as usize;
            out[dst..dst + n].copy_from_slice(&data[src..src + n]);
        }
        Ok(out)
    }

    /// Fetches the leaf node referenced by `child`, following aliases and
    /// waiting (bounded exponential backoff, configured per blob) for nodes
    /// a concurrent writer has not stored yet.
    fn wait_for_leaf(
        &self,
        blob: BlobId,
        child: blobseer_meta::ChildRef,
        retry: &RetryPolicy,
    ) -> Result<Option<LeafNode>> {
        let mut target = child;
        let mut missed = 0u32;
        for attempt in 0..retry.max_attempts {
            // `Err` (metadata plane unreachable) propagates immediately: the
            // node may well exist, so treating the failure as "not written
            // yet" and eventually weaving a hole would corrupt the merge.
            // Only an authoritative `Ok(None)` keeps the backoff wait going.
            match self.metadata.get_node(&target.key(blob))? {
                Some(blobseer_meta::NodeBody::Leaf(leaf)) => return Ok(Some(leaf)),
                Some(blobseer_meta::NodeBody::Alias(next)) => target = next,
                Some(blobseer_meta::NodeBody::Inner(_)) => {
                    return Err(BlobError::Internal(format!(
                        "expected a leaf at {}, found an inner node",
                        target.key(blob)
                    )))
                }
                None => {
                    if attempt + 1 == retry.max_attempts {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_micros(retry.delay_us(missed)));
                    missed += 1;
                }
            }
        }
        Ok(None)
    }

    /// Groups a write's chunk stores by their assigned replica set and
    /// submits one transfer-scheduler task per group. Round-robin placement
    /// gives every provider one group per write, so each group leaves the
    /// client as a single batched `put_chunks` — on a networked transport
    /// that is one pipelined send per provider (client-side frame
    /// coalescing) instead of one round of lock-step round-trips per chunk.
    fn submit_store_groups(
        &self,
        blob: BlobId,
        write_tag: u64,
        codec: ChunkCodec,
        slots: &[ChunkSlot],
        payloads: Vec<Bytes>,
        placement: &[Vec<ProviderId>],
    ) -> Vec<Completion<Result<Vec<WrittenChunk>>>> {
        // First-seen order keeps submission deterministic (and matches the
        // slot order placement was computed in).
        let mut order: Vec<&Vec<ProviderId>> = Vec::new();
        let mut groups: HashMap<&Vec<ProviderId>, Vec<(u64, Bytes)>> = HashMap::new();
        for ((slot, payload), replicas) in slots.iter().zip(payloads).zip(placement) {
            groups
                .entry(replicas)
                .or_insert_with(|| {
                    order.push(replicas);
                    Vec::new()
                })
                .push((slot.index, payload));
        }
        order
            .into_iter()
            .map(|replicas| {
                let items = groups.remove(replicas).expect("group exists");
                self.submit_store_group(blob, write_tag, codec, items, replicas.clone())
            })
            .collect()
    }

    /// Submits the store of one group of chunks sharing a replica set to
    /// the transfer scheduler, tagged with the primary provider so
    /// placement sees the in-flight load. Falls back to other live
    /// providers per chunk when an assigned one fails mid-write. Stored
    /// chunks are written through to the chunk cache so reading your own
    /// writes never costs a data round-trip; for fast-path payloads
    /// (zero-copy views of the caller's buffer) the cache compacts the view
    /// on insert — one chunk-bounded memcpy, on the pool worker, counted in
    /// `ChunkCacheStats::bytes_compacted` — so its budget bounds real
    /// memory. With the cache off the write path stays copy-free end to
    /// end.
    ///
    /// This is also where the chunk codec runs: each payload is sealed into
    /// its envelope on the pool worker (so compression overlaps other
    /// transfers), the envelope is what travels and gets stored, and the
    /// cache keeps the *decompressed* payload. With codec `Off` — or when
    /// compression does not win — sealing is a refcount bump, preserving
    /// `payload_bytes_copied == 0` for aligned writes.
    fn submit_store_group(
        &self,
        blob: BlobId,
        write_tag: u64,
        codec: ChunkCodec,
        items: Vec<(u64, Bytes)>,
        replicas: Vec<ProviderId>,
    ) -> Completion<Result<Vec<WrittenChunk>>> {
        let service = Arc::clone(&self.chunks);
        let cache = self.chunk_cache.clone();
        let stats = Arc::clone(&self.stats);
        let primary = replicas.first().copied();
        // Admission gate: taken here on the submitting thread (blocking
        // *this* client when it is over budget), released when the pool
        // task finishes because the permit moves into the closure.
        let permit = self.admission.as_ref().map(|a| a.acquire(self.id));
        self.transfers.submit_for(primary, move || {
            let _permit = permit;
            let chunks: Vec<(ChunkId, ChunkEnvelope)> = items
                .iter()
                .map(|(slot, data)| {
                    let sealed = blobseer_codec::seal(codec, data.clone());
                    if !sealed.is_verbatim() {
                        stats.chunks_compressed.fetch_add(1, Ordering::Relaxed);
                        stats.compress_saved_bytes.fetch_add(
                            sealed.logical_len() - sealed.physical_len(),
                            Ordering::Relaxed,
                        );
                    }
                    (
                        ChunkId {
                            blob,
                            write_tag,
                            slot: *slot,
                        },
                        sealed,
                    )
                })
                .collect();
            let stored = store_group_replicas(service.as_ref(), &chunks, &replicas)?;
            if let Some(cache) = &cache {
                for ((_, data), (chunk, _)) in items.iter().zip(&chunks) {
                    cache.insert(*chunk, data.clone());
                }
            }
            Ok(items
                .into_iter()
                .zip(chunks)
                .zip(stored)
                .map(|(((_, data), (chunk, _)), providers)| WrittenChunk {
                    slot: chunk.slot,
                    chunk,
                    providers,
                    len: data.len() as u64,
                })
                .collect())
        })
    }

    /// Joins every submitted store group, returning the written-chunk
    /// records in slot order. All completions are drained even when one
    /// fails, so no store is left dangling on the pool. Each join is bounded
    /// by the pool's `io_timeout`-derived join timeout: a store stuck on a
    /// hung endpoint fails this write (which then repairs and aborts)
    /// instead of blocking the scheduler forever.
    fn join_stores(
        &self,
        completions: Vec<Completion<Result<Vec<WrittenChunk>>>>,
    ) -> Result<Vec<WrittenChunk>> {
        let mut chunks = Vec::with_capacity(completions.len());
        let mut first_err = None;
        for completion in completions {
            match self.transfers.join_within(completion) {
                Ok(Ok(written)) => chunks.extend(written),
                Ok(Err(err)) | Err(err) => first_err = first_err.or(Some(err)),
            }
        }
        if let Some(err) = first_err {
            return Err(err);
        }
        let pushed: u64 = chunks.iter().map(|c| c.providers.len() as u64).sum();
        self.stats
            .chunks_written
            .fetch_add(pushed, Ordering::Relaxed);
        chunks.sort_by_key(|c| c.slot);
        Ok(chunks)
    }

    /// Fetches one chunk from any provider holding a replica (inline, used
    /// by the boundary-merge path which reads a handful of chunks at most).
    /// Consults the chunk cache first; immutability makes a hit correct
    /// regardless of how old the entry is.
    fn fetch_chunk(&self, leaf: &LeafNode) -> Result<Bytes> {
        if let Some(cache) = &self.chunk_cache {
            if let Some(data) = cache.get(&leaf.chunk) {
                self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(data);
            }
            self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        let start: usize = self.rng.lock().gen();
        let data = fetch_chunk_replica(self.chunks.as_ref(), leaf, start)?;
        self.stats.chunks_read.fetch_add(1, Ordering::Relaxed);
        if let Some(cache) = &self.chunk_cache {
            cache.insert(leaf.chunk, data.clone());
        }
        Ok(data)
    }

    /// Splits one tree level's leaves into request trains. The chunk cache
    /// is consulted first: a hit lands straight in `hits` — no round-trip,
    /// no queueing, no copy, no admission permit. Each miss takes the next
    /// rotated replica-probe start from `next_start` (so rotation stays per
    /// chunk) and joins the train of the replica that start tries first.
    /// Trains keep first-seen order and hold at most `cap` chunks. A leaf
    /// naming no replica at all cannot be fetched and fails the read
    /// through `fetch_err`.
    fn plan_trains(
        &self,
        level: &[blobseer_meta::LeafMapping],
        next_start: &mut usize,
        cap: usize,
        hits: &mut Vec<FetchedChunk>,
        fetch_err: &mut Option<BlobError>,
    ) -> Vec<(ProviderId, Vec<PlannedFetch>)> {
        let mut trains: Vec<(ProviderId, Vec<PlannedFetch>)> = Vec::new();
        for mapping in level {
            let Some(leaf) = mapping.leaf.clone() else {
                continue; // hole: reads back as zeros
            };
            if let Some(cache) = &self.chunk_cache {
                if let Some(data) = cache.get(&leaf.chunk) {
                    self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    hits.push((mapping.slot_range, leaf, data));
                    continue;
                }
                self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
            let start = *next_start;
            *next_start = start.wrapping_add(1);
            let Some(&first) = leaf.providers.get(start % leaf.providers.len().max(1)) else {
                *fetch_err = fetch_err
                    .take()
                    .or(Some(BlobError::ChunkNotFound(leaf.chunk, ProviderId(0))));
                continue;
            };
            let fetch = (mapping.slot_range, leaf, start);
            match trains
                .iter_mut()
                .find(|(pid, train)| *pid == first && train.len() < cap)
            {
                Some((_, train)) => train.push(fetch),
                None => trains.push((first, vec![fetch])),
            }
        }
        trains
    }

    /// Submits one request train — every chunk of a level whose rotated
    /// probe tries `provider` first — as one transfer-scheduler task, with
    /// one admission permit and one in-flight tag, exactly as
    /// [`BlobClient::submit_store_group`] does per store group. The task
    /// fetches the whole train with one `get_chunks` (one flush of frames on
    /// a networked transport); a chunk the train could not deliver — the
    /// provider failed, lacks it, or sent an envelope that will not open —
    /// probes its remaining replicas alone, in the same rotated order a
    /// lone fetch would. Fetched chunks fill the cache on the way back.
    fn submit_train(
        &self,
        provider: ProviderId,
        train: Vec<PlannedFetch>,
    ) -> Completion<Result<Vec<FetchedChunk>>> {
        let service = Arc::clone(&self.chunks);
        let cache = self.chunk_cache.clone();
        let stats = Arc::clone(&self.stats);
        let permit = self.admission.as_ref().map(|a| a.acquire(self.id));
        self.transfers.submit_for(Some(provider), move || {
            let _permit = permit;
            let (fetched, err) = fetch_train(service.as_ref(), provider, train);
            // Chunks that arrived count and fill the cache even when a
            // neighbour failed the read.
            stats
                .chunks_read
                .fetch_add(fetched.len() as u64, Ordering::Relaxed);
            if let Some(cache) = &cache {
                for (_, leaf, data) in &fetched {
                    cache.insert(leaf.chunk, data.clone());
                }
            }
            err.map_or(Ok(fetched), Err)
        })
    }

    /// The pipelined read path: walks the snapshot's segment tree level by
    /// level and submits each level's chunk fetches to the transfer
    /// scheduler — one request train per first-probed replica — while
    /// deeper levels are still being batched, so metadata descent and data
    /// transfer overlap. At most `pipeline_depth` levels' worth of chunks
    /// per pool worker stay in flight (the oldest trains are harvested
    /// first — that is the backpressure of the pipeline), and no train
    /// carries more than that window.
    fn fetch_chunks_pipelined(
        &self,
        blob: BlobId,
        snapshot: &SnapshotDescriptor,
        range: ByteRange,
    ) -> Result<Vec<FetchedChunk>> {
        // Seeded once per read; each fetched chunk takes the next value.
        let mut next_start: usize = self.rng.lock().gen();
        let cap = self
            .pipeline_depth
            .saturating_mul(self.transfers.worker_count().max(1))
            .max(1);
        // In-flight trains, oldest first, with the chunk count of each.
        let mut pending: VecDeque<(usize, Completion<Result<Vec<FetchedChunk>>>)> = VecDeque::new();
        let mut in_flight = 0usize;
        let mut fetched = Vec::new();
        let mut fetch_err: Option<BlobError> = None;
        let walk = collect_leaves_streaming(
            self.metadata.as_ref(),
            blob,
            snapshot,
            range,
            |level: &[blobseer_meta::LeafMapping]| {
                let trains =
                    self.plan_trains(level, &mut next_start, cap, &mut fetched, &mut fetch_err);
                for (provider, train) in trains {
                    in_flight += train.len();
                    pending.push_back((train.len(), self.submit_train(provider, train)));
                    while in_flight > cap {
                        let (chunks, oldest) = pending.pop_front().expect("in flight > cap >= 1");
                        in_flight -= chunks;
                        match self.transfers.join_within(oldest) {
                            Ok(Ok(items)) => fetched.extend(items),
                            Ok(Err(err)) | Err(err) => {
                                fetch_err = fetch_err.take().or(Some(err));
                            }
                        }
                    }
                }
            },
        );
        // Drain every in-flight train before propagating any error — a
        // failing metadata shard mid-descent must never leave submissions
        // dangling on the shared pool (and must not deadlock this client).
        // A descent error still takes precedence over a fetch error.
        let joined = self.join_fetches(pending.into_iter().map(|(_, c)| c), fetched, fetch_err);
        walk?;
        joined
    }

    /// Joins submitted trains into `out`, draining all of them even when
    /// one fails (`first_err` carries an error from completions already
    /// harvested by the caller). Joins are bounded by the pool's
    /// `io_timeout`-derived join timeout, so a train stuck on a hung
    /// endpoint fails the read instead of blocking it forever.
    fn join_fetches(
        &self,
        completions: impl IntoIterator<Item = Completion<Result<Vec<FetchedChunk>>>>,
        mut out: Vec<FetchedChunk>,
        mut first_err: Option<BlobError>,
    ) -> Result<Vec<FetchedChunk>> {
        for completion in completions {
            match self.transfers.join_within(completion) {
                Ok(Ok(items)) => out.extend(items),
                Ok(Err(err)) | Err(err) => first_err = first_err.take().or(Some(err)),
            }
        }
        if let Some(err) = first_err {
            return Err(err);
        }
        // `chunks_read` is accounted by the train tasks themselves: cache
        // hits already in `out` never touched a provider and must not count.
        Ok(out)
    }
}

/// Rewrites the leaves of freshly woven (not yet published) metadata whose
/// chunk stores fell back to substitute providers mid-transfer, so readers
/// look for replicas where they actually landed. Everything else about a
/// leaf — chunk id, length, slot — is deterministic and already correct.
fn patch_stored_providers(
    meta: &mut WriteMetadata,
    version: Version,
    chunk_size: u64,
    stored: &[WrittenChunk],
) {
    let by_slot: HashMap<u64, &WrittenChunk> = stored.iter().map(|c| (c.slot, c)).collect();
    for (key, body) in &mut meta.nodes {
        if key.version != version || key.range.len != chunk_size {
            continue;
        }
        let blobseer_meta::NodeBody::Leaf(leaf) = body else {
            continue;
        };
        if let Some(actual) = by_slot.get(&(key.range.offset / chunk_size)) {
            if leaf.providers != actual.providers {
                leaf.providers = actual.providers.clone();
            }
        }
    }
}

/// Stores a group of chunks sharing one replica set, batching the puts per
/// provider (`ChunkService::put_chunks`) and substituting other live
/// providers per chunk for failed ones. Every chunk must land on at least
/// one provider; the per-chunk stored lists come back in group order.
fn store_group_replicas(
    service: &dyn ChunkService,
    chunks: &[(ChunkId, ChunkEnvelope)],
    replicas: &[ProviderId],
) -> Result<Vec<Vec<ProviderId>>> {
    let mut stored: Vec<Vec<ProviderId>> = vec![Vec::with_capacity(replicas.len()); chunks.len()];
    let mut any_failed = false;
    for &pid in replicas {
        for (chunk_stored, outcome) in stored.iter_mut().zip(service.put_chunks(pid, chunks)) {
            match outcome {
                Ok(()) => chunk_stored.push(pid),
                Err(_) => any_failed = true,
            }
        }
    }
    if any_failed {
        // Try to restore the replication level per chunk using live
        // providers outside the assigned (and already-probed) replica set.
        let mut candidates = service.live_providers();
        candidates.retain(|p| !replicas.contains(p));
        for ((chunk, data), chunk_stored) in chunks.iter().zip(stored.iter_mut()) {
            for &pid in &candidates {
                if chunk_stored.len() >= replicas.len() {
                    break;
                }
                if service.put_chunk(pid, *chunk, data.clone()).is_ok() {
                    chunk_stored.push(pid);
                }
            }
        }
    }
    if stored.iter().any(Vec::is_empty) {
        return Err(BlobError::InsufficientProviders {
            needed: 1,
            available: 0,
        });
    }
    Ok(stored)
}

/// Fetches one chunk from any replica, probing the providers in rotated
/// order starting at `start % replicas`. Probing the stored order verbatim
/// would make replica 0 of every chunk a read hotspot and leave the other
/// replicas cold; the rotation (seeded per operation from the client-owned
/// RNG) spreads concurrent readers over all replicas.
///
/// The fetched envelope is opened here — the single decompression point of
/// the read path. A replica whose envelope fails to open (a corrupted
/// compressed block) is treated exactly like an unreachable one: the probe
/// moves on to the next replica.
fn fetch_chunk_replica(service: &dyn ChunkService, leaf: &LeafNode, start: usize) -> Result<Bytes> {
    let not_found = BlobError::ChunkNotFound(
        leaf.chunk,
        leaf.providers.first().copied().unwrap_or(ProviderId(0)),
    );
    probe_replicas(service, leaf, start, 0, not_found)
}

/// Fetches one request train — chunks whose rotated probe tries `provider`
/// first — with one `get_chunks`, returning the chunks it delivered (opened,
/// in train order) and the first error, if any chunk failed for good.
///
/// A chunk the train did not deliver probes its other replicas alone, from
/// rotation step 1. A `get_chunks` may give up on its provider after one
/// chunk's retries fail at the transport level (see
/// [`ChunkService::get_chunks`]); the chunks after that one had no try of
/// their own, so a chunk among them that has no other replica retries this
/// one. Once a chunk has failed for good the read has failed, and the rest
/// of the train probes no further.
fn fetch_train(
    service: &dyn ChunkService,
    provider: ProviderId,
    train: Vec<PlannedFetch>,
) -> (Vec<FetchedChunk>, Option<BlobError>) {
    let ids: Vec<ChunkId> = train.iter().map(|(_, leaf, _)| leaf.chunk).collect();
    let envelopes = service.get_chunks(provider, &ids);
    let mut fetched = Vec::with_capacity(train.len());
    let mut first_err = None;
    let mut provider_failed = false;
    for ((slot_range, leaf, start), envelope) in train.into_iter().zip(envelopes) {
        let data = envelope
            .and_then(|envelope| blobseer_codec::open(&envelope))
            .or_else(|err| {
                if first_err.is_some() {
                    return Err(err);
                }
                let transport = matches!(err, BlobError::Transport(_));
                let retry_lone = transport && provider_failed && leaf.providers.len() == 1;
                provider_failed |= transport;
                probe_replicas(service, &leaf, start, usize::from(!retry_lone), err)
            });
        match data {
            Ok(data) => fetched.push((slot_range, leaf, data)),
            Err(err) => first_err = first_err.or(Some(err)),
        }
    }
    (fetched, first_err)
}

/// The probe loop of [`fetch_chunk_replica`], entered at rotation step
/// `from`: a chunk whose request train already tried replica step 0 probes
/// the rest from step 1. `last_err` is what the caller reports when no
/// replica is left to try.
fn probe_replicas(
    service: &dyn ChunkService,
    leaf: &LeafNode,
    start: usize,
    from: usize,
    mut last_err: BlobError,
) -> Result<Bytes> {
    let replicas = leaf.providers.len();
    for k in from..replicas {
        let pid = leaf.providers[start.wrapping_add(k) % replicas];
        match service
            .get_chunk(pid, &leaf.chunk)
            .and_then(|envelope| blobseer_codec::open(&envelope))
        {
            Ok(data) => return Ok(data),
            Err(err) => last_err = err,
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use blobseer_types::ClusterConfig;

    const CS: u64 = 64;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::small()).unwrap()
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn append_then_read_roundtrip() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let data = pattern(300, 1);
        let v = client.append(blob, &data).unwrap();
        assert_eq!(v, Version(1));
        assert_eq!(client.size(blob, None).unwrap(), 300);
        assert_eq!(client.read_all(blob, None).unwrap(), data);
        assert_eq!(client.read(blob, None, 10, 50).unwrap(), data[10..60]);
    }

    #[test]
    fn writes_produce_new_versions_and_old_ones_stay_readable() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let v1_data = pattern(4 * CS as usize, 1);
        let v1 = client.append(blob, &v1_data).unwrap();

        // Overwrite the middle two chunks.
        let patch = pattern(2 * CS as usize, 9);
        let v2 = client.write(blob, CS, &patch).unwrap();
        assert_eq!(v2, Version(2));

        // v2 sees the patch, v1 does not (snapshot isolation).
        let mut expected_v2 = v1_data.clone();
        expected_v2[CS as usize..3 * CS as usize].copy_from_slice(&patch);
        assert_eq!(client.read_all(blob, Some(v2)).unwrap(), expected_v2);
        assert_eq!(client.read_all(blob, Some(v1)).unwrap(), v1_data);
        assert_eq!(
            client.published_versions(blob).unwrap(),
            vec![Version(0), Version(1), Version(2)]
        );
    }

    #[test]
    fn unaligned_writes_merge_boundary_bytes() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let base = pattern(3 * CS as usize, 2);
        client.append(blob, &base).unwrap();

        // Write 10 bytes in the middle of chunk 1.
        let patch = pattern(10, 77);
        client.write(blob, CS + 20, &patch).unwrap();
        let mut expected = base.clone();
        expected[(CS + 20) as usize..(CS + 30) as usize].copy_from_slice(&patch);
        assert_eq!(client.read_all(blob, None).unwrap(), expected);
    }

    #[test]
    fn write_past_the_end_zero_fills_the_gap() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        client.append(blob, pattern(CS as usize, 3)).unwrap();
        // Leave a two-chunk hole before the new data.
        let tail = pattern(CS as usize, 4);
        client.write(blob, 3 * CS, &tail).unwrap();
        let all = client.read_all(blob, None).unwrap();
        assert_eq!(all.len(), 4 * CS as usize);
        assert_eq!(&all[..CS as usize], &pattern(CS as usize, 3)[..]);
        assert!(all[CS as usize..3 * CS as usize].iter().all(|&b| b == 0));
        assert_eq!(&all[3 * CS as usize..], &tail[..]);
    }

    #[test]
    fn replicated_blob_survives_a_provider_failure() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 2).unwrap()).unwrap();
        let data = pattern(4 * CS as usize, 5);
        client.append(blob, &data).unwrap();

        // Fail one provider: every chunk still has a replica elsewhere.
        cluster.fail_provider(ProviderId(0)).unwrap();
        assert_eq!(client.read_all(blob, None).unwrap(), data);
    }

    #[test]
    fn unreplicated_blob_reports_unavailable_chunks() {
        // Cache off: with the default write-through cache the client would
        // (correctly) keep serving this read locally; the test is about
        // what an uncached read of an unreachable blob reports.
        let cluster = Cluster::new(ClusterConfig {
            chunk_cache_bytes: 0,
            ..ClusterConfig::small()
        })
        .unwrap();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        client.append(blob, pattern(4 * CS as usize, 6)).unwrap();
        // Fail every provider: reads must fail, not return garbage.
        for i in 0..4 {
            cluster.fail_provider(ProviderId(i)).unwrap();
        }
        assert!(client.read_all(blob, None).is_err());
    }

    #[test]
    fn writes_fall_back_to_live_providers() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        // Fail two of the four providers; writes keep succeeding on the rest.
        cluster.fail_provider(ProviderId(1)).unwrap();
        cluster.fail_provider(ProviderId(2)).unwrap();
        let data = pattern(8 * CS as usize, 7);
        client.append(blob, &data).unwrap();
        assert_eq!(client.read_all(blob, None).unwrap(), data);
    }

    #[test]
    fn failed_write_aborts_cleanly_and_blob_stays_usable() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        client.append(blob, pattern(CS as usize, 8)).unwrap();

        // Fail every provider: the next write cannot store chunks.
        for i in 0..4 {
            cluster.fail_provider(ProviderId(i)).unwrap();
        }
        let err = client.append(blob, pattern(CS as usize, 9)).unwrap_err();
        assert!(matches!(err, BlobError::InsufficientProviders { .. }));
        assert_eq!(client.stats().failed_writes, 1);

        // Recover and keep writing: the aborted version was repaired, so the
        // blob is still fully readable and writable.
        for i in 0..4 {
            cluster.recover_provider(ProviderId(i)).unwrap();
        }
        let data = pattern(CS as usize, 10);
        client.append(blob, &data).unwrap();
        let all = client.read_all(blob, None).unwrap();
        // Layout: first append, aborted (zeroed) region, final append.
        assert_eq!(all.len(), 3 * CS as usize);
        assert_eq!(&all[..CS as usize], &pattern(CS as usize, 8)[..]);
        assert!(all[CS as usize..2 * CS as usize].iter().all(|&b| b == 0));
        assert_eq!(&all[2 * CS as usize..], &data[..]);
    }

    #[test]
    fn empty_operations_are_rejected_or_trivial() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        assert!(matches!(
            client.append(blob, &[]),
            Err(BlobError::EmptyWrite)
        ));
        assert!(matches!(
            client.write(blob, 0, &[]),
            Err(BlobError::EmptyWrite)
        ));
        client.append(blob, &[1, 2, 3]).unwrap();
        assert_eq!(client.read(blob, None, 1, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn out_of_bounds_reads_are_rejected() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        client.append(blob, pattern(100, 1)).unwrap();
        assert!(matches!(
            client.read(blob, None, 50, 100),
            Err(BlobError::ReadOutOfBounds { .. })
        ));
        assert!(client.read(blob, Some(Version(9)), 0, 1).is_err());
    }

    #[test]
    fn chunk_locations_expose_providers_per_slot() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 2).unwrap()).unwrap();
        client.append(blob, pattern(4 * CS as usize, 3)).unwrap();
        let locations = client
            .chunk_locations(blob, None, ByteRange::new(0, 4 * CS))
            .unwrap();
        assert_eq!(locations.len(), 4);
        for (slot_range, providers) in &locations {
            assert_eq!(slot_range.len, CS);
            assert_eq!(
                providers.len(),
                2,
                "replication 2 means two providers per slot"
            );
        }
        // Round-robin placement spreads the slots over different providers.
        let distinct: std::collections::HashSet<ProviderId> = locations
            .iter()
            .flat_map(|(_, p)| p.iter().copied())
            .collect();
        assert!(distinct.len() >= 3);
    }

    #[test]
    fn concurrent_appenders_produce_a_consistent_log() {
        let cluster = Cluster::new(ClusterConfig {
            data_providers: 8,
            metadata_providers: 4,
            ..ClusterConfig::default()
        })
        .unwrap();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();

        let writers = 8;
        let appends_per_writer = 10;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let client = cluster.client();
                scope.spawn(move || {
                    for i in 0..appends_per_writer {
                        let fill = (w * appends_per_writer + i + 1) as u8;
                        let data = vec![fill; CS as usize];
                        client.append(blob, &data).unwrap();
                    }
                });
            }
        });

        // All appends are visible, each chunk-sized region is uniformly
        // filled with one writer's byte, and no region was lost.
        let size = client.size(blob, None).unwrap();
        assert_eq!(size, writers as u64 * appends_per_writer as u64 * CS);
        let all = client.read_all(blob, None).unwrap();
        let mut seen = std::collections::HashSet::new();
        for chunk in all.chunks(CS as usize) {
            assert!(chunk.iter().all(|&b| b == chunk[0]), "torn append detected");
            assert!(chunk[0] != 0);
            seen.insert(chunk[0]);
        }
        assert_eq!(seen.len(), writers * appends_per_writer);
        assert_eq!(
            client.latest_version(blob).unwrap(),
            Version((writers * appends_per_writer) as u64)
        );
    }

    #[test]
    fn concurrent_readers_and_writers_do_not_interfere() {
        let cluster = Cluster::new(ClusterConfig {
            data_providers: 8,
            metadata_providers: 4,
            ..ClusterConfig::default()
        })
        .unwrap();
        let setup = cluster.client();
        let blob = setup.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        setup.append(blob, vec![1u8; 4 * CS as usize]).unwrap();

        std::thread::scope(|scope| {
            // Writers keep appending new snapshots.
            for w in 0..4 {
                let client = cluster.client();
                scope.spawn(move || {
                    for i in 0..10 {
                        let fill = 10 + w * 10 + i;
                        client.append(blob, vec![fill as u8; CS as usize]).unwrap();
                    }
                });
            }
            // Readers repeatedly read the *latest published* snapshot; every
            // read must be internally consistent (uniform chunk regions).
            for _ in 0..4 {
                let client = cluster.client();
                scope.spawn(move || {
                    for _ in 0..20 {
                        let data = client.read_all(blob, None).unwrap();
                        assert!(data.len() >= 4 * CS as usize);
                        for chunk in data.chunks(CS as usize) {
                            assert!(
                                chunk.iter().all(|&b| b == chunk[0]),
                                "readers must never observe torn writes"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn zero_pipeline_depth_is_clamped_to_one() {
        // Clients built from raw handles bypass `ClusterConfig::validate`;
        // a zero window would otherwise never admit a fetch.
        let cluster = cluster();
        let client = cluster.client().with_pipeline_depth(0);
        assert_eq!(client.pipeline_depth(), 1);
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let data = pattern(5 * CS as usize + 17, 3);
        client.append(blob, &data).unwrap();
        assert_eq!(client.read_all(blob, None).unwrap(), data);
    }

    #[test]
    fn fetch_chunk_replica_probes_in_rotated_order() {
        let cluster = cluster();
        let svc = cluster.chunk_service();
        let chunk = ChunkId {
            blob: BlobId(7),
            write_tag: 1,
            slot: 0,
        };
        let payload = bytes::Bytes::from_static(b"replica");
        svc.put_chunk(ProviderId(1), chunk, payload.clone().into())
            .unwrap();
        svc.put_chunk(ProviderId(2), chunk, payload.clone().into())
            .unwrap();
        let leaf = LeafNode {
            chunk,
            providers: vec![ProviderId(1), ProviderId(2)],
            len: payload.len() as u64,
        };
        // start = 0 probes provider 1 first, start = 1 probes provider 2.
        fetch_chunk_replica(svc.as_ref(), &leaf, 0).unwrap();
        assert_eq!(cluster.provider(ProviderId(1)).unwrap().stats().reads, 1);
        assert_eq!(cluster.provider(ProviderId(2)).unwrap().stats().reads, 0);
        fetch_chunk_replica(svc.as_ref(), &leaf, 1).unwrap();
        assert_eq!(cluster.provider(ProviderId(2)).unwrap().stats().reads, 1);
        // A dead preferred replica falls through to the next in rotation.
        cluster.fail_provider(ProviderId(2)).unwrap();
        fetch_chunk_replica(svc.as_ref(), &leaf, 1).unwrap();
        assert_eq!(cluster.provider(ProviderId(1)).unwrap().stats().reads, 2);
    }

    /// A chunk service whose every `get_chunks` has given up on its
    /// provider at the transport level — as a networked one does once one
    /// chunk's retries there have failed — while single fetches go through.
    struct TrainsGiveUp(Arc<dyn ChunkService>);

    impl ChunkService for TrainsGiveUp {
        fn allocate(
            &self,
            request: blobseer_provider::PlacementRequest,
        ) -> Result<Vec<Vec<ProviderId>>> {
            self.0.allocate(request)
        }
        fn live_providers(&self) -> Vec<ProviderId> {
            self.0.live_providers()
        }
        fn put_chunk(
            &self,
            provider: ProviderId,
            chunk: ChunkId,
            data: ChunkEnvelope,
        ) -> Result<()> {
            self.0.put_chunk(provider, chunk, data)
        }
        fn get_chunk(&self, provider: ProviderId, chunk: &ChunkId) -> Result<ChunkEnvelope> {
            self.0.get_chunk(provider, chunk)
        }
        fn get_chunks(&self, _: ProviderId, chunks: &[ChunkId]) -> Vec<Result<ChunkEnvelope>> {
            chunks
                .iter()
                .map(|_| Err(BlobError::Transport("provider gave up".into())))
                .collect()
        }
    }

    #[test]
    fn a_train_that_gave_up_retries_only_the_lone_replicas_it_never_tried() {
        let cluster = cluster();
        let svc = TrainsGiveUp(Arc::clone(cluster.chunk_service()) as Arc<dyn ChunkService>);
        let reads = |id| cluster.provider(ProviderId(id)).unwrap().stats().reads;
        let payload = bytes::Bytes::from_static(b"train");
        let stored = |slot, providers: Vec<ProviderId>| {
            let chunk = ChunkId {
                blob: BlobId(9),
                write_tag: 1,
                slot,
            };
            for &pid in &providers {
                svc.put_chunk(pid, chunk, payload.clone().into()).unwrap();
            }
            let leaf = LeafNode {
                chunk,
                providers,
                len: payload.len() as u64,
            };
            (ByteRange::new(slot * CS, CS), leaf, 0)
        };
        let replicated = stored(0, vec![ProviderId(1), ProviderId(2)]);
        let lone = stored(1, vec![ProviderId(1)]);

        // The replicated chunk fails first — the one whose retries the
        // provider failed — and moves on to its other replica; the lone one
        // after it never had a try of its own, so it retries provider 1.
        let (fetched, err) =
            fetch_train(&svc, ProviderId(1), vec![replicated.clone(), lone.clone()]);
        assert!(err.is_none());
        assert_eq!(fetched.len(), 2);
        assert!(fetched.iter().all(|(_, _, data)| *data == payload));
        assert_eq!((reads(1), reads(2)), (1, 1));

        // Led by the lone chunk, the train's first failure is that chunk's
        // own: no replica is left, the read has failed, and nothing after
        // it is probed.
        let (fetched, err) = fetch_train(&svc, ProviderId(1), vec![lone, replicated]);
        assert!(matches!(err, Some(BlobError::Transport(_))));
        assert!(fetched.is_empty());
        assert_eq!((reads(1), reads(2)), (1, 1));
    }

    /// A version service that publishes one overwrite right after its first
    /// snapshot lookup has answered — the window between resolving a
    /// version and reading it — and counts the lookups.
    struct RacingVersions {
        inner: Arc<crate::VersionManager>,
        race: Mutex<Option<Box<dyn FnOnce() + Send>>>,
        lookups: AtomicU64,
    }

    impl RacingVersions {
        fn looked_up<T>(&self, answer: Result<T>) -> Result<T> {
            self.lookups.fetch_add(1, Ordering::Relaxed);
            let race = self.race.lock().take();
            if let Some(race) = race {
                race();
            }
            answer
        }
    }

    impl VersionService for RacingVersions {
        fn create_blob(&self, config: BlobConfig) -> Result<BlobId> {
            VersionService::create_blob(self.inner.as_ref(), config)
        }
        fn blob_config(&self, blob: BlobId) -> Result<BlobConfig> {
            VersionService::blob_config(self.inner.as_ref(), blob)
        }
        fn latest_snapshot(&self, blob: BlobId) -> Result<SnapshotDescriptor> {
            self.looked_up(VersionService::latest_snapshot(self.inner.as_ref(), blob))
        }
        fn snapshot(&self, blob: BlobId, version: Version) -> Result<SnapshotDescriptor> {
            self.looked_up(VersionService::snapshot(self.inner.as_ref(), blob, version))
        }
        fn published_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
            VersionService::published_versions(self.inner.as_ref(), blob)
        }
        fn assign_ticket(&self, blob: BlobId, kind: WriteKind) -> Result<WriteTicket> {
            VersionService::assign_ticket(self.inner.as_ref(), blob, kind)
        }
        fn complete_write(
            &self,
            blob: BlobId,
            version: Version,
            artifacts: Option<Vec<NodeArtifact>>,
        ) -> Result<Version> {
            VersionService::complete_write(self.inner.as_ref(), blob, version, artifacts)
        }
        fn abort_write(
            &self,
            blob: BlobId,
            version: Version,
            artifacts: Option<Vec<NodeArtifact>>,
        ) -> Result<Version> {
            VersionService::abort_write(self.inner.as_ref(), blob, version, artifacts)
        }
        fn pin(&self, blob: BlobId, version: Option<Version>) -> Result<(SnapshotDescriptor, u64)> {
            self.looked_up(VersionService::pin(self.inner.as_ref(), blob, version))
        }
        fn unpin(&self, blob: BlobId, version: Version, token: u64) {
            VersionService::unpin(self.inner.as_ref(), blob, version, token);
        }
    }

    #[test]
    fn read_all_returns_one_snapshot_even_when_a_write_publishes_mid_read() {
        let cluster = cluster();
        let writer = cluster.client();
        let v1 = pattern(4 * CS as usize, 1);
        // The overwrite rewrites every byte and grows the blob: any mix of
        // v1's size with v2's bytes matches neither snapshot.
        let v2 = pattern(5 * CS as usize, 2);
        for read_all_bytes in [false, true] {
            let blob = writer.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
            writer.append(blob, &v1).unwrap();
            let overwrite = v2.clone();
            let racer = cluster.client();
            let versions = Arc::new(RacingVersions {
                inner: Arc::clone(cluster.version_manager()),
                race: Mutex::new(Some(Box::new(move || {
                    racer.write(blob, 0, overwrite).unwrap();
                }))),
                lookups: AtomicU64::new(0),
            });
            let reader = BlobClient::new(
                ClientId(1000),
                Arc::clone(&versions) as Arc<dyn VersionService>,
                Arc::clone(cluster.chunk_service()) as Arc<dyn ChunkService>,
                Arc::clone(cluster.metadata_service()),
                Arc::clone(cluster.transfer_pool()),
            );
            let got = if read_all_bytes {
                reader.read_all_bytes(blob, None).unwrap().to_vec()
            } else {
                reader.read_all(blob, None).unwrap()
            };
            assert_eq!(
                writer.latest_version(blob).unwrap(),
                Version(2),
                "the race ran"
            );
            assert!(
                got == v1 || got == v2,
                "read_all returned {} bytes matching no snapshot",
                got.len()
            );
            assert_eq!(
                versions.lookups.load(Ordering::Relaxed),
                1,
                "a whole-snapshot read resolves its version once"
            );
        }
    }

    #[test]
    fn aligned_writes_are_genuinely_zero_copy() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        // Chunk-aligned, chunk-multiple append: every slot ships as a
        // sub-slice of the caller's buffer.
        client.append(blob, pattern(4 * CS as usize, 1)).unwrap();
        assert_eq!(client.stats().payload_bytes_copied, 0);
        // Chunk-aligned overwrite of one whole chunk: still zero.
        client.write(blob, CS, pattern(CS as usize, 2)).unwrap();
        assert_eq!(client.stats().payload_bytes_copied, 0);
        // Unaligned write inside chunk 0: the whole boundary slot is
        // assembled — 20 bytes from the write, 10 of prefix and 34 of
        // suffix from the predecessor.
        client.write(blob, 10, pattern(20, 3)).unwrap();
        assert_eq!(client.stats().payload_bytes_copied, CS);
    }

    #[test]
    fn chunk_cache_serves_re_reads_without_round_trips() {
        let cluster = Cluster::new(ClusterConfig {
            chunk_cache_bytes: 1 << 20,
            ..ClusterConfig::small()
        })
        .unwrap();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let data = pattern(4 * CS as usize, 5);
        client.append(blob, &data).unwrap();
        // Write-through: the read is served entirely from the cache, the
        // providers never see a get.
        assert_eq!(client.read_all(blob, None).unwrap(), data);
        let provider_reads: u64 = cluster.providers().iter().map(|p| p.stats().reads).sum();
        assert_eq!(provider_reads, 0, "read-your-writes must not fetch");
        let stats = client.stats();
        assert_eq!(stats.cache_hits, 4);
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.chunks_read, 0);
        assert_eq!(client.chunk_cache().unwrap().stats().entries, 4);
        // Re-reads stay free, and the cached bytes are the right ones.
        assert_eq!(client.read_all(blob, None).unwrap(), data);
        assert_eq!(client.stats().cache_hits, 8);
    }

    #[test]
    fn cached_chunks_outlive_provider_failures() {
        // Immutability means a cached chunk is as good as a replica: once a
        // client has read (or written) a chunk, it can keep serving it even
        // when every provider holding it is gone.
        let cluster = Cluster::new(ClusterConfig {
            chunk_cache_bytes: 1 << 20,
            ..ClusterConfig::small()
        })
        .unwrap();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let data = pattern(4 * CS as usize, 6);
        client.append(blob, &data).unwrap();
        for i in 0..4 {
            cluster.fail_provider(ProviderId(i)).unwrap();
        }
        assert_eq!(client.read_all(blob, None).unwrap(), data);
        // A cache-less client of the same cluster still fails, proving the
        // cache (not a recovered provider) served the bytes.
        let cold = cluster.client();
        assert!(cold.chunk_cache().is_none() || cold.read_all(blob, None).is_err());
    }

    #[test]
    fn read_bytes_exposes_segments_and_flattens_identically() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        client.append(blob, pattern(CS as usize + 17, 7)).unwrap();
        // Leave a hole, then more data.
        client.write(blob, 3 * CS, pattern(CS as usize, 8)).unwrap();
        let slice = client.read_all_bytes(blob, None).unwrap();
        assert_eq!(slice.len(), 4 * CS);
        assert!(slice.hole_bytes() > 0, "the gap must stay a hole");
        assert_eq!(slice.to_vec(), client.read_all(blob, None).unwrap());
        // Segment iteration with zero-page-backed holes covers every byte.
        let total: u64 = slice.iter_filled().map(|s| s.len() as u64).sum();
        assert_eq!(total, slice.len());
        let mut by_copy = vec![0u8; CS as usize];
        slice.copy_range_to(CS, &mut by_copy);
        assert_eq!(by_copy, client.read(blob, None, CS, CS).unwrap());
    }

    #[test]
    fn bytes_read_counts_bytes_served_not_requested() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        client.append(blob, pattern(300, 9)).unwrap();
        client.read(blob, None, 0, 300).unwrap();
        assert_eq!(client.stats().bytes_read, 300);
        // A read reaching exactly to the end of the snapshot serves what it
        // asked for; anything past the size is rejected before it could
        // inflate the counter.
        client.read(blob, None, 280, 20).unwrap();
        assert_eq!(client.stats().bytes_read, 320);
        assert!(client.read(blob, None, 280, 21).is_err());
        assert_eq!(client.stats().bytes_read, 320, "failed reads count nothing");
    }

    #[test]
    fn client_stats_reflect_activity() {
        let cluster = cluster();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        client.append(blob, pattern(2 * CS as usize, 1)).unwrap();
        client.write(blob, 0, pattern(CS as usize, 2)).unwrap();
        client.read_all(blob, None).unwrap();
        let stats = client.stats();
        assert_eq!(stats.appends, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.bytes_written, 3 * CS);
        assert_eq!(stats.bytes_read, 2 * CS);
        assert!(stats.chunks_written >= 3);
        assert!(stats.meta_nodes_written > 0);
        assert_eq!(stats.failed_writes, 0);
    }
}
