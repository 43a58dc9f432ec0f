//! Benchmark-owned tracing around the client's three service planes.
//!
//! Nothing inside the program is instrumented. A traced client is assembled
//! exactly as `blobseer_net::connect_remote` assembles it, except that the
//! version, metadata and chunk service trait objects are wrapped in the
//! decorators below, which record one [`Span`] per call — plane, start, end
//! and the operation that caused it — into the client's in-memory
//! [`Recorder`]. Each benchmark thread owns one client and runs one
//! operation at a time, so "the operation that caused it" is the client's
//! current operation, whichever pool thread the call runs on.
//!
//! [`attribute`] turns one operation's spans into four parts that sum to
//! its latency by construction.

use blobseer_core::{
    BlobClient, ChunkCache, ChunkService, MetadataService, NodeArtifact, TransferPool,
    VersionService, WriteKind, WriteTicket,
};
use blobseer_meta::{CachedMetadataStore, MetadataStore, NodeBody, NodeKey, SnapshotDescriptor};
use blobseer_net::{
    Connect, NetChunkService, NetMetadataService, NetVersionService, RemoteEndpoints, RpcEndpoint,
    TcpConnector, META_RPC_RETRIES, VM_RPC_RETRIES,
};
use blobseer_provider::PlacementRequest;
use blobseer_types::{
    BlobConfig, BlobId, ChunkEnvelope, ChunkId, ClientId, ClusterConfig, ProviderId, Result,
    TransportMetrics, Version,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The service plane a span was recorded on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    Version,
    Meta,
    Chunk,
}

/// One call into a service plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub plane: Plane,
    /// The operation (of this client) the call belongs to.
    pub op: u64,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Operation id meaning "not tracing": calls are forwarded unrecorded.
const UNTRACED: u64 = 0;

/// One client's span buffer.
pub struct Recorder {
    origin: Instant,
    current_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            origin: Instant::now(),
            current_op: AtomicU64::new(UNTRACED),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the recorder's origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Marks the start of operation `op` (ids start at 1); calls made until
    /// [`Recorder::end_op`] are recorded under it.
    pub fn begin_op(&self, op: u64) {
        debug_assert_ne!(op, UNTRACED);
        self.current_op.store(op, Ordering::SeqCst);
    }

    pub fn end_op(&self) {
        self.current_op.store(UNTRACED, Ordering::SeqCst);
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    fn record<T>(&self, plane: Plane, call: impl FnOnce() -> T) -> T {
        let op = self.current_op.load(Ordering::SeqCst);
        if op == UNTRACED {
            return call();
        }
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.spans.lock().expect("span buffer poisoned").push(Span {
            plane,
            op,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Total length covered by `intervals` (which may overlap), clipped to
/// `window`.
#[must_use]
pub fn union_ns(intervals: &mut [(u64, u64)], window: (u64, u64)) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, window.0);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(window.1));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Where one operation's latency went, in nanoseconds; the four parts sum
/// to `end - start` exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Time at least one chunk-plane call was in flight.
    pub chunk_ns: u64,
    /// Time a metadata-plane call was in flight and no chunk call was.
    pub meta_ns: u64,
    /// Time only a version-plane call was in flight.
    pub version_ns: u64,
    /// Time no service call was in flight: the client's own work —
    /// assembly, sealing, weaving, joins.
    pub client_self_ns: u64,
}

impl Breakdown {
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.chunk_ns + self.meta_ns + self.version_ns + self.client_self_ns
    }
}

/// Splits the operation that ran over `window` into its four parts. Calls
/// of one plane overlap on pool threads, and planes overlap each other in
/// the pipelined paths, so each instant is counted once, for the first of
/// chunk, metadata, version that has a call in flight.
#[must_use]
pub fn attribute(spans: &[Span], window: (u64, u64)) -> Breakdown {
    let mut intervals: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    let mut covered_through = |plane: Plane| {
        intervals.extend(
            spans
                .iter()
                .filter(|s| s.plane == plane)
                .map(|s| (s.start_ns, s.end_ns)),
        );
        union_ns(&mut intervals, window)
    };
    let chunk = covered_through(Plane::Chunk);
    let chunk_meta = covered_through(Plane::Meta);
    let all = covered_through(Plane::Version);
    Breakdown {
        chunk_ns: chunk,
        meta_ns: chunk_meta - chunk,
        version_ns: all - chunk_meta,
        client_self_ns: (window.1 - window.0) - all,
    }
}

struct TracedVersion(Arc<dyn VersionService>, Arc<Recorder>);

impl VersionService for TracedVersion {
    fn create_blob(&self, config: BlobConfig) -> Result<BlobId> {
        self.1.record(Plane::Version, || self.0.create_blob(config))
    }
    fn blob_config(&self, blob: BlobId) -> Result<BlobConfig> {
        self.1.record(Plane::Version, || self.0.blob_config(blob))
    }
    fn latest_snapshot(&self, blob: BlobId) -> Result<SnapshotDescriptor> {
        self.1
            .record(Plane::Version, || self.0.latest_snapshot(blob))
    }
    fn snapshot(&self, blob: BlobId, version: Version) -> Result<SnapshotDescriptor> {
        self.1
            .record(Plane::Version, || self.0.snapshot(blob, version))
    }
    fn published_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        self.1
            .record(Plane::Version, || self.0.published_versions(blob))
    }
    fn assign_ticket(&self, blob: BlobId, kind: WriteKind) -> Result<WriteTicket> {
        self.1
            .record(Plane::Version, || self.0.assign_ticket(blob, kind))
    }
    fn complete_write(
        &self,
        blob: BlobId,
        version: Version,
        artifacts: Option<Vec<NodeArtifact>>,
    ) -> Result<Version> {
        self.1.record(Plane::Version, || {
            self.0.complete_write(blob, version, artifacts)
        })
    }
    fn abort_write(
        &self,
        blob: BlobId,
        version: Version,
        artifacts: Option<Vec<NodeArtifact>>,
    ) -> Result<Version> {
        self.1.record(Plane::Version, || {
            self.0.abort_write(blob, version, artifacts)
        })
    }
    fn pin(&self, blob: BlobId, version: Option<Version>) -> Result<(SnapshotDescriptor, u64)> {
        self.1.record(Plane::Version, || self.0.pin(blob, version))
    }
    fn unpin(&self, blob: BlobId, version: Version, token: u64) {
        self.1
            .record(Plane::Version, || self.0.unpin(blob, version, token));
    }
}

struct TracedMeta(Arc<dyn MetadataService>, Arc<Recorder>);

impl MetadataStore for TracedMeta {
    fn put_node(&self, key: NodeKey, body: NodeBody) -> Result<()> {
        self.1.record(Plane::Meta, || self.0.put_node(key, body))
    }
    fn get_node(&self, key: &NodeKey) -> Result<Option<NodeBody>> {
        self.1.record(Plane::Meta, || self.0.get_node(key))
    }
    fn get_nodes(&self, keys: &[NodeKey]) -> Result<Vec<Option<NodeBody>>> {
        self.1.record(Plane::Meta, || self.0.get_nodes(keys))
    }
    fn put_nodes(&self, nodes: Vec<(NodeKey, NodeBody)>) -> Result<()> {
        self.1.record(Plane::Meta, || self.0.put_nodes(nodes))
    }
    fn delete_nodes(&self, keys: &[NodeKey]) -> Result<usize> {
        self.1.record(Plane::Meta, || self.0.delete_nodes(keys))
    }
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn snapshot_nodes(&self) -> Result<Vec<(NodeKey, NodeBody)>> {
        self.0.snapshot_nodes()
    }
}

struct TracedChunks(Arc<dyn ChunkService>, Arc<Recorder>);

impl ChunkService for TracedChunks {
    fn allocate(&self, request: PlacementRequest) -> Result<Vec<Vec<ProviderId>>> {
        self.1.record(Plane::Chunk, || self.0.allocate(request))
    }
    fn live_providers(&self) -> Vec<ProviderId> {
        self.1.record(Plane::Chunk, || self.0.live_providers())
    }
    fn put_chunk(&self, provider: ProviderId, chunk: ChunkId, data: ChunkEnvelope) -> Result<()> {
        self.1
            .record(Plane::Chunk, || self.0.put_chunk(provider, chunk, data))
    }
    fn put_chunks(
        &self,
        provider: ProviderId,
        chunks: &[(ChunkId, ChunkEnvelope)],
    ) -> Vec<Result<()>> {
        self.1
            .record(Plane::Chunk, || self.0.put_chunks(provider, chunks))
    }
    fn get_chunk(&self, provider: ProviderId, chunk: &ChunkId) -> Result<ChunkEnvelope> {
        self.1
            .record(Plane::Chunk, || self.0.get_chunk(provider, chunk))
    }
    fn remove_chunks(&self, provider: ProviderId, chunks: &[ChunkId]) -> Result<u64> {
        self.1
            .record(Plane::Chunk, || self.0.remove_chunks(provider, chunks))
    }
}

/// `blobseer_net::connect_remote`, piece for piece, with the three service
/// trait objects wrapped in the recording decorators. Keep in step with it.
pub fn connect_traced(
    config: &ClusterConfig,
    endpoints: &RemoteEndpoints,
    client_id: u64,
    recorder: &Arc<Recorder>,
) -> BlobClient {
    let io_timeout = config.io_timeout();
    let conns = config.connections_per_endpoint;
    let metrics = Arc::new(TransportMetrics::new());
    let endpoint = |addr: SocketAddr| {
        let connector: Arc<dyn Connect> = Arc::new(TcpConnector::new(addr));
        RpcEndpoint::new(connector, io_timeout, Arc::clone(&metrics)).with_connections(conns)
    };

    let providers = endpoints
        .providers
        .iter()
        .map(|&(id, addr)| (id, endpoint(addr)))
        .collect();
    let chunks: Arc<dyn ChunkService> = Arc::new(NetChunkService::new(
        endpoint(endpoints.manager),
        providers,
        Arc::clone(&metrics),
    ));

    let meta = NetMetadataService::new(endpoint(endpoints.meta).with_retries(META_RPC_RETRIES))
        .with_shards(config.metadata_providers);
    let meta: Arc<dyn MetadataService> = if config.client_metadata_cache {
        Arc::new(CachedMetadataStore::new(Arc::new(meta)))
    } else {
        Arc::new(meta)
    };

    let versions: Arc<dyn VersionService> = Arc::new(NetVersionService::new(
        endpoint(endpoints.vm).with_retries(VM_RPC_RETRIES),
    ));

    let chunk_cache =
        (config.chunk_cache_bytes > 0).then(|| Arc::new(ChunkCache::new(config.chunk_cache_bytes)));
    let transfers = Arc::new(
        TransferPool::new(config.transfer_workers)
            .with_join_timeout(config.io_timeout().map(|t| t * 8)),
    );

    BlobClient::new(
        ClientId(client_id),
        Arc::new(TracedVersion(versions, Arc::clone(recorder))),
        Arc::new(TracedChunks(chunks, Arc::clone(recorder))),
        Arc::new(TracedMeta(meta, Arc::clone(recorder))),
        transfers,
    )
    .with_pipeline_depth(config.pipeline_depth)
    .with_chunk_cache(chunk_cache)
    .with_chunk_codec(config.chunk_codec)
    .with_transport_metrics(Some(metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(plane: Plane, start_ns: u64, end_ns: u64) -> Span {
        Span {
            plane,
            op: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_counts_overlapping_intervals_once_and_clips_to_the_window() {
        let mut intervals = [(10, 30), (20, 40), (35, 38), (60, 70), (95, 120), (0, 5)];
        // Window 8..100: 10..40 (30) + 60..70 (10) + 95..100 (5); 0..5 is
        // outside.
        assert_eq!(union_ns(&mut intervals, (8, 100)), 45);
        assert_eq!(union_ns(&mut [], (0, 100)), 0);
    }

    #[test]
    fn self_time_is_the_operation_minus_the_union_of_its_children() {
        // An operation over 0..100 whose chunk calls overlap on two pool
        // threads, with a metadata call partly under them.
        let spans = [
            span(Plane::Version, 0, 10),
            span(Plane::Chunk, 20, 60),
            span(Plane::Chunk, 30, 70),
            span(Plane::Meta, 50, 80),
            span(Plane::Version, 90, 95),
        ];
        let parts = attribute(&spans, (0, 100));
        assert_eq!(parts.chunk_ns, 50, "20..70 once, not 40 + 40");
        assert_eq!(parts.meta_ns, 10, "only 70..80 is not under a chunk call");
        assert_eq!(parts.version_ns, 15);
        // Summing the children (10 + 40 + 40 + 30 + 5 = 125) would make the
        // self time negative; the union leaves 10..20 and 80..90 and 95..100.
        assert_eq!(parts.client_self_ns, 25);
        assert_eq!(parts.total_ns(), 100);
    }

    #[test]
    fn an_operation_with_no_calls_is_all_self_time() {
        let parts = attribute(&[], (5, 25));
        assert_eq!(parts.client_self_ns, 20);
        assert_eq!(parts.total_ns(), 20);
    }

    #[test]
    fn the_recorder_keeps_spans_only_while_an_operation_is_open() {
        let recorder = Recorder::new();
        recorder.record(Plane::Meta, || ());
        assert!(recorder.drain().is_empty());
        recorder.begin_op(7);
        recorder.record(Plane::Meta, || ());
        recorder.end_op();
        recorder.record(Plane::Chunk, || ());
        let spans = recorder.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].plane, spans[0].op), (Plane::Meta, 7));
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }
}
