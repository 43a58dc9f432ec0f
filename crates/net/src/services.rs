//! Networked implementations of the client–service boundary.
//!
//! [`NetChunkService`] and [`NetMetadataService`] are drop-in
//! implementations of the same `ChunkService` / `MetadataStore` traits the
//! in-process wiring implements, speaking the framed RPC protocol through
//! per-endpoint [`RpcEndpoint`]s. A `BlobClient` runs unchanged over either
//! — which is exactly what the differential transport tests assert.
//!
//! Zero-copy contract at this boundary:
//!
//! * `put_chunk` hands the envelope's payload `Bytes` straight to the frame
//!   — the payload crosses the client without a single copy
//!   (`ClientStats::payload_bytes_copied` stays zero for aligned writes);
//! * `get_chunk` returns the envelope's payload as a refcounted slice of
//!   the one receive buffer the response frame landed in — the single
//!   receive-side copy, counted in `TransportMetrics::chunk_payload_received`;
//! * `put_chunks`/`get_chunks` ship a run of chunks for one provider as
//!   one flush of frames, with the same per-chunk accounting and per-chunk
//!   errors; a `get_chunks` run stops retrying a provider whose retries
//!   have already failed once at the transport level.
//!
//! The chunk codec composes with this: frames carry [`ChunkEnvelope`]s
//! verbatim (codec tag + logical length in the header, physical bytes as
//! the payload), so a chunk compressed once at the writing client crosses
//! the wire, the provider and the wire again without ever being re-coded.
//! [`TransportMetrics::chunk_on_wire`] accounts every crossing at both its
//! logical and physical size — the difference is the traffic the codec
//! saved.

use crate::rpc::{op, RpcEndpoint};
use blobseer_core::{NodeArtifact, VersionService, WriteKind, WriteTicket};
use blobseer_meta::{MetadataStore, NodeBody, NodeKey, SnapshotDescriptor};
use blobseer_provider::{ChunkService, PlacementRequest};
use blobseer_types::wire::{decode, encode, WireWriter};
use blobseer_types::{
    BlobConfig, BlobError, BlobId, ChunkEnvelope, ChunkId, EnvelopeHeader, ProviderId, Result,
    TransportMetrics, Version,
};
use bytes::Bytes;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Extra whole-call retries when a *response* arrived but failed to decode
/// (e.g. a truncated frame slipping past the transport). The transport-level
/// retries inside [`RpcEndpoint::call`] do not cover this case because the
/// call itself looked successful.
const DECODE_RETRIES: u32 = 2;

fn call_decoded<T>(
    endpoint: &RpcEndpoint,
    opcode: u8,
    header: &Bytes,
    parse: impl Fn(&crate::frame::Frame) -> Result<T>,
) -> Result<T> {
    let mut last_err = BlobError::Transport("rpc: no attempt made".into());
    for _ in 0..=DECODE_RETRIES {
        match endpoint.call(opcode, header.clone(), Bytes::new()) {
            Ok(frame) => match parse(&frame) {
                Ok(value) => return Ok(value),
                Err(err) => last_err = err,
            },
            Err(err) => return Err(err),
        }
    }
    Err(last_err)
}

/// The chunk plane over the wire: placement via the provider-manager
/// endpoint, chunk I/O via one endpoint per data provider.
pub struct NetChunkService {
    manager: RpcEndpoint,
    providers: HashMap<ProviderId, RpcEndpoint>,
    metrics: Arc<TransportMetrics>,
}

impl NetChunkService {
    /// Wires the endpoints of one client.
    #[must_use]
    pub fn new(
        manager: RpcEndpoint,
        providers: HashMap<ProviderId, RpcEndpoint>,
        metrics: Arc<TransportMetrics>,
    ) -> Self {
        NetChunkService {
            manager,
            providers,
            metrics,
        }
    }

    fn endpoint(&self, provider: ProviderId) -> Result<&RpcEndpoint> {
        self.providers
            .get(&provider)
            .ok_or(BlobError::UnknownProvider(provider))
    }

    /// Accounts one fetched envelope and hands it back. This is the single
    /// receive-side materialisation of the chunk: the physical bytes the
    /// frame carried. Decompression (if the envelope is compressed) happens
    /// once, later, at the opening client.
    fn received(&self, envelope: ChunkEnvelope) -> ChunkEnvelope {
        self.metrics.chunk_payload_received(envelope.physical_len());
        self.metrics
            .chunk_on_wire(envelope.logical_len(), envelope.physical_len());
        envelope
    }
}

/// Rejoins a `GET_CHUNK` response into its envelope. Rejoining validates
/// the declared physical length against the payload that actually arrived
/// (and the logical length too, for verbatim envelopes).
fn envelope_of(frame: &crate::frame::Frame) -> Result<ChunkEnvelope> {
    decode::<EnvelopeHeader>(&frame.header)?.into_envelope(frame.payload.clone())
}

impl ChunkService for NetChunkService {
    fn allocate(&self, request: PlacementRequest) -> Result<Vec<Vec<ProviderId>>> {
        call_decoded(&self.manager, op::ALLOCATE, &encode(&request), |frame| {
            decode::<Vec<Vec<ProviderId>>>(&frame.header)
        })
    }

    fn live_providers(&self) -> Vec<ProviderId> {
        call_decoded(&self.manager, op::LIVE_PROVIDERS, &Bytes::new(), |frame| {
            decode::<Vec<ProviderId>>(&frame.header)
        })
        // A dead manager endpoint reads as "no providers known live" — the
        // same shape a fully failed deployment has in-process.
        .unwrap_or_default()
    }

    fn put_chunk(&self, provider: ProviderId, chunk: ChunkId, data: ChunkEnvelope) -> Result<()> {
        let endpoint = self.endpoint(provider)?;
        let mut w = WireWriter::new();
        w.put(&chunk);
        w.put(&data.header());
        let (logical, physical) = (data.logical_len(), data.physical_len());
        // The envelope's payload rides the frame as-is: refcount bump, no
        // copy, no re-coding.
        let frame = endpoint.call(op::PUT_CHUNK, w.finish(), data.into_payload())?;
        debug_assert_eq!(frame.opcode, op::RESP_OK);
        self.metrics.chunk_on_wire(logical, physical);
        Ok(())
    }

    fn put_chunks(
        &self,
        provider: ProviderId,
        chunks: &[(ChunkId, ChunkEnvelope)],
    ) -> Vec<Result<()>> {
        let endpoint = match self.endpoint(provider) {
            Ok(endpoint) => endpoint,
            Err(err) => return chunks.iter().map(|_| Err(err.clone())).collect(),
        };
        let requests: Vec<(Bytes, Bytes)> = chunks
            .iter()
            .map(|(chunk, data)| {
                let mut w = WireWriter::new();
                w.put(chunk);
                w.put(&data.header());
                // Each payload rides its frame as-is: refcount bump, no copy.
                (w.finish(), data.payload().clone())
            })
            .collect();
        // The whole batch leaves in one flush — one vectored write carrying
        // every put for this provider, the deterministic source of
        // `TransportMetrics::frames_coalesced`.
        endpoint
            .call_many(op::PUT_CHUNK, &requests)
            .into_iter()
            .zip(chunks)
            .map(|(outcome, (_, data))| {
                outcome.map(|frame| {
                    debug_assert_eq!(frame.opcode, op::RESP_OK);
                    self.metrics
                        .chunk_on_wire(data.logical_len(), data.physical_len());
                })
            })
            .collect()
    }

    fn get_chunk(&self, provider: ProviderId, chunk: &ChunkId) -> Result<ChunkEnvelope> {
        let endpoint = self.endpoint(provider)?;
        let envelope = call_decoded(endpoint, op::GET_CHUNK, &encode(chunk), envelope_of)?;
        Ok(self.received(envelope))
    }

    /// Ships the run as one flush of `GET_CHUNK` frames, exactly like
    /// `put_chunks`; the responses stream back multiplexed on the same
    /// connection. A chunk the batch did not deliver — a transport failure,
    /// or a response that will not decode — retries alone with the full
    /// per-call budget, until one such retry fails at the transport level:
    /// the provider is then taken to be down, and every later chunk of the
    /// run gets that error without another attempt, so a hung provider
    /// costs the run one retry budget rather than one per chunk.
    fn get_chunks(&self, provider: ProviderId, chunks: &[ChunkId]) -> Vec<Result<ChunkEnvelope>> {
        let endpoint = match self.endpoint(provider) {
            Ok(endpoint) => endpoint,
            Err(err) => return chunks.iter().map(|_| Err(err.clone())).collect(),
        };
        let requests: Vec<(Bytes, Bytes)> = chunks
            .iter()
            .map(|chunk| (encode(chunk), Bytes::new()))
            .collect();
        let mut down: Option<BlobError> = None;
        endpoint
            .call_many_once(op::GET_CHUNK, &requests)
            .into_iter()
            .zip(chunks)
            .map(|(outcome, chunk)| {
                match outcome {
                    Some(Ok(frame)) => {
                        if let Ok(envelope) = envelope_of(&frame) {
                            return Ok(self.received(envelope));
                        }
                    }
                    Some(Err(err)) => return Err(err),
                    None => {}
                }
                if let Some(err) = &down {
                    return Err(err.clone());
                }
                let retried = self.get_chunk(provider, chunk);
                if let Err(err @ BlobError::Transport(_)) = &retried {
                    down = Some(err.clone());
                }
                retried
            })
            .collect()
    }

    fn remove_chunks(&self, provider: ProviderId, chunks: &[ChunkId]) -> Result<u64> {
        let endpoint = self.endpoint(provider)?;
        let header = encode(&chunks.to_vec());
        call_decoded(endpoint, op::REMOVE_CHUNKS, &header, |frame| {
            decode::<u64>(&frame.header)
        })
    }
}

/// The metadata plane over the wire: batched node gets and write-once puts
/// against the metadata endpoint (which hosts the DHT in production
/// wiring).
///
/// Reads and writes both propagate failure. `MetadataStore::get_node(s)`
/// returns `Result`, keeping "node absent" (meaningful: holes,
/// not-yet-woven nodes) distinct from "endpoint unreachable" — a transport
/// failure that survives every retry surfaces as `Err`, never as a fake
/// absence a boundary-merging writer could misread as "never written:
/// zeros". `put_nodes` likewise propagates transport errors, so a writer
/// never publishes a version whose nodes did not land.
///
/// ## Per-shard frame coalescing
///
/// When built [`NetMetadataService::with_shards`] (> 1), each batched
/// `get_nodes`/`put_nodes` is split into one frame per metadata shard
/// (keys grouped by hash, mirroring DHT key ownership) and the whole set
/// of per-shard frames is submitted as a *single vectored flush* — one
/// syscall for the entire descent level, counted in
/// `TransportMetrics::frames_coalesced`. Responses are scattered back into
/// the caller's key order. A batch that only touches one shard degrades to
/// the plain single-frame path.
pub struct NetMetadataService {
    endpoint: RpcEndpoint,
    shards: usize,
}

impl NetMetadataService {
    /// Wires the metadata endpoint of one client (single-frame batches).
    #[must_use]
    pub fn new(endpoint: RpcEndpoint) -> Self {
        NetMetadataService {
            endpoint,
            shards: 1,
        }
    }

    /// Sets the number of metadata shards batches are split across (values
    /// below 1 clamp to 1 — the unsharded single-frame path).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The shard a node key belongs to (stable hash, mirroring how a DHT
    /// assigns key ownership).
    fn shard_of(&self, key: &NodeKey) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % self.shards as u64) as usize
    }

    /// Groups indices into `keys` by shard, dropping empty groups.
    fn shard_groups(
        &self,
        keys: impl Iterator<Item = usize>,
        of: impl Fn(usize) -> usize,
    ) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = (0..self.shards).map(|_| Vec::new()).collect();
        for index in keys {
            groups[of(index)].push(index);
        }
        groups.retain(|g| !g.is_empty());
        groups
    }

    /// The plain single-frame `get_nodes` (also the per-group fallback when
    /// a coalesced response fails to decode).
    fn get_nodes_single(&self, keys: &[NodeKey]) -> Result<Vec<Option<NodeBody>>> {
        let header = encode(&keys.to_vec());
        call_decoded(&self.endpoint, op::META_GET, &header, |frame| {
            let bodies = decode::<Vec<Option<NodeBody>>>(&frame.header)?;
            if bodies.len() != keys.len() {
                return Err(BlobError::Transport(format!(
                    "meta get of {} keys answered {} slots",
                    keys.len(),
                    bodies.len()
                )));
            }
            Ok(bodies)
        })
    }
}

impl MetadataStore for NetMetadataService {
    fn put_node(&self, key: NodeKey, body: NodeBody) -> Result<()> {
        self.put_nodes(vec![(key, body)])
    }

    fn get_node(&self, key: &NodeKey) -> Result<Option<NodeBody>> {
        Ok(self.get_nodes(std::slice::from_ref(key))?.pop().flatten())
    }

    fn get_nodes(&self, keys: &[NodeKey]) -> Result<Vec<Option<NodeBody>>> {
        let groups = if self.shards > 1 && keys.len() > 1 {
            self.shard_groups(0..keys.len(), |i| self.shard_of(&keys[i]))
        } else {
            Vec::new()
        };
        if groups.len() < 2 {
            return self.get_nodes_single(keys);
        }
        let requests: Vec<(Bytes, Bytes)> = groups
            .iter()
            .map(|group| {
                let group_keys: Vec<NodeKey> = group.iter().map(|&i| keys[i]).collect();
                (encode(&group_keys), Bytes::new())
            })
            .collect();
        // Every per-shard frame of this descent level leaves in one
        // vectored flush; responses scatter back into the caller's order.
        let outcomes = self.endpoint.call_many(op::META_GET, &requests);
        let mut results: Vec<Option<NodeBody>> = vec![None; keys.len()];
        for (group, outcome) in groups.iter().zip(outcomes) {
            let parsed = outcome.and_then(|frame| {
                let bodies = decode::<Vec<Option<NodeBody>>>(&frame.header)?;
                if bodies.len() != group.len() {
                    return Err(BlobError::Transport(format!(
                        "meta get of {} keys answered {} slots",
                        group.len(),
                        bodies.len()
                    )));
                }
                Ok(bodies)
            });
            let bodies = match parsed {
                Ok(bodies) => bodies,
                // A mangled coalesced response retries this group alone,
                // with the full per-call retry budget.
                Err(_) => {
                    let group_keys: Vec<NodeKey> = group.iter().map(|&i| keys[i]).collect();
                    self.get_nodes_single(&group_keys)?
                }
            };
            for (&index, body) in group.iter().zip(bodies) {
                results[index] = body;
            }
        }
        Ok(results)
    }

    fn put_nodes(&self, nodes: Vec<(NodeKey, NodeBody)>) -> Result<()> {
        let groups = if self.shards > 1 && nodes.len() > 1 {
            self.shard_groups(0..nodes.len(), |i| self.shard_of(&nodes[i].0))
        } else {
            Vec::new()
        };
        if groups.len() < 2 {
            let header = encode(&nodes);
            let frame = self.endpoint.call(op::META_PUT, header, Bytes::new())?;
            debug_assert_eq!(frame.opcode, op::RESP_OK);
            return Ok(());
        }
        let requests: Vec<(Bytes, Bytes)> = groups
            .iter()
            .map(|group| {
                let group_nodes: Vec<(NodeKey, NodeBody)> =
                    group.iter().map(|&i| nodes[i].clone()).collect();
                (encode(&group_nodes), Bytes::new())
            })
            .collect();
        // One vectored flush for every shard's put of this level; each
        // group must land (a writer never publishes missing nodes).
        for outcome in self.endpoint.call_many(op::META_PUT, &requests) {
            let frame = outcome?;
            debug_assert_eq!(frame.opcode, op::RESP_OK);
        }
        Ok(())
    }

    fn delete_nodes(&self, keys: &[NodeKey]) -> Result<usize> {
        let groups = if self.shards > 1 && keys.len() > 1 {
            self.shard_groups(0..keys.len(), |i| self.shard_of(&keys[i]))
        } else {
            Vec::new()
        };
        if groups.len() < 2 {
            let header = encode(&keys.to_vec());
            return call_decoded(&self.endpoint, op::META_DELETE, &header, |frame| {
                decode::<usize>(&frame.header)
            });
        }
        let requests: Vec<(Bytes, Bytes)> = groups
            .iter()
            .map(|group| {
                let group_keys: Vec<NodeKey> = group.iter().map(|&i| keys[i]).collect();
                (encode(&group_keys), Bytes::new())
            })
            .collect();
        // One vectored flush for every shard's delete. A failed group
        // propagates as `Err`: the sweeper counts it and leaks those nodes
        // rather than misreport the reclaim.
        let mut deleted = 0usize;
        for outcome in self.endpoint.call_many(op::META_DELETE, &requests) {
            deleted += decode::<usize>(&outcome?.header)?;
        }
        Ok(deleted)
    }

    fn node_count(&self) -> usize {
        call_decoded(&self.endpoint, op::META_COUNT, &Bytes::new(), |frame| {
            decode::<usize>(&frame.header)
        })
        .unwrap_or(0)
    }
}

/// The version-manager plane over the wire: every call of the
/// [`VersionService`] trait crosses the deployment's `vm` endpoint as one
/// framed RPC. With this, a `BlobClient` is fully remote — the version
/// manager was the last service plane still reached by a direct handle.
///
/// Pinning is leased: `pin` returns the token the serving-side
/// [`crate::rpc::VersionHost`] filed the real pin guard under, and the
/// `VersionPin` guard the client library wraps around `(blob, version,
/// token)` fires `unpin` on drop. `unpin` is fire-and-forget by the trait's
/// contract — a lease the wire lost only delays GC of one version, and
/// erroring on a drop path would help nobody.
/// The mutating calls (`create_blob`, `assign_ticket`, `pin`) carry a client
/// nonce `(tag, seq)` so the serving side can deduplicate transport retries:
/// `RpcEndpoint::call` resends the identical header bytes, so a retry whose
/// first attempt *did* land (only the response was lost) replays the original
/// outcome instead of minting a second version, blob, or lease.
pub struct NetVersionService {
    endpoint: RpcEndpoint,
    /// Random per-client tag distinguishing this client's nonces from every
    /// other client's, including earlier incarnations of the same process.
    tag: u64,
    /// Monotone per-request sequence completing the nonce.
    seq: AtomicU64,
}

impl NetVersionService {
    /// Wires the version-manager endpoint of one client.
    #[must_use]
    pub fn new(endpoint: RpcEndpoint) -> Self {
        use rand::RngCore;
        NetVersionService {
            endpoint,
            tag: rand::thread_rng().next_u64(),
            seq: AtomicU64::new(1),
        }
    }

    fn nonce(&self) -> (u64, u64) {
        (self.tag, self.seq.fetch_add(1, Ordering::Relaxed))
    }
}

impl VersionService for NetVersionService {
    fn create_blob(&self, config: BlobConfig) -> Result<BlobId> {
        let (tag, seq) = self.nonce();
        let header = encode(&(tag, seq, config));
        call_decoded(&self.endpoint, op::VM_CREATE_BLOB, &header, |f| {
            decode::<BlobId>(&f.header)
        })
    }

    fn blob_config(&self, blob: BlobId) -> Result<BlobConfig> {
        call_decoded(&self.endpoint, op::VM_BLOB_CONFIG, &encode(&blob), |f| {
            decode::<BlobConfig>(&f.header)
        })
    }

    fn latest_snapshot(&self, blob: BlobId) -> Result<SnapshotDescriptor> {
        call_decoded(
            &self.endpoint,
            op::VM_LATEST_SNAPSHOT,
            &encode(&blob),
            |f| decode::<SnapshotDescriptor>(&f.header),
        )
    }

    fn snapshot(&self, blob: BlobId, version: Version) -> Result<SnapshotDescriptor> {
        let header = encode(&(blob, version));
        call_decoded(&self.endpoint, op::VM_SNAPSHOT, &header, |f| {
            decode::<SnapshotDescriptor>(&f.header)
        })
    }

    fn published_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        call_decoded(&self.endpoint, op::VM_PUBLISHED, &encode(&blob), |f| {
            decode::<Vec<Version>>(&f.header)
        })
    }

    fn assign_ticket(&self, blob: BlobId, kind: WriteKind) -> Result<WriteTicket> {
        let (tag, seq) = self.nonce();
        let header = encode(&(tag, seq, (blob, kind)));
        call_decoded(&self.endpoint, op::VM_ASSIGN_TICKET, &header, |f| {
            decode::<WriteTicket>(&f.header)
        })
    }

    fn complete_write(
        &self,
        blob: BlobId,
        version: Version,
        artifacts: Option<Vec<NodeArtifact>>,
    ) -> Result<Version> {
        let header = encode(&(blob, version, artifacts));
        call_decoded(&self.endpoint, op::VM_COMPLETE, &header, |f| {
            decode::<Version>(&f.header)
        })
    }

    fn abort_write(
        &self,
        blob: BlobId,
        version: Version,
        artifacts: Option<Vec<NodeArtifact>>,
    ) -> Result<Version> {
        let header = encode(&(blob, version, artifacts));
        call_decoded(&self.endpoint, op::VM_ABORT, &header, |f| {
            decode::<Version>(&f.header)
        })
    }

    fn pin(&self, blob: BlobId, version: Option<Version>) -> Result<(SnapshotDescriptor, u64)> {
        let (tag, seq) = self.nonce();
        let header = encode(&(tag, seq, (blob, version)));
        call_decoded(&self.endpoint, op::VM_PIN, &header, |f| {
            decode::<(SnapshotDescriptor, u64)>(&f.header)
        })
    }

    fn unpin(&self, blob: BlobId, version: Version, token: u64) {
        // Fire-and-forget per the trait contract: this runs on guard-drop
        // paths where an error has no caller to reach. A lease lost to the
        // wire delays GC of one version until the serving process restarts.
        let _ = self
            .endpoint
            .call(op::VM_UNPIN, encode(&(blob, version, token)), Bytes::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{Reactor, WorkerPool};
    use crate::rpc::{ChunkHost, ManagerHost, MetaHost, RpcServer};
    use crate::transport::tcp_listener;
    use blobseer_meta::{InMemoryMetaStore, LeafNode};
    use blobseer_provider::{DataProvider, ProviderManager};
    use blobseer_types::{BlobId, ByteRange, PlacementPolicy, Version};
    use std::time::Duration;

    /// Serves `handler` on its own reactor and dials it.
    fn endpoint_for(
        handler: Arc<dyn crate::rpc::RpcHandler>,
        metrics: &Arc<TransportMetrics>,
    ) -> (RpcServer, RpcEndpoint) {
        let (connector, listener) = tcp_listener("127.0.0.1:0").unwrap();
        let reactor = Reactor::new(WorkerPool::new(4), None);
        let server = RpcServer::spawn_reactor(&reactor, listener, handler);
        let endpoint =
            RpcEndpoint::new(connector, Some(Duration::from_secs(5)), Arc::clone(metrics));
        (server, endpoint)
    }

    fn chunk_id(slot: u64) -> ChunkId {
        ChunkId {
            blob: BlobId(1),
            write_tag: 5,
            slot,
        }
    }

    #[test]
    fn chunk_service_roundtrips_chunks_and_placement_over_rpc() {
        let metrics = Arc::new(TransportMetrics::new());
        let provider = Arc::new(DataProvider::in_memory(ProviderId(0)));
        let manager = Arc::new(ProviderManager::with_providers(
            PlacementPolicy::RoundRobin,
            2,
        ));
        let (_s1, provider_ep) =
            endpoint_for(Arc::new(ChunkHost::new(Arc::clone(&provider))), &metrics);
        let (_s2, manager_ep) = endpoint_for(Arc::new(ManagerHost::new(manager)), &metrics);
        let svc = NetChunkService::new(
            manager_ep,
            [(ProviderId(0), provider_ep)].into_iter().collect(),
            Arc::clone(&metrics),
        );

        let placement = svc
            .allocate(PlacementRequest {
                chunk_count: 3,
                replication: 1,
            })
            .unwrap();
        assert_eq!(placement.len(), 3);
        assert_eq!(svc.live_providers().len(), 2);

        let payload = Bytes::from(vec![9u8; 512]);
        svc.put_chunk(ProviderId(0), chunk_id(0), payload.clone().into())
            .unwrap();
        let got = svc.get_chunk(ProviderId(0), &chunk_id(0)).unwrap();
        assert_eq!(got, ChunkEnvelope::verbatim(payload));
        // The fetched payload was materialised exactly once on receive.
        assert_eq!(metrics.snapshot().chunk_rx_payload_bytes, 512);
        // And the provider server-side really holds it.
        assert_eq!(provider.stats().chunks, 1);
        // Both crossings (put + get) were accounted at logical == physical
        // for a verbatim envelope.
        assert_eq!(metrics.snapshot().bytes_on_wire_logical, 1024);
        assert_eq!(metrics.snapshot().bytes_on_wire_physical, 1024);

        // Application errors cross the wire intact.
        assert!(matches!(
            svc.get_chunk(ProviderId(0), &chunk_id(9)),
            Err(BlobError::ChunkNotFound(_, ProviderId(0)))
        ));
        assert!(matches!(
            svc.put_chunk(
                ProviderId(7),
                chunk_id(0),
                ChunkEnvelope::verbatim(Bytes::new())
            ),
            Err(BlobError::UnknownProvider(ProviderId(7)))
        ));
    }

    #[test]
    fn batched_gets_leave_in_one_flush_and_answer_per_chunk() {
        let metrics = Arc::new(TransportMetrics::new());
        let provider = Arc::new(DataProvider::in_memory(ProviderId(0)));
        let (mut server, provider_ep) =
            endpoint_for(Arc::new(ChunkHost::new(Arc::clone(&provider))), &metrics);
        let manager = Arc::new(ProviderManager::with_providers(
            PlacementPolicy::RoundRobin,
            1,
        ));
        let (_s2, manager_ep) = endpoint_for(Arc::new(ManagerHost::new(manager)), &metrics);
        let svc = NetChunkService::new(
            manager_ep,
            [(ProviderId(0), provider_ep)].into_iter().collect(),
            Arc::clone(&metrics),
        );
        for slot in [0, 2, 3] {
            svc.put_chunk(
                ProviderId(0),
                chunk_id(slot),
                Bytes::from(vec![slot as u8; 100]).into(),
            )
            .unwrap();
        }
        let before = metrics.snapshot();
        let ids: Vec<ChunkId> = (0..4).map(chunk_id).collect();
        let got = svc.get_chunks(ProviderId(0), &ids);
        let after = metrics.snapshot();
        // Four requests, one flush: three of them shared the first's write.
        assert_eq!(after.frames_sent - before.frames_sent, 4);
        assert_eq!(after.frames_coalesced - before.frames_coalesced, 3);
        // A missing chunk fails alone; its neighbours arrive intact, each
        // materialised exactly once on receive.
        assert!(matches!(
            got[1],
            Err(BlobError::ChunkNotFound(_, ProviderId(0)))
        ));
        for slot in [0usize, 2, 3] {
            assert_eq!(got[slot].as_ref().unwrap().payload()[..], [slot as u8; 100]);
        }
        assert_eq!(
            after.chunk_rx_payload_bytes - before.chunk_rx_payload_bytes,
            300
        );
        // An unknown provider fails every chunk of the run.
        assert!(svc
            .get_chunks(ProviderId(9), &ids)
            .iter()
            .all(|r| matches!(r, Err(BlobError::UnknownProvider(ProviderId(9))))));
        // A dead provider costs the run one chunk's retry budget, not one
        // per chunk: after the first chunk's retries fail, the rest of the
        // run fails with the same error untried.
        server.stop();
        let before = metrics.snapshot();
        let got = svc.get_chunks(ProviderId(0), &ids);
        assert!(got
            .iter()
            .all(|r| matches!(r, Err(BlobError::Transport(_)))));
        assert_eq!(
            metrics.snapshot().retries - before.retries,
            u64::from(crate::rpc::DEFAULT_RPC_RETRIES)
        );
    }

    #[test]
    fn compressed_envelopes_cross_the_wire_without_recoding() {
        let metrics = Arc::new(TransportMetrics::new());
        let provider = Arc::new(DataProvider::in_memory(ProviderId(0)));
        let (_s, provider_ep) =
            endpoint_for(Arc::new(ChunkHost::new(Arc::clone(&provider))), &metrics);
        let manager = Arc::new(ProviderManager::with_providers(
            PlacementPolicy::RoundRobin,
            1,
        ));
        let (_s2, manager_ep) = endpoint_for(Arc::new(ManagerHost::new(manager)), &metrics);
        let svc = NetChunkService::new(
            manager_ep,
            [(ProviderId(0), provider_ep)].into_iter().collect(),
            Arc::clone(&metrics),
        );
        // A 4096-byte chunk that compressed to 96 physical bytes.
        let sealed = ChunkEnvelope::compressed(4096, Bytes::from(vec![3u8; 96]));
        svc.put_chunk(ProviderId(0), chunk_id(0), sealed.clone())
            .unwrap();
        // The provider stored the envelope verbatim: physical bytes only.
        assert_eq!(provider.stats().bytes, 96);
        let got = svc.get_chunk(ProviderId(0), &chunk_id(0)).unwrap();
        assert_eq!(got, sealed);
        // Receive-side materialisation is the physical size...
        assert_eq!(metrics.snapshot().chunk_rx_payload_bytes, 96);
        // ...and both crossings were accounted logical vs physical.
        assert_eq!(metrics.snapshot().bytes_on_wire_logical, 2 * 4096);
        assert_eq!(metrics.snapshot().bytes_on_wire_physical, 2 * 96);
    }

    #[test]
    fn metadata_service_roundtrips_batches_over_rpc() {
        let metrics = Arc::new(TransportMetrics::new());
        let store = Arc::new(InMemoryMetaStore::new());
        let (_server, ep) = endpoint_for(
            Arc::new(MetaHost::new(store.clone() as Arc<dyn MetadataStore>)),
            &metrics,
        );
        let svc = NetMetadataService::new(ep);
        let key = |v: u64| NodeKey {
            blob: BlobId(1),
            version: Version(v),
            range: ByteRange::new(0, 64),
        };
        let leaf = NodeBody::Leaf(LeafNode::hole(BlobId(1), 0));
        svc.put_nodes(vec![(key(1), leaf.clone()), (key(2), leaf.clone())])
            .unwrap();
        assert_eq!(store.node_count(), 2);
        assert_eq!(
            svc.get_nodes(&[key(2), key(9), key(1)]).unwrap(),
            vec![Some(leaf.clone()), None, Some(leaf.clone())]
        );
        assert_eq!(svc.get_node(&key(1)).unwrap(), Some(leaf.clone()));
        assert_eq!(svc.node_count(), 2);
        // Write-once violations cross the wire as the errors they are.
        let other = NodeBody::Leaf(LeafNode {
            chunk: chunk_id(3),
            providers: vec![ProviderId(0)],
            len: 64,
        });
        assert!(svc.put_nodes(vec![(key(1), other)]).is_err());
    }

    #[test]
    fn dead_metadata_endpoints_read_as_errors_not_as_absence() {
        let metrics = Arc::new(TransportMetrics::new());
        let store = Arc::new(InMemoryMetaStore::new());
        let (mut server, ep) = endpoint_for(
            Arc::new(MetaHost::new(store as Arc<dyn MetadataStore>)),
            &metrics,
        );
        let svc = NetMetadataService::new(ep);
        server.stop();
        let key = NodeKey {
            blob: BlobId(1),
            version: Version(1),
            range: ByteRange::new(0, 64),
        };
        // Reads must NOT degrade to "node absent" (a boundary-merging
        // writer would read that as "never written: zeros"): unreachable
        // propagates as the transport error it is, on reads and writes
        // alike. Only the statistics call degrades.
        assert!(matches!(
            svc.get_nodes(&[key]),
            Err(BlobError::Transport(_))
        ));
        assert!(matches!(svc.get_node(&key), Err(BlobError::Transport(_))));
        assert_eq!(svc.node_count(), 0);
        assert!(matches!(
            svc.put_nodes(vec![(key, NodeBody::Leaf(LeafNode::hole(BlobId(1), 0)))]),
            Err(BlobError::Transport(_))
        ));
    }
}
