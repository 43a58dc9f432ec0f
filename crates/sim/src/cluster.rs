//! The simulated cluster: protocol-faithful cost accounting on top of the
//! real BlobSeer-RS code.
//!
//! A [`SimulatedCluster`] owns
//!
//! * one FIFO [`Resource`] per contention point (each data provider's NIC in
//!   both directions, each metadata provider's request processor, each
//!   client's NIC in both directions),
//! * real instances of the version manager, provider manager and metadata
//!   DHT, which decide placement, versioning and metadata routing exactly as
//!   the production code does, and
//! * per simulated client, the real client caches: a
//!   [`ChunkCache`] of `chunk_cache_bytes` and, with
//!   `client_metadata_cache`, a [`CachedMetadataStore`] over the client's
//!   cost-recording metadata store.
//!
//! Client operations are replayed in simulated-time order; each operation
//! runs the real protocol (ticket → chunks → metadata → publication) while
//! charging every transfer and every request to the resource that would
//! serve it in a distributed deployment. The result is the aggregated
//! throughput, per-operation latencies and per-resource utilisation the
//! paper's figures are built from.

use crate::model::{
    FSYNC_NS, LINK_BANDWIDTH_BPS, LINK_LATENCY_NS, META_SERVICE_NS, VERSION_MANAGER_SERVICE_NS,
};
use crate::resource::{Resource, SimTime, NANOS_PER_SEC};
use crate::workload::{OpKind, Workload};
use blobseer_core::{ChunkCache, VersionManager, WriteKind};
use blobseer_dht::{Dht, Trip};
use blobseer_meta::{
    build_write_metadata_chained, collect_leaves_streaming, publish_metadata, CachedMetadataStore,
    MetadataStore, NodeBody, NodeKey, WrittenChunk,
};
use blobseer_provider::{PlacementRequest, ProviderManager};
use blobseer_types::{
    chunk_span, BlobError, BlobId, ByteRange, ChunkCodec, ChunkId, ClusterConfig, Durability,
    MetaNodeId, ProviderId, Result, DHT_VIRTUAL_NODES,
};
use bytes::Bytes;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// Wire size charged for one metadata node request/response, in bytes.
const META_NODE_WIRE_BYTES: u64 = 96;

/// Bytes one metadata-WAL record occupies on disk (framing header plus an
/// encoded tree node — same ballpark as its wire form).
const WAL_NODE_RECORD_BYTES: u64 = META_NODE_WIRE_BYTES + 10;

/// Bytes the WAL commit record (framing header plus one snapshot
/// descriptor) occupies on disk.
const WAL_COMMIT_RECORD_BYTES: u64 = 64;

/// Per-frame wire overhead charged for one data-plane transfer (frame
/// prefix, codec-encoded header and the response frame), in bytes.
const FRAME_OVERHEAD_BYTES: u64 = 64;

/// Bytes the `Fast` codec scans per nanosecond of client CPU when sealing a
/// chunk (roughly the single-core pace of an LZ4-class greedy matcher).
/// Every chunk sealed under `Fast` pays this probe — including chunks that
/// turn out incompressible and ship through the verbatim escape, which is
/// exactly the cost the passthrough caps.
const COMPRESS_SCAN_BYTES_PER_NS: u64 = 4;

/// Record of one completed (or failed) simulated operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// Client that issued the operation.
    pub client: usize,
    /// Simulated start time.
    pub start: SimTime,
    /// Simulated completion time.
    pub end: SimTime,
    /// Payload bytes moved (zero if the operation failed).
    pub bytes: u64,
    /// Whether the operation was a write or append.
    pub is_write: bool,
    /// Whether the operation succeeded.
    pub ok: bool,
}

/// Outcome of one simulated workload run.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Time at which the last measured operation completed.
    pub makespan_ns: SimTime,
    /// Total payload bytes moved by successful operations.
    pub total_bytes: u64,
    /// Every operation, in completion order.
    pub ops: Vec<OpRecord>,
    /// Number of operations that failed (e.g. all replicas of a chunk were
    /// on failed providers).
    pub failed_ops: usize,
    /// Total metadata tree nodes created during the measured phase.
    pub meta_nodes_created: u64,
    /// Total metadata *round-trips* issued during the measured phase: one
    /// request/response with one metadata provider, however many tree nodes
    /// it carried. Batched level-order reads and shard-grouped publication
    /// keep this O(tree-depth × metadata providers) per operation where a
    /// node-at-a-time walk paid O(nodes).
    pub meta_round_trips: u64,
    /// Total data-plane round-trips issued during the measured phase: one
    /// chunk moved between a client and a data provider (replica pushes
    /// counted individually). Together with `meta_round_trips` this is the
    /// pipeline-occupancy measure. Chunk-cache hits are *not* round-trips —
    /// they never touch the wire.
    pub data_round_trips: u64,
    /// Client-side payload bytes memcpy'd during the measured phase. Writes
    /// charge the assembly of boundary (not fully covered) chunk slots —
    /// aligned writes charge nothing, mirroring the zero-copy fast path —
    /// and every chunk actually fetched over the wire charges one receive
    /// materialisation; chunk-cache hits hand back the already materialised
    /// buffer and charge nothing.
    pub bytes_copied: u64,
    /// Chunk fetches served by a client's chunk cache (no round-trip, no
    /// resource charged).
    pub cache_hits: u64,
    /// Chunk fetches that missed the cache and hit the providers. Zero when
    /// `chunk_cache_bytes` is zero.
    pub cache_misses: u64,
    /// Bytes the data plane *physically* moved on the wire: payload as the
    /// codec shipped it (compressed when the `Fast` codec won) plus frame
    /// overhead. Chunk-cache hits move nothing. With the codec `Off` this
    /// equals [`SimulationResult::bytes_on_wire_logical`].
    pub bytes_on_wire: u64,
    /// Bytes the data plane *logically* moved: the decompressed payload
    /// sizes the application observes, plus the same frame overhead as
    /// [`SimulationResult::bytes_on_wire`]. The gap between the two is the
    /// codec's wire saving.
    pub bytes_on_wire_logical: u64,
    /// Chunks the `Fast` codec actually shrank when they were sealed
    /// (verbatim passthroughs of incompressible chunks are not counted).
    pub chunks_compressed: u64,
    /// Logical-minus-physical bytes saved at sealing time, summed over
    /// `chunks_compressed` (replica pushes and re-reads multiply the wire
    /// saving but not this counter — a chunk is sealed once).
    pub compress_saved_bytes: u64,
    /// Metadata frames that shared a batched uplink write with a
    /// predecessor instead of paying their own per-request latency (a batch
    /// of `n` trips contributes `n - 1`) — the simulator's mirror of the
    /// RPC layer's small-frame coalescing counter.
    pub frames_coalesced: u64,
    /// Fsyncs the durable tier would issue for the measured operations
    /// under `ClusterConfig::durability`: zero when `Buffered`, segment
    /// syncs plus one WAL commit sync per published version when `Commit`,
    /// one per appended record when `Always`. Each costs
    /// [`crate::model::FSYNC_NS`] on the acknowledgement path.
    pub fsyncs: u64,
    /// Bytes appended to the metadata write-ahead log (node records plus
    /// one commit record per published version) — appended under *every*
    /// policy; durability only decides how often the tier flushes them.
    pub wal_bytes: u64,
    /// Per-metadata-provider number of requests served (load distribution).
    pub meta_load: HashMap<MetaNodeId, u64>,
    /// Per-data-provider bytes received (write load distribution).
    pub provider_write_bytes: HashMap<ProviderId, u64>,
}

impl SimulationResult {
    /// Aggregated throughput over the whole run, in MiB per second.
    #[must_use]
    pub fn aggregated_mibps(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        let seconds = self.makespan_ns as f64 / NANOS_PER_SEC as f64;
        self.total_bytes as f64 / (1024.0 * 1024.0) / seconds
    }

    /// Mean per-operation latency in milliseconds (successful operations).
    #[must_use]
    pub fn mean_latency_ms(&self) -> f64 {
        let ok: Vec<&OpRecord> = self.ops.iter().filter(|o| o.ok).collect();
        if ok.is_empty() {
            return 0.0;
        }
        let total: u128 = ok.iter().map(|o| (o.end - o.start) as u128).sum();
        total as f64 / ok.len() as f64 / 1_000_000.0
    }

    /// Throughput per time window of `window_ns`, in MiB/s, covering the
    /// whole makespan. Used by the QoS-stability experiment (Fig. E1).
    #[must_use]
    pub fn windowed_throughput_mibps(&self, window_ns: u64) -> Vec<f64> {
        if self.makespan_ns == 0 || window_ns == 0 {
            return Vec::new();
        }
        let windows = self.makespan_ns.div_ceil(window_ns) as usize;
        let mut bytes = vec![0u64; windows];
        for op in self.ops.iter().filter(|o| o.ok) {
            let w = ((op.end.saturating_sub(1)) / window_ns) as usize;
            bytes[w.min(windows - 1)] += op.bytes;
        }
        let window_s = window_ns as f64 / NANOS_PER_SEC as f64;
        bytes
            .into_iter()
            .map(|b| b as f64 / (1024.0 * 1024.0) / window_s)
            .collect()
    }
}

/// The counters of the run in progress; [`SimulatedCluster::run`] starts
/// each run from the default and copies them into its result.
#[derive(Debug, Default)]
struct RunCounters {
    meta_nodes_created: u64,
    meta_round_trips: u64,
    data_round_trips: u64,
    bytes_copied: u64,
    bytes_on_wire: u64,
    bytes_on_wire_logical: u64,
    chunks_compressed: u64,
    compress_saved_bytes: u64,
    frames_coalesced: u64,
    fsyncs: u64,
    wal_bytes: u64,
}

/// A scheduled change in a data provider's health, applied while a run
/// progresses (failure injection for the fault-tolerance and QoS
/// experiments).
#[derive(Debug, Clone, Copy)]
struct HealthEvent {
    at: SimTime,
    provider: ProviderId,
    kind: HealthChange,
}

#[derive(Debug, Clone, Copy)]
enum HealthChange {
    Fail,
    Recover,
    /// The provider keeps serving but `factor` times slower (soft
    /// degradation, the "dangerous behaviour" the QoS layer hunts for).
    Degrade(f64),
    RestoreSpeed,
}

/// One logical metadata round-trip a protocol step issued: one request to
/// one metadata provider, carrying `items` node gets or puts.
#[derive(Debug, Clone, Copy)]
struct MetaTrip {
    node: MetaNodeId,
    items: u64,
}

/// What a [`RecordingStore`] saw since its last drain.
#[derive(Debug, Default)]
struct Recorded {
    trips: Vec<MetaTrip>,
    /// Byte range and owning metadata node of every leaf a get batch
    /// fetched. The pipelined read model starts a leaf's chunk fetch when
    /// its own shard's round-trip completed, not when the slowest shard of
    /// the batch did.
    leaves: Vec<(ByteRange, MetaNodeId)>,
}

/// The cost-recording metadata store: it serves from the real DHT and
/// records the round-trips the DHT reports for each batch — one per owning
/// metadata node — so their cost can be charged to the right resources. A
/// client's node cache, when it has one, is the real [`CachedMetadataStore`]
/// layered over it, so cache hits never reach it.
struct RecordingStore {
    dht: Arc<Dht<NodeKey, NodeBody>>,
    recorded: Mutex<Recorded>,
}

impl RecordingStore {
    /// Takes what was recorded since the last drain.
    fn drain(&self) -> Recorded {
        std::mem::take(&mut *self.recorded.lock())
    }

    fn record(&self, trips: &[Trip]) {
        // Charge one call's trips in node order: the DHT groups them in a
        // hash map, whose iteration order is seeded per process, and letting
        // it leak into the charge order makes simulated timings (and the
        // figures built from them) vary run to run.
        let mut trips: Vec<MetaTrip> = trips
            .iter()
            .map(|trip| MetaTrip {
                node: trip.owner,
                items: trip.items.len() as u64,
            })
            .collect();
        trips.sort_by_key(|t| t.node);
        self.recorded.lock().trips.extend(trips);
    }
}

impl MetadataStore for RecordingStore {
    fn put_node(&self, key: NodeKey, body: NodeBody) -> Result<()> {
        self.put_nodes(vec![(key, body)])
    }

    fn get_node(&self, key: &NodeKey) -> Result<Option<NodeBody>> {
        Ok(self.get_nodes(std::slice::from_ref(key))?.pop().flatten())
    }

    fn get_nodes(&self, keys: &[NodeKey]) -> Result<Vec<Option<NodeBody>>> {
        let mut trips = Vec::new();
        let bodies = self.dht.get_batch_traced(keys, &mut trips);
        self.record(&trips);
        // A key's owner is the last node its batch asked for it.
        let mut owners = vec![MetaNodeId(0); keys.len()];
        for trip in &trips {
            for &index in &trip.items {
                owners[index] = trip.owner;
            }
        }
        let leaves = keys
            .iter()
            .zip(owners)
            .zip(&bodies)
            .filter(|(_, body)| matches!(body, Some(NodeBody::Leaf(_))))
            .map(|((key, node), _)| (key.range, node));
        self.recorded.lock().leaves.extend(leaves);
        Ok(bodies)
    }

    fn put_nodes(&self, nodes: Vec<(NodeKey, NodeBody)>) -> Result<()> {
        let mut trips = Vec::new();
        let outcome = self.dht.put_batch_traced(nodes, &mut trips);
        self.record(&trips);
        outcome
    }

    fn node_count(&self) -> usize {
        self.dht.total_entries()
    }
}

/// One simulated client, fresh per run (preloaded data is cold by
/// definition): its NIC in both directions and the real client caches.
struct SimClient {
    id: usize,
    uplink: Resource,
    downlink: Resource,
    recorder: Arc<RecordingStore>,
    /// The node cache over `recorder` (`client_metadata_cache`).
    node_cache: Option<CachedMetadataStore<RecordingStore>>,
    /// The chunk cache (`chunk_cache_bytes`; none when the budget is 0).
    chunk_cache: Option<ChunkCache>,
}

impl SimClient {
    fn new(id: usize, config: &ClusterConfig, dht: &Arc<Dht<NodeKey, NodeBody>>) -> Self {
        let link = |dir: &str| {
            Resource::new(
                format!("client-{id}-{dir}"),
                LINK_BANDWIDTH_BPS,
                LINK_LATENCY_NS,
            )
        };
        let recorder = Arc::new(RecordingStore {
            dht: Arc::clone(dht),
            recorded: Mutex::new(Recorded::default()),
        });
        SimClient {
            id,
            uplink: link("out"),
            downlink: link("in"),
            node_cache: config
                .client_metadata_cache
                .then(|| CachedMetadataStore::new(Arc::clone(&recorder))),
            recorder,
            chunk_cache: (config.chunk_cache_bytes > 0)
                .then(|| ChunkCache::new(config.chunk_cache_bytes)),
        }
    }
}

/// The metadata store a client reads and writes through: its node cache
/// when it has one, its bare recorder otherwise.
fn client_store<'a>(
    recorder: &'a RecordingStore,
    node_cache: &'a Option<CachedMetadataStore<RecordingStore>>,
) -> &'a dyn MetadataStore {
    match node_cache {
        Some(cache) => cache,
        None => recorder,
    }
}

/// The version manager is a lightweight control-plane hop: every request
/// costs a fixed service time but the manager never becomes a queueing
/// bottleneck at the request sizes involved (a few dozen bytes), so it is
/// modelled as a pure delay.
fn vm_delay(now: SimTime) -> SimTime {
    now + VERSION_MANAGER_SERVICE_NS
}

/// The simulated BlobSeer deployment.
pub struct SimulatedCluster {
    config: ClusterConfig,
    version_manager: VersionManager,
    provider_manager: ProviderManager,
    metadata: Arc<Dht<NodeKey, NodeBody>>,
    provider_in: Vec<Resource>,
    provider_out: Vec<Resource>,
    meta_cpu: Vec<Resource>,
    failed_providers: HashSet<ProviderId>,
    degraded: HashMap<ProviderId, f64>,
    health_events: Vec<HealthEvent>,
    counters: RunCounters,
    /// Compressibility of the corpus the running workload moves (its
    /// `Workload::compressibility`); `1.0` between runs.
    compress_ratio: f64,
    /// One zero-filled payload per distinct (length, pinned allocation).
    /// The simulated chunk caches hold clones of these, so their memory
    /// does not grow with their byte budgets.
    zeroes: HashMap<(u64, u64), Bytes>,
}

impl SimulatedCluster {
    /// Builds a simulated deployment from a cluster configuration.
    ///
    /// The version lifecycle (`retained_versions`, `flatten_threshold`) is
    /// measured on real deployments (`fig_g1`), not simulated: a
    /// configuration that enables it is rejected.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        config.validate()?;
        if config.retained_versions > 0 || config.flatten_threshold > 0 {
            return Err(BlobError::InvalidConfig(
                "the simulator does not model the version lifecycle: \
                 retained_versions and flatten_threshold must be 0"
                    .into(),
            ));
        }
        let provider_manager = ProviderManager::new(config.placement);
        for i in 0..config.data_providers {
            provider_manager.register(ProviderId(i as u32));
        }
        let metadata = Arc::new(Dht::new(
            config.metadata_providers,
            DHT_VIRTUAL_NODES,
            config.dht_replication,
        )?);
        let bw = LINK_BANDWIDTH_BPS;
        let lat = LINK_LATENCY_NS;
        Ok(SimulatedCluster {
            provider_in: (0..config.data_providers)
                .map(|i| Resource::new(format!("provider-{i}-in"), bw, lat))
                .collect(),
            provider_out: (0..config.data_providers)
                .map(|i| Resource::new(format!("provider-{i}-out"), bw, lat))
                .collect(),
            meta_cpu: (0..config.metadata_providers)
                .map(|i| Resource::new(format!("meta-{i}"), bw, META_SERVICE_NS))
                .collect(),
            version_manager: VersionManager::new(),
            provider_manager,
            metadata,
            failed_providers: HashSet::new(),
            degraded: HashMap::new(),
            health_events: Vec::new(),
            counters: RunCounters::default(),
            compress_ratio: 1.0,
            zeroes: HashMap::new(),
            config,
        })
    }

    /// Bytes a chunk of `logical` payload bytes occupies on the wire and at
    /// rest under the configured codec: `ceil(logical × compressibility)`
    /// when the `Fast` codec wins, the unchanged logical size otherwise
    /// (codec `Off`, incompressible corpus, or a chunk so small the ceiling
    /// rounds the saving away — the verbatim passthrough in all three
    /// cases).
    fn sealed_physical_len(&self, logical: u64) -> u64 {
        if self.config.chunk_codec != ChunkCodec::Fast || self.compress_ratio >= 1.0 {
            return logical;
        }
        (((logical as f64) * self.compress_ratio).ceil() as u64).clamp(1, logical)
    }

    /// Client CPU time to run the `Fast` codec's sealing scan over one
    /// chunk; zero with the codec `Off`.
    fn seal_probe_ns(&self, logical: u64) -> u64 {
        if self.config.chunk_codec != ChunkCodec::Fast {
            return 0;
        }
        logical / COMPRESS_SCAN_BYTES_PER_NS
    }

    /// Counts one data-plane transfer whose payload is `logical` bytes to the
    /// application and `physical` bytes as the codec shipped it.
    fn count_transfer(&mut self, logical: u64, physical: u64) {
        self.counters.data_round_trips += 1;
        self.counters.bytes_on_wire += physical + FRAME_OVERHEAD_BYTES;
        self.counters.bytes_on_wire_logical += logical + FRAME_OVERHEAD_BYTES;
    }

    /// A zero-filled payload of `len` bytes, pinning an allocation of
    /// `pinned` bytes, to hand a chunk cache: the simulator moves no data,
    /// only the sizes matter (the cache charges the pinned allocation).
    fn payload(&mut self, len: u64, pinned: u64) -> Bytes {
        self.zeroes
            .entry((len, pinned))
            .or_insert_with(|| {
                let mut buf = Vec::with_capacity(pinned as usize);
                buf.resize(len as usize, 0);
                Bytes::from(buf)
            })
            .clone()
    }

    /// The configuration the simulation was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The provider manager (exposed so experiments can adjust QoS scores,
    /// exactly as the behaviour-modelling feedback loop would).
    pub fn provider_manager(&self) -> &ProviderManager {
        &self.provider_manager
    }

    /// Schedules a hard failure of `provider` during the run, lasting
    /// `duration_ns` (recovery is scheduled automatically).
    pub fn schedule_failure(&mut self, provider: ProviderId, at: SimTime, duration_ns: u64) {
        self.health_events.push(HealthEvent {
            at,
            provider,
            kind: HealthChange::Fail,
        });
        self.health_events.push(HealthEvent {
            at: at + duration_ns,
            provider,
            kind: HealthChange::Recover,
        });
    }

    /// Schedules a soft degradation: between `at` and `at + duration_ns` the
    /// provider serves `slowdown` times slower than nominal.
    pub fn schedule_degradation(
        &mut self,
        provider: ProviderId,
        at: SimTime,
        duration_ns: u64,
        slowdown: f64,
    ) {
        self.health_events.push(HealthEvent {
            at,
            provider,
            kind: HealthChange::Degrade(slowdown.max(1.0)),
        });
        self.health_events.push(HealthEvent {
            at: at + duration_ns,
            provider,
            kind: HealthChange::RestoreSpeed,
        });
    }

    /// Immediately lowers/raises a provider's QoS score in the provider
    /// manager (the knob the behaviour-model feedback loop turns).
    pub fn set_provider_qos(&self, provider: ProviderId, score: f64) -> Result<()> {
        self.provider_manager.set_qos_score(provider, score)
    }

    fn apply_health_events(&mut self, now: SimTime) {
        // Events are few; a linear scan keeps the code simple.
        let due: Vec<HealthEvent> = self
            .health_events
            .iter()
            .filter(|e| e.at <= now)
            .copied()
            .collect();
        self.health_events.retain(|e| e.at > now);
        for event in due {
            match event.kind {
                HealthChange::Fail => {
                    self.failed_providers.insert(event.provider);
                    let _ = self.provider_manager.set_alive(event.provider, false);
                }
                HealthChange::Recover => {
                    self.failed_providers.remove(&event.provider);
                    let _ = self.provider_manager.set_alive(event.provider, true);
                }
                HealthChange::Degrade(f) => {
                    self.degraded.insert(event.provider, f);
                }
                HealthChange::RestoreSpeed => {
                    self.degraded.remove(&event.provider);
                }
            }
        }
    }

    fn slowdown(&self, provider: ProviderId) -> f64 {
        self.degraded.get(&provider).copied().unwrap_or(1.0)
    }

    /// Runs a workload and returns its measured result.
    ///
    /// The blob is created fresh, pre-loaded (untimed) if the workload needs
    /// existing data, and then every client replays its operation sequence
    /// concurrently in simulated time. A workload without exactly one op
    /// list per client, or with an invalid blob configuration, is rejected
    /// with [`BlobError::InvalidConfig`] before anything runs.
    pub fn run(&mut self, workload: &Workload) -> Result<SimulationResult> {
        if workload.clients == 0 || workload.ops.len() != workload.clients {
            return Err(BlobError::InvalidConfig(
                "workload must define one op list per client".into(),
            ));
        }
        workload.blob_config.validate()?;
        // Fresh measurement state (the control plane keeps its blobs, which
        // is harmless because every run uses a new blob).
        for r in self
            .provider_in
            .iter_mut()
            .chain(self.provider_out.iter_mut())
            .chain(self.meta_cpu.iter_mut())
        {
            r.reset();
        }
        self.counters = RunCounters::default();
        self.compress_ratio = workload.compressibility.clamp(f64::MIN_POSITIVE, 1.0);

        let blob = self.version_manager.create_blob(workload.blob_config)?;
        if workload.preload_bytes > 0 {
            self.preload(blob, workload)?;
        }

        let mut clients: Vec<SimClient> = (0..workload.clients)
            .map(|i| SimClient::new(i, &self.config, &self.metadata))
            .collect();

        // Event queue: (next ready time, client, next op index).
        let mut queue: BinaryHeap<Reverse<(SimTime, usize, usize)>> = BinaryHeap::new();
        for (c, ops) in workload.ops.iter().enumerate() {
            if !ops.is_empty() {
                queue.push(Reverse((0, c, 0)));
            }
        }

        let mut ops: Vec<OpRecord> = Vec::with_capacity(workload.total_ops());
        let mut write_tag: u64 = 1;
        while let Some(Reverse((now, client, op_index))) = queue.pop() {
            self.apply_health_events(now);
            let op = workload.ops[client][op_index];
            write_tag += 1;
            let record = match op {
                OpKind::Append { .. } | OpKind::Write { .. } => {
                    self.simulate_write(blob, now, op, write_tag, &mut clients[client])?
                }
                OpKind::Read { offset, len } => {
                    self.simulate_read(blob, now, offset, len, &mut clients[client])?
                }
            };
            let end = record.end;
            ops.push(record);
            if op_index + 1 < workload.ops[client].len() {
                queue.push(Reverse((end, client, op_index + 1)));
            }
        }

        let makespan_ns = ops.iter().map(|o| o.end).max().unwrap_or(0);
        let total_bytes = ops.iter().filter(|o| o.ok).map(|o| o.bytes).sum();
        let failed_ops = ops.iter().filter(|o| !o.ok).count();
        let (cache_hits, cache_misses) = clients
            .iter()
            .filter_map(|c| c.chunk_cache.as_ref().map(ChunkCache::stats))
            .fold((0, 0), |(hits, misses), s| {
                (hits + s.hits, misses + s.misses)
            });
        let meta_load = self
            .meta_cpu
            .iter()
            .enumerate()
            .map(|(i, r)| (MetaNodeId(i as u32), r.requests()))
            .collect();
        let provider_write_bytes = self
            .provider_in
            .iter()
            .enumerate()
            .map(|(i, r)| (ProviderId(i as u32), r.bytes()))
            .collect();
        let c = &self.counters;
        Ok(SimulationResult {
            makespan_ns,
            total_bytes,
            ops,
            failed_ops,
            meta_nodes_created: c.meta_nodes_created,
            meta_round_trips: c.meta_round_trips,
            data_round_trips: c.data_round_trips,
            bytes_copied: c.bytes_copied,
            cache_hits,
            cache_misses,
            bytes_on_wire: c.bytes_on_wire,
            bytes_on_wire_logical: c.bytes_on_wire_logical,
            chunks_compressed: c.chunks_compressed,
            compress_saved_bytes: c.compress_saved_bytes,
            frames_coalesced: c.frames_coalesced,
            fsyncs: c.fsyncs,
            wal_bytes: c.wal_bytes,
            meta_load,
            provider_write_bytes,
        })
    }

    /// Loads `preload_bytes` of data into the blob without charging any
    /// resource (the paper's read experiments measure reads of already
    /// stored data).
    fn preload(&mut self, blob: BlobId, workload: &Workload) -> Result<()> {
        let chunk_size = workload.blob_config.chunk_size;
        // Append in large batches to keep the number of snapshots small.
        let batch = (chunk_size * 256).min(workload.preload_bytes.max(chunk_size));
        let mut remaining = workload.preload_bytes;
        let mut tag = u64::MAX / 2;
        while remaining > 0 {
            let len = batch.min(remaining);
            remaining -= len;
            tag += 1;
            let ticket = self
                .version_manager
                .assign_ticket(blob, WriteKind::Append { len })?;
            let slots = chunk_span(ByteRange::new(ticket.offset, len), chunk_size);
            let placement = self.provider_manager.allocate(PlacementRequest {
                chunk_count: slots.len(),
                replication: workload.blob_config.replication,
            })?;
            let chunks: Vec<WrittenChunk> = slots
                .iter()
                .zip(&placement)
                .map(|(slot, providers)| {
                    let end = ((slot.index + 1) * chunk_size).min(ticket.new_size);
                    WrittenChunk {
                        slot: slot.index,
                        chunk: ChunkId {
                            blob,
                            write_tag: tag,
                            slot: slot.index,
                        },
                        providers: providers.clone(),
                        len: end - slot.index * chunk_size,
                    }
                })
                .collect();
            let meta = build_write_metadata_chained(
                self.metadata.as_ref(),
                blob,
                &ticket.chain,
                ticket.version,
                ticket.new_size,
                &chunks,
            )?;
            publish_metadata(self.metadata.as_ref(), meta)?;
            self.version_manager.complete_write(blob, ticket.version)?;
        }
        Ok(())
    }

    fn simulate_write(
        &mut self,
        blob: BlobId,
        now: SimTime,
        op: OpKind,
        write_tag: u64,
        client: &mut SimClient,
    ) -> Result<OpRecord> {
        let (kind, len) = match op {
            OpKind::Append { len } => (WriteKind::Append { len }, len),
            OpKind::Write { offset, len } => (WriteKind::Write { offset, len }, len),
            OpKind::Read { .. } => unreachable!("read handled elsewhere"),
        };
        let chunk_size = self.version_manager.blob_config(blob)?.chunk_size;
        let replication = self.version_manager.blob_config(blob)?.replication;

        // Phase 1: version ticket.
        let t_ticket = vm_delay(now);
        let ticket = self.version_manager.assign_ticket(blob, kind)?;

        // Phase 2: chunk transfers (client uplink, then provider downlink).
        let slots = chunk_span(ByteRange::new(ticket.offset, len), chunk_size);
        let Ok(placement) = self.provider_manager.allocate(PlacementRequest {
            chunk_count: slots.len(),
            replication,
        }) else {
            // Not enough live providers: the write fails; repair keeps the
            // blob consistent for later versions.
            let summary = blobseer_meta::WriteSummary {
                version: ticket.version,
                written_slots: ByteRange::new(
                    slots[0].index * chunk_size,
                    slots.len() as u64 * chunk_size,
                ),
                size: ticket.new_size,
                chunk_size,
            };
            let repair = blobseer_meta::build_repair_metadata(
                self.metadata.as_ref(),
                blob,
                &ticket.chain,
                &summary,
            )?;
            publish_metadata(self.metadata.as_ref(), repair)?;
            self.version_manager.abort_write(blob, ticket.version)?;
            return Ok(OpRecord {
                client: client.id,
                start: now,
                end: t_ticket,
                bytes: 0,
                is_write: true,
                ok: false,
            });
        };
        let write_range = ByteRange::new(ticket.offset, len);
        let mut t_chunks = t_ticket;
        let mut chunks = Vec::with_capacity(slots.len());
        for (slot, providers) in slots.iter().zip(&placement) {
            let slot_start = slot.index * chunk_size;
            let end = ((slot.index + 1) * chunk_size).min(ticket.new_size);
            let chunk_len = end - slot_start;
            // Zero-copy write fast path: a slot fully covered by the write
            // ships as a sub-slice of the caller's buffer; only boundary
            // slots pay a client-side assembly copy.
            let covered = write_range.offset <= slot_start && write_range.end() >= end;
            if !covered {
                self.counters.bytes_copied += chunk_len;
            }
            // The writing client seals the chunk exactly once — every
            // replica push ships the same envelope, and providers store it
            // as-is — paying the codec's sealing scan before the first byte
            // goes out. Only a strictly smaller result counts as
            // compressed; anything else takes the verbatim passthrough.
            let physical = self.sealed_physical_len(chunk_len);
            let probe_ns = self.seal_probe_ns(chunk_len);
            if physical < chunk_len {
                self.counters.chunks_compressed += 1;
                self.counters.compress_saved_bytes += chunk_len - physical;
            }
            for &p in providers {
                self.count_transfer(chunk_len, physical);
                let sent = client.uplink.schedule(t_ticket + probe_ns, physical);
                let charged = (physical as f64 * self.slowdown(p)) as u64;
                let mut done = self.provider_in[p.0 as usize].schedule(sent, charged);
                // `Always` durability flushes every chunk record as the
                // segment file appends it, before the provider acks.
                if self.config.durability == Durability::Always {
                    self.counters.fsyncs += 1;
                    done += FSYNC_NS;
                }
                t_chunks = t_chunks.max(done);
            }
            let chunk = ChunkId {
                blob,
                write_tag,
                slot: slot.index,
            };
            // Write-through: the writer keeps the payload it just pushed,
            // so re-reading your own writes never fetches. A covered slot
            // is a view of the caller's `len`-byte buffer, which the cache
            // either compacts when it accepts the entry — charge that copy
            // — or keeps by reference, charged the whole buffer. Boundary
            // slots (assembled into owned buffers) pin only themselves. A
            // payload the cache would compact is handed over already
            // compact, so the simulated caches never allocate.
            if let Some(cache) = &client.chunk_cache {
                let pinned = if covered { len } else { chunk_len };
                let compacts = ChunkCache::compacts(chunk_len, pinned);
                let accepted_before = cache.stats().insertions;
                let payload = self.payload(chunk_len, if compacts { chunk_len } else { pinned });
                cache.insert(chunk, payload);
                if compacts && cache.stats().insertions > accepted_before {
                    self.counters.bytes_copied += chunk_len;
                }
            }
            chunks.push(WrittenChunk {
                slot: slot.index,
                chunk,
                providers: providers.clone(),
                len: chunk_len,
            });
        }

        // Phase 3: metadata weaving and publication — run the real
        // algorithm (whose hot paths batch: one get per tree level, one
        // shard-grouped publish), then charge the recorded round-trips. The
        // client weaves while its chunk transfers are on the wire, so
        // weaving starts right after the ticket and the write's elapsed
        // cost becomes max(data path, weaving path) + publication.
        // Publication itself never overlaps the chunk transfers — exactly
        // like the client, which joins every store completion before
        // `publish_metadata` — so its round-trips are charged from
        // max(weave done, chunks done).
        //
        // `pipeline_depth` is not modelled: the client-side in-flight cap
        // (depth × workers) is a memory/backpressure bound that the
        // open-ended resource model here has no queue-occupancy notion to
        // express.
        let store = client_store(&client.recorder, &client.node_cache);
        let meta = build_write_metadata_chained(
            store,
            blob,
            &ticket.chain,
            ticket.version,
            ticket.new_size,
            &chunks,
        )?;
        let weave_trips = client.recorder.drain().trips;
        let nodes_created = meta.node_count() as u64;
        publish_metadata(store, meta)?;
        self.counters.meta_nodes_created += nodes_created;
        let publish_trips = client.recorder.drain().trips;
        let t_weave = self.charge_meta_trips(t_ticket, &weave_trips, &mut client.uplink);
        let t_meta =
            self.charge_meta_trips(t_weave.max(t_chunks), &publish_trips, &mut client.uplink);

        // Durability cost model: the WAL appends one record per tree node
        // plus the commit record under every policy; the policy decides how
        // many flushes gate the acknowledgement. `Commit` (write-ahead
        // ordering) syncs the touched segment files — one fsync each, in
        // parallel, they are separate disks — then appends and syncs the
        // commit record: two flush latencies on the ack path. `Always`
        // already flushed each chunk record above and each WAL node record
        // as it was appended (those serialise on the one WAL file), leaving
        // the commit record's own flush.
        self.counters.wal_bytes += nodes_created * WAL_NODE_RECORD_BYTES + WAL_COMMIT_RECORD_BYTES;
        let t_durable = match self.config.durability {
            Durability::Buffered => t_meta.max(t_chunks),
            Durability::Commit => {
                let touched: HashSet<ProviderId> = placement.iter().flatten().copied().collect();
                self.counters.fsyncs += touched.len() as u64 + 1;
                t_meta.max(t_chunks) + 2 * FSYNC_NS
            }
            Durability::Always => {
                self.counters.fsyncs += nodes_created + 1;
                t_meta.max(t_chunks) + (nodes_created + 1) * FSYNC_NS
            }
        };

        // Phase 4: publication to the version manager.
        let t_done = vm_delay(t_durable);
        self.version_manager.complete_write(blob, ticket.version)?;
        Ok(OpRecord {
            client: client.id,
            start: now,
            end: t_done,
            bytes: len,
            is_write: true,
            ok: true,
        })
    }

    fn simulate_read(
        &mut self,
        blob: BlobId,
        now: SimTime,
        offset: u64,
        len: u64,
        client: &mut SimClient,
    ) -> Result<OpRecord> {
        // Phase 1: ask the version manager for the latest snapshot.
        let t_snapshot = vm_delay(now);
        let snapshot = self.version_manager.latest_snapshot(blob)?;
        let range = ByteRange::new(offset, len.min(snapshot.size.saturating_sub(offset)));
        if range.is_empty() {
            return Ok(OpRecord {
                client: client.id,
                start: now,
                end: t_snapshot,
                bytes: 0,
                is_write: false,
                ok: true,
            });
        }

        // Phase 2+3: metadata tree descent (one batched round-trip per tree
        // level per owning metadata node, minus what the client's node cache
        // holds or prefetched) and chunk fetches from the providers
        // (provider uplink, then client downlink, first live replica of
        // each chunk). A leaf's fetch starts the moment the round-trip that
        // brought its node back completed, while deeper levels and slower
        // shards are still in flight — the operation's elapsed cost becomes
        // max(metadata critical path, data critical path).
        let SimClient {
            id,
            uplink,
            downlink,
            recorder,
            node_cache,
            chunk_cache,
        } = client;
        let chunk_cache = chunk_cache.as_ref();
        let mut t_meta = t_snapshot;
        let mut t_data = t_snapshot;
        let mut fetched_bytes = 0u64;
        let mut all_found = true;
        // Arrival time of every leaf this read fetched, by slot. A leaf
        // prefetched by an earlier level's batch is a cache hit when its
        // level comes, but it arrived with that earlier batch.
        let mut leaf_arrival: HashMap<ByteRange, SimTime> = HashMap::new();
        let store = client_store(recorder, node_cache);
        collect_leaves_streaming(store, blob, &snapshot, range, |level| {
            let Recorded { trips, leaves } = recorder.drain();
            let (level_done, trip_done) =
                self.charge_meta_trips_detailed(t_snapshot, &trips, uplink);
            t_meta = t_meta.max(level_done);
            for (slot, node) in leaves {
                leaf_arrival.insert(slot, trip_done[&node]);
            }
            for mapping in level {
                let Some(leaf) = mapping.leaf.clone() else {
                    continue;
                };
                if leaf.is_hole() {
                    continue;
                }
                // Leaves cached by earlier operations start at once.
                let start_at = leaf_arrival
                    .get(&mapping.slot_range)
                    .copied()
                    .unwrap_or(t_snapshot);
                let (done, wanted, found) = self.schedule_fetch(
                    start_at,
                    mapping.slot_range,
                    &leaf,
                    range,
                    downlink,
                    chunk_cache,
                );
                t_data = t_data.max(done);
                fetched_bytes += wanted;
                all_found &= found;
            }
        })?;
        Ok(OpRecord {
            client: *id,
            start: now,
            end: t_data.max(t_meta),
            bytes: fetched_bytes,
            is_write: false,
            ok: all_found,
        })
    }

    /// Schedules one chunk fetch starting at `start_at`: provider uplink,
    /// then client downlink. Returns the completion time, the payload bytes
    /// the read range actually wanted from the chunk, and whether the chunk
    /// was reachable at all.
    ///
    /// The client's chunk cache is consulted first: a hit costs no
    /// round-trip, charges no resource and — because the cached entry is the
    /// already materialised buffer — serves the chunk even when every
    /// provider holding it has failed. Misses fetch over the wire, charge
    /// one receive materialisation to `bytes_copied` and fill the cache.
    fn schedule_fetch(
        &mut self,
        start_at: SimTime,
        slot_range: ByteRange,
        leaf: &blobseer_meta::LeafNode,
        range: ByteRange,
        downlink: &mut Resource,
        chunk_cache: Option<&ChunkCache>,
    ) -> (SimTime, u64, bool) {
        let wanted = slot_range
            .intersect(&range)
            .map(|r| r.len.min(leaf.len))
            .unwrap_or(0);
        if wanted == 0 {
            return (start_at, 0, true);
        }
        if chunk_cache.is_some_and(|cache| cache.get(&leaf.chunk).is_some()) {
            return (start_at, wanted, true);
        }
        let Some(provider) = leaf
            .providers
            .iter()
            .copied()
            .find(|p| !self.failed_providers.contains(p))
        else {
            return (start_at, 0, false);
        };
        self.counters.bytes_copied += leaf.len;
        // Providers ship the stored envelope verbatim — compressed chunks
        // cross the wire at their sealed (physical) size and the reader
        // decompresses once on receive; the materialised buffer above is
        // the logical payload either way.
        let physical = self.sealed_physical_len(leaf.len);
        self.count_transfer(leaf.len, physical);
        let charged = (physical as f64 * self.slowdown(provider)) as u64;
        let served = self.provider_out[provider.0 as usize].schedule(start_at, charged);
        let done = downlink.schedule(served, physical);
        // A verbatim chunk is cached as a view of its response frame, which
        // pins the frame's overhead too; a decompressed one owns its buffer.
        if let Some(cache) = chunk_cache {
            let pinned = if physical < leaf.len {
                leaf.len
            } else {
                leaf.len + FRAME_OVERHEAD_BYTES
            };
            cache.insert(leaf.chunk, self.payload(leaf.len, pinned));
        }
        (done, wanted, true)
    }

    /// Charges the recorded metadata round-trips of one protocol step,
    /// all arriving at `start`: the client uplink carries one request
    /// message per trip (that is where batching wins — one per-request
    /// latency per owning node, not per tree node), while the contacted
    /// provider still processes every node the batch carries. Returns the
    /// completion time of the last trip.
    fn charge_meta_trips(
        &mut self,
        start: SimTime,
        trips: &[MetaTrip],
        uplink: &mut Resource,
    ) -> SimTime {
        self.charge_meta_trips_detailed(start, trips, uplink).0
    }

    /// [`Self::charge_meta_trips`] plus the per-metadata-node completion
    /// times of the charged trips — the pipelined read model starts a
    /// leaf's chunk fetch at its own shard's completion, not the batch's.
    fn charge_meta_trips_detailed(
        &mut self,
        start: SimTime,
        trips: &[MetaTrip],
        uplink: &mut Resource,
    ) -> (SimTime, HashMap<MetaNodeId, SimTime>) {
        self.counters.meta_round_trips += trips.len() as u64;
        if trips.is_empty() {
            return (start, HashMap::new());
        }
        // The trips of one protocol step are all issued at `start`, so the
        // RPC layer coalesces their request frames into one vectored uplink
        // write: the batch pays the client link's per-request latency once,
        // not once per trip (mirrored by the `frames_coalesced` counter,
        // matching `TransportStats::frames_coalesced` semantics: a batch of
        // n contributes n - 1).
        if trips.len() > 1 {
            self.counters.frames_coalesced += trips.len() as u64 - 1;
        }
        let batch_bytes: u64 = trips.iter().map(|t| t.items * META_NODE_WIRE_BYTES).sum();
        let sent = uplink.schedule(start, batch_bytes);
        let mut t_meta = start;
        let mut per_node: HashMap<MetaNodeId, SimTime> = HashMap::with_capacity(trips.len());
        for trip in trips {
            let cpu = &mut self.meta_cpu[trip.node.0 as usize];
            let mut done = sent;
            for _ in 0..trip.items {
                done = cpu.schedule(sent, META_NODE_WIRE_BYTES);
            }
            t_meta = t_meta.max(done);
            let slot = per_node.entry(trip.node).or_insert(done);
            *slot = (*slot).max(done);
        }
        (t_meta, per_node)
    }
}

impl std::fmt::Debug for SimulatedCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatedCluster")
            .field("data_providers", &self.config.data_providers)
            .field("metadata_providers", &self.config.metadata_providers)
            .field("placement", &self.config.placement)
            .finish()
    }
}

/// Convenience constructor used by the benchmark harness: a Grid'5000-like
/// deployment with the given number of data and metadata providers.
pub fn grid_like_cluster(
    data_providers: usize,
    metadata_providers: usize,
) -> Result<SimulatedCluster> {
    let config = ClusterConfig {
        data_providers,
        metadata_providers,
        ..ClusterConfig::default()
    };
    SimulatedCluster::new(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadBuilder;
    use blobseer_types::BlobConfig;

    fn small_workload(clients: usize) -> Workload {
        WorkloadBuilder::new(clients)
            .ops_per_client(2)
            .op_size(8 << 20)
            .chunk_size(1 << 20)
            .concurrent_appends()
    }

    fn durability_cluster(durability: Durability) -> SimulatedCluster {
        let config = ClusterConfig {
            data_providers: 16,
            metadata_providers: 4,
            durability,
            ..ClusterConfig::default()
        };
        SimulatedCluster::new(config).unwrap()
    }

    #[test]
    fn durability_policies_order_fsyncs_and_latency() {
        let workload = small_workload(1);
        let buffered = durability_cluster(Durability::Buffered)
            .run(&workload)
            .unwrap();
        let commit = durability_cluster(Durability::Commit)
            .run(&workload)
            .unwrap();
        let always = durability_cluster(Durability::Always)
            .run(&workload)
            .unwrap();

        // The WAL is appended under every policy; only the flushes differ.
        assert!(buffered.wal_bytes > 0, "WAL appends happen even buffered");
        assert_eq!(buffered.wal_bytes, commit.wal_bytes);
        assert_eq!(commit.wal_bytes, always.wal_bytes);
        assert_eq!(buffered.fsyncs, 0, "Buffered never flushes");
        assert!(
            commit.fsyncs > 0,
            "Commit flushes segments and the commit record per version"
        );
        assert!(
            always.fsyncs > commit.fsyncs,
            "Always flushes every record, strictly more than Commit"
        );
        // Each flush gates the acknowledgement path, so latency orders the
        // same way the flush counts do.
        assert!(buffered.mean_latency_ms() < commit.mean_latency_ms());
        assert!(commit.mean_latency_ms() < always.mean_latency_ms());
    }

    #[test]
    fn single_writer_throughput_is_bounded_by_its_uplink() {
        let mut sim = grid_like_cluster(16, 4).unwrap();
        let result = sim.run(&small_workload(1)).unwrap();
        assert_eq!(result.failed_ops, 0);
        assert_eq!(result.total_bytes, 16 << 20);
        let mibps = result.aggregated_mibps();
        let link_mibps = 125_000_000.0 / (1024.0 * 1024.0);
        assert!(
            mibps <= link_mibps * 1.01,
            "one client cannot exceed its NIC ({mibps:.1} vs {link_mibps:.1} MiB/s)"
        );
        assert!(
            mibps > link_mibps * 0.5,
            "overheads should not halve throughput"
        );
    }

    #[test]
    fn aggregated_write_throughput_scales_with_clients() {
        let mut sim = grid_like_cluster(64, 16).unwrap();
        let t1 = sim.run(&small_workload(1)).unwrap().aggregated_mibps();
        let t16 = sim.run(&small_workload(16)).unwrap().aggregated_mibps();
        let t64 = sim.run(&small_workload(64)).unwrap().aggregated_mibps();
        assert!(
            t16 > 6.0 * t1,
            "16 clients should scale well ({t16:.0} vs {t1:.0})"
        );
        assert!(t64 > t16, "64 clients should still add throughput");
    }

    #[test]
    fn throughput_saturates_when_providers_are_few() {
        // 64 clients writing to 4 providers: provider downlinks are the
        // bottleneck, so adding providers raises aggregate throughput.
        let few = grid_like_cluster(4, 8)
            .unwrap()
            .run(&small_workload(32))
            .unwrap()
            .aggregated_mibps();
        let many = grid_like_cluster(32, 8)
            .unwrap()
            .run(&small_workload(32))
            .unwrap()
            .aggregated_mibps();
        assert!(
            many > 3.0 * few,
            "striping over 32 providers must beat 4 providers ({many:.0} vs {few:.0})"
        );
    }

    #[test]
    fn decentralized_metadata_beats_centralized_under_concurrency() {
        // Small chunks → many metadata nodes per write → the single
        // metadata server becomes the bottleneck (the paper's Fig. C1).
        let workload = WorkloadBuilder::new(64)
            .ops_per_client(1)
            .op_size(16 << 20)
            .chunk_size(256 << 10)
            .concurrent_appends();
        let centralized = grid_like_cluster(64, 1)
            .unwrap()
            .run(&workload)
            .unwrap()
            .aggregated_mibps();
        let decentralized = grid_like_cluster(64, 32)
            .unwrap()
            .run(&workload)
            .unwrap()
            .aggregated_mibps();
        assert!(
            decentralized > 1.5 * centralized,
            "DHT metadata ({decentralized:.0} MiB/s) must clearly beat a centralized server ({centralized:.0} MiB/s)"
        );
    }

    #[test]
    fn reads_scale_and_find_preloaded_data() {
        let workload = WorkloadBuilder::new(16)
            .ops_per_client(2)
            .op_size(8 << 20)
            .chunk_size(1 << 20)
            .disjoint_reads();
        let mut sim = grid_like_cluster(32, 8).unwrap();
        let result = sim.run(&workload).unwrap();
        assert_eq!(result.failed_ops, 0);
        assert_eq!(result.total_bytes, workload.total_payload());
        assert!(result.aggregated_mibps() > 200.0);
    }

    #[test]
    fn reads_issue_batched_round_trips_not_per_node_requests() {
        // 8 reads of 128 chunks each over a 4-shard DHT: a node-at-a-time
        // descent would fetch well over a thousand tree nodes one round-trip
        // at a time; the level-order descent stays within
        // depth × shards per read.
        let workload = WorkloadBuilder::new(4)
            .ops_per_client(2)
            .op_size(16 << 20)
            .chunk_size(128 << 10)
            .disjoint_reads();
        let mut sim = grid_like_cluster(16, 4).unwrap();
        let result = sim.run(&workload).unwrap();
        assert_eq!(result.failed_ops, 0);
        let leaves_fetched = 8 * 128u64;
        assert!(result.meta_round_trips > 0);
        assert!(
            result.meta_round_trips < leaves_fetched,
            "{} round-trips for {leaves_fetched} leaves: the descent is not batched",
            result.meta_round_trips
        );
    }

    #[test]
    fn writes_publish_in_shard_grouped_batches() {
        let mut sim = grid_like_cluster(16, 4).unwrap();
        let result = sim.run(&small_workload(4)).unwrap();
        assert_eq!(result.failed_ops, 0);
        assert!(result.meta_nodes_created > 0);
        assert!(result.meta_round_trips > 0);
        // Unbatched publication alone would cost one round-trip per created
        // node; batched publication plus the (single-node) weaving lookups
        // must land clearly below that.
        assert!(
            result.meta_round_trips < result.meta_nodes_created,
            "{} round-trips for {} created nodes",
            result.meta_round_trips,
            result.meta_nodes_created
        );
    }

    #[test]
    fn metadata_nodes_are_spread_over_the_dht() {
        let workload = WorkloadBuilder::new(8)
            .ops_per_client(2)
            .op_size(16 << 20)
            .chunk_size(512 << 10)
            .concurrent_appends();
        let mut sim = grid_like_cluster(16, 8).unwrap();
        let result = sim.run(&workload).unwrap();
        assert!(result.meta_nodes_created > 0);
        let loaded_nodes = result.meta_load.values().filter(|&&n| n > 0).count();
        assert!(
            loaded_nodes >= 6,
            "metadata load should spread over most of the 8 DHT nodes, got {loaded_nodes}"
        );
    }

    #[test]
    fn data_round_trips_count_chunks_and_replicas() {
        // 4 clients × 2 appends × 8 MiB in 1 MiB chunks, replication 2:
        // every chunk costs two data round-trips, reads would cost one each.
        let workload = WorkloadBuilder::new(4)
            .ops_per_client(2)
            .op_size(8 << 20)
            .chunk_size(1 << 20)
            .replication(2)
            .concurrent_appends();
        let result = grid_like_cluster(16, 4).unwrap().run(&workload).unwrap();
        assert_eq!(result.failed_ops, 0);
        assert_eq!(result.data_round_trips, 4 * 2 * 8 * 2);
    }

    fn with_cache(cache_bytes: u64) -> SimulatedCluster {
        SimulatedCluster::new(ClusterConfig {
            data_providers: 16,
            metadata_providers: 4,
            chunk_cache_bytes: cache_bytes,
            ..ClusterConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn second_read_of_a_published_version_is_round_trip_free() {
        // One client scans the same published 8 MiB region twice. With the
        // chunk cache the second scan performs ZERO data round-trips: all 8
        // chunks of the first scan are still cached (immutable, so no
        // invalidation could have removed them).
        let workload = WorkloadBuilder::new(1)
            .ops_per_client(2)
            .op_size(8 << 20)
            .chunk_size(1 << 20)
            .rescan_reads();
        let cold = with_cache(0).run(&workload).unwrap();
        let cached = with_cache(64 << 20).run(&workload).unwrap();
        assert_eq!(cold.failed_ops, 0);
        assert_eq!(cached.failed_ops, 0);
        assert_eq!(cold.total_bytes, cached.total_bytes);
        assert_eq!(cold.data_round_trips, 16, "two full scans over the wire");
        assert_eq!(
            cached.data_round_trips, 8,
            "the second scan must fetch nothing"
        );
        assert_eq!(cached.cache_misses, 8);
        assert_eq!(cached.cache_hits, 8);
        assert_eq!(cold.cache_hits, 0);
        assert!(cached.bytes_copied < cold.bytes_copied);
        assert!(
            cached.makespan_ns < cold.makespan_ns,
            "hits cost no wire time ({} vs {} ns)",
            cached.makespan_ns,
            cold.makespan_ns
        );
    }

    #[test]
    fn write_through_makes_read_your_writes_free() {
        // A client appends 8 MiB and immediately reads it back: the read is
        // served entirely from the write-through cache.
        let len = 8u64 << 20;
        let workload = Workload {
            clients: 1,
            blob_config: BlobConfig {
                chunk_size: 1 << 20,
                ..BlobConfig::default()
            },
            preload_bytes: 0,
            ops: vec![vec![
                OpKind::Append { len },
                OpKind::Read { offset: 0, len },
            ]],
            compressibility: 1.0,
        };
        let result = with_cache(64 << 20).run(&workload).unwrap();
        assert_eq!(result.failed_ops, 0);
        assert_eq!(result.data_round_trips, 8, "only the append's pushes");
        assert_eq!(result.cache_hits, 8);
        assert_eq!(result.cache_misses, 0);
    }

    #[test]
    fn aligned_writes_copy_nothing_in_the_sim_model() {
        // Chunk-aligned appends take the zero-copy fast path; the receive
        // copies of reads are the only bytes_copied a read-free run charges.
        let aligned = with_cache(0).run(&small_workload(4)).unwrap();
        assert_eq!(aligned.bytes_copied, 0, "aligned appends assemble nothing");
        // Unaligned appends (op size not a chunk multiple) charge boundary
        // slots from the second op on: the first append truncates its last
        // slot (still fully covered), the next one starts mid-chunk.
        let unaligned = WorkloadBuilder::new(1)
            .ops_per_client(2)
            .op_size((1 << 20) + 17)
            .chunk_size(1 << 20)
            .concurrent_appends();
        let result = with_cache(0).run(&unaligned).unwrap();
        assert!(result.bytes_copied > 0);
    }

    fn with_codec(codec: ChunkCodec) -> SimulatedCluster {
        SimulatedCluster::new(ClusterConfig {
            data_providers: 16,
            metadata_providers: 4,
            chunk_codec: codec,
            ..ClusterConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn fast_codec_on_a_compressible_corpus_cuts_wire_bytes_and_time() {
        // Mixed readers/writers over a corpus that compresses to 40%: the
        // Fast codec moves the same logical bytes in strictly fewer physical
        // wire bytes and strictly less simulated time.
        let workload = WorkloadBuilder::new(8)
            .ops_per_client(2)
            .op_size(8 << 20)
            .chunk_size(1 << 20)
            .compressibility(0.4)
            .readers_during_writers();
        let off = with_codec(ChunkCodec::Off).run(&workload).unwrap();
        let fast = with_codec(ChunkCodec::Fast).run(&workload).unwrap();
        assert_eq!(off.failed_ops, 0);
        assert_eq!(fast.failed_ops, 0);
        assert_eq!(
            off.total_bytes, fast.total_bytes,
            "the codec is invisible to payloads"
        );
        assert_eq!(off.data_round_trips, fast.data_round_trips);
        // Codec Off never compresses and reports logical == physical.
        assert_eq!(off.chunks_compressed, 0);
        assert_eq!(off.compress_saved_bytes, 0);
        assert_eq!(off.bytes_on_wire, off.bytes_on_wire_logical);
        // Fast compresses every sealed chunk of this corpus and the physical
        // wire traffic drops well below the logical traffic.
        assert!(fast.chunks_compressed > 0);
        assert!(fast.compress_saved_bytes > 0);
        assert_eq!(fast.bytes_on_wire_logical, off.bytes_on_wire_logical);
        assert!(
            (fast.bytes_on_wire as f64) < 0.5 * fast.bytes_on_wire_logical as f64,
            "a 0.4 corpus must roughly halve the wire bytes ({} vs {})",
            fast.bytes_on_wire,
            fast.bytes_on_wire_logical
        );
        assert!(
            fast.makespan_ns < off.makespan_ns,
            "fewer wire bytes must buy simulated time ({} vs {} ns)",
            fast.makespan_ns,
            off.makespan_ns
        );
    }

    #[test]
    fn incompressible_corpus_under_fast_ships_verbatim_and_pays_only_the_probe() {
        // The default workload is incompressible: Fast seals every chunk
        // through the verbatim passthrough, the wire sees exactly the Off
        // traffic, and the only cost is the sealing scan's CPU time.
        let workload = small_workload(4);
        let off = with_codec(ChunkCodec::Off).run(&workload).unwrap();
        let fast = with_codec(ChunkCodec::Fast).run(&workload).unwrap();
        assert_eq!(off.total_bytes, fast.total_bytes);
        assert_eq!(
            fast.chunks_compressed, 0,
            "passthroughs are not compressions"
        );
        assert_eq!(fast.compress_saved_bytes, 0);
        assert_eq!(fast.bytes_on_wire, off.bytes_on_wire);
        assert_eq!(fast.bytes_on_wire, fast.bytes_on_wire_logical);
        assert!(
            fast.makespan_ns >= off.makespan_ns,
            "the probe cannot make the run faster"
        );
        // The probe is a bounded scan, not a second transfer: well under 10%
        // of the Off makespan at these sizes.
        assert!(
            fast.makespan_ns as f64 <= off.makespan_ns as f64 * 1.1,
            "the passthrough must cap the probe's cost ({} vs {} ns)",
            fast.makespan_ns,
            off.makespan_ns
        );
    }

    #[test]
    fn codec_savings_compound_with_replication_and_rescans() {
        // Replicated writes push the sealed envelope per replica: the wire
        // saving multiplies, while chunks_compressed counts each chunk once.
        let workload = WorkloadBuilder::new(2)
            .ops_per_client(2)
            .op_size(4 << 20)
            .chunk_size(1 << 20)
            .replication(2)
            .compressibility(0.5)
            .concurrent_appends();
        let fast = with_codec(ChunkCodec::Fast).run(&workload).unwrap();
        assert_eq!(fast.failed_ops, 0);
        assert_eq!(fast.chunks_compressed, 2 * 2 * 4, "one seal per chunk");
        assert_eq!(fast.data_round_trips, 2 * 2 * 4 * 2, "one push per replica");
        // Each chunk saved ~0.5 MiB at sealing; on the wire that saving is
        // paid out once per replica push.
        let wire_saving = fast.bytes_on_wire_logical - fast.bytes_on_wire;
        assert_eq!(wire_saving, 2 * fast.compress_saved_bytes);
    }

    #[test]
    fn failed_providers_reduce_read_success_without_replication() {
        let workload = WorkloadBuilder::new(4)
            .ops_per_client(2)
            .op_size(4 << 20)
            .chunk_size(1 << 20)
            .disjoint_reads();
        let mut sim = grid_like_cluster(8, 4).unwrap();
        // Fail half the providers right away, for the whole run.
        for i in 0..4u32 {
            sim.schedule_failure(ProviderId(i), 0, u64::MAX / 2);
        }
        let result = sim.run(&workload).unwrap();
        assert!(result.failed_ops > 0, "unreplicated reads must lose data");
    }

    #[test]
    fn replication_masks_provider_failures() {
        let workload = WorkloadBuilder::new(4)
            .ops_per_client(2)
            .op_size(4 << 20)
            .chunk_size(1 << 20)
            .replication(2)
            .disjoint_reads();
        let mut sim = grid_like_cluster(8, 4).unwrap();
        // Round-robin places the two replicas of a chunk on adjacent
        // providers, so fail two non-adjacent ones.
        for i in [0u32, 4u32] {
            sim.schedule_failure(ProviderId(i), 0, u64::MAX / 2);
        }
        let result = sim.run(&workload).unwrap();
        assert_eq!(
            result.failed_ops, 0,
            "a replica must cover every failed provider"
        );
    }

    #[test]
    fn degradation_slows_the_run_down() {
        let workload = small_workload(8);
        let healthy = grid_like_cluster(8, 4)
            .unwrap()
            .run(&workload)
            .unwrap()
            .aggregated_mibps();
        let mut degraded_sim = grid_like_cluster(8, 4).unwrap();
        for i in 0..4u32 {
            degraded_sim.schedule_degradation(ProviderId(i), 0, u64::MAX / 2, 8.0);
        }
        let degraded = degraded_sim.run(&workload).unwrap().aggregated_mibps();
        assert!(
            degraded < healthy * 0.8,
            "slowing half the providers 8x must hurt throughput ({degraded:.0} vs {healthy:.0})"
        );
    }

    #[test]
    fn windowed_throughput_covers_the_makespan() {
        let mut sim = grid_like_cluster(8, 4).unwrap();
        let result = sim.run(&small_workload(4)).unwrap();
        let windows = result.windowed_throughput_mibps(result.makespan_ns / 10);
        assert!(windows.len() >= 10);
        let total_from_windows: f64 =
            windows.iter().sum::<f64>() * (result.makespan_ns as f64 / 10.0 / NANOS_PER_SEC as f64);
        let total_mib = result.total_bytes as f64 / (1024.0 * 1024.0);
        assert!((total_from_windows - total_mib).abs() / total_mib < 0.2);
    }

    #[test]
    fn run_rejects_a_workload_missing_an_op_list() {
        let mut sim = grid_like_cluster(8, 4).unwrap();
        let mut missing = small_workload(2);
        missing.ops.pop();
        assert!(matches!(
            sim.run(&missing),
            Err(BlobError::InvalidConfig(_))
        ));
        let mut none = small_workload(1);
        none.clients = 0;
        none.ops.clear();
        assert!(matches!(sim.run(&none), Err(BlobError::InvalidConfig(_))));
        // The cluster stays usable for a well-formed workload.
        assert_eq!(sim.run(&small_workload(2)).unwrap().failed_ops, 0);
    }

    #[test]
    fn lifecycle_configurations_are_rejected() {
        for (retained_versions, flatten_threshold) in [(4, 0), (0, 25)] {
            let config = ClusterConfig {
                retained_versions,
                flatten_threshold,
                ..ClusterConfig::default()
            };
            assert!(matches!(
                SimulatedCluster::new(config),
                Err(BlobError::InvalidConfig(_))
            ));
        }
    }
}
