//! In-process cluster wiring.
//!
//! A [`Cluster`] instantiates every BlobSeer service — the version manager,
//! the provider manager, the data providers and the metadata-provider DHT —
//! inside one process, connected by shared-memory handles instead of a
//! network. Functionally this is exactly the distributed deployment (every
//! service keeps its own state and communicates only through its public
//! interface); performance-at-scale questions are answered by the
//! `blobseer-sim` crate instead.

use crate::admission::AdmissionController;
use crate::chunk_cache::ChunkCache;
use crate::client::BlobClient;
use crate::lifecycle::LifecycleEngine;
use crate::services::{ChunkService, ClientServices, InProcessChunkService, MetadataService};
use crate::transfer::TransferPool;
use crate::version_manager::VersionManager;
use blobseer_dht::Dht;
use blobseer_meta::{MetadataStore, NodeBody, NodeKey};
use blobseer_persist::{
    DurableTier, DurableTierOptions, RecoveredMetadata, RecoveryStats, WalMetaStore,
};
use blobseer_provider::{DataProvider, ProviderManager};
use blobseer_qos::{MonitoringCollector, QosController};
use blobseer_types::{
    BlobError, ClientId, ClusterConfig, IdGenerator, MetaNodeId, ProviderId, Result,
    DHT_VIRTUAL_NODES, QOS_HORIZON,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// A complete in-process BlobSeer deployment.
///
/// The cluster owns the concrete service implementations — the version
/// manager, the [`InProcessChunkService`] (provider manager + data
/// providers) and the metadata-provider DHT — plus the shared
/// [`TransferPool`] every client moves chunks through. Clients obtained from
/// [`Cluster::client`] see only the [`ChunkService`] / [`MetadataService`]
/// traits.
pub struct Cluster {
    config: ClusterConfig,
    version_manager: Arc<VersionManager>,
    chunk_service: Arc<InProcessChunkService>,
    metadata: Arc<Dht<NodeKey, NodeBody>>,
    /// The metadata service clients and the lifecycle engine mutate
    /// through: the DHT itself for RAM-resident clusters, a
    /// [`WalMetaStore`] wrapping it for durable ones (every node put and
    /// delete hits the write-ahead log first).
    meta_service: Arc<dyn MetadataService>,
    transfers: Arc<TransferPool>,
    client_ids: IdGenerator,
    /// One chunk cache shared by every client of this process, when
    /// `ClusterConfig::shared_chunk_cache` is set (chunk immutability makes
    /// sharing safe without any coherence protocol). `None` otherwise —
    /// each client then gets its own private cache.
    shared_chunk_cache: Option<Arc<ChunkCache>>,
    /// The version lifecycle engine (snapshot flattening + GC), configured
    /// from `ClusterConfig::{retained_versions, flatten_threshold}`. Built
    /// on first use: over the in-process services by [`Cluster::lifecycle`],
    /// or over a served deployment's wire services by
    /// [`Cluster::build_lifecycle_over`]. With both knobs at zero it never
    /// flattens or evicts, and sweeping finds nothing.
    lifecycle: OnceLock<Arc<LifecycleEngine>>,
    /// The durable persistence tier, when the cluster was opened with
    /// [`Cluster::open_durable`]. `None` for RAM-resident clusters.
    durable: Option<Arc<DurableTier>>,
    /// What recovery found when the durable tier was opened (all zeros for
    /// RAM-resident clusters and fresh durable directories).
    recovery: RecoveryStats,
    /// Per-client admission throttle applied to every client of this
    /// cluster, when `ClusterConfig::admission_limit` is non-zero.
    admission: Option<Arc<AdmissionController>>,
    /// The QoS feedback controller, when QoS-aware serving is configured
    /// (`ClusterConfig::effective_qos_states() >= 2`). Stepped on the
    /// lifecycle maintenance tick; `step` needs `&mut self`, hence the lock.
    qos: Option<Arc<Mutex<QosController>>>,
    /// Background WAL-checkpoint thread: the independent trigger that keeps
    /// replay cost bounded even when the lifecycle engine never runs.
    checkpointer: Mutex<Option<CheckpointerHandle>>,
    /// Set once [`Cluster::shutdown`] has run (it is idempotent).
    shutdown_done: AtomicBool,
}

struct CheckpointerHandle {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

/// One durable maintenance pass: a WAL checkpoint when either the record or
/// the byte trigger tripped, then policy-driven segment compaction. Shared
/// by the lifecycle maintenance hook and the background checkpointer.
fn durable_maintenance(tier: &DurableTier, vm: &VersionManager, dht: &Dht<NodeKey, NodeBody>) {
    if tier.checkpoint_due() {
        // Capture order matters under concurrent writes: the blob export
        // first, the node snapshot second. A version is only published once
        // its nodes are in the DHT, so the later node snapshot is always a
        // superset of what the exported publication state references — the
        // image can carry extra nodes, never dangling versions.
        let blobs = vm.export_blobs();
        if let Ok(nodes) = dht.snapshot_nodes() {
            let _ = tier.checkpoint(&blobs, nodes);
        }
    }
    let _ = tier.compact_stores();
}

impl Cluster {
    /// Starts a cluster with RAM-backed data providers (the configuration
    /// used by tests, examples and the original BlobSeer prototype).
    pub fn new(config: ClusterConfig) -> Result<Self> {
        Self::build(config, |id| Arc::new(DataProvider::in_memory(id)), None)
    }

    /// Opens (creating on first use) a durable cluster rooted at `dir`:
    /// every data provider persists chunks to log-structured segment files,
    /// every metadata mutation and version-manager transition goes through
    /// the write-ahead log, and reopening the same directory recovers the
    /// last complete version of every blob — torn tails truncated, orphaned
    /// pre-commit records dropped. The fsync policy is
    /// `ClusterConfig::durability`.
    ///
    /// The RAM stores this replaces become cache tiers: clients keep their
    /// chunk caches, and recovered segment buffers serve aligned reads
    /// zero-copy, so the read path's `payload_bytes_copied == 0` discipline
    /// survives a restart.
    pub fn open_durable(config: ClusterConfig, dir: impl AsRef<Path>) -> Result<Self> {
        config.validate()?;
        let (tier, recovered) = DurableTier::open(
            dir,
            config.data_providers,
            DurableTierOptions {
                durability: config.durability,
                segment_bytes: config.segment_bytes,
                checkpoint_every: config.checkpoint_records,
                checkpoint_bytes: config.checkpoint_bytes,
                compact_dead_ratio: config.compact_dead_ratio,
            },
        )?;
        let tier = Arc::new(tier);
        let stores = tier.stores().to_vec();
        Self::build(
            config,
            move |id| {
                Arc::new(DataProvider::with_store(
                    id,
                    Arc::clone(&stores[id.0 as usize]) as _,
                ))
            },
            Some((tier, recovered)),
        )
    }

    fn build(
        config: ClusterConfig,
        make_provider: impl Fn(ProviderId) -> Arc<DataProvider>,
        durable: Option<(Arc<DurableTier>, RecoveredMetadata)>,
    ) -> Result<Self> {
        config.validate()?;
        let provider_manager = Arc::new(ProviderManager::new(config.placement));
        let mut providers = HashMap::with_capacity(config.data_providers);
        for i in 0..config.data_providers {
            let id = ProviderId(i as u32);
            provider_manager.register(id);
            providers.insert(id, make_provider(id));
        }
        let metadata = Arc::new(Dht::new(
            config.metadata_providers,
            DHT_VIRTUAL_NODES,
            config.dht_replication,
        )?);
        // One transfer pool for the whole deployment: clients share it, so
        // concurrent operations queue on a fixed worker set instead of
        // spawning threads per read/write. Completion joins are bounded by a
        // multiple of the configured I/O timeout: networked transfers retry
        // internally (each attempt bounded by `io_timeout`), so the join
        // bound is the backstop that fails an operation when a task is
        // genuinely wedged, not the first line of defence.
        let join_timeout = config.io_timeout().map(|t| t * 8);
        let transfers =
            Arc::new(TransferPool::new(config.transfer_workers).with_join_timeout(join_timeout));
        let shared_chunk_cache = (config.shared_chunk_cache && config.chunk_cache_bytes > 0)
            .then(|| Arc::new(ChunkCache::new(config.chunk_cache_bytes)));
        let version_manager = Arc::new(VersionManager::new());
        let chunk_service = Arc::new(InProcessChunkService::new(provider_manager, providers));

        // Durable wiring. Ordering matters: recovered state is installed
        // *before* the journal and the WAL-logging metadata wrapper, so
        // replaying yesterday's log never re-appends yesterday's records.
        let mut recovery = RecoveryStats::default();
        let mut durable_tier = None;
        let meta_service: Arc<dyn MetadataService> = match durable {
            None => Arc::clone(&metadata) as Arc<dyn MetadataService>,
            Some((tier, recovered)) => {
                for blob in recovered.blobs {
                    version_manager.restore_blob(
                        blob.id,
                        blob.config,
                        blob.published,
                        blob.first_retained,
                    )?;
                }
                if !recovered.nodes.is_empty() {
                    metadata.put_nodes(recovered.nodes)?;
                }
                version_manager.set_journal(Arc::clone(&tier) as _);
                recovery = recovered.stats;
                let wal_store = Arc::new(WalMetaStore::new(
                    Arc::clone(&metadata) as Arc<dyn MetadataStore>,
                    Arc::clone(tier.wal()),
                ));
                durable_tier = Some(tier);
                wal_store
            }
        };

        let admission =
            (config.admission_limit > 0).then(|| AdmissionController::new(config.admission_limit));
        let qos = (config.effective_qos_states() >= 2).then(|| {
            let collector = Arc::new(MonitoringCollector::new(chunk_service.providers()));
            Arc::new(Mutex::new(QosController::new(
                collector,
                Arc::clone(chunk_service.manager()),
                config.effective_qos_states(),
                QOS_HORIZON,
            )))
        });
        let cluster = Cluster {
            version_manager,
            chunk_service,
            metadata,
            meta_service,
            transfers,
            client_ids: IdGenerator::starting_at(1),
            shared_chunk_cache,
            lifecycle: OnceLock::new(),
            durable: durable_tier,
            recovery,
            admission,
            qos,
            checkpointer: Mutex::new(None),
            shutdown_done: AtomicBool::new(false),
            config,
        };
        cluster.start_checkpointer();
        Ok(cluster)
    }

    /// Starts the background checkpoint thread when the cluster is durable
    /// and `ClusterConfig::checkpoint_interval_ms` is non-zero. This trigger
    /// is deliberately independent of the lifecycle engine: a deployment
    /// that never flattens or GCs (both lifecycle knobs at zero, engine
    /// never started) still checkpoints its WAL, so replay cost on restart
    /// stays bounded instead of growing with the whole write history.
    fn start_checkpointer(&self) {
        let (Some(tier), Some(interval)) = (&self.durable, self.config.checkpoint_interval())
        else {
            return;
        };
        let tier = Arc::clone(tier);
        let vm = Arc::clone(&self.version_manager);
        let dht = Arc::clone(&self.metadata);
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !thread_stop.load(Ordering::Acquire) {
                durable_maintenance(&tier, &vm, &dht);
                std::thread::park_timeout(interval);
            }
        });
        *self.checkpointer.lock() = Some(CheckpointerHandle { stop, handle });
    }

    fn stop_checkpointer(&self) {
        if let Some(worker) = self.checkpointer.lock().take() {
            worker.stop.store(true, Ordering::Release);
            worker.handle.thread().unpark();
            let _ = worker.handle.join();
        }
    }

    /// The cluster's periodic housekeeping, as a closure owning its own
    /// handles: one QoS control step (sample provider windows, refit the
    /// behaviour model, push scores into placement and admission pressure),
    /// then the durable tier's WAL checkpoint and segment compaction when
    /// their triggers tripped.
    fn maintenance(&self) -> impl Fn() + Send + Sync + 'static {
        let durable = self
            .durable
            .as_ref()
            .map(|tier| (Arc::clone(tier), Arc::clone(&self.metadata)));
        let vm = Arc::clone(&self.version_manager);
        let qos = self.qos.clone();
        let admission = self.admission.clone();
        let provider_count = self.config.data_providers.max(1);
        move || {
            if let Some(qos) = &qos {
                if let Ok(flagged) = qos.lock().step() {
                    if let Some(admission) = &admission {
                        // Shrink every client's in-flight budget in
                        // proportion to the fraction of providers currently
                        // behaving dangerously: fewer healthy providers can
                        // absorb less concurrent load.
                        let healthy = 1.0 - flagged.len() as f64 / provider_count as f64;
                        admission.set_pressure(healthy);
                    }
                }
            }
            if let Some((tier, dht)) = &durable {
                durable_maintenance(tier, &vm, dht);
            }
        }
    }

    /// Runs one maintenance pass inline — exactly what the lifecycle
    /// engine's hook runs at the end of each pass. Lets tests and the
    /// serving daemon drive QoS sampling and checkpointing without waiting
    /// for the background interval.
    pub fn run_maintenance(&self) {
        self.maintenance()();
    }

    /// Takes a WAL checkpoint right now (ignoring the due-ness triggers),
    /// when the cluster is durable. Used by the ordered shutdown and by
    /// tests that want a deterministic compaction point.
    pub fn force_checkpoint(&self) -> Result<()> {
        let Some(tier) = &self.durable else {
            return Ok(());
        };
        // Blob export before node snapshot — same superset argument as in
        // `durable_maintenance`.
        let blobs = self.version_manager.export_blobs();
        let nodes = self.metadata.snapshot_nodes()?;
        tier.checkpoint(&blobs, nodes)
    }

    /// Coordinated shutdown of the in-process deployment, in dependency
    /// order: stop the background checkpointer, quiesce the lifecycle
    /// engine (its current pass completes), then — for durable clusters —
    /// take a final checkpoint and seal the WAL so nothing can append to a
    /// closing log. Idempotent; also run by `Drop`.
    pub fn shutdown(&self) {
        if self.shutdown_done.swap(true, Ordering::AcqRel) {
            return;
        }
        self.stop_checkpointer();
        if let Some(engine) = self.lifecycle.get() {
            engine.shutdown();
        }
        if let Some(tier) = &self.durable {
            let _ = self.force_checkpoint();
            tier.wal().seal();
        }
    }

    /// The metadata service mutations must go through: the DHT for
    /// RAM-resident clusters, the WAL-logging wrapper for durable ones.
    /// RPC hosts serve this (not the raw DHT), so remote mutations are
    /// journaled exactly like in-process ones.
    pub fn metadata_service(&self) -> &Arc<dyn MetadataService> {
        &self.meta_service
    }

    /// The durable persistence tier, when this cluster was opened with
    /// [`Cluster::open_durable`].
    pub fn durable_tier(&self) -> Option<&Arc<DurableTier>> {
        self.durable.as_ref()
    }

    /// What recovery found when the durable tier was opened: replayed WAL
    /// records, recovered blobs/nodes/chunks, truncated and corrupt bytes.
    /// All zeros for RAM-resident clusters and fresh directories.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// The version lifecycle engine. Drive it manually
    /// ([`LifecycleEngine::run_once`]) or start its background thread
    /// ([`LifecycleEngine::start`]); it is inert until one of the two
    /// lifecycle knobs in [`ClusterConfig`] is non-zero. Built over the
    /// in-process services unless [`Cluster::build_lifecycle_over`] came
    /// first.
    pub fn lifecycle(&self) -> &Arc<LifecycleEngine> {
        self.lifecycle.get_or_init(|| {
            self.new_lifecycle(
                Arc::clone(&self.meta_service),
                Arc::clone(&self.chunk_service) as Arc<dyn ChunkService>,
            )
        })
    }

    /// Builds the cluster's one lifecycle engine over `metadata` and
    /// `chunks` instead of the in-process services. A served deployment
    /// passes its wire services, so the sweeper's deletes cross the same
    /// RPC boundary client traffic does. Fails if the engine already exists.
    pub fn build_lifecycle_over(
        &self,
        metadata: Arc<dyn MetadataService>,
        chunks: Arc<dyn ChunkService>,
    ) -> Result<()> {
        self.lifecycle
            .set(self.new_lifecycle(metadata, chunks))
            .map_err(|_| BlobError::InvalidConfig("the lifecycle engine is already built".into()))
    }

    /// A lifecycle engine over `metadata` and `chunks`, with the cluster's
    /// housekeeping on its end-of-pass hook when there is any (QoS or a
    /// durable tier).
    fn new_lifecycle(
        &self,
        metadata: Arc<dyn MetadataService>,
        chunks: Arc<dyn ChunkService>,
    ) -> Arc<LifecycleEngine> {
        let engine = LifecycleEngine::new(
            Arc::clone(&self.version_manager),
            metadata,
            chunks,
            self.config.retained_versions,
            self.config.flatten_threshold,
        );
        if self.durable.is_some() || self.qos.is_some() {
            engine.set_maintenance_hook(Box::new(self.maintenance()));
        }
        Arc::new(engine)
    }

    /// The configuration the cluster was started with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The version manager service.
    pub fn version_manager(&self) -> &Arc<VersionManager> {
        &self.version_manager
    }

    /// The provider manager service.
    pub fn provider_manager(&self) -> &Arc<ProviderManager> {
        self.chunk_service.manager()
    }

    /// The chunk service clients of this cluster talk to.
    pub fn chunk_service(&self) -> &Arc<InProcessChunkService> {
        &self.chunk_service
    }

    /// The metadata-provider DHT.
    pub fn metadata(&self) -> &Arc<Dht<NodeKey, NodeBody>> {
        &self.metadata
    }

    /// The shared chunk-transfer pool.
    pub fn transfer_pool(&self) -> &Arc<TransferPool> {
        &self.transfers
    }

    /// Total metadata round-trips issued against the DHT since the cluster
    /// started: one per owning metadata node per batched get/put, one per
    /// node contacted by a single-key access. The unit the paper measures
    /// the metadata path in — level-order reads and batched publication keep
    /// this O(tree-depth × metadata providers) per operation.
    pub fn metadata_round_trips(&self) -> u64 {
        self.metadata.round_trips()
    }

    /// Handle of one data provider.
    pub fn provider(&self, id: ProviderId) -> Option<Arc<DataProvider>> {
        self.chunk_service.provider(id)
    }

    /// Handles of every data provider, in id order.
    pub fn providers(&self) -> Vec<Arc<DataProvider>> {
        self.chunk_service.providers()
    }

    /// Creates a new client of this cluster over the in-process services
    /// (see [`Cluster::client_over`]).
    pub fn client(&self) -> BlobClient {
        self.client_over(ClientServices {
            versions: Arc::clone(&self.version_manager) as Arc<dyn crate::VersionService>,
            chunks: Arc::clone(&self.chunk_service) as Arc<dyn ChunkService>,
            metadata: Arc::clone(&self.meta_service),
        })
    }

    /// Creates a new client of this deployment over `services` — the
    /// in-process ones or a served deployment's wire stubs. The client gets
    /// the next id, the shared transfer pool, the admission throttle and
    /// the caches, depth and codec [`BlobClient::configured`] derives from
    /// the configuration; the process-wide shared chunk cache, when
    /// `shared_chunk_cache` is set, stands in for a private one.
    pub fn client_over(&self, services: ClientServices) -> BlobClient {
        BlobClient::configured(
            ClientId(self.client_ids.next_id()),
            services,
            Arc::clone(&self.transfers),
            &self.config,
            self.shared_chunk_cache.clone(),
        )
        .with_admission(self.admission.clone())
    }

    /// The process-wide chunk cache every client shares, when
    /// `ClusterConfig::shared_chunk_cache` is enabled.
    pub fn shared_chunk_cache(&self) -> Option<&Arc<ChunkCache>> {
        self.shared_chunk_cache.as_ref()
    }

    /// Injects a data-provider failure: the provider stops serving requests
    /// and the provider manager stops placing new chunks on it.
    pub fn fail_provider(&self, id: ProviderId) -> Result<()> {
        let provider = self
            .chunk_service
            .provider(id)
            .ok_or(BlobError::UnknownProvider(id))?;
        provider.set_alive(false);
        self.provider_manager().set_alive(id, false)
    }

    /// Recovers a previously failed data provider.
    pub fn recover_provider(&self, id: ProviderId) -> Result<()> {
        let provider = self
            .chunk_service
            .provider(id)
            .ok_or(BlobError::UnknownProvider(id))?;
        provider.set_alive(true);
        self.provider_manager().set_alive(id, true)
    }

    /// Injects a metadata-provider failure.
    pub fn fail_metadata_node(&self, id: MetaNodeId) -> Result<()> {
        self.metadata.fail_node(id)
    }

    /// Recovers a previously failed metadata provider.
    pub fn recover_metadata_node(&self, id: MetaNodeId) -> Result<()> {
        self.metadata.recover_node(id)
    }

    /// Pushes every provider's current statistics to the provider manager,
    /// as the periodic heartbeat of a real deployment would. The transfer
    /// scheduler's live per-provider in-flight gauge is folded into each
    /// report, so placement sees the data-plane load that is on the wire
    /// right now, not only what providers have already stored.
    pub fn report_provider_loads(&self) {
        let in_flight = self.transfers.in_flight_counts();
        for provider in self.chunk_service.iter_providers() {
            if provider.is_alive() {
                let mut stats = provider.stats();
                stats.in_flight = in_flight.get(&provider.id()).copied().unwrap_or(0);
                let _ = self.provider_manager().report_load(provider.id(), stats);
            }
        }
    }

    /// Total payload bytes currently stored across all data providers
    /// (replicas counted as many times as they are stored).
    pub fn total_stored_bytes(&self) -> u64 {
        self.chunk_service
            .iter_providers()
            .map(|p| p.stats().bytes)
            .sum()
    }

    /// The per-client admission controller, when
    /// `ClusterConfig::admission_limit` is non-zero.
    pub fn admission(&self) -> Option<&Arc<AdmissionController>> {
        self.admission.as_ref()
    }

    /// The QoS feedback controller, when QoS-aware serving is configured.
    pub fn qos_controller(&self) -> Option<&Arc<Mutex<QosController>>> {
        self.qos.as_ref()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_types::{BlobConfig, PlacementPolicy};

    #[test]
    fn cluster_starts_all_services() {
        let cluster = Cluster::new(ClusterConfig::small()).unwrap();
        assert_eq!(cluster.providers().len(), 4);
        assert_eq!(cluster.metadata().node_count(), 2);
        assert_eq!(cluster.provider_manager().provider_count(), 4);
        assert_eq!(cluster.config().placement, PlacementPolicy::RoundRobin);
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let cfg = ClusterConfig {
            data_providers: 0,
            ..ClusterConfig::default()
        };
        assert!(Cluster::new(cfg).is_err());
    }

    #[test]
    fn fail_and_recover_providers() {
        let cluster = Cluster::new(ClusterConfig::small()).unwrap();
        cluster.fail_provider(ProviderId(1)).unwrap();
        assert!(!cluster.provider(ProviderId(1)).unwrap().is_alive());
        assert_eq!(cluster.provider_manager().live_providers().len(), 3);
        cluster.recover_provider(ProviderId(1)).unwrap();
        assert!(cluster.provider(ProviderId(1)).unwrap().is_alive());
        assert!(cluster.fail_provider(ProviderId(99)).is_err());
    }

    #[test]
    fn clients_get_distinct_ids() {
        let cluster = Cluster::new(ClusterConfig::small()).unwrap();
        let a = cluster.client();
        let b = cluster.client();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn durable_cluster_stores_chunks_on_disk_and_recovers() {
        let dir = std::env::temp_dir().join(format!("blobseer-cluster-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let payload = [7u8; 64];
        let blob = {
            let cluster = Cluster::open_durable(ClusterConfig::small(), &dir).unwrap();
            assert_eq!(cluster.recovery_stats().recovered_blobs, 0);
            let client = cluster.client();
            let blob = client.create_blob(BlobConfig::new(16, 1).unwrap()).unwrap();
            client.append(blob, &payload).unwrap();
            assert!(cluster.total_stored_bytes() >= 64);
            assert!(dir.join("meta.wal").exists(), "the WAL must exist on disk");
            blob
        };
        // "Restart": a fresh cluster over the same directory sees the blob.
        let cluster = Cluster::open_durable(ClusterConfig::small(), &dir).unwrap();
        let stats = cluster.recovery_stats();
        assert_eq!(stats.recovered_blobs, 1);
        assert!(stats.recovered_chunks >= 4, "64 B at 16 B chunks");
        assert!(stats.wal_replayed_records >= 3);
        let client = cluster.client();
        assert_eq!(client.read(blob, None, 0, 64).unwrap(), payload);
        // New blobs never collide with recovered ids.
        let fresh = client.create_blob(BlobConfig::new(16, 1).unwrap()).unwrap();
        assert_ne!(fresh, blob);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeats_update_the_provider_manager() {
        let cluster = Cluster::new(ClusterConfig::small()).unwrap();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(16, 1).unwrap()).unwrap();
        client.append(blob, &[1u8; 160]).unwrap();
        cluster.report_provider_loads();
        let total_reported: u64 = cluster
            .provider_manager()
            .all_statuses()
            .iter()
            .map(|s| s.stored_bytes)
            .sum();
        assert_eq!(total_reported, 160);
    }
}
