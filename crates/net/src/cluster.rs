//! A BlobSeer deployment whose clients reach the chunk and metadata planes
//! over the framed RPC protocol.
//!
//! [`NetCluster`] wraps the in-process [`Cluster`] (which keeps owning the
//! version manager, the providers, the DHT and the shared transfer pool)
//! and hosts its services behind RPC endpoints: one per data provider, one
//! for the provider manager, one for the metadata plane, one for the
//! version manager. Clients obtained from [`NetCluster::client`] hold
//! `NetChunkService`/`NetMetadataService`/`NetVersionService` instead of
//! the in-process implementations — every chunk, every metadata node and
//! every version-manager decision they touch crosses the wire. A client in
//! another *process* connects to the same endpoints with
//! [`connect_remote`], given the addresses from [`NetCluster::endpoint_addrs`]
//! (the daemon's endpoints file).
//!
//! The transport is picked by `ClusterConfig::transport`: real TCP loopback
//! sockets, or the in-process channel transport with an optional seeded
//! [`FaultPlan`] (the networked test double). The differential transport
//! tests run the same operation histories over both — and over the plain
//! in-process cluster — and assert byte-identical results.

use crate::reactor::{default_rpc_workers, Reactor, WorkerPool};
use crate::rpc::{
    ChunkHost, ManagerHost, MetaHost, RpcEndpoint, RpcHandler, RpcServer, VersionHost,
};
use crate::services::{NetChunkService, NetMetadataService, NetVersionService};
use crate::transport::{channel_endpoint, tcp_listener, Connect, FaultState, TcpConnector};
use blobseer_core::{
    BlobClient, ChunkCache, ChunkService, Cluster, LifecycleEngine, MetadataService, TransferPool,
    VersionService,
};
use blobseer_meta::{CachedMetadataStore, MetadataStore};
use blobseer_types::{
    BlobError, ClientId, ClusterConfig, FaultPlan, IdGenerator, ProviderId, Result, TransportKind,
    TransportMetrics,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A networked BlobSeer deployment (TCP loopback or channel transport).
///
/// Serving is event-driven and bounded: all endpoints share one
/// [`WorkerPool`] of [`default_rpc_workers`] threads, and on the TCP
/// transport one [`Reactor`] thread owns every accepted socket — the
/// deployment's serving threads are O(workers), however many clients
/// connect.
pub struct NetCluster {
    inner: Cluster,
    manager_connector: Arc<dyn Connect>,
    meta_connector: Arc<dyn Connect>,
    vm_connector: Arc<dyn Connect>,
    /// The served version-manager host (kept for lease diagnostics).
    vm_host: Arc<VersionHost>,
    provider_connectors: HashMap<ProviderId, Arc<dyn Connect>>,
    /// Serving-side traffic accounting, shared by every chunk host: the
    /// logical/physical bytes this deployment moved for its clients,
    /// independent of any one client's own metrics.
    server_metrics: Arc<TransportMetrics>,
    /// Serving-side chunk cache behind the chunk hosts (the deployment's
    /// shared cache, present when `shared_chunk_cache` is configured).
    server_cache: Option<Arc<ChunkCache>>,
    /// Running server endpoints, keyed for targeted teardown ("manager",
    /// "meta", "provider-N").
    servers: Mutex<HashMap<String, RpcServer>>,
    /// The shared request-execution pool behind every endpoint.
    pool: WorkerPool,
    /// The shared connection reactor (TCP transport only; the channel
    /// transport's blocking sources keep per-connection reader threads).
    reactor: Option<Arc<Reactor>>,
    /// The deployment's lifecycle engine, wired over the *networked*
    /// services: flattening writes metadata and the sweeper's deletes reach
    /// providers and the metadata plane as RPCs, exactly like client
    /// traffic.
    lifecycle: Arc<LifecycleEngine>,
    client_ids: IdGenerator,
    /// The channel transport's fault decision source (`None` on TCP) —
    /// exposed so tests can swap the plan mid-run.
    faults: Option<Arc<FaultState>>,
    /// Latched by [`NetCluster::shutdown`] so `Drop` does not re-run it.
    shutdown_done: AtomicBool,
}

impl NetCluster {
    /// Starts a networked deployment on the transport named by
    /// `config.transport` (the channel transport runs fault-free; use
    /// [`NetCluster::new_channel`] to inject faults).
    pub fn new(config: ClusterConfig) -> Result<Self> {
        match config.transport {
            TransportKind::TcpLoopback => Self::new_tcp(config),
            TransportKind::Channel => Self::new_channel(config, FaultPlan::none()),
            TransportKind::InProcess => Err(BlobError::InvalidConfig(
                "NetCluster needs a networked transport; use Cluster for in-process".into(),
            )),
        }
    }

    /// Opens (creating on first use) a *durable* networked deployment
    /// rooted at `dir` — `Cluster::open_durable` hosted behind RPC
    /// endpoints. Reopening the same directory recovers every blob's last
    /// complete version; the recovered segment stores serve chunk reads
    /// over the wire zero-copy, and every remote metadata mutation hits the
    /// write-ahead log before the DHT.
    pub fn open_durable(config: ClusterConfig, dir: impl AsRef<std::path::Path>) -> Result<Self> {
        match config.transport {
            TransportKind::TcpLoopback => Self::serve_tcp(Cluster::open_durable(config, dir)?),
            TransportKind::Channel => {
                Self::serve_channel(Cluster::open_durable(config, dir)?, FaultPlan::none())
            }
            TransportKind::InProcess => Err(BlobError::InvalidConfig(
                "NetCluster needs a networked transport; use Cluster for in-process".into(),
            )),
        }
    }

    /// Starts a deployment whose endpoints are real TCP loopback sockets
    /// bound to `config.net_listen`, served by one shared reactor thread
    /// plus the bounded worker pool.
    pub fn new_tcp(mut config: ClusterConfig) -> Result<Self> {
        config.transport = TransportKind::TcpLoopback;
        Self::serve_tcp(Cluster::new(config)?)
    }

    fn serve_tcp(inner: Cluster) -> Result<Self> {
        let config = inner.config();
        let listen = config.net_listen.clone();
        let pool = WorkerPool::new(default_rpc_workers());
        let reactor = Reactor::new(pool.clone(), config.io_timeout());
        let serve_reactor = Arc::clone(&reactor);
        Self::build(inner, pool, Some(reactor), move |handler| {
            let (connector, listener) = tcp_listener(&listen)?;
            Ok((
                connector,
                RpcServer::spawn_reactor(&serve_reactor, listener, handler),
            ))
        })
    }

    /// Starts a deployment on the in-process channel transport, injecting
    /// `faults` (seeded, deterministic) into every link of the network.
    /// Channel sources block (that is what makes their fault injection
    /// deterministic), so connections keep reader threads — but request
    /// execution still runs on the shared bounded pool.
    pub fn new_channel(mut config: ClusterConfig, faults: FaultPlan) -> Result<Self> {
        config.transport = TransportKind::Channel;
        Self::serve_channel(Cluster::new(config)?, faults)
    }

    fn serve_channel(inner: Cluster, faults: FaultPlan) -> Result<Self> {
        faults.validate()?;
        let state = Arc::new(FaultState::new(faults));
        let fault_state = Arc::clone(&state);
        let pool = WorkerPool::new(default_rpc_workers());
        let serve_pool = pool.clone();
        let mut cluster = Self::build(inner, pool, None, move |handler| {
            let (connector, acceptor, stopper) = channel_endpoint(Arc::clone(&state));
            Ok((
                connector,
                RpcServer::spawn_pooled(acceptor, stopper, handler, serve_pool.clone()),
            ))
        })?;
        cluster.faults = Some(fault_state);
        Ok(cluster)
    }

    fn build(
        inner: Cluster,
        pool: WorkerPool,
        reactor: Option<Arc<Reactor>>,
        make_server: impl Fn(Arc<dyn RpcHandler>) -> Result<(Arc<dyn Connect>, RpcServer)>,
    ) -> Result<Self> {
        let mut servers = HashMap::new();
        let server_metrics = Arc::new(TransportMetrics::new());
        let server_cache = inner.shared_chunk_cache().cloned();

        let (manager_connector, server) = make_server(Arc::new(ManagerHost::new(Arc::clone(
            inner.provider_manager(),
        ))))?;
        servers.insert("manager".to_string(), server);

        // Serve the cluster's *metadata service* (the WAL-wrapped store on
        // durable deployments) rather than the raw DHT, so remote metadata
        // mutations hit the write-ahead log before they land in memory.
        let (meta_connector, server) = make_server(Arc::new(MetaHost::new(Arc::clone(
            inner.metadata_service(),
        )
            as Arc<dyn MetadataStore>)))?;
        servers.insert("meta".to_string(), server);

        // The version manager — the deployment's serialisation point — goes
        // on the wire like every other plane.
        let vm_host = Arc::new(VersionHost::new(Arc::clone(inner.version_manager())));
        let (vm_connector, server) = make_server(Arc::clone(&vm_host) as Arc<dyn RpcHandler>)?;
        servers.insert("vm".to_string(), server);

        let mut provider_connectors = HashMap::new();
        for provider in inner.providers() {
            let id = provider.id();
            let host = ChunkHost::new(provider)
                .with_cache(server_cache.clone())
                .with_metrics(Some(Arc::clone(&server_metrics)));
            let (connector, server) = make_server(Arc::new(host))?;
            servers.insert(format!("provider-{}", id.0), server);
            provider_connectors.insert(id, connector);
        }

        // The lifecycle engine is itself a wire client of the deployment:
        // it holds its own endpoints (one per provider, one for metadata),
        // so reclamation crosses the same RPC boundary reads and writes do
        // — a networked provider frees bytes because a REMOVE_CHUNKS frame
        // reached it, not because the sweeper shares its address space.
        let config = inner.config();
        let io_timeout = config.io_timeout();
        let metrics = Arc::new(TransportMetrics::new());
        let manager_ep = RpcEndpoint::new(
            Arc::clone(&manager_connector),
            io_timeout,
            Arc::clone(&metrics),
        );
        let provider_eps = provider_connectors
            .iter()
            .map(|(&id, connector)| {
                (
                    id,
                    RpcEndpoint::new(Arc::clone(connector), io_timeout, Arc::clone(&metrics)),
                )
            })
            .collect();
        let lifecycle_chunks = Arc::new(NetChunkService::new(
            manager_ep,
            provider_eps,
            Arc::clone(&metrics),
        ));
        let lifecycle_meta = Arc::new(
            NetMetadataService::new(RpcEndpoint::new(
                Arc::clone(&meta_connector),
                io_timeout,
                metrics,
            ))
            .with_shards(config.metadata_providers),
        );
        let lifecycle = Arc::new(LifecycleEngine::new(
            Arc::clone(inner.version_manager()),
            lifecycle_meta as Arc<dyn MetadataService>,
            lifecycle_chunks as Arc<dyn ChunkService>,
            config.retained_versions,
            config.flatten_threshold,
        ));
        // On durable deployments the *networked* sweeper drives WAL
        // checkpoints too, since it is the engine that actually runs.
        inner.install_durable_maintenance(&lifecycle);

        Ok(NetCluster {
            inner,
            manager_connector,
            meta_connector,
            vm_connector,
            vm_host,
            provider_connectors,
            server_metrics,
            server_cache,
            servers: Mutex::new(servers),
            pool,
            reactor,
            lifecycle,
            client_ids: IdGenerator::starting_at(1),
            faults: None,
            shutdown_done: AtomicBool::new(false),
        })
    }

    /// The channel transport's fault decision source, for swapping the
    /// fault plan mid-test (`None` on TCP deployments).
    #[must_use]
    pub fn fault_state(&self) -> Option<&Arc<FaultState>> {
        self.faults.as_ref()
    }

    /// The wrapped in-process cluster (version manager, provider handles,
    /// failure injection, statistics).
    pub fn inner(&self) -> &Cluster {
        &self.inner
    }

    /// The configuration the deployment was started with.
    pub fn config(&self) -> &ClusterConfig {
        self.inner.config()
    }

    /// The deployment's version-lifecycle engine (snapshot flattening +
    /// chunk/metadata GC), wired over the networked services: its deletes
    /// reach providers and the metadata plane through the same RPC protocol
    /// clients use.
    #[must_use]
    pub fn lifecycle(&self) -> &Arc<LifecycleEngine> {
        &self.lifecycle
    }

    /// Marks a data provider failed (it keeps its endpoint but rejects
    /// every request), exactly like `Cluster::fail_provider`.
    pub fn fail_provider(&self, id: ProviderId) -> Result<()> {
        self.inner.fail_provider(id)
    }

    /// Recovers a previously failed data provider.
    pub fn recover_provider(&self, id: ProviderId) -> Result<()> {
        self.inner.recover_provider(id)
    }

    /// Kills a data provider's server endpoint outright: live connections
    /// are torn down mid-request and new ones are refused — the networked
    /// equivalent of the provider *process* dying, which is harsher than
    /// [`NetCluster::fail_provider`] (a polite "unavailable" response).
    pub fn stop_provider_endpoint(&self, id: ProviderId) -> Result<()> {
        let mut servers = self.servers.lock();
        let server = servers
            .get_mut(&format!("provider-{}", id.0))
            .ok_or(BlobError::UnknownProvider(id))?;
        server.stop();
        Ok(())
    }

    /// The TCP address a data provider's endpoint listens on (`None` on
    /// in-process transports or for unknown providers). Stress tests use it
    /// to poke endpoints outside the framed protocol.
    #[must_use]
    pub fn provider_endpoint_addr(&self, id: ProviderId) -> Option<std::net::SocketAddr> {
        self.provider_connectors.get(&id).and_then(|c| c.addr())
    }

    /// Creates a client whose chunk and metadata planes run over the wire.
    /// Each client gets its own connection pool per endpoint
    /// (`connections_per_endpoint` multiplexed connections, round robin)
    /// and its own [`TransportMetrics`], surfaced through
    /// `ClientStats::bytes_on_wire`/`frames_sent`/`frames_coalesced`.
    pub fn client(&self) -> BlobClient {
        let config = self.inner.config();
        let io_timeout = config.io_timeout();
        let conns = config.connections_per_endpoint;
        let metrics = Arc::new(TransportMetrics::new());

        let manager = RpcEndpoint::new(
            Arc::clone(&self.manager_connector),
            io_timeout,
            Arc::clone(&metrics),
        )
        .with_connections(conns);
        let providers = self
            .provider_connectors
            .iter()
            .map(|(&id, connector)| {
                (
                    id,
                    RpcEndpoint::new(Arc::clone(connector), io_timeout, Arc::clone(&metrics))
                        .with_connections(conns),
                )
            })
            .collect();
        let chunks = Arc::new(NetChunkService::new(
            manager,
            providers,
            Arc::clone(&metrics),
        ));

        // The metadata endpoint gets a deeper retry budget: metadata frames
        // are tiny and on every critical path, so extra masking of lossy
        // links is cheap there (see `META_RPC_RETRIES`). Batches are split
        // into one frame per metadata shard and flushed as a single
        // vectored submission — the metadata plane's frame coalescing.
        let meta = NetMetadataService::new(
            RpcEndpoint::new(
                Arc::clone(&self.meta_connector),
                io_timeout,
                Arc::clone(&metrics),
            )
            .with_retries(crate::rpc::META_RPC_RETRIES)
            .with_connections(conns),
        )
        .with_shards(config.metadata_providers);
        let meta_service: Arc<dyn MetadataService> = if config.client_metadata_cache {
            Arc::new(CachedMetadataStore::new(Arc::new(meta)))
        } else {
            Arc::new(meta)
        };

        // Prefer the cluster-wide shared chunk cache when configured, so
        // every client of this process hits chunks any of them fetched.
        let chunk_cache = self.inner.shared_chunk_cache().cloned().or_else(|| {
            (config.chunk_cache_bytes > 0)
                .then(|| Arc::new(blobseer_core::ChunkCache::new(config.chunk_cache_bytes)))
        });

        // The version-manager plane crosses the wire too, with the deepest
        // retry budget of any plane: its frames are tiny, every operation
        // serialises through it with no replica to rotate to, and the host
        // deduplicates retries of the non-idempotent calls by nonce.
        let version_service: Arc<dyn VersionService> = Arc::new(NetVersionService::new(
            RpcEndpoint::new(
                Arc::clone(&self.vm_connector),
                io_timeout,
                Arc::clone(&metrics),
            )
            .with_retries(crate::rpc::VM_RPC_RETRIES)
            .with_connections(conns),
        ));

        BlobClient::new(
            ClientId(self.client_ids.next_id()),
            version_service,
            chunks,
            meta_service,
            Arc::clone(self.inner.transfer_pool()),
        )
        .with_admission(self.inner.admission().cloned())
        .with_pipeline_depth(config.pipeline_depth)
        .with_chunk_cache(chunk_cache)
        .with_chunk_codec(config.chunk_codec)
        .with_transport_metrics(Some(metrics))
    }

    /// Every endpoint the deployment serves, as `(name, address)` pairs —
    /// the daemon's endpoints file. Empty on the channel transport, whose
    /// connectors have no socket addresses.
    #[must_use]
    pub fn endpoint_addrs(&self) -> Vec<(String, SocketAddr)> {
        let mut out = Vec::new();
        let mut push = |name: String, connector: &Arc<dyn Connect>| {
            if let Some(addr) = connector.addr() {
                out.push((name, addr));
            }
        };
        push("vm".into(), &self.vm_connector);
        push("manager".into(), &self.manager_connector);
        push("meta".into(), &self.meta_connector);
        let mut providers: Vec<_> = self.provider_connectors.iter().collect();
        providers.sort_by_key(|(id, _)| id.0);
        for (id, connector) in providers {
            push(format!("provider-{}", id.0), connector);
        }
        out
    }

    /// Serving-side traffic counters (the chunk bytes this deployment moved
    /// for its clients, logical and physical).
    #[must_use]
    pub fn server_metrics(&self) -> &Arc<TransportMetrics> {
        &self.server_metrics
    }

    /// The serving-side chunk cache, when configured (`shared_chunk_cache`).
    #[must_use]
    pub fn server_cache(&self) -> Option<&Arc<ChunkCache>> {
        self.server_cache.as_ref()
    }

    /// Pin leases currently held on behalf of remote clients.
    #[must_use]
    pub fn vm_lease_count(&self) -> usize {
        self.vm_host.lease_count()
    }

    /// Coordinated graceful shutdown, in dependency order: stop accepting
    /// and tear down the server endpoints, stop the reactor and the RPC
    /// worker pool, drain the transfer pool's submitted backlog, park the
    /// lifecycle/GC worker, and finally checkpoint and seal the durable
    /// tier (a no-op on in-memory deployments). Idempotent — `Drop` runs it
    /// too, and a second call returns immediately.
    pub fn shutdown(&self) {
        if self.shutdown_done.swap(true, Ordering::SeqCst) {
            return;
        }
        // 1. Stop accepting new work: endpoints down first. In-flight
        //    handlers finish on their own; sweeper RPCs issued against the
        //    dead endpoints from here on fail cleanly and requeue.
        for (_, mut server) in self.servers.lock().drain() {
            server.stop();
        }
        if let Some(reactor) = &self.reactor {
            reactor.stop();
        }
        self.pool.shutdown();
        // 2. Drain transfers already submitted by in-process clients.
        self.inner.transfer_pool().quiesce();
        // 3. Quiesce the maintenance plane: no sweeper run can start after
        //    this returns.
        self.lifecycle.shutdown();
        // 4. Final checkpoint + WAL seal (durable deployments).
        self.inner.shutdown();
    }
}

impl Drop for NetCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for NetCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetCluster")
            .field("transport", &self.inner.config().transport)
            .field("data_providers", &self.provider_connectors.len())
            .finish()
    }
}

/// The addresses of one serving deployment's endpoints, as discovered out
/// of band — the parsed form of the daemon's endpoints file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteEndpoints {
    /// The version-manager endpoint.
    pub vm: SocketAddr,
    /// The provider-manager endpoint.
    pub manager: SocketAddr,
    /// The metadata-plane endpoint.
    pub meta: SocketAddr,
    /// One endpoint per data provider.
    pub providers: Vec<(ProviderId, SocketAddr)>,
}

impl RemoteEndpoints {
    /// Builds the set from `(name, address)` pairs (the output of
    /// [`NetCluster::endpoint_addrs`]). Fails if a service plane is missing
    /// or a name is malformed.
    pub fn from_pairs(pairs: &[(String, SocketAddr)]) -> Result<Self> {
        let mut vm = None;
        let mut manager = None;
        let mut meta = None;
        let mut providers = Vec::new();
        for (name, addr) in pairs {
            match name.as_str() {
                "vm" => vm = Some(*addr),
                "manager" => manager = Some(*addr),
                "meta" => meta = Some(*addr),
                other => {
                    let id = other
                        .strip_prefix("provider-")
                        .and_then(|n| n.parse::<u32>().ok())
                        .ok_or_else(|| {
                            BlobError::InvalidConfig(format!("unknown endpoint name {other:?}"))
                        })?;
                    providers.push((ProviderId(id), *addr));
                }
            }
        }
        let require = |plane: &str, addr: Option<SocketAddr>| {
            addr.ok_or_else(|| BlobError::InvalidConfig(format!("missing {plane} endpoint")))
        };
        if providers.is_empty() {
            return Err(BlobError::InvalidConfig(
                "no data-provider endpoints".into(),
            ));
        }
        providers.sort_by_key(|(id, _)| id.0);
        Ok(RemoteEndpoints {
            vm: require("vm", vm)?,
            manager: require("manager", manager)?,
            meta: require("meta", meta)?,
            providers,
        })
    }

    /// Parses the endpoints-file format: one `name = address` per line,
    /// blank lines and `#` comments ignored.
    pub fn parse(text: &str) -> Result<Self> {
        let mut pairs = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, addr) = line.split_once('=').ok_or_else(|| {
                BlobError::InvalidConfig(format!("malformed endpoints line {line:?}"))
            })?;
            let addr: SocketAddr = addr.trim().parse().map_err(|_| {
                BlobError::InvalidConfig(format!("malformed endpoint address in {line:?}"))
            })?;
            pairs.push((name.trim().to_string(), addr));
        }
        Self::from_pairs(&pairs)
    }

    /// Renders the endpoints-file format [`RemoteEndpoints::parse`] reads.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("vm = {}\n", self.vm));
        out.push_str(&format!("manager = {}\n", self.manager));
        out.push_str(&format!("meta = {}\n", self.meta));
        for (id, addr) in &self.providers {
            out.push_str(&format!("provider-{} = {}\n", id.0, addr));
        }
        out
    }
}

/// Connects a client to a serving deployment in *another process*, given
/// its endpoint addresses. The returned client owns its transfer pool
/// (there is no in-process cluster to share one with) and its own
/// transport metrics; its chunk cache follows `config.chunk_cache_bytes`.
///
/// `config` should match the serving deployment where it matters on the
/// client side: `metadata_providers` (shard-grouped frame batching),
/// `chunk_codec`, timeouts and connection counts.
pub fn connect_remote(config: &ClusterConfig, endpoints: &RemoteEndpoints) -> Result<BlobClient> {
    use rand::RngCore;
    let io_timeout = config.io_timeout();
    let conns = config.connections_per_endpoint;
    let metrics = Arc::new(TransportMetrics::new());
    let connect = |addr: SocketAddr| -> Arc<dyn Connect> { Arc::new(TcpConnector::new(addr)) };

    let manager = RpcEndpoint::new(connect(endpoints.manager), io_timeout, Arc::clone(&metrics))
        .with_connections(conns);
    let providers = endpoints
        .providers
        .iter()
        .map(|&(id, addr)| {
            (
                id,
                RpcEndpoint::new(connect(addr), io_timeout, Arc::clone(&metrics))
                    .with_connections(conns),
            )
        })
        .collect();
    let chunks = Arc::new(NetChunkService::new(
        manager,
        providers,
        Arc::clone(&metrics),
    ));

    let meta = NetMetadataService::new(
        RpcEndpoint::new(connect(endpoints.meta), io_timeout, Arc::clone(&metrics))
            .with_retries(crate::rpc::META_RPC_RETRIES)
            .with_connections(conns),
    )
    .with_shards(config.metadata_providers);
    let meta_service: Arc<dyn MetadataService> = if config.client_metadata_cache {
        Arc::new(CachedMetadataStore::new(Arc::new(meta)))
    } else {
        Arc::new(meta)
    };

    let version_service: Arc<dyn VersionService> = Arc::new(NetVersionService::new(
        RpcEndpoint::new(connect(endpoints.vm), io_timeout, Arc::clone(&metrics))
            .with_retries(crate::rpc::VM_RPC_RETRIES)
            .with_connections(conns),
    ));

    let chunk_cache =
        (config.chunk_cache_bytes > 0).then(|| Arc::new(ChunkCache::new(config.chunk_cache_bytes)));
    let transfers = Arc::new(
        TransferPool::new(config.transfer_workers)
            .with_join_timeout(config.io_timeout().map(|t| t * 8)),
    );

    Ok(BlobClient::new(
        ClientId(rand::thread_rng().next_u64()),
        version_service,
        chunks,
        meta_service,
        transfers,
    )
    .with_pipeline_depth(config.pipeline_depth)
    .with_chunk_cache(chunk_cache)
    .with_chunk_codec(config.chunk_codec)
    .with_transport_metrics(Some(metrics)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_types::{BlobConfig, Version};

    const CS: u64 = 256;

    fn config() -> ClusterConfig {
        ClusterConfig {
            data_providers: 4,
            metadata_providers: 2,
            ..ClusterConfig::default()
        }
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    fn roundtrip_on(cluster: &NetCluster) {
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let data = pattern(3 * CS as usize + 17, 1);
        let v1 = client.append(blob, &data).unwrap();
        assert_eq!(v1, Version(1));
        assert_eq!(client.read_all(blob, None).unwrap(), data);
        // An unaligned overwrite exercises boundary merging over the wire.
        let patch = pattern(40, 9);
        client.write(blob, CS + 5, &patch).unwrap();
        let mut expected = data.clone();
        expected[(CS + 5) as usize..(CS + 45) as usize].copy_from_slice(&patch);
        assert_eq!(client.read_all(blob, None).unwrap(), expected);
        assert_eq!(client.read_all(blob, Some(v1)).unwrap(), data);
        // Wire traffic is visible in the client's stats.
        let stats = client.stats();
        assert!(stats.frames_sent > 0);
        assert!(stats.bytes_on_wire as usize > data.len());
    }

    #[test]
    fn channel_transport_roundtrips() {
        let cluster = NetCluster::new_channel(config(), FaultPlan::none()).unwrap();
        roundtrip_on(&cluster);
    }

    #[test]
    fn tcp_loopback_transport_roundtrips() {
        let cluster = NetCluster::new_tcp(config()).unwrap();
        roundtrip_on(&cluster);
    }

    #[test]
    fn dispatching_constructor_respects_the_config() {
        let cluster = NetCluster::new(ClusterConfig {
            transport: TransportKind::Channel,
            ..config()
        })
        .unwrap();
        assert_eq!(cluster.config().transport, TransportKind::Channel);
        assert!(NetCluster::new(config()).is_err(), "InProcess is rejected");
    }

    #[test]
    fn aligned_writes_stay_zero_copy_over_the_wire() {
        let cluster = NetCluster::new_tcp(config()).unwrap();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        client.append(blob, pattern(4 * CS as usize, 2)).unwrap();
        assert_eq!(
            client.stats().payload_bytes_copied,
            0,
            "the RPC boundary must not reintroduce client-side copies"
        );
    }

    #[test]
    fn failed_providers_report_unavailable_over_the_wire() {
        // Cold-cache deployment: a client-side chunk cache (on by default)
        // would mask the provider outage this test is about.
        let cfg = ClusterConfig {
            chunk_cache_bytes: 0,
            ..config()
        };
        let cluster = NetCluster::new_channel(cfg, FaultPlan::none()).unwrap();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let data = pattern(4 * CS as usize, 3);
        client.append(blob, &data).unwrap();
        for i in 0..4 {
            cluster.fail_provider(ProviderId(i)).unwrap();
        }
        assert!(client.read_all(blob, None).is_err());
        for i in 0..4 {
            cluster.recover_provider(ProviderId(i)).unwrap();
        }
        assert_eq!(client.read_all(blob, None).unwrap(), data);
    }

    #[test]
    fn killed_provider_endpoints_are_substituted_mid_write() {
        let mut cfg = config();
        cfg.io_timeout_ms = 300; // fail over quickly in the test
        let cluster = NetCluster::new_channel(cfg, FaultPlan::none()).unwrap();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        cluster.stop_provider_endpoint(ProviderId(0)).unwrap();
        // Writes keep succeeding: stores assigned to the dead endpoint fall
        // back to live providers, like an in-process provider failure.
        let data = pattern(8 * CS as usize, 4);
        client.append(blob, &data).unwrap();
        assert_eq!(client.read_all(blob, None).unwrap(), data);
        assert_eq!(
            cluster
                .inner()
                .provider(ProviderId(0))
                .unwrap()
                .stats()
                .chunks,
            0,
            "nothing can land behind a dead endpoint"
        );
    }
}
