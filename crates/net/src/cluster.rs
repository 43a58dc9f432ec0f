//! A served BlobSeer deployment: a [`Cluster`] whose services clients reach
//! over the framed RPC protocol.
//!
//! [`NetCluster`] takes a [`Cluster`] by value. The cluster keeps owning the
//! version manager, the providers, the DHT, the transfer pool and the one
//! lifecycle engine; the serving layer owns only the server-side pieces:
//! one RPC endpoint per data provider plus the provider manager, the
//! metadata plane and the version manager, the worker pool, the reactor,
//! the connectors and the serving-side traffic counters.
//!
//! Clients from [`NetCluster::client`] hold `NetChunkService`/
//! `NetMetadataService`/`NetVersionService` instead of the in-process
//! implementations — every chunk, every metadata node and every
//! version-manager decision they touch crosses the wire. So do the
//! lifecycle sweeper's deletes: the cluster's engine is built over the same
//! wire services. A client in another *process* connects to the same
//! endpoints with [`connect_remote`], given the addresses from
//! [`NetCluster::endpoint_addrs`] (the daemon's endpoints file).
//!
//! The transport is the constructor: [`NetCluster::tcp`] serves real TCP
//! loopback sockets, [`NetCluster::channel`] the in-process channel
//! transport with a seeded [`FaultPlan`] (the networked test double). The
//! differential transport tests run the same operation histories over both
//! — and over the plain in-process cluster — and assert byte-identical
//! results.

use crate::reactor::{default_rpc_workers, Reactor, WorkerPool};
use crate::rpc::{
    ChunkHost, ManagerHost, MetaHost, RpcEndpoint, RpcHandler, RpcServer, VersionHost,
    META_RPC_RETRIES, VM_RPC_RETRIES,
};
use crate::services::{NetChunkService, NetMetadataService, NetVersionService};
use crate::transport::{channel_endpoint, tcp_listener, Connect, FaultState, TcpConnector};
use blobseer_core::{BlobClient, ClientServices, Cluster, TransferPool};
use blobseer_meta::MetadataStore;
use blobseer_types::{
    BlobError, ClientId, ClusterConfig, FaultPlan, ProviderId, Result, TransportMetrics,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What a client dials: one connector per endpoint of a deployment.
struct Connectors {
    vm: Arc<dyn Connect>,
    manager: Arc<dyn Connect>,
    meta: Arc<dyn Connect>,
    /// In provider-id order.
    providers: Vec<(ProviderId, Arc<dyn Connect>)>,
}

impl Connectors {
    /// TCP connectors to endpoints discovered out of band.
    fn remote(endpoints: &RemoteEndpoints) -> Self {
        let tcp = |addr| -> Arc<dyn Connect> { Arc::new(TcpConnector::new(addr)) };
        Connectors {
            vm: tcp(endpoints.vm),
            manager: tcp(endpoints.manager),
            meta: tcp(endpoints.meta),
            providers: endpoints
                .providers
                .iter()
                .map(|&(id, addr)| (id, tcp(addr)))
                .collect(),
        }
    }

    /// Wire stubs of the three services over fresh endpoints (no
    /// connection is dialled until the first call), every frame counted in
    /// `metrics`. Each endpoint opens `connections_per_endpoint`
    /// multiplexed connections, used round robin, and bounds every call by
    /// `io_timeout`.
    fn services(&self, config: &ClusterConfig, metrics: &Arc<TransportMetrics>) -> ClientServices {
        let endpoint = |connector: &Arc<dyn Connect>| {
            RpcEndpoint::new(
                Arc::clone(connector),
                config.io_timeout(),
                Arc::clone(metrics),
            )
            .with_connections(config.connections_per_endpoint)
        };
        let providers = self
            .providers
            .iter()
            .map(|(id, connector)| (*id, endpoint(connector)))
            .collect();
        ClientServices {
            chunks: Arc::new(NetChunkService::new(
                endpoint(&self.manager),
                providers,
                Arc::clone(metrics),
            )),
            // The metadata endpoint gets a deeper retry budget: metadata
            // frames are tiny and on every critical path, so extra masking
            // of lossy links is cheap there (see `META_RPC_RETRIES`).
            // Batches are split into one frame per metadata shard and
            // flushed as a single vectored submission.
            metadata: Arc::new(
                NetMetadataService::new(endpoint(&self.meta).with_retries(META_RPC_RETRIES))
                    .with_shards(config.metadata_providers),
            ),
            // The version-manager plane has the deepest budget of all: its
            // frames are tiny, every operation serialises through it with
            // no replica to rotate to, and the host deduplicates retries of
            // the non-idempotent calls by nonce.
            versions: Arc::new(NetVersionService::new(
                endpoint(&self.vm).with_retries(VM_RPC_RETRIES),
            )),
        }
    }
}

/// A served BlobSeer deployment (TCP loopback or channel transport).
///
/// Serving is event-driven and bounded: all endpoints share one
/// [`WorkerPool`] of [`default_rpc_workers`] threads, and on the TCP
/// transport one [`Reactor`] thread owns every accepted socket — the
/// deployment's serving threads are O(workers), however many clients
/// connect.
pub struct NetCluster {
    inner: Cluster,
    connectors: Connectors,
    /// The served version-manager host (kept for lease diagnostics).
    vm_host: Arc<VersionHost>,
    /// Serving-side traffic accounting, shared by every chunk host: the
    /// logical/physical bytes this deployment moved for its clients,
    /// independent of any one client's own metrics.
    server_metrics: Arc<TransportMetrics>,
    /// Running server endpoints, keyed for targeted teardown ("manager",
    /// "meta", "vm", "provider-N").
    servers: Mutex<HashMap<String, RpcServer>>,
    /// The shared request-execution pool behind every endpoint.
    pool: WorkerPool,
    /// The shared connection reactor (TCP transport only; the channel
    /// transport's blocking sources keep per-connection reader threads).
    reactor: Option<Arc<Reactor>>,
    /// The channel transport's fault decision source (`None` on TCP) —
    /// exposed so tests can swap the plan mid-run.
    faults: Option<Arc<FaultState>>,
    /// Latched by [`NetCluster::shutdown`] so `Drop` does not re-run it.
    shutdown_done: AtomicBool,
}

impl NetCluster {
    /// Serves `cluster` on real TCP loopback sockets bound to its
    /// `net_listen`, through one shared reactor thread plus the bounded
    /// worker pool. A durable served deployment is
    /// `NetCluster::tcp(Cluster::open_durable(config, dir)?)`.
    pub fn tcp(cluster: Cluster) -> Result<Self> {
        let listen = cluster.config().net_listen.clone();
        let pool = WorkerPool::new(default_rpc_workers());
        let reactor = Reactor::new(pool.clone(), cluster.config().io_timeout());
        let serve_reactor = Arc::clone(&reactor);
        Self::serve(cluster, pool, Some(reactor), None, move |handler| {
            let (connector, listener) = tcp_listener(&listen)?;
            Ok((
                connector,
                RpcServer::spawn_reactor(&serve_reactor, listener, handler),
            ))
        })
    }

    /// Serves `cluster` on the in-process channel transport, injecting
    /// `faults` (seeded, deterministic) into every link of the network.
    /// Channel sources block (that is what makes their fault injection
    /// deterministic), so connections keep reader threads — but request
    /// execution still runs on the shared bounded pool.
    pub fn channel(cluster: Cluster, faults: FaultPlan) -> Result<Self> {
        faults.validate()?;
        let state = Arc::new(FaultState::new(faults));
        let serve_state = Arc::clone(&state);
        let pool = WorkerPool::new(default_rpc_workers());
        let serve_pool = pool.clone();
        Self::serve(cluster, pool, None, Some(state), move |handler| {
            let (connector, acceptor, stopper) = channel_endpoint(Arc::clone(&serve_state));
            Ok((
                connector,
                RpcServer::spawn_pooled(acceptor, stopper, handler, serve_pool.clone()),
            ))
        })
    }

    fn serve(
        inner: Cluster,
        pool: WorkerPool,
        reactor: Option<Arc<Reactor>>,
        faults: Option<Arc<FaultState>>,
        make_server: impl Fn(Arc<dyn RpcHandler>) -> Result<(Arc<dyn Connect>, RpcServer)>,
    ) -> Result<Self> {
        let mut servers = HashMap::new();
        let mut serve = |name: String, handler: Arc<dyn RpcHandler>| {
            let (connector, server) = make_server(handler)?;
            servers.insert(name, server);
            Ok::<_, BlobError>(connector)
        };
        let server_metrics = Arc::new(TransportMetrics::new());
        let vm_host = Arc::new(VersionHost::new(Arc::clone(inner.version_manager())));
        let connectors = Connectors {
            manager: serve(
                "manager".into(),
                Arc::new(ManagerHost::new(Arc::clone(inner.provider_manager()))),
            )?,
            // Serve the cluster's *metadata service* (the WAL-wrapped store
            // on durable deployments) rather than the raw DHT, so remote
            // metadata mutations hit the write-ahead log before they land
            // in memory.
            meta: serve(
                "meta".into(),
                Arc::new(MetaHost::new(
                    Arc::clone(inner.metadata_service()) as Arc<dyn MetadataStore>
                )),
            )?,
            // The version manager — the deployment's serialisation point —
            // goes on the wire like every other plane.
            vm: serve("vm".into(), Arc::clone(&vm_host) as Arc<dyn RpcHandler>)?,
            providers: inner
                .providers()
                .into_iter()
                .map(|provider| {
                    let id = provider.id();
                    let host = ChunkHost::new(provider)
                        .with_cache(inner.shared_chunk_cache().cloned())
                        .with_metrics(Some(Arc::clone(&server_metrics)));
                    Ok((id, serve(format!("provider-{}", id.0), Arc::new(host))?))
                })
                .collect::<Result<_>>()?,
        };
        let cluster = NetCluster {
            inner,
            connectors,
            vm_host,
            server_metrics,
            servers: Mutex::new(servers),
            pool,
            reactor,
            faults,
            shutdown_done: AtomicBool::new(false),
        };
        // The lifecycle engine is itself a wire client of the deployment,
        // so reclamation crosses the same RPC boundary reads and writes do
        // — a served provider frees bytes because a REMOVE_CHUNKS frame
        // reached it, not because the sweeper shares its address space.
        // Its metadata service stays uncached, like the in-process engine's.
        let wire = cluster
            .connectors
            .services(cluster.inner.config(), &Arc::new(TransportMetrics::new()));
        cluster
            .inner
            .build_lifecycle_over(wire.metadata, wire.chunks)?;
        Ok(cluster)
    }

    /// The channel transport's fault decision source, for swapping the
    /// fault plan mid-test (`None` on TCP deployments).
    #[must_use]
    pub fn fault_state(&self) -> Option<&Arc<FaultState>> {
        self.faults.as_ref()
    }

    /// The served cluster: configuration, version manager, provider
    /// handles, failure injection, the lifecycle engine and statistics.
    pub fn inner(&self) -> &Cluster {
        &self.inner
    }

    /// Kills a data provider's server endpoint outright: live connections
    /// are torn down mid-request and new ones are refused — the networked
    /// equivalent of the provider *process* dying, which is harsher than
    /// `Cluster::fail_provider` (a polite "unavailable" response).
    pub fn stop_provider_endpoint(&self, id: ProviderId) -> Result<()> {
        let mut servers = self.servers.lock();
        let server = servers
            .get_mut(&format!("provider-{}", id.0))
            .ok_or(BlobError::UnknownProvider(id))?;
        server.stop();
        Ok(())
    }

    /// The TCP address a data provider's endpoint listens on (`None` on
    /// the channel transport or for unknown providers). Stress tests use it
    /// to poke endpoints outside the framed protocol.
    #[must_use]
    pub fn provider_endpoint_addr(&self, id: ProviderId) -> Option<SocketAddr> {
        let (_, connector) = self.connectors.providers.iter().find(|(p, _)| *p == id)?;
        connector.addr()
    }

    /// Creates a client whose every service call runs over the wire. Each
    /// client gets its own connection pool per endpoint and its own
    /// [`TransportMetrics`], surfaced through
    /// `ClientStats::bytes_on_wire`/`frames_sent`/`frames_coalesced`; the
    /// rest comes from [`Cluster::client_over`].
    pub fn client(&self) -> BlobClient {
        let metrics = Arc::new(TransportMetrics::new());
        self.inner
            .client_over(self.connectors.services(self.inner.config(), &metrics))
            .with_transport_metrics(Some(metrics))
    }

    /// Every endpoint the deployment serves, as `(name, address)` pairs —
    /// the daemon's endpoints file. Empty on the channel transport, whose
    /// connectors have no socket addresses.
    #[must_use]
    pub fn endpoint_addrs(&self) -> Vec<(String, SocketAddr)> {
        let c = &self.connectors;
        let planes = [("vm", &c.vm), ("manager", &c.manager), ("meta", &c.meta)]
            .map(|(name, connector)| (name.to_string(), connector));
        let providers = c
            .providers
            .iter()
            .map(|(id, connector)| (format!("provider-{}", id.0), connector));
        planes
            .into_iter()
            .chain(providers)
            .filter_map(|(name, connector)| Some((name, connector.addr()?)))
            .collect()
    }

    /// Serving-side traffic counters (the chunk bytes this deployment moved
    /// for its clients, logical and physical).
    #[must_use]
    pub fn server_metrics(&self) -> &Arc<TransportMetrics> {
        &self.server_metrics
    }

    /// Pin leases currently held on behalf of remote clients.
    #[must_use]
    pub fn vm_lease_count(&self) -> usize {
        self.vm_host.lease_count()
    }

    /// Coordinated graceful shutdown, in dependency order: stop accepting
    /// and tear down the server endpoints, stop the reactor and the RPC
    /// worker pool, drain the transfer pool's submitted backlog, then the
    /// cluster's own shutdown — park the lifecycle/GC worker, checkpoint
    /// and seal the durable tier (a no-op on in-memory deployments).
    /// Idempotent — `Drop` runs it too, and a second call returns
    /// immediately.
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
        // 3. Quiesce the maintenance plane, then the final checkpoint and
        //    WAL seal (durable deployments).
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
            .field("tcp", &self.reactor.is_some())
            .field("data_providers", &self.connectors.providers.len())
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
    /// [`NetCluster::endpoint_addrs`]). Fails if a service plane is missing,
    /// a name is malformed, or a plane or provider is named twice.
    pub fn from_pairs(pairs: &[(String, SocketAddr)]) -> Result<Self> {
        let mut vm = None;
        let mut manager = None;
        let mut meta = None;
        let mut providers: Vec<(ProviderId, SocketAddr)> = Vec::new();
        let duplicate =
            |name: &str| BlobError::InvalidConfig(format!("duplicate endpoint {name:?}"));
        for (name, addr) in pairs {
            let plane = match name.as_str() {
                "vm" => &mut vm,
                "manager" => &mut manager,
                "meta" => &mut meta,
                other => {
                    let id = other
                        .strip_prefix("provider-")
                        .and_then(|n| n.parse::<u32>().ok())
                        .map(ProviderId)
                        .ok_or_else(|| {
                            BlobError::InvalidConfig(format!("unknown endpoint name {other:?}"))
                        })?;
                    if providers.iter().any(|&(p, _)| p == id) {
                        return Err(duplicate(other));
                    }
                    providers.push((id, *addr));
                    continue;
                }
            };
            if plane.replace(*addr).is_some() {
                return Err(duplicate(name));
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
/// transport metrics; its caches follow `config` as
/// [`BlobClient::configured`] reads it, with no shared chunk cache.
///
/// `config` should match the serving deployment where it matters on the
/// client side: `metadata_providers` (shard-grouped frame batching),
/// `chunk_codec`, timeouts and connection counts.
pub fn connect_remote(config: &ClusterConfig, endpoints: &RemoteEndpoints) -> Result<BlobClient> {
    use rand::RngCore;
    let metrics = Arc::new(TransportMetrics::new());
    let transfers = Arc::new(
        TransferPool::new(config.transfer_workers)
            .with_join_timeout(config.io_timeout().map(|t| t * 8)),
    );
    Ok(BlobClient::configured(
        ClientId(rand::thread_rng().next_u64()),
        Connectors::remote(endpoints).services(config, &metrics),
        transfers,
        config,
        None,
    )
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

    fn tcp(config: ClusterConfig) -> NetCluster {
        NetCluster::tcp(Cluster::new(config).unwrap()).unwrap()
    }

    fn channel(config: ClusterConfig) -> NetCluster {
        NetCluster::channel(Cluster::new(config).unwrap(), FaultPlan::none()).unwrap()
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
        let cluster = channel(config());
        roundtrip_on(&cluster);
    }

    #[test]
    fn tcp_loopback_transport_roundtrips() {
        let cluster = tcp(config());
        roundtrip_on(&cluster);
    }

    #[test]
    fn a_cluster_whose_lifecycle_already_exists_is_not_served() {
        let cluster = Cluster::new(config()).unwrap();
        let _in_process = cluster.lifecycle();
        let err = NetCluster::channel(cluster, FaultPlan::none()).unwrap_err();
        assert!(matches!(err, BlobError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn duplicate_plane_endpoints_are_rejected() {
        let text = "vm = 127.0.0.1:1\nvm = 127.0.0.1:2\nmanager = 127.0.0.1:3\n\
                    meta = 127.0.0.1:4\nprovider-0 = 127.0.0.1:5\n";
        assert_eq!(
            RemoteEndpoints::parse(text).unwrap_err(),
            BlobError::InvalidConfig("duplicate endpoint \"vm\"".into())
        );
        let unique = RemoteEndpoints::parse(&text.replacen("vm = 127.0.0.1:1\n", "", 1)).unwrap();
        assert_eq!(unique.vm, "127.0.0.1:2".parse().unwrap());
    }

    #[test]
    fn duplicate_provider_endpoints_are_rejected() {
        let text = "vm = 127.0.0.1:1\nmanager = 127.0.0.1:2\nmeta = 127.0.0.1:3\n\
                    provider-1 = 127.0.0.1:4\nprovider-01 = 127.0.0.1:5\n";
        assert_eq!(
            RemoteEndpoints::parse(text).unwrap_err(),
            BlobError::InvalidConfig("duplicate endpoint \"provider-01\"".into())
        );
    }

    #[test]
    fn aligned_writes_stay_zero_copy_over_the_wire() {
        let cluster = tcp(config());
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
        let cluster = channel(cfg);
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let data = pattern(4 * CS as usize, 3);
        client.append(blob, &data).unwrap();
        for i in 0..4 {
            cluster.inner().fail_provider(ProviderId(i)).unwrap();
        }
        assert!(client.read_all(blob, None).is_err());
        for i in 0..4 {
            cluster.inner().recover_provider(ProviderId(i)).unwrap();
        }
        assert_eq!(client.read_all(blob, None).unwrap(), data);
    }

    #[test]
    fn killed_provider_endpoints_are_substituted_mid_write() {
        let mut cfg = config();
        cfg.io_timeout_ms = 300; // fail over quickly in the test
        let cluster = channel(cfg);
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
