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
//! Every endpoint is a TCP socket served by one reactor.
//! [`NetCluster::tcp`] is the daemon's deployment;
//! [`NetCluster::tcp_with_faults`] is the same deployment with every client
//! connection dialled through a [`FaultyConnector`] that injects a seeded
//! [`FaultPlan`], which is how the fault tests reach the production server.
//! The differential transport tests run the same operation histories over
//! both and over the plain in-process cluster, and assert byte-identical
//! results.

use crate::reactor::{default_rpc_workers, Reactor, WorkerPool};
use crate::rpc::{
    ChunkHost, ManagerHost, MetaHost, RpcEndpoint, RpcHandler, RpcServer, VersionHost,
    META_RPC_RETRIES, VM_RPC_RETRIES,
};
use crate::services::{NetChunkService, NetMetadataService, NetVersionService};
use crate::transport::{tcp_listener, Connect, FaultState, FaultyConnector, TcpConnector};
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
            metadata: Arc::new(NetMetadataService::new(
                endpoint(&self.meta).with_retries(META_RPC_RETRIES),
            )),
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

/// A served BlobSeer deployment on TCP loopback sockets.
///
/// Serving is event-driven and bounded: all endpoints share one
/// [`WorkerPool`] of [`default_rpc_workers`] threads, and one [`Reactor`]
/// thread owns every accepted socket — the deployment's serving threads are
/// O(workers), however many clients connect.
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
    /// The shared connection reactor, and through it the request-execution
    /// pool behind every endpoint.
    reactor: Arc<Reactor>,
    /// The fault decision source of [`NetCluster::tcp_with_faults`]
    /// (`None` on [`NetCluster::tcp`]) — exposed so tests can swap the plan
    /// mid-run.
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
        Self::serve(cluster, None)
    }

    /// [`NetCluster::tcp`], with every connection its clients dial —
    /// the lifecycle sweeper's included — injecting `faults` (seeded,
    /// deterministic): requests on their way out, responses on their way
    /// in. The servers are the production reactor endpoints.
    pub fn tcp_with_faults(cluster: Cluster, faults: FaultPlan) -> Result<Self> {
        faults.validate()?;
        Self::serve(cluster, Some(Arc::new(FaultState::new(faults))))
    }

    fn serve(inner: Cluster, faults: Option<Arc<FaultState>>) -> Result<Self> {
        let listen = inner.config().net_listen.clone();
        let reactor = Reactor::new(
            WorkerPool::new(default_rpc_workers()),
            inner.config().io_timeout(),
        );
        let mut servers = HashMap::new();
        let mut serve = |name: String, handler: Arc<dyn RpcHandler>| {
            let (connector, listener) = tcp_listener(&listen)?;
            servers.insert(name, RpcServer::spawn_reactor(&reactor, listener, handler));
            Ok::<Arc<dyn Connect>, BlobError>(match &faults {
                Some(faults) => Arc::new(FaultyConnector::new(connector, Arc::clone(faults))),
                None => connector,
            })
        };
        let server_metrics = Arc::new(TransportMetrics::new());
        // A commit waiting on an earlier writer gives up at half the
        // clients' I/O timeout, so it answers before their attempt expires
        // and each retry re-parks no more than one server thread.
        let vm_host = Arc::new(
            VersionHost::new(Arc::clone(inner.version_manager()))
                .with_commit_wait(inner.config().io_timeout().map(|t| t / 2)),
        );
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
            // The serving cache is the RAM tier in front of a durable
            // store; a RAM-resident provider is served straight from its
            // store, which already holds every chunk in memory.
            providers: inner
                .providers()
                .into_iter()
                .map(|provider| {
                    let id = provider.id();
                    let host = ChunkHost::new(provider)
                        .with_cache(
                            inner
                                .durable_tier()
                                .and(inner.shared_chunk_cache())
                                .cloned(),
                        )
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

    /// The fault decision source of a [`NetCluster::tcp_with_faults`]
    /// deployment, for swapping the fault plan mid-test (`None` on
    /// [`NetCluster::tcp`]).
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

    /// The TCP address a data provider's endpoint listens on (`None` for
    /// unknown providers). Stress tests use it to poke endpoints outside the
    /// framed protocol.
    #[must_use]
    pub fn provider_endpoint_addr(&self, id: ProviderId) -> Option<SocketAddr> {
        let (_, connector) = self.connectors.providers.iter().find(|(p, _)| *p == id)?;
        Some(connector.addr())
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
    /// the daemon's endpoints file.
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
            .map(|(name, connector)| (name, connector.addr()))
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
    /// cluster's own shutdown — checkpoint and seal the durable tier (a
    /// no-op on in-memory deployments). A caller that runs the maintenance
    /// tick on a cadence stops it first, as `Daemon::shutdown` does.
    /// Idempotent — `Drop` runs it too, and a second call returns
    /// immediately.
    pub fn shutdown(&self) {
        if self.shutdown_done.swap(true, Ordering::SeqCst) {
            return;
        }
        // 1. Stop accepting new work: stopping the reactor closes every
        //    listener and connection at once, so the endpoint stops after
        //    it return immediately. In-flight handlers finish on their own;
        //    sweeper RPCs issued against the dead endpoints from here on
        //    fail cleanly and requeue.
        self.reactor.stop();
        for (_, mut server) in self.servers.lock().drain() {
            server.stop();
        }
        self.reactor.pool().shutdown();
        // 2. Drain transfers already submitted by in-process clients.
        self.inner.transfer_pool().quiesce();
        // 3. The final checkpoint and WAL seal (durable deployments).
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
            .field("faults", &self.faults.is_some())
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
/// client side: `chunk_codec`, timeouts and connection counts.
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
    use blobseer_types::{BlobConfig, BlobId, Version};

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

    /// A RAM-resident provider is served straight from its store: the
    /// shared cache is never handed to a chunk host, so writes and reads
    /// over the wire neither fill it, consult it nor copy into it.
    #[test]
    fn a_ram_deployment_serves_without_a_serving_cache() {
        let cluster = tcp(ClusterConfig {
            shared_chunk_cache: true,
            ..config()
        });
        // A client without a chunk cache of its own: only the chunk hosts
        // could touch the shared one.
        let client = connect_remote(
            &ClusterConfig {
                chunk_cache_bytes: 0,
                ..config()
            },
            &RemoteEndpoints::from_pairs(&cluster.endpoint_addrs()).unwrap(),
        )
        .unwrap();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let data = pattern(8 * CS as usize, 5);
        client.append(blob, &data).unwrap();
        assert_eq!(client.read_all(blob, None).unwrap(), data);
        assert_eq!(client.read_all(blob, None).unwrap(), data);
        let stats = cluster.inner().shared_chunk_cache().unwrap().stats();
        assert_eq!(stats.insertions, 0, "{stats:?}");
        assert_eq!(stats.hits + stats.misses, 0, "{stats:?}");
        assert_eq!(stats.bytes_compacted, 0, "{stats:?}");
    }

    /// Only a journaled version manager blocks its handlers: a RAM-resident
    /// deployment keeps every version-manager request on the reactor's
    /// inline path.
    #[test]
    fn only_a_durable_version_host_may_block() {
        let ram = tcp(config());
        assert!((0..=u8::MAX).all(|opcode| !ram.vm_host.may_block(opcode)));
        let dir =
            std::env::temp_dir().join(format!("blobseer-net-may-block-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = NetCluster::tcp(Cluster::open_durable(config(), &dir).unwrap()).unwrap();
        let blocking: Vec<u8> = (0..=u8::MAX)
            .filter(|&opcode| durable.vm_host.may_block(opcode))
            .collect();
        assert_eq!(
            blocking,
            [
                crate::rpc::op::VM_CREATE_BLOB,
                crate::rpc::op::VM_COMPLETE,
                crate::rpc::op::VM_ABORT
            ]
        );
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A durable served deployment in a fresh directory, with `io_timeout`.
    fn durable(name: &str, io_timeout_ms: u64) -> (NetCluster, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("blobseer-net-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ClusterConfig {
            io_timeout_ms,
            ..config()
        };
        let cluster = NetCluster::tcp(Cluster::open_durable(config, &dir).unwrap()).unwrap();
        (cluster, dir)
    }

    /// The header of a `VM_COMPLETE` of `version`, reporting no artifacts.
    fn completion(blob: BlobId, version: Version) -> (bytes::Bytes, bytes::Bytes) {
        let header = blobseer_types::wire::encode(&(
            blob,
            version,
            None::<Vec<blobseer_core::NodeArtifact>>,
        ));
        (header, bytes::Bytes::new())
    }

    /// Two completions of one blob pipelined on one connection, the later
    /// version first: the commit of v+1 waits for v to be durable, so it
    /// must not hold up v's completion queued behind it. Both are acked in
    /// the time of a commit, far inside the commit wait.
    #[test]
    fn completions_pipelined_out_of_order_on_one_connection_are_both_acked() {
        use std::time::{Duration, Instant};
        let (cluster, dir) = durable("pipelined-commits", 8_000);
        let vm = cluster.inner().version_manager();
        let blob = vm.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let append = blobseer_core::WriteKind::Append { len: CS };
        let first = vm.assign_ticket(blob, append).unwrap().version;
        let second = vm.assign_ticket(blob, append).unwrap().version;
        let endpoint = RpcEndpoint::new(
            Arc::clone(&cluster.connectors.vm),
            Some(Duration::from_secs(8)),
            Arc::new(TransportMetrics::new()),
        )
        .with_retries(0);
        let started = Instant::now();
        // One flush: both frames leave in one write, on one connection.
        let acks = endpoint.call_many(
            crate::rpc::op::VM_COMPLETE,
            &[completion(blob, second), completion(blob, first)],
        );
        let waited = started.elapsed();
        // Each ack names the newest durable version, its own or later:
        // the completion of v may run before v+1 is complete.
        for (ack, version) in acks.into_iter().zip([second, first]) {
            let latest: Version = blobseer_types::wire::decode(&ack.unwrap().header).unwrap();
            assert!(latest >= version, "{version} acked at {latest}");
        }
        assert!(
            waited < Duration::from_secs(2),
            "the completions took {waited:?}: v+1 held up v behind it"
        );
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, second);
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A writer holds version 1 and never settles it. The committer of
    /// version 2 retries its whole budget, but each attempt gives up at the
    /// commit wait, before the client's I/O timeout, so the server never
    /// parks more than one thread for it and lends no stand-in worker.
    /// Once version 1 settles, both publish.
    #[test]
    fn a_commit_behind_a_held_ticket_parks_at_most_one_server_thread() {
        use std::time::{Duration, Instant};
        let (cluster, dir) = durable("held-ticket", 300);
        let vm = cluster.inner().version_manager();
        let blob = vm.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        let append = blobseer_core::WriteKind::Append { len: CS };
        let held = vm.assign_ticket(blob, append).unwrap().version;
        let later = vm.assign_ticket(blob, append).unwrap().version;
        let endpoint = RpcEndpoint::new(
            Arc::clone(&cluster.connectors.vm),
            cluster.inner().config().io_timeout(),
            Arc::new(TransportMetrics::new()),
        )
        .with_retries(VM_RPC_RETRIES);
        let committer = std::thread::spawn(move || {
            let (header, payload) = completion(blob, later);
            endpoint.call(crate::rpc::op::VM_COMPLETE, header, payload)
        });
        let pool = cluster.reactor.pool();
        let (mut most_blocking, mut most_threads) = (0, 0);
        let started = Instant::now();
        while !committer.is_finished() {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "the committer never gave up"
            );
            most_blocking = most_blocking.max(pool.blocking_jobs());
            most_threads = most_threads.max(pool.threads());
            std::thread::sleep(Duration::from_millis(2));
        }
        let err = committer.join().unwrap().unwrap_err();
        assert!(matches!(err, BlobError::Transport(_)), "{err:?}");
        // A retry may start just before the attempt it replaces has left
        // its job: two at once, never a pile.
        assert!(
            most_blocking <= 2,
            "{most_blocking} commit jobs parked at once"
        );
        assert!(
            most_threads <= default_rpc_workers(),
            "the pool grew to {most_threads} threads"
        );
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, Version(0));
        assert_eq!(vm.complete_write(blob, held).unwrap(), later);
        assert_eq!(vm.latest_snapshot(blob).unwrap().version, later);
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
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
        let err = NetCluster::tcp(cluster).unwrap_err();
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
        let cluster = tcp(cfg);
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
        let cluster = tcp(cfg);
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
