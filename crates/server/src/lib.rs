//! The deployable BlobSeer-RS server daemon.
//!
//! `blobseer-server` turns a [`NetCluster`] into something an operator can
//! actually run: it reads a plaintext `key = value` configuration file,
//! binds every service plane (version manager, provider manager, metadata,
//! one endpoint per data provider) on real TCP sockets, publishes the bound
//! addresses through an **endpoints file** (the out-of-band discovery
//! channel [`blobseer_net::connect_remote`] consumes), serves a plaintext
//! metrics/health endpoint, and drains in dependency order on shutdown.
//!
//! There is deliberately no signal-handling dependency: the SIGTERM
//! equivalent is `POST /shutdown` on the metrics endpoint, which triggers
//! the same coordinated drain ([`NetCluster::shutdown`]) an embedding
//! process gets by calling [`Daemon::shutdown`] directly — stop accepting,
//! finish in-flight RPCs, quiesce the transfer pool and the lifecycle/GC
//! thread, checkpoint and seal the WAL.

pub mod metrics;

use blobseer_core::Cluster;
use blobseer_net::{NetCluster, RemoteEndpoints};
use blobseer_types::{BlobError, ChunkCodec, ClusterConfig, Durability, PlacementPolicy, Result};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Everything a daemon instance needs to start: the cluster configuration
/// plus the server-only knobs (durable root, metrics address, endpoints
/// file, maintenance cadence).
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// The deployment configuration, served over TCP.
    pub cluster: ClusterConfig,
    /// Root directory of the durable tier. `None` runs RAM-resident (no
    /// WAL, no segment logs — everything is lost at exit).
    pub durable_dir: Option<PathBuf>,
    /// Listen address of the metrics/health endpoint. Port 0 picks an
    /// ephemeral port (published through the endpoints file).
    pub metrics_listen: String,
    /// Where to write the endpoint-discovery file. `None` skips it (the
    /// embedding process reads [`Daemon::endpoints`] directly).
    pub endpoints_file: Option<PathBuf>,
    /// Period of the background lifecycle/maintenance tick in milliseconds
    /// (flattening, GC sweeps, WAL checkpoints, segment compaction).
    /// Zero disables the thread.
    pub maintenance_interval_ms: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            cluster: ClusterConfig {
                // The daemon serves many unrelated clients; a process-wide
                // chunk cache (coherence-free thanks to chunk immutability)
                // is the right default and feeds the `cache_*` metrics.
                shared_chunk_cache: true,
                ..ClusterConfig::default()
            },
            durable_dir: None,
            metrics_listen: "127.0.0.1:0".to_string(),
            endpoints_file: None,
            maintenance_interval_ms: 250,
        }
    }
}

fn bad(key: &str, value: &str, want: &str) -> BlobError {
    BlobError::InvalidConfig(format!("config key {key:?}: {value:?} is not {want}"))
}

fn parse_u64(key: &str, value: &str) -> Result<u64> {
    value.parse().map_err(|_| bad(key, value, "an integer"))
}

fn parse_usize(key: &str, value: &str) -> Result<usize> {
    value.parse().map_err(|_| bad(key, value, "an integer"))
}

fn parse_f64(key: &str, value: &str) -> Result<f64> {
    value.parse().map_err(|_| bad(key, value, "a number"))
}

fn parse_bool(key: &str, value: &str) -> Result<bool> {
    match value {
        "true" | "on" | "yes" | "1" => Ok(true),
        "false" | "off" | "no" | "0" => Ok(false),
        _ => Err(bad(key, value, "a boolean (true/false)")),
    }
}

impl ServerOptions {
    /// Parses the daemon's plaintext configuration format: one
    /// `key = value` per line, blank lines and `#` comments ignored,
    /// unknown keys rejected (a typo'd knob must not silently fall back to
    /// a default). Every key is optional; see the crate README for the
    /// full list.
    pub fn parse(text: &str) -> Result<Self> {
        let mut opts = ServerOptions::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                BlobError::InvalidConfig(format!("malformed config line {line:?}"))
            })?;
            let (key, value) = (key.trim(), value.trim());
            opts.apply(key, value)?;
        }
        opts.cluster.validate()?;
        Ok(opts)
    }

    /// Reads and parses a configuration file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| BlobError::Storage(format!("reading {}: {e}", path.as_ref().display())))?;
        Self::parse(&text)
    }

    fn apply(&mut self, key: &str, value: &str) -> Result<()> {
        let c = &mut self.cluster;
        match key {
            // ---- server-only knobs ----
            "durable_dir" => self.durable_dir = Some(PathBuf::from(value)),
            "metrics_listen" => self.metrics_listen = value.to_string(),
            "endpoints_file" => self.endpoints_file = Some(PathBuf::from(value)),
            "maintenance_interval_ms" => {
                self.maintenance_interval_ms = parse_u64(key, value)?;
            }
            // ---- deployment shape ----
            "data_providers" => c.data_providers = parse_usize(key, value)?,
            "metadata_providers" => c.metadata_providers = parse_usize(key, value)?,
            "dht_replication" => c.dht_replication = parse_usize(key, value)?,
            "placement" => {
                c.placement = match value {
                    "round-robin" => PlacementPolicy::RoundRobin,
                    "random" => PlacementPolicy::Random,
                    "least-loaded" => PlacementPolicy::LeastLoaded,
                    "qos-aware" => PlacementPolicy::QosAware,
                    _ => {
                        return Err(bad(
                            key,
                            value,
                            "one of round-robin|random|least-loaded|qos-aware",
                        ))
                    }
                }
            }
            // ---- networking ----
            "net_listen" => c.net_listen = value.to_string(),
            "io_timeout_ms" => c.io_timeout_ms = parse_u64(key, value)?,
            "connections_per_endpoint" => {
                c.connections_per_endpoint = parse_usize(key, value)?;
            }
            // ---- data path ----
            "transfer_workers" => c.transfer_workers = parse_usize(key, value)?,
            "pipeline_depth" => c.pipeline_depth = parse_usize(key, value)?,
            "chunk_cache_bytes" => c.chunk_cache_bytes = parse_u64(key, value)?,
            "shared_chunk_cache" => c.shared_chunk_cache = parse_bool(key, value)?,
            "client_metadata_cache" => c.client_metadata_cache = parse_bool(key, value)?,
            "chunk_codec" => {
                c.chunk_codec = match value {
                    "off" => ChunkCodec::Off,
                    "fast" => ChunkCodec::Fast,
                    _ => return Err(bad(key, value, "one of off|fast")),
                }
            }
            // ---- version lifecycle ----
            "retained_versions" => c.retained_versions = parse_usize(key, value)?,
            "flatten_threshold" => c.flatten_threshold = parse_usize(key, value)?,
            // ---- durability ----
            "durability" => {
                c.durability = match value {
                    "buffered" => Durability::Buffered,
                    "commit" => Durability::Commit,
                    "always" => Durability::Always,
                    _ => return Err(bad(key, value, "one of buffered|commit|always")),
                }
            }
            "checkpoint_records" => c.checkpoint_records = parse_u64(key, value)?,
            "checkpoint_bytes" => c.checkpoint_bytes = parse_u64(key, value)?,
            "checkpoint_interval_ms" => c.checkpoint_interval_ms = parse_u64(key, value)?,
            "compact_dead_ratio" => c.compact_dead_ratio = parse_f64(key, value)?,
            "segment_bytes" => c.segment_bytes = parse_u64(key, value)?,
            // ---- admission ----
            "admission_limit" => c.admission_limit = parse_usize(key, value)?,
            _ => {
                return Err(BlobError::InvalidConfig(format!(
                    "unknown config key {key:?}"
                )))
            }
        }
        Ok(())
    }
}

/// A running daemon: the served cluster, its discovered endpoint addresses,
/// and the metrics/health endpoint.
pub struct Daemon {
    cluster: Arc<NetCluster>,
    endpoints: RemoteEndpoints,
    metrics: metrics::MetricsServer,
}

impl Daemon {
    /// Binds every endpoint and starts serving. On return the deployment is
    /// fully reachable: the endpoints file (when configured) is written and
    /// carries the metrics address as a `# metrics = addr` comment, so one
    /// file is the whole discovery story.
    pub fn start(opts: ServerOptions) -> Result<Self> {
        let cluster = match &opts.durable_dir {
            Some(dir) => Cluster::open_durable(opts.cluster.clone(), dir)?,
            None => Cluster::new(opts.cluster.clone())?,
        };
        let cluster = Arc::new(NetCluster::tcp(cluster)?);
        if opts.maintenance_interval_ms > 0 {
            cluster
                .inner()
                .lifecycle()
                .start(Duration::from_millis(opts.maintenance_interval_ms));
        }
        let endpoints = RemoteEndpoints::from_pairs(&cluster.endpoint_addrs())?;
        let metrics = metrics::MetricsServer::start(&opts.metrics_listen, Arc::clone(&cluster))?;
        if let Some(path) = &opts.endpoints_file {
            // Written atomically (tmp + rename) so a client polling for the
            // file never reads a half-written address list.
            let body = format!(
                "# blobseer-server endpoints\n# metrics = {}\n{}",
                metrics.addr(),
                endpoints.render()
            );
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, body)
                .and_then(|()| std::fs::rename(&tmp, path))
                .map_err(|e| BlobError::Storage(format!("writing {}: {e}", path.display())))?;
        }
        Ok(Daemon {
            cluster,
            endpoints,
            metrics,
        })
    }

    /// The served deployment.
    #[must_use]
    pub fn cluster(&self) -> &Arc<NetCluster> {
        &self.cluster
    }

    /// The bound service-plane addresses (what the endpoints file carries).
    #[must_use]
    pub fn endpoints(&self) -> &RemoteEndpoints {
        &self.endpoints
    }

    /// The bound address of the metrics/health endpoint.
    #[must_use]
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics.addr()
    }

    /// Blocks until a `POST /shutdown` arrives on the metrics endpoint (the
    /// daemon's SIGTERM equivalent).
    pub fn wait_for_shutdown(&self) {
        self.metrics.wait_for_shutdown();
    }

    /// Coordinated graceful drain: the full [`NetCluster::shutdown`]
    /// sequence (stop accepting → drain in-flight RPCs and the transfer
    /// pool → quiesce lifecycle/GC → final checkpoint + WAL seal), then the
    /// metrics endpoint goes down last so health stays observable through
    /// the drain. Idempotent.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
        self.metrics.stop();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads the `# metrics = addr` comment [`Daemon::start`] leaves in the
/// endpoints file, so one file discovers both the service planes and the
/// control endpoint.
pub fn metrics_addr_of(endpoints_file_text: &str) -> Option<SocketAddr> {
    endpoints_file_text.lines().find_map(|line| {
        line.trim()
            .strip_prefix("# metrics =")
            .and_then(|addr| addr.trim().parse().ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_parses_every_section_and_rejects_typos() {
        let opts = ServerOptions::parse(
            "# a comment\n\
             data_providers = 8\n\
             metadata_providers = 2\n\
             placement = qos-aware\n\
             chunk_codec = fast\n\
             durability = buffered\n\
             shared_chunk_cache = off\n\
             admission_limit = 4\n\
             segment_bytes = 1048576\n\
             maintenance_interval_ms = 50\n\
             metrics_listen = 127.0.0.1:0\n\
             durable_dir = /tmp/x\n",
        )
        .unwrap();
        assert_eq!(opts.cluster.data_providers, 8);
        assert_eq!(opts.cluster.placement, PlacementPolicy::QosAware);
        assert_eq!(opts.cluster.chunk_codec, ChunkCodec::Fast);
        assert_eq!(opts.cluster.durability, Durability::Buffered);
        assert!(!opts.cluster.shared_chunk_cache);
        assert_eq!(opts.cluster.admission_limit, 4);
        assert_eq!(opts.cluster.segment_bytes, 1 << 20);
        assert_eq!(opts.maintenance_interval_ms, 50);
        assert_eq!(opts.durable_dir.as_deref(), Some(Path::new("/tmp/x")));

        assert!(ServerOptions::parse("data_provders = 8\n").is_err());
        assert!(ServerOptions::parse("placement = fastest\n").is_err());
        assert!(ServerOptions::parse("data_providers = many\n").is_err());
        assert!(ServerOptions::parse("no equals sign\n").is_err());
    }

    #[test]
    fn retired_keys_are_unknown_and_the_benchmark_keys_still_parse() {
        for key in [
            "dht_virtual_nodes",
            "rpc_workers",
            "qos_states",
            "qos_horizon",
        ] {
            let err = ServerOptions::parse(&format!("{key} = 4\n")).unwrap_err();
            assert_eq!(
                err,
                BlobError::InvalidConfig(format!("unknown config key {key:?}")),
            );
        }
        // The pipeline window survives as a key, but zero is no longer a
        // schedule selector.
        assert!(ServerOptions::parse("pipeline_depth = 0\n").is_err());
        assert_eq!(
            ServerOptions::parse("pipeline_depth = 2\n")
                .unwrap()
                .cluster
                .pipeline_depth,
            2
        );
        // Exactly the keys the `e2e` benchmark harness writes.
        let opts = ServerOptions::parse(
            "data_providers = 4\n\
             metadata_providers = 2\n\
             durable_dir = /tmp/bench\n\
             durability = commit\n\
             chunk_codec = fast\n\
             endpoints_file = /tmp/bench/endpoints\n\
             metrics_listen = 127.0.0.1:0\n",
        )
        .unwrap();
        assert_eq!(opts.cluster.data_providers, 4);
        assert_eq!(opts.cluster.metadata_providers, 2);
        assert_eq!(opts.cluster.durability, Durability::Commit);
        assert_eq!(opts.cluster.chunk_codec, ChunkCodec::Fast);
        assert_eq!(
            opts.endpoints_file.as_deref(),
            Some(Path::new("/tmp/bench/endpoints"))
        );
        assert_eq!(opts.metrics_listen, "127.0.0.1:0");
    }

    #[test]
    fn defaults_serve_tcp_with_a_shared_cache() {
        let opts = ServerOptions::default();
        assert_eq!(opts.cluster.net_listen, "127.0.0.1:0");
        assert!(opts.cluster.shared_chunk_cache);
        assert!(opts.durable_dir.is_none());
    }

    #[test]
    fn metrics_comment_roundtrips_through_the_endpoints_file() {
        let text = "# blobseer-server endpoints\n# metrics = 127.0.0.1:4411\nvm = 127.0.0.1:1\n";
        assert_eq!(
            metrics_addr_of(text),
            Some("127.0.0.1:4411".parse().unwrap())
        );
        assert_eq!(metrics_addr_of("vm = 127.0.0.1:1\n"), None);
    }
}
