//! Configuration of blobs and of a BlobSeer deployment.

use crate::error::{BlobError, Result};
use serde::{Deserialize, Serialize};

/// Chunk placement strategy used by the provider manager when a write or
/// append asks where to store its chunks.
///
/// The paper calls this the "configurable chunk distribution strategy"; the
/// choice has a major impact on aggregated throughput when many clients
/// write concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PlacementPolicy {
    /// Cycle through providers in registration order. Gives perfect load
    /// balance for uniform chunk sizes (the paper's default).
    #[default]
    RoundRobin,
    /// Pick providers uniformly at random.
    Random,
    /// Pick the providers with the fewest stored bytes first.
    LeastLoaded,
    /// Pick the providers with the best recent quality-of-service score
    /// first (fed by the QoS / behaviour-modelling layer).
    QosAware,
}

/// Per-chunk compression codec applied by writing clients.
///
/// The codec sits behind the chunk envelope ([`crate::wire::ChunkEnvelope`]):
/// a writing client compresses each chunk once, providers store and ship the
/// compressed envelope verbatim (they never re-code), and a reading client
/// decompresses once. A chunk that does not shrink is shipped verbatim — the
/// passthrough escape that keeps incompressible data on the refcounted
/// zero-copy path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ChunkCodec {
    /// No compression at all: every chunk ships verbatim (the default, and
    /// byte-identical to the pre-codec protocol on the wire).
    #[default]
    Off,
    /// The in-house LZ4-style block codec (`blobseer-codec`): fast greedy
    /// matching tuned for throughput, applied only when it actually shrinks
    /// the chunk.
    Fast,
}

/// Fsync policy of the durable persistence tier (chunk segment files and the
/// metadata write-ahead log).
///
/// The policy trades write latency for the *machine*-crash window: surviving
/// a process kill (even `kill -9`) never needs fsync at all, because bytes
/// handed to `write(2)` live in the page cache, not the process. Fsync only
/// narrows the window in which a whole-machine crash (power loss, kernel
/// panic) can lose acknowledged data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Durability {
    /// OS-buffered appends, no fsync anywhere. Process-crash safe (the
    /// recovery contract the fault matrix verifies), fastest, but a machine
    /// crash may lose recently acknowledged versions.
    Buffered,
    /// Fsync once per published version: chunk segments are synced and then
    /// the WAL commit record is synced, *before* the client's write is
    /// acknowledged (the default). A machine crash can only lose versions
    /// that were never acknowledged — write-ahead ordering stays intact.
    #[default]
    Commit,
    /// Fsync every chunk record and every WAL record as it is appended.
    /// The widest safety margin and the slowest; useful as a worst-case cost
    /// bound in the simulator's durability model.
    Always,
}

/// Deterministic, seedable per-frame fault injection for the channel
/// transport (and the simulator's lossy network model).
///
/// Every probability is evaluated independently per frame from a generator
/// seeded with [`FaultPlan::seed`], so a given plan produces the same fault
/// sequence run after run. The zero plan ([`FaultPlan::none`]) injects
/// nothing and is the behaviour of a healthy network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault-decision generator.
    pub seed: u64,
    /// Probability a frame is silently dropped (the receiver never sees it;
    /// the sender learns only via its I/O timeout).
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame is delivered with its payload (or, for
    /// payload-less frames, its header) cut short.
    pub truncate: f64,
    /// Probability the connection dies while carrying a frame (both
    /// directions; later frames fail fast until reconnection).
    pub disconnect: f64,
    /// Probability a frame is delayed by [`FaultPlan::delay_us`].
    pub delay: f64,
    /// Delay applied to delayed frames, in microseconds.
    pub delay_us: u64,
    /// Probability the endpoint swallows a frame and simply never answers
    /// (the link stays up — only an I/O timeout gets the caller unstuck).
    pub stall: f64,
}

impl FaultPlan {
    /// A plan that injects no faults at all.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            truncate: 0.0,
            disconnect: 0.0,
            delay: 0.0,
            delay_us: 0,
            stall: 0.0,
        }
    }

    /// Whether the plan can never inject a fault.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.drop <= 0.0
            && self.duplicate <= 0.0
            && self.truncate <= 0.0
            && self.disconnect <= 0.0
            && (self.delay <= 0.0 || self.delay_us == 0)
            && self.stall <= 0.0
    }

    /// Checks that every probability is a probability.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("truncate", self.truncate),
            ("disconnect", self.disconnect),
            ("delay", self.delay),
            ("stall", self.stall),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(BlobError::InvalidConfig(format!(
                    "fault probability {name} = {p} is outside [0, 1]"
                )));
            }
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Bounded exponential backoff used when a reader must wait for a concurrent
/// writer's metadata to appear (the only point where two writers of the same
/// chunk ever synchronise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Delay before the first retry, in microseconds.
    pub initial_delay_us: u64,
    /// Ceiling the doubling delay saturates at, in microseconds.
    pub max_delay_us: u64,
    /// Total number of attempts (lookups) before giving up.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// Checks that the policy is usable.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(BlobError::InvalidConfig(
                "retry policy needs at least one attempt".into(),
            ));
        }
        if self.initial_delay_us == 0 {
            // A zero delay would burn every attempt in microseconds, turning
            // the bounded wait for a concurrent writer's metadata into an
            // instant miss (read back as silent zeros).
            return Err(BlobError::InvalidConfig(
                "retry initial delay must be positive".into(),
            ));
        }
        if self.max_delay_us < self.initial_delay_us {
            return Err(BlobError::InvalidConfig(
                "retry max delay must be at least the initial delay".into(),
            ));
        }
        Ok(())
    }

    /// The delay before retry number `attempt` (0-based): the initial delay
    /// doubled per attempt, saturating at the configured maximum.
    #[must_use]
    pub fn delay_us(&self, attempt: u32) -> u64 {
        self.initial_delay_us
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_delay_us)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Worst-case total wait ≈ 1 s, like the 500 × 2 ms fixed-interval
        // loop this replaced, but the first retries come within microseconds
        // so the common case (the predecessor finishes weaving almost
        // immediately) no longer eats a full scheduler quantum.
        RetryPolicy {
            initial_delay_us: 50,
            max_delay_us: 5_000,
            max_attempts: 220,
        }
    }
}

/// Per-blob configuration fixed at creation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlobConfig {
    /// Size in bytes of every chunk of the blob. Typically chosen to match
    /// the amount of data a client processes in one step (e.g. 64 KiB for
    /// fine-grain workloads, 64 MiB for MapReduce splits).
    pub chunk_size: u64,
    /// Number of providers each chunk is replicated on (1 = no replication).
    pub replication: usize,
    /// Backoff used by writers waiting for a concurrent predecessor's leaf
    /// during boundary-chunk merging.
    pub meta_retry: RetryPolicy,
    /// Per-blob chunk codec override, fixed at creation time. `None` — the
    /// default — makes the blob's writers use the cluster-wide
    /// [`ClusterConfig::chunk_codec`]; `Some(codec)` pins this blob to
    /// `codec` regardless of the cluster default. Readers are codec-agnostic
    /// either way (every chunk envelope tags its own encoding).
    #[serde(default)]
    pub chunk_codec: Option<ChunkCodec>,
}

impl BlobConfig {
    /// Creates a configuration, validating its fields.
    pub fn new(chunk_size: u64, replication: usize) -> Result<Self> {
        let cfg = BlobConfig {
            chunk_size,
            replication,
            meta_retry: RetryPolicy::default(),
            chunk_codec: None,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Pins this blob to a specific chunk codec, overriding the cluster-wide
    /// default for every write to it.
    #[must_use]
    pub fn with_chunk_codec(mut self, codec: ChunkCodec) -> Self {
        self.chunk_codec = Some(codec);
        self
    }

    /// Checks that the configuration is usable.
    pub fn validate(&self) -> Result<()> {
        if self.chunk_size == 0 {
            return Err(BlobError::InvalidConfig(
                "chunk size must be positive".into(),
            ));
        }
        if self.replication == 0 {
            return Err(BlobError::InvalidConfig(
                "replication factor must be at least 1".into(),
            ));
        }
        self.meta_retry.validate()
    }
}

impl Default for BlobConfig {
    fn default() -> Self {
        BlobConfig {
            chunk_size: 64 * 1024,
            replication: 1,
            meta_retry: RetryPolicy::default(),
            chunk_codec: None,
        }
    }
}

/// Virtual nodes per metadata provider on the consistent-hashing ring.
pub const DHT_VIRTUAL_NODES: usize = 64;

/// Number of recent monitoring windows a provider's QoS score averages over.
pub const QOS_HORIZON: usize = 4;

/// Configuration of a whole deployment (an in-process cluster or a simulated
/// one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of data providers.
    pub data_providers: usize,
    /// Number of metadata providers (DHT nodes).
    pub metadata_providers: usize,
    /// Replication factor for metadata entries inside the DHT.
    pub dht_replication: usize,
    /// Default placement policy handed to the provider manager.
    pub placement: PlacementPolicy,
    /// Whether clients cache metadata tree nodes they have already fetched
    /// (the paper's Section IV.A highlights the benefit of client-side
    /// metadata caching).
    pub client_metadata_cache: bool,
    /// Worker threads of the cluster-wide chunk-transfer pool shared by
    /// every client. Zero means clients transfer chunks inline on their own
    /// thread (no parallel striping), which is useful for deterministic
    /// debugging.
    pub transfer_workers: usize,
    /// In-flight window of the client transfer pipeline: how many tree
    /// levels' worth of chunk fetches a client may have in flight (per
    /// transfer worker) while the metadata plane is still being walked.
    /// Must be at least 1.
    pub pipeline_depth: usize,
    /// Byte budget of each client's chunk cache (0 = no chunk cache;
    /// defaults to 64 MiB). Chunks are immutable once published under a `ChunkId`, so
    /// the cache needs no invalidation protocol at all: entries only ever
    /// leave by LRU eviction. Reads consult it before submitting a fetch,
    /// and writes populate it write-through, so re-reading a published
    /// version (the MapReduce-input pattern) costs no data round-trips. The
    /// cache is 16-way sharded and a chunk larger
    /// than one shard's budget share (1/16th of this value) is never
    /// cached, so size the budget to at least ~16 chunks of the blobs that
    /// should hit.
    pub chunk_cache_bytes: u64,
    /// Listen address for TCP-loopback server endpoints. Port 0 lets the OS
    /// pick an ephemeral port per endpoint, which keeps concurrent test
    /// clusters from colliding.
    pub net_listen: String,
    /// I/O timeout in milliseconds, applied (a) to every RPC awaiting its
    /// response frame and (b) to the client's transfer-completion joins, so
    /// a hung endpoint fails the operation instead of blocking the transfer
    /// scheduler forever. Zero disables both timeouts.
    pub io_timeout_ms: u64,
    /// Per-chunk compression codec applied by writing clients (at rest and
    /// on the wire). `Off` — the default — is byte-identical to the
    /// pre-codec protocol; `Fast` compresses each chunk once at the writing
    /// client when compression wins and ships it verbatim otherwise.
    pub chunk_codec: ChunkCodec,
    /// Whether all clients created by one cluster handle share a single
    /// node-local chunk cache instead of each getting a private one. Chunk
    /// immutability makes the shared cache coherence-free; a chunk fetched
    /// by one client of the process then hits for every other. Off by
    /// default so per-client cache statistics stay attributable.
    pub shared_chunk_cache: bool,
    /// TCP connections each client opens per server endpoint. One multiplexed
    /// socket (the default) is enough for most workloads because requests are
    /// demultiplexed by id; raising this spreads a client's request stream
    /// over several sockets round-robin, which helps when a single stream's
    /// in-order delivery becomes the bottleneck. Must be at least 1.
    pub connections_per_endpoint: usize,
    /// Number of most recent published versions of every blob the version
    /// lifecycle retains. Older versions are evicted: readers of them get a
    /// clean `VersionRetired` error and the garbage sweeper reclaims every
    /// chunk and tree node reachable only from them. Zero — the default —
    /// retains every version forever (the pre-lifecycle behaviour; nothing
    /// is ever evicted or reclaimed).
    #[serde(default)]
    pub retained_versions: usize,
    /// Number of published writes since the last flatten after which the
    /// lifecycle flattener consolidates a blob into one self-contained
    /// snapshot version (every leaf materialised at that version, read in
    /// one batched round per metadata shard instead of a tree descent).
    /// Zero — the default — never flattens.
    #[serde(default)]
    pub flatten_threshold: usize,
    /// Fsync policy of the durable persistence tier. Only consulted by
    /// durable deployments (`Cluster::open_durable` and the networked
    /// equivalent) — RAM-resident clusters ignore it entirely.
    #[serde(default)]
    pub durability: Durability,
    /// WAL records appended since the last checkpoint after which a durable
    /// deployment takes the next one. Checkpoints fire from the background
    /// checkpointer (and the lifecycle maintenance pass when enabled), so a
    /// cluster that never turns lifecycle on still bounds its replay time.
    #[serde(default = "default_checkpoint_records")]
    pub checkpoint_records: u64,
    /// WAL bytes appended since the last checkpoint after which the next one
    /// is taken, whichever of the two thresholds trips first. Zero disables
    /// the byte trigger (records alone decide).
    #[serde(default = "default_checkpoint_bytes")]
    pub checkpoint_bytes: u64,
    /// Poll interval of the background checkpointer thread in milliseconds.
    /// Zero disables the thread entirely — checkpoints then only ride the
    /// lifecycle maintenance tick (the pre-daemon behaviour).
    #[serde(default = "default_checkpoint_interval_ms")]
    pub checkpoint_interval_ms: u64,
    /// Dead-record ratio (reclaimable bytes over sealed bytes) above which a
    /// provider's segment store is compacted by the maintenance pass. Must be
    /// in `(0, 1]`; 1.0 effectively turns policy-driven compaction off.
    #[serde(default = "default_compact_dead_ratio")]
    pub compact_dead_ratio: f64,
    /// Size at which a provider's active segment file is sealed and a new
    /// one started. Only sealed segments are compaction victims, so this
    /// also bounds how much garbage the dead-ratio policy cannot yet see.
    #[serde(default = "default_segment_bytes")]
    pub segment_bytes: u64,
    /// Per-client admission throttle: the maximum number of chunk transfers
    /// one client may have in flight in the shared transfer pool. A client at
    /// its limit blocks at submission (on its own thread) until a transfer it
    /// owns completes, so a flooding tenant queues behind itself instead of
    /// ahead of everyone else. Zero — the default — disables admission.
    #[serde(default)]
    pub admission_limit: usize,
}

fn default_checkpoint_records() -> u64 {
    4096
}

fn default_checkpoint_bytes() -> u64 {
    16 << 20
}

fn default_checkpoint_interval_ms() -> u64 {
    200
}

fn default_compact_dead_ratio() -> f64 {
    0.5
}

fn default_segment_bytes() -> u64 {
    64 << 20
}

impl ClusterConfig {
    /// A small configuration convenient for unit tests and examples.
    #[must_use]
    pub fn small() -> Self {
        ClusterConfig {
            data_providers: 4,
            metadata_providers: 2,
            ..ClusterConfig::default()
        }
    }

    /// A configuration mirroring the scale of the paper's Grid'5000 runs
    /// (used by the benchmark harness through the simulator).
    #[must_use]
    pub fn grid5000_like() -> Self {
        ClusterConfig {
            data_providers: 64,
            metadata_providers: 16,
            ..ClusterConfig::default()
        }
    }

    /// Checks that the configuration is usable.
    pub fn validate(&self) -> Result<()> {
        if self.data_providers == 0 {
            return Err(BlobError::InvalidConfig(
                "at least one data provider is required".into(),
            ));
        }
        if self.metadata_providers == 0 {
            return Err(BlobError::InvalidConfig(
                "at least one metadata provider is required".into(),
            ));
        }
        if self.dht_replication == 0 || self.dht_replication > self.metadata_providers {
            return Err(BlobError::InvalidConfig(format!(
                "DHT replication must be in 1..={}",
                self.metadata_providers
            )));
        }
        if self.net_listen.is_empty() {
            return Err(BlobError::InvalidConfig(
                "net_listen must be a non-empty listen address".into(),
            ));
        }
        if self.pipeline_depth == 0 {
            return Err(BlobError::InvalidConfig(
                "pipeline_depth must be at least 1".into(),
            ));
        }
        if self.connections_per_endpoint == 0 {
            return Err(BlobError::InvalidConfig(
                "connections_per_endpoint must be at least 1".into(),
            ));
        }
        if self.checkpoint_records == 0 {
            return Err(BlobError::InvalidConfig(
                "checkpoint_records must be at least 1".into(),
            ));
        }
        if !(self.compact_dead_ratio > 0.0 && self.compact_dead_ratio <= 1.0) {
            return Err(BlobError::InvalidConfig(
                "compact_dead_ratio must be in (0, 1]".into(),
            ));
        }
        if self.segment_bytes == 0 {
            return Err(BlobError::InvalidConfig(
                "segment_bytes must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// Number of behaviour states the QoS monitoring model classifies
    /// provider windows into: 3 if (and only if) placement is QoS-aware.
    /// Zero means the QoS feedback loop stays off.
    #[must_use]
    pub fn effective_qos_states(&self) -> usize {
        if self.placement == PlacementPolicy::QosAware {
            3
        } else {
            0
        }
    }

    /// The background checkpointer poll interval (`None` when disabled).
    #[must_use]
    pub fn checkpoint_interval(&self) -> Option<std::time::Duration> {
        (self.checkpoint_interval_ms > 0)
            .then(|| std::time::Duration::from_millis(self.checkpoint_interval_ms))
    }

    /// The configured I/O timeout as a duration (`None` when disabled).
    #[must_use]
    pub fn io_timeout(&self) -> Option<std::time::Duration> {
        (self.io_timeout_ms > 0).then(|| std::time::Duration::from_millis(self.io_timeout_ms))
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            data_providers: 16,
            metadata_providers: 8,
            dht_replication: 1,
            placement: PlacementPolicy::RoundRobin,
            client_metadata_cache: true,
            transfer_workers: 8,
            pipeline_depth: 4,
            // 64 MiB: enough for ~16 chunks of the largest configurations the
            // tests and benches use, small enough to be harmless. Workloads
            // that need a cold client (differential baselines, cache-off
            // benchmark arms) set 0 explicitly.
            chunk_cache_bytes: 64 << 20,
            net_listen: "127.0.0.1:0".into(),
            // 30 s: far above any healthy in-process or loopback operation,
            // low enough that a genuinely hung endpoint fails the op instead
            // of wedging the scheduler. Fault-injection tests dial it down.
            io_timeout_ms: 30_000,
            chunk_codec: ChunkCodec::Off,
            shared_chunk_cache: false,
            connections_per_endpoint: 1,
            retained_versions: 0,
            flatten_threshold: 0,
            durability: Durability::default(),
            checkpoint_records: default_checkpoint_records(),
            checkpoint_bytes: default_checkpoint_bytes(),
            checkpoint_interval_ms: default_checkpoint_interval_ms(),
            compact_dead_ratio: default_compact_dead_ratio(),
            segment_bytes: default_segment_bytes(),
            admission_limit: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_blob_config_is_valid() {
        assert!(BlobConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_chunk_size_is_rejected() {
        assert!(matches!(
            BlobConfig::new(0, 1),
            Err(BlobError::InvalidConfig(_))
        ));
    }

    #[test]
    fn zero_replication_is_rejected() {
        assert!(matches!(
            BlobConfig::new(4096, 0),
            Err(BlobError::InvalidConfig(_))
        ));
    }

    #[test]
    fn default_cluster_config_is_valid() {
        assert!(ClusterConfig::default().validate().is_ok());
        assert!(ClusterConfig::small().validate().is_ok());
        assert!(ClusterConfig::grid5000_like().validate().is_ok());
    }

    #[test]
    fn dht_replication_cannot_exceed_metadata_providers() {
        let cfg = ClusterConfig {
            metadata_providers: 2,
            dht_replication: 3,
            ..ClusterConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_nodes_are_rejected() {
        let cfg = ClusterConfig {
            data_providers: 0,
            ..ClusterConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ClusterConfig {
            metadata_providers: 0,
            ..ClusterConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_connections_or_pipeline_window_is_rejected() {
        let cfg = ClusterConfig {
            connections_per_endpoint: 0,
            ..ClusterConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ClusterConfig {
            pipeline_depth: 0,
            ..ClusterConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn retry_policy_delays_double_and_saturate() {
        let policy = RetryPolicy {
            initial_delay_us: 100,
            max_delay_us: 1_000,
            max_attempts: 10,
        };
        assert_eq!(policy.delay_us(0), 100);
        assert_eq!(policy.delay_us(1), 200);
        assert_eq!(policy.delay_us(2), 400);
        assert_eq!(policy.delay_us(3), 800);
        assert_eq!(policy.delay_us(4), 1_000, "delay saturates at the max");
        assert_eq!(
            policy.delay_us(63),
            1_000,
            "huge attempts must not overflow"
        );
    }

    #[test]
    fn invalid_retry_policies_are_rejected() {
        assert!(RetryPolicy::default().validate().is_ok());
        let no_attempts = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert!(no_attempts.validate().is_err());
        let zero_delay = RetryPolicy {
            initial_delay_us: 0,
            max_delay_us: 0,
            max_attempts: 5,
        };
        assert!(
            zero_delay.validate().is_err(),
            "zero delay defeats the wait"
        );
        let inverted = RetryPolicy {
            initial_delay_us: 500,
            max_delay_us: 100,
            max_attempts: 5,
        };
        assert!(inverted.validate().is_err());
        // An invalid retry policy invalidates the whole blob config.
        let cfg = BlobConfig {
            meta_retry: inverted,
            ..BlobConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn fault_plans_validate_probabilities() {
        assert!(FaultPlan::none().validate().is_ok());
        assert!(FaultPlan::none().is_clean());
        let lossy = FaultPlan {
            drop: 0.1,
            ..FaultPlan::none()
        };
        assert!(lossy.validate().is_ok());
        assert!(!lossy.is_clean());
        let broken = FaultPlan {
            duplicate: 1.5,
            ..FaultPlan::none()
        };
        assert!(broken.validate().is_err());
        // A delay probability without a delay amount injects nothing.
        let noop_delay = FaultPlan {
            delay: 1.0,
            delay_us: 0,
            ..FaultPlan::none()
        };
        assert!(noop_delay.is_clean());
    }

    #[test]
    fn transport_config_is_validated() {
        let cfg = ClusterConfig {
            net_listen: String::new(),
            ..ClusterConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert_eq!(
            ClusterConfig::default().io_timeout(),
            Some(std::time::Duration::from_secs(30))
        );
        let no_timeout = ClusterConfig {
            io_timeout_ms: 0,
            ..ClusterConfig::default()
        };
        assert_eq!(no_timeout.io_timeout(), None);
    }

    #[test]
    fn maintenance_knobs_are_validated() {
        let cfg = ClusterConfig {
            checkpoint_records: 0,
            ..ClusterConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ClusterConfig {
            compact_dead_ratio: 0.0,
            ..ClusterConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ClusterConfig {
            compact_dead_ratio: 1.5,
            ..ClusterConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn qos_states_derive_from_placement() {
        let cfg = ClusterConfig::default();
        assert_eq!(cfg.effective_qos_states(), 0, "round-robin leaves QoS off");
        let cfg = ClusterConfig {
            placement: PlacementPolicy::QosAware,
            ..ClusterConfig::default()
        };
        assert_eq!(cfg.effective_qos_states(), 3);
        assert_eq!(
            ClusterConfig::default().checkpoint_interval(),
            Some(std::time::Duration::from_millis(200))
        );
        let off = ClusterConfig {
            checkpoint_interval_ms: 0,
            ..ClusterConfig::default()
        };
        assert_eq!(off.checkpoint_interval(), None);
    }

    #[test]
    fn grid5000_like_matches_paper_scale() {
        let cfg = ClusterConfig::grid5000_like();
        assert_eq!(cfg.data_providers, 64);
        assert_eq!(cfg.metadata_providers, 16);
    }
}
