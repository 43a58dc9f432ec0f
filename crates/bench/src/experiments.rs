//! The experiment implementations.
//!
//! Every public function regenerates one table or figure of the paper's
//! evaluation (or one ablation called out in `DESIGN.md`). Functions take
//! their sweep parameters as arguments so the binaries can run them at full
//! scale while the criterion benches use reduced parameters.

use blobseer_bsfs::Bsfs;
use blobseer_core::Cluster;
use blobseer_hdfs::HdfsLikeFs;
use blobseer_mapreduce::{
    grep_job, sort_job, wordcount_job, BsfsStorage, HdfsStorage, JobStorage, MapReduceEngine,
};
use blobseer_meta::{
    build_write_metadata, publish_metadata, InMemoryMetaStore, SnapshotDescriptor, WrittenChunk,
};
use blobseer_qos::{MonitoringCollector, QosController};
use blobseer_sim::model::{LINK_BANDWIDTH_BPS, META_SERVICE_NS};
use blobseer_sim::{
    mean, std_dev, SimulatedCluster, SweepSeries, Workload, WorkloadBuilder, NANOS_PER_SEC,
};
use blobseer_types::{
    BlobConfig, BlobId, ChunkId, ClusterConfig, PlacementPolicy, ProviderId, Version,
};
use std::sync::Arc;
use std::time::Duration;

/// 1 MiB, the chunk size used by most of the paper's experiments.
pub const MIB: u64 = 1 << 20;

fn sim(
    data_providers: usize,
    metadata_providers: usize,
    placement: PlacementPolicy,
) -> SimulatedCluster {
    let config = ClusterConfig {
        data_providers,
        metadata_providers,
        placement,
        ..ClusterConfig::default()
    };
    SimulatedCluster::new(config).expect("valid simulated cluster")
}

fn run_series(
    name: &str,
    clients: &[usize],
    mut make_sim: impl FnMut() -> SimulatedCluster,
    make_workload: impl Fn(usize) -> Workload,
) -> SweepSeries {
    let mut series = SweepSeries::new(name);
    for &n in clients {
        let mut cluster = make_sim();
        let result = cluster.run(&make_workload(n)).expect("simulation run");
        series.push_sim(n as f64, &result);
    }
    series
}

// ---------------------------------------------------------------------------
// Fig. A1 — metadata overhead versus blob size (Section IV.A, [14])
// ---------------------------------------------------------------------------

/// One row of the metadata-overhead table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetadataOverheadRow {
    /// Number of chunks already in the blob when the measured write happens.
    pub blob_chunks: u64,
    /// Tree nodes a single-chunk write creates at that size.
    pub nodes_per_write: usize,
    /// Depth of the snapshot's tree.
    pub tree_depth: u32,
    /// Approximate metadata bytes created by the write.
    pub metadata_bytes: u64,
    /// Metadata overhead relative to the 1-chunk payload (bytes of metadata
    /// per byte of data, for a 1 MiB chunk).
    pub overhead_ratio: f64,
}

/// Fig. A1: how much metadata a single-chunk write creates as the blob grows.
/// The paper's claim is that the overhead stays logarithmic in the blob size.
pub fn fig_a1_metadata_overhead(blob_chunk_counts: &[u64]) -> Vec<MetadataOverheadRow> {
    let chunk_size = MIB;
    let mut rows = Vec::with_capacity(blob_chunk_counts.len());
    for &chunks in blob_chunk_counts {
        let store = InMemoryMetaStore::new();
        let blob = BlobId(1);
        // Build the blob in one bulk write, then measure one overwrite.
        let base_chunks: Vec<WrittenChunk> = (0..chunks)
            .map(|slot| WrittenChunk {
                slot,
                chunk: ChunkId {
                    blob,
                    write_tag: 1,
                    slot,
                },
                providers: vec![ProviderId((slot % 64) as u32)],
                len: chunk_size,
            })
            .collect();
        let base = build_write_metadata(
            &store,
            blob,
            &SnapshotDescriptor::initial(chunk_size),
            Version(1),
            chunks * chunk_size,
            &base_chunks,
        )
        .expect("base write");
        let base = {
            let descriptor = base.descriptor;
            publish_metadata(&store, base).expect("publish base");
            descriptor
        };

        let update = build_write_metadata(
            &store,
            blob,
            &base,
            Version(2),
            base.size,
            &[WrittenChunk {
                slot: chunks / 2,
                chunk: ChunkId {
                    blob,
                    write_tag: 2,
                    slot: chunks / 2,
                },
                providers: vec![ProviderId(0)],
                len: chunk_size,
            }],
        )
        .expect("measured write");
        rows.push(MetadataOverheadRow {
            blob_chunks: chunks,
            nodes_per_write: update.node_count(),
            tree_depth: update.tree_depth(),
            metadata_bytes: update.metadata_bytes(),
            overhead_ratio: update.metadata_bytes() as f64 / chunk_size as f64,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. A2 — concurrent read/write throughput versus number of clients
// (Section IV.A, [14][15])
// ---------------------------------------------------------------------------

/// Fig. A2: aggregated throughput of N clients reading or writing disjoint
/// 64 MiB regions of one shared blob (64 data providers, 16 metadata
/// providers).
pub fn fig_a2_concurrent_rw(clients: &[usize], op_mib: u64) -> Vec<SweepSeries> {
    let writes = run_series(
        "concurrent writes",
        clients,
        || sim(64, 16, PlacementPolicy::RoundRobin),
        |n| {
            WorkloadBuilder::new(n)
                .ops_per_client(2)
                .op_size(op_mib * MIB)
                .chunk_size(MIB)
                .disjoint_writes()
        },
    );
    let reads = run_series(
        "concurrent reads",
        clients,
        || sim(64, 16, PlacementPolicy::RoundRobin),
        |n| {
            WorkloadBuilder::new(n)
                .ops_per_client(2)
                .op_size(op_mib * MIB)
                .chunk_size(MIB)
                .disjoint_reads()
        },
    );
    vec![writes, reads]
}

// ---------------------------------------------------------------------------
// Fig. B1 / B2 — append throughput (Section IV.B, [3])
// ---------------------------------------------------------------------------

/// Fig. B1: aggregated throughput of N clients appending 64 MiB records to
/// the same blob concurrently.
pub fn fig_b1_append_scaling(clients: &[usize], op_mib: u64) -> SweepSeries {
    run_series(
        "concurrent appends",
        clients,
        || sim(64, 16, PlacementPolicy::RoundRobin),
        |n| {
            WorkloadBuilder::new(n)
                .ops_per_client(2)
                .op_size(op_mib * MIB)
                .chunk_size(MIB)
                .concurrent_appends()
        },
    )
}

/// Fig. B2: aggregated append throughput of a fixed set of clients as the
/// per-operation size grows.
pub fn fig_b2_size_sweep(clients: usize, op_sizes_mib: &[u64]) -> SweepSeries {
    let mut series = SweepSeries::new(format!("{clients} appenders"));
    for &size in op_sizes_mib {
        let mut cluster = sim(64, 16, PlacementPolicy::RoundRobin);
        let workload = WorkloadBuilder::new(clients)
            .ops_per_client(2)
            .op_size(size * MIB)
            .chunk_size(MIB)
            .concurrent_appends();
        let result = cluster.run(&workload).expect("simulation run");
        series.push_sim(size as f64, &result);
    }
    series
}

// ---------------------------------------------------------------------------
// Fig. N1 — framed RPC transport versus the in-process service boundary
// ---------------------------------------------------------------------------

/// One concurrency point of the transport comparison, measured wall-clock
/// on a real (not simulated) cluster.
struct TransportPoint {
    elapsed: Duration,
    payload_bytes: u64,
    /// Metadata round-trips the arm's cluster served. Filled in by the
    /// caller (the cluster is out of `run_transport_point`'s sight), from a
    /// fresh-per-run cluster, so the value is the run's own traffic.
    meta_round_trips: u64,
    data_round_trips: u64,
    bytes_on_wire: u64,
    bytes_on_wire_logical: u64,
    chunks_compressed: u64,
    compress_saved_bytes: u64,
    payload_bytes_copied: u64,
    frames_sent: u64,
    frames_coalesced: u64,
}

/// Runs `clients` concurrent workers against `make_client`, each appending
/// `ops` × `op_bytes` into its own blob and reading everything back
/// (`scans` full read passes; writes fill the chunk cache, so extra scans
/// measure the client-side path, not the wire).
///
/// `handles` bounds how many client instances (and therefore connection
/// sets) are created: the workers multiplex over them round-robin, the way
/// real deployments share a process-wide connection pool between many
/// logical clients. `handles == clients` gives every worker its own.
fn run_transport_point(
    clients: usize,
    handles: usize,
    ops: usize,
    op_bytes: u64,
    chunk_size: u64,
    scans: usize,
    make_client: &(dyn Fn() -> blobseer_core::BlobClient + Sync),
) -> TransportPoint {
    let started = std::time::Instant::now();
    let shared: Vec<std::sync::Arc<blobseer_core::BlobClient>> = (0..handles.min(clients).max(1))
        .map(|_| std::sync::Arc::new(make_client()))
        .collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|n| {
                let client = std::sync::Arc::clone(&shared[n % shared.len()]);
                scope.spawn(move || {
                    let blob = client
                        .create_blob(BlobConfig::new(chunk_size, 1).expect("valid blob config"))
                        .expect("create blob");
                    for i in 0..ops {
                        let data = vec![(i + 1) as u8; op_bytes as usize];
                        client.append(blob, data).expect("append");
                    }
                    for _ in 0..scans {
                        let back = client.read_all(blob, None).expect("read back");
                        assert_eq!(back.len() as u64, ops as u64 * op_bytes);
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("transport worker");
        }
    });
    let stats: Vec<_> = shared.iter().map(|c| c.stats()).collect();
    let elapsed = started.elapsed();
    TransportPoint {
        elapsed,
        payload_bytes: stats.iter().map(|s| s.bytes_written + s.bytes_read).sum(),
        meta_round_trips: 0,
        data_round_trips: stats.iter().map(|s| s.chunks_written + s.chunks_read).sum(),
        bytes_on_wire: stats.iter().map(|s| s.bytes_on_wire).sum(),
        bytes_on_wire_logical: stats.iter().map(|s| s.bytes_on_wire_logical).sum(),
        chunks_compressed: stats.iter().map(|s| s.chunks_compressed).sum(),
        compress_saved_bytes: stats.iter().map(|s| s.compress_saved_bytes).sum(),
        payload_bytes_copied: stats.iter().map(|s| s.payload_bytes_copied).sum(),
        frames_sent: stats.iter().map(|s| s.frames_sent).sum(),
        frames_coalesced: stats.iter().map(|s| s.frames_coalesced).sum(),
    }
}

/// Fig. N1: the framed RPC transport versus the in-process service
/// boundary, wall-clock on real clusters. Both arms run the identical
/// workload (N clients, disjoint blobs, append then scan), so the logical
/// work — `data_round_trips` — must be identical; what the figure shows is
/// the constant-factor cost of crossing TCP loopback sockets instead of
/// calling a trait object, and the `bytes_on_wire` the framed protocol
/// accounts for it.
pub fn fig_n1_transport_overhead(clients: &[usize], op_mib: u64) -> Vec<SweepSeries> {
    use blobseer_net::NetCluster;

    let ops = 2usize;
    let op_bytes = op_mib * MIB;
    let chunk_size = 256 << 10;
    let config = || ClusterConfig {
        data_providers: 8,
        metadata_providers: 4,
        ..ClusterConfig::default()
    };

    let push = |series: &mut SweepSeries, n: usize, point: TransportPoint| {
        let seconds = point.elapsed.as_secs_f64().max(1e-9);
        series.push_point(blobseer_sim::SeriesPoint {
            x: n as f64,
            throughput_mibps: point.payload_bytes as f64 / (1024.0 * 1024.0) / seconds,
            latency_ms: seconds * 1_000.0 / (n as f64 * (ops + 1) as f64),
            meta_round_trips: point.meta_round_trips,
            data_round_trips: point.data_round_trips,
            bytes_copied: point.payload_bytes_copied,
            cache_hits: 0,
            cache_misses: 0,
            bytes_on_wire: point.bytes_on_wire,
            bytes_on_wire_logical: point.bytes_on_wire_logical,
            chunks_compressed: point.chunks_compressed,
            compress_saved_bytes: point.compress_saved_bytes,
            frames_sent: point.frames_sent,
            frames_coalesced: point.frames_coalesced,
        });
    };

    let mut in_process = SweepSeries::new("in-process");
    let mut loopback = SweepSeries::new("TCP loopback");
    for &n in clients {
        {
            let cluster = Cluster::new(config()).expect("cluster");
            let mut point =
                run_transport_point(n, n, ops, op_bytes, chunk_size, 1, &|| cluster.client());
            point.meta_round_trips = cluster.metadata_round_trips();
            push(&mut in_process, n, point);
        }
        {
            let tcp =
                NetCluster::tcp(Cluster::new(config()).expect("cluster")).expect("tcp cluster");
            let mut point =
                run_transport_point(n, n, ops, op_bytes, chunk_size, 1, &|| tcp.client());
            point.meta_round_trips = tcp.inner().metadata_round_trips();
            push(&mut loopback, n, point);
        }
    }
    vec![in_process, loopback]
}

// ---------------------------------------------------------------------------
// Fig. N2 — event-driven serving under many concurrent connections
// ---------------------------------------------------------------------------

/// Everything `fig_n2` measures, so the binary can both print the series
/// and assert the scaling properties the reactor exists for.
pub struct ScalingOutcome {
    /// One series per arm (in-process control first).
    pub series: Vec<SweepSeries>,
    /// Wall-clock MiB/s of the in-process (no-wire) control.
    pub in_process_mibps: f64,
    /// Wall-clock MiB/s of the event-driven (reactor + pool) TCP server.
    pub reactor_mibps: f64,
    /// Peak `net-reactor` + `net-worker-*` thread count observed while the
    /// reactor deployment served all the clients.
    pub peak_serving_threads: usize,
    /// The worker-pool bound those threads must stay within.
    pub worker_bound: usize,
    /// Client-side frames that rode a coalesced batch during the reactor
    /// run (summed over all clients).
    pub frames_coalesced: u64,
}

/// Fig. N2: throughput and server-side thread census with `clients`
/// concurrent connections — the reactor's bounded worker pool against the
/// in-process boundary (upper bound). Small operations on purpose: the
/// workload is request-dominated, the regime the reactor targets.
/// Shared client handles for the Fig. N2 arms. The figure models an
/// application tier: many request contexts (threads) multiplexed over a
/// small, pooled set of storage clients — exactly the regime where the
/// reactor's per-connection cost matters and where concurrent same-endpoint
/// sends trigger the client's frame coalescing.
const CLIENT_HANDLES: usize = 16;

/// Runs per Fig. N2 arm. Each arm is measured this many times on a fresh
/// cluster and the median-throughput run is reported: single runs on a
/// shared machine see multi-hundred-MiB/s swings from scheduler noise, and
/// the figure asserts ordering relations between the arms.
const BENCH_RUNS: usize = 3;

/// Read-back passes per Fig. N2 client. Writes populate the client chunk
/// cache (write-through), so every scan is served from memory in both
/// arms — the scans add identical work everywhere, keeping the figure about
/// the cost of the serving architecture on the write path rather than raw
/// loopback memcpy bandwidth.
const SCANS: usize = 4;

/// Picks the median run by wall-clock throughput (payload bytes / elapsed).
fn median_point(mut points: Vec<TransportPoint>) -> TransportPoint {
    let mibps = |p: &TransportPoint| p.payload_bytes as f64 / p.elapsed.as_secs_f64().max(1e-9);
    points.sort_by(|a, b| mibps(a).total_cmp(&mibps(b)));
    points.remove(points.len() / 2)
}

pub fn fig_n2_connection_scaling(clients: usize, ops: usize, op_kib: u64) -> ScalingOutcome {
    use blobseer_net::{count_threads_with_prefix, default_rpc_workers, NetCluster};

    let op_bytes = op_kib << 10;
    let chunk_size = 32 << 10;
    // Two data providers under multi-chunk appends: every append stripes
    // several chunks onto the same provider endpoint, so the pipelined
    // transfers overlap on one connection — which is what exercises the
    // client's frame coalescing and the server's multi-frame reads. The
    // small chunk size makes the workload request-dominated.
    let config = || ClusterConfig {
        data_providers: 2,
        metadata_providers: 2,
        connections_per_endpoint: 2,
        ..ClusterConfig::default()
    };
    let worker_bound = default_rpc_workers();

    let mut in_process = SweepSeries::new("in-process");
    let mut reactor = SweepSeries::new("TCP event-driven");

    let push = |series: &mut SweepSeries, point: TransportPoint| {
        let seconds = point.elapsed.as_secs_f64().max(1e-9);
        let mibps = point.payload_bytes as f64 / (1024.0 * 1024.0) / seconds;
        series.push_point(blobseer_sim::SeriesPoint {
            x: clients as f64,
            throughput_mibps: mibps,
            latency_ms: seconds * 1_000.0 / (clients as f64 * (ops + SCANS) as f64),
            meta_round_trips: point.meta_round_trips,
            data_round_trips: point.data_round_trips,
            bytes_copied: point.payload_bytes_copied,
            cache_hits: 0,
            cache_misses: 0,
            bytes_on_wire: point.bytes_on_wire,
            bytes_on_wire_logical: point.bytes_on_wire_logical,
            chunks_compressed: point.chunks_compressed,
            compress_saved_bytes: point.compress_saved_bytes,
            frames_sent: point.frames_sent,
            frames_coalesced: point.frames_coalesced,
        });
        mibps
    };

    let in_process_mibps = {
        let point = median_point(
            (0..BENCH_RUNS)
                .map(|_| {
                    let cluster = Cluster::new(config()).expect("cluster");
                    let mut point = run_transport_point(
                        clients,
                        CLIENT_HANDLES,
                        ops,
                        op_bytes,
                        chunk_size,
                        SCANS,
                        &|| cluster.client(),
                    );
                    point.meta_round_trips = cluster.metadata_round_trips();
                    point
                })
                .collect(),
        );
        push(&mut in_process, point)
    };

    let (reactor_mibps, peak_serving_threads, frames_coalesced) = {
        // Census sampler: while the clients run, watch how many serving
        // threads exist. The whole point of the reactor is that this stays
        // O(workers) while `clients` grows without bound. The sampler spans
        // all the runs, so `peak` is the worst moment across every one.
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sampler_stop = std::sync::Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            let mut peak = 0usize;
            while !sampler_stop.load(std::sync::atomic::Ordering::Relaxed) {
                let now = count_threads_with_prefix("net-reactor")
                    + count_threads_with_prefix("net-worker-");
                peak = peak.max(now);
                // The census barely changes (pool and reactor threads live
                // for the whole run); sample gently so the /proc walk does
                // not eat into the single-core serving budget.
                std::thread::sleep(Duration::from_millis(25));
            }
            peak
        });
        let point = median_point(
            (0..BENCH_RUNS)
                .map(|_| {
                    let tcp = NetCluster::tcp(Cluster::new(config()).expect("cluster"))
                        .expect("tcp cluster");
                    let mut point = run_transport_point(
                        clients,
                        CLIENT_HANDLES,
                        ops,
                        op_bytes,
                        chunk_size,
                        SCANS,
                        &|| tcp.client(),
                    );
                    point.meta_round_trips = tcp.inner().metadata_round_trips();
                    point
                })
                .collect(),
        );
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let peak = sampler.join().expect("census sampler");
        let coalesced = point.frames_coalesced;
        (push(&mut reactor, point), peak, coalesced)
    };

    ScalingOutcome {
        series: vec![in_process, reactor],
        in_process_mibps,
        reactor_mibps,
        peak_serving_threads,
        worker_bound,
        frames_coalesced,
    }
}

// ---------------------------------------------------------------------------
// Fig. Z1 — chunk compression tier: corpus compressibility × codec, measured
// wall-clock over real loopback TCP
// ---------------------------------------------------------------------------

/// One arm of the compression figure: a corpus × codec combination run over
/// real loopback TCP, with the client transport counters that show what the
/// codec did to the wire.
#[derive(Debug, Clone)]
pub struct CodecArm {
    /// Arm label, e.g. `"compressible / fast"`.
    pub name: String,
    /// Wall-clock time of the whole arm (appends plus verified read-back).
    pub elapsed: Duration,
    /// Payload bytes written plus read back (logical, as the application
    /// sees them — identical across the four arms).
    pub payload_bytes: u64,
    /// Logical chunk bytes the data plane moved.
    pub bytes_on_wire_logical: u64,
    /// Physical chunk bytes the data plane moved (sealed envelope sizes).
    pub bytes_on_wire_physical: u64,
    /// Chunks the `Fast` codec actually shrank (verbatim passthroughs are
    /// not counted).
    pub chunks_compressed: u64,
    /// Logical-minus-physical bytes saved at sealing time.
    pub compress_saved_bytes: u64,
    /// Client-side payload bytes memcpy'd during the append phase: zero for
    /// chunk-aligned appends with the codec off AND for the incompressible
    /// passthrough — sealing is not an assembly copy.
    pub payload_bytes_copied: u64,
}

impl CodecArm {
    /// Wall-clock throughput of the arm in MiB/s.
    #[must_use]
    pub fn throughput_mibps(&self) -> f64 {
        self.payload_bytes as f64 / (1024.0 * 1024.0) / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// `len` bytes of log-like repetitive text, varied by `seed` (compresses
/// well under any LZ-class codec).
#[must_use]
pub fn compressible_corpus(seed: usize, len: usize) -> Vec<u8> {
    let line = format!(
        "record seed={seed:08} status=ok level=info payload=abcdefghijklmnopqrstuvwxyz \
         checksum=0000 \n"
    );
    line.as_bytes().iter().copied().cycle().take(len).collect()
}

/// `len` bytes from a seeded xorshift64* stream (statistically random, so
/// the `Fast` codec's passthrough escape fires and the chunk ships
/// verbatim).
#[must_use]
pub fn incompressible_corpus(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(2_685_821_657_736_338_717).max(1);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let word = state.wrapping_mul(2_685_821_657_736_338_717);
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Runs one corpus × codec arm: `clients` workers over loopback TCP, each
/// appending `ops` chunk-aligned operations into its own blob and reading
/// everything back byte-for-byte. The chunk cache is disabled so the
/// read-back measures the wire, not the cache.
fn run_codec_arm(
    name: &str,
    codec: blobseer_types::ChunkCodec,
    clients: usize,
    ops: usize,
    chunk_size: u64,
    corpus: &(dyn Fn(usize, usize) -> Vec<u8> + Sync),
) -> CodecArm {
    use blobseer_net::NetCluster;

    let config = ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        chunk_codec: codec,
        chunk_cache_bytes: 0,
        ..ClusterConfig::default()
    };
    let tcp = NetCluster::tcp(Cluster::new(config).expect("cluster")).expect("tcp cluster");
    let handles: Vec<Arc<blobseer_core::BlobClient>> =
        (0..clients).map(|_| Arc::new(tcp.client())).collect();
    let blobs: Vec<BlobId> = handles
        .iter()
        .map(|c| {
            c.create_blob(BlobConfig::new(chunk_size, 1).expect("valid blob config"))
                .expect("create blob")
        })
        .collect();
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for (w, (client, &blob)) in handles.iter().zip(&blobs).enumerate() {
            scope.spawn(move || {
                for i in 0..ops {
                    client.append(blob, corpus(w, i)).expect("append");
                }
            });
        }
    });
    // The append phase is where the zero-copy claim lives: snapshot the copy
    // counter before the read-back materialises anything.
    let payload_bytes_copied: u64 = handles.iter().map(|c| c.stats().payload_bytes_copied).sum();
    std::thread::scope(|scope| {
        for (w, (client, &blob)) in handles.iter().zip(&blobs).enumerate() {
            scope.spawn(move || {
                let back = client.read_all(blob, None).expect("read back");
                let expect: Vec<u8> = (0..ops).flat_map(|i| corpus(w, i)).collect();
                assert_eq!(
                    &back[..],
                    &expect[..],
                    "codec must be invisible to payloads"
                );
            });
        }
    });
    let elapsed = started.elapsed();
    let stats: Vec<_> = handles.iter().map(|c| c.stats()).collect();
    CodecArm {
        name: name.to_string(),
        elapsed,
        payload_bytes: stats.iter().map(|s| s.bytes_written + s.bytes_read).sum(),
        bytes_on_wire_logical: stats.iter().map(|s| s.bytes_on_wire_logical).sum(),
        bytes_on_wire_physical: stats.iter().map(|s| s.bytes_on_wire_physical).sum(),
        chunks_compressed: stats.iter().map(|s| s.chunks_compressed).sum(),
        compress_saved_bytes: stats.iter().map(|s| s.compress_saved_bytes).sum(),
        payload_bytes_copied,
    }
}

/// Fig. Z1: the chunk compression tier end to end over loopback TCP — a
/// compressible and an incompressible corpus, each with the codec off and
/// fast (four arms). Compress-once at the writer, store-and-ship compressed,
/// decompress-once at the reader: on the compressible corpus the fast arms
/// move well under the logical byte count physically; on the incompressible
/// corpus the passthrough keeps the wire identical to the off arms.
pub fn fig_z1_compression(clients: usize, ops: usize, op_mib: u64) -> Vec<CodecArm> {
    use blobseer_types::ChunkCodec;

    let op_bytes = op_mib * MIB;
    // 256 KiB chunks divide the op size exactly, so every append is
    // chunk-aligned and the zero-copy write fast path applies throughout.
    let chunk_size = 256 << 10;
    let arms: [(&str, ChunkCodec, bool); 4] = [
        ("compressible / off", ChunkCodec::Off, true),
        ("compressible / fast", ChunkCodec::Fast, true),
        ("incompressible / off", ChunkCodec::Off, false),
        ("incompressible / fast", ChunkCodec::Fast, false),
    ];
    arms.iter()
        .map(|&(name, codec, compressible)| {
            let bytes = op_bytes as usize;
            let corpus: Box<dyn Fn(usize, usize) -> Vec<u8> + Sync> = if compressible {
                Box::new(move |w, i| compressible_corpus(w * 7919 + i, bytes))
            } else {
                Box::new(move |w, i| incompressible_corpus((w * 7919 + i) as u64 + 1, bytes))
            };
            run_codec_arm(name, codec, clients, ops, chunk_size, corpus.as_ref())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. C1 / C2 — decentralisation (Section IV.C, [2])
// ---------------------------------------------------------------------------

/// Fig. C1: aggregated write throughput under heavy write concurrency with a
/// single (centralised) metadata server versus a DHT of metadata providers.
pub fn fig_c1_metadata_decentralization(
    clients: &[usize],
    dht_nodes: usize,
    op_mib: u64,
    chunk_kib: u64,
) -> Vec<SweepSeries> {
    let workload = |n: usize| {
        WorkloadBuilder::new(n)
            .ops_per_client(1)
            .op_size(op_mib * MIB)
            .chunk_size(chunk_kib << 10)
            .concurrent_appends()
    };
    let centralized = run_series(
        "centralized metadata",
        clients,
        || sim(64, 1, PlacementPolicy::RoundRobin),
        workload,
    );
    let decentralized = run_series(
        &format!("DHT metadata ({dht_nodes} nodes)"),
        clients,
        || sim(64, dht_nodes, PlacementPolicy::RoundRobin),
        workload,
    );
    vec![centralized, decentralized]
}

/// Fig. C1 (cache panel): cold versus cached re-scans of one shared,
/// published input — the MapReduce-input pattern, where every worker reads
/// the same immutable snapshot over and over. The cold series runs with no
/// chunk cache; the cached series gives every client a `cache_mib` MiB chunk
/// cache, so each client pays exactly one cold scan and every re-scan is
/// served locally: strictly fewer data round-trips, strictly fewer bytes
/// copied, strictly higher aggregated throughput.
pub fn fig_c1_chunk_cache(clients: &[usize], op_mib: u64, cache_mib: u64) -> Vec<SweepSeries> {
    let sim_with_cache = |cache_bytes: u64| {
        move || {
            SimulatedCluster::new(ClusterConfig {
                data_providers: 64,
                metadata_providers: 16,
                chunk_cache_bytes: cache_bytes,
                ..ClusterConfig::default()
            })
            .expect("valid simulated cluster")
        }
    };
    let workload = |n: usize| {
        WorkloadBuilder::new(n)
            .ops_per_client(4)
            .op_size(op_mib * MIB)
            .chunk_size(MIB)
            .rescan_reads()
    };
    vec![
        run_series(
            "cold re-scans (no chunk cache)",
            clients,
            sim_with_cache(0),
            workload,
        ),
        run_series(
            &format!("cached re-scans ({cache_mib} MiB client chunk cache)"),
            clients,
            sim_with_cache(cache_mib * MIB),
            workload,
        ),
    ]
}

/// Fig. C2: impact of data striping — aggregated write throughput of a fixed
/// number of concurrent writers as the number of data providers grows.
pub fn fig_c2_provider_sweep(providers: &[usize], clients: usize, op_mib: u64) -> SweepSeries {
    let mut series = SweepSeries::new(format!("{clients} writers"));
    for &p in providers {
        let mut cluster = sim(p, 16, PlacementPolicy::RoundRobin);
        let workload = WorkloadBuilder::new(clients)
            .ops_per_client(2)
            .op_size(op_mib * MIB)
            .chunk_size(MIB)
            .concurrent_appends();
        let result = cluster.run(&workload).expect("simulation run");
        series.push_sim(p as f64, &result);
    }
    series
}

// ---------------------------------------------------------------------------
// Fig. D1 — BSFS versus the HDFS-like baseline under concurrent appends to
// the same file (Section IV.D, [16])
// ---------------------------------------------------------------------------

/// Fig. D1: aggregated throughput of N MapReduce-style writers appending to
/// one shared file. BSFS (BlobSeer) lets every appender proceed in parallel;
/// the HDFS-like baseline serialises them behind a single-writer lease and
/// funnels all block allocations through one namenode.
pub fn fig_d1_bsfs_vs_hdfs(clients: &[usize], op_mib: u64) -> Vec<SweepSeries> {
    let bsfs = run_series(
        "BSFS (BlobSeer)",
        clients,
        || sim(64, 16, PlacementPolicy::RoundRobin),
        |n| {
            WorkloadBuilder::new(n)
                .ops_per_client(2)
                .op_size(op_mib * MIB)
                .chunk_size(MIB)
                .concurrent_appends()
        },
    );

    // The HDFS-like baseline is modelled analytically with the same link
    // parameters: appenders to one file hold an exclusive lease, so the file
    // grows at the rate of a single write pipeline regardless of N; every
    // block allocation additionally visits the namenode.
    let mut hdfs = SweepSeries::new("HDFS-like (single writer)");
    for &n in clients {
        let ops = n as u64 * 2;
        let total_bytes = ops * op_mib * MIB;
        let pipeline_seconds = total_bytes as f64 / LINK_BANDWIDTH_BPS as f64;
        let blocks = total_bytes.div_ceil(64 * MIB);
        let namenode_seconds =
            (blocks + ops) as f64 * META_SERVICE_NS as f64 / NANOS_PER_SEC as f64;
        let makespan = pipeline_seconds + namenode_seconds;
        let throughput = total_bytes as f64 / (1024.0 * 1024.0) / makespan;
        let latency_ms = makespan / ops as f64 * 1_000.0;
        hdfs.push(n as f64, throughput, latency_ms);
    }
    vec![bsfs, hdfs]
}

// ---------------------------------------------------------------------------
// Fig. D2 — real MapReduce applications on BSFS versus the HDFS-like
// baseline (Section IV.D, [16])
// ---------------------------------------------------------------------------

/// Completion times of one MapReduce job on both backends.
#[derive(Debug, Clone, PartialEq)]
pub struct MapReduceComparison {
    /// Job name (wordcount, grep, sort).
    pub job: String,
    /// Completion time on BSFS (BlobSeer).
    pub bsfs: Duration,
    /// Completion time on the HDFS-like baseline.
    pub hdfs: Duration,
    /// Input bytes processed.
    pub input_bytes: u64,
}

/// Fig. D2: wordcount, grep and sort over a synthetic corpus, executed by the
/// real in-process MapReduce engine on both storage backends.
pub fn fig_d2_mapreduce_jobs(corpus_lines: usize, workers: usize) -> Vec<MapReduceComparison> {
    let corpus: String = (0..corpus_lines)
        .map(|i| {
            format!(
                "line {i} holds words alpha beta gamma {} and number {}\n",
                if i % 7 == 0 { "error" } else { "ok" },
                i % 97
            )
        })
        .collect();

    // BSFS backend over an in-process BlobSeer cluster.
    let cluster = Cluster::new(ClusterConfig {
        data_providers: 8,
        metadata_providers: 4,
        ..ClusterConfig::default()
    })
    .expect("cluster");
    let bsfs_fs = Arc::new(
        Bsfs::new(
            Arc::new(cluster.client()),
            BlobConfig::new(256 << 10, 1).unwrap(),
        )
        .unwrap(),
    );
    let bsfs_storage = Arc::new(BsfsStorage::new(Arc::clone(&bsfs_fs)));
    bsfs_storage.create_file("/in/corpus").unwrap();
    bsfs_storage
        .append("/in/corpus", corpus.as_bytes())
        .unwrap();
    let bsfs_engine = MapReduceEngine::new(bsfs_storage, workers);

    // HDFS-like backend.
    let hdfs_fs = Arc::new(HdfsLikeFs::new(8, 256 << 10, 1).unwrap());
    let hdfs_storage = Arc::new(HdfsStorage::new(Arc::clone(&hdfs_fs)));
    hdfs_storage.create_file("/in/corpus").unwrap();
    hdfs_storage
        .append("/in/corpus", corpus.as_bytes())
        .unwrap();
    let hdfs_engine = MapReduceEngine::new(hdfs_storage, workers);

    let split = 64 << 10;
    let jobs = [("wordcount", 0usize), ("grep", 1), ("sort", 2)];
    let mut rows = Vec::new();
    for (name, kind) in jobs {
        let make = |out: &str| match kind {
            0 => wordcount_job(vec!["/in/corpus".into()], out, 4, split),
            1 => grep_job(vec!["/in/corpus".into()], out, "error", 4, split),
            _ => sort_job(vec!["/in/corpus".into()], out, 4, split),
        };
        let bsfs_report = bsfs_engine
            .run(&make(&format!("/out/bsfs/{name}")))
            .unwrap();
        let hdfs_report = hdfs_engine
            .run(&make(&format!("/out/hdfs/{name}")))
            .unwrap();
        rows.push(MapReduceComparison {
            job: name.to_string(),
            bsfs: bsfs_report.elapsed,
            hdfs: hdfs_report.elapsed,
            input_bytes: bsfs_report.input_bytes,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. E1 — QoS: throughput stability under failures, with and without
// behaviour-model feedback (Section IV.E)
// ---------------------------------------------------------------------------

/// Result of one QoS stability run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosStability {
    /// Mean of the windowed aggregated throughput (MiB/s).
    pub mean_mibps: f64,
    /// Standard deviation of the windowed throughput (MiB/s) — the paper's
    /// stability metric.
    pub std_mibps: f64,
    /// Overall aggregated throughput (MiB/s).
    pub aggregated_mibps: f64,
}

/// Fig. E1: a long write-intensive run during which a subset of providers
/// periodically degrades. Without feedback the placement keeps hammering the
/// degraded providers; with (GloBeM-style) feedback the flagged providers
/// are avoided, yielding higher and more stable throughput.
pub fn fig_e1_qos_stability(
    clients: usize,
    degraded_providers: usize,
    slowdown: f64,
) -> (QosStability, QosStability) {
    let providers = 32;
    let workload = |policy: PlacementPolicy| {
        let _ = policy;
        WorkloadBuilder::new(clients)
            .ops_per_client(6)
            .op_size(32 * MIB)
            .chunk_size(MIB)
            .concurrent_appends()
    };
    let degradation_start = NANOS_PER_SEC / 2;
    let degradation_len = 30 * NANOS_PER_SEC;

    let run = |policy: PlacementPolicy, with_feedback: bool| -> QosStability {
        let mut cluster = sim(providers, 16, policy);
        for p in 0..degraded_providers {
            cluster.schedule_degradation(
                ProviderId(p as u32),
                degradation_start,
                degradation_len,
                slowdown,
            );
        }
        if with_feedback {
            // The offline behaviour model detects the dangerous state after
            // one monitoring window and the placement layer avoids the
            // flagged providers from then on.
            for p in 0..degraded_providers {
                cluster
                    .set_provider_qos(ProviderId(p as u32), 0.05)
                    .expect("provider exists");
            }
        }
        let result = cluster.run(&workload(policy)).expect("simulation run");
        let windows = result.windowed_throughput_mibps(result.makespan_ns / 20);
        QosStability {
            mean_mibps: mean(&windows),
            std_mibps: std_dev(&windows),
            aggregated_mibps: result.aggregated_mibps(),
        }
    };

    let without = run(PlacementPolicy::RoundRobin, false);
    let with = run(PlacementPolicy::QosAware, true);
    (without, with)
}

/// Demonstrates the full monitoring → behaviour model → placement feedback
/// loop on a real in-process cluster with an injected provider failure.
/// Returns the providers the model flagged. Used by the `qos_feedback`
/// example and the integration tests; the scale experiment is
/// [`fig_e1_qos_stability`].
pub fn qos_feedback_loop_demo() -> Vec<ProviderId> {
    let cluster = Cluster::new(ClusterConfig {
        data_providers: 6,
        metadata_providers: 2,
        placement: PlacementPolicy::QosAware,
        ..ClusterConfig::default()
    })
    .expect("cluster");
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(64 << 10, 1).unwrap())
        .unwrap();
    let collector = Arc::new(MonitoringCollector::new(cluster.providers()));
    let mut controller = QosController::new(
        Arc::clone(&collector),
        Arc::clone(cluster.provider_manager()),
        3,
        4,
    );
    // Healthy traffic, then provider 2 fails and traffic continues.
    for round in 0..10 {
        if round == 4 {
            cluster.fail_provider(ProviderId(2)).unwrap();
        }
        let _ = client.append(blob, vec![round as u8; 256 << 10]);
        collector.sample();
    }
    controller.step().unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Tab. E2 — replication overhead and availability (Sections IV.E and V)
// ---------------------------------------------------------------------------

/// One row of the replication table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationRow {
    /// Replication factor.
    pub replication: usize,
    /// Aggregated write throughput at that factor (MiB/s).
    pub write_mibps: f64,
    /// Fraction of read operations that still succeed when 25% of the
    /// providers have failed.
    pub read_availability: f64,
}

/// Tab. E2: the cost of replication on write throughput and the availability
/// it buys under provider failures.
pub fn tab_e2_replication(factors: &[usize], clients: usize) -> Vec<ReplicationRow> {
    let providers = 32usize;
    factors
        .iter()
        .map(|&replication| {
            // Write throughput.
            let mut cluster = sim(providers, 16, PlacementPolicy::RoundRobin);
            let writes = WorkloadBuilder::new(clients)
                .ops_per_client(2)
                .op_size(32 * MIB)
                .chunk_size(MIB)
                .replication(replication)
                .concurrent_appends();
            let write_result = cluster.run(&writes).expect("write run");

            // Read availability with 25% of providers failed (spread out so
            // adjacent-replica placement is not trivially wiped out).
            let mut cluster = sim(providers, 16, PlacementPolicy::RoundRobin);
            for k in 0..providers / 4 {
                cluster.schedule_failure(ProviderId((k * 4) as u32), 0, u64::MAX / 2);
            }
            let reads = WorkloadBuilder::new(clients)
                .ops_per_client(2)
                .op_size(32 * MIB)
                .chunk_size(MIB)
                .replication(replication)
                .disjoint_reads();
            let read_result = cluster.run(&reads).expect("read run");
            let total_ops = read_result.ops.len().max(1);
            ReplicationRow {
                replication,
                write_mibps: write_result.aggregated_mibps(),
                read_availability: 1.0 - read_result.failed_ops as f64 / total_ops as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ablations called out in DESIGN.md
// ---------------------------------------------------------------------------

/// Ablation: impact of the chunk size on aggregated write throughput (fixed
/// 32 writers, 64 providers).
pub fn ablation_chunk_size(chunk_kib: &[u64], clients: usize) -> SweepSeries {
    let mut series = SweepSeries::new("chunk size sweep");
    for &kib in chunk_kib {
        let mut cluster = sim(64, 16, PlacementPolicy::RoundRobin);
        let workload = WorkloadBuilder::new(clients)
            .ops_per_client(2)
            .op_size(32 * MIB)
            .chunk_size(kib << 10)
            .concurrent_appends();
        let result = cluster.run(&workload).expect("simulation run");
        series.push_sim(kib as f64, &result);
    }
    series
}

/// Ablation: impact of the placement policy on aggregated write throughput.
pub fn ablation_placement(clients: usize, op_mib: u64) -> Vec<(String, f64)> {
    [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::Random,
        PlacementPolicy::LeastLoaded,
        PlacementPolicy::QosAware,
    ]
    .iter()
    .map(|&policy| {
        let mut cluster = sim(64, 16, policy);
        let workload = WorkloadBuilder::new(clients)
            .ops_per_client(2)
            .op_size(op_mib * MIB)
            .chunk_size(MIB)
            .concurrent_appends();
        let result = cluster.run(&workload).expect("simulation run");
        (format!("{policy:?}"), result.aggregated_mibps())
    })
    .collect()
}

/// Ablation: client-side metadata caching on/off for a read-heavy workload
/// (Section IV.A notes the benefit of metadata caching).
pub fn ablation_meta_cache(clients: usize, op_mib: u64) -> Vec<(String, f64)> {
    [true, false]
        .iter()
        .map(|&cache| {
            let config = ClusterConfig {
                data_providers: 64,
                metadata_providers: 16,
                client_metadata_cache: cache,
                ..ClusterConfig::default()
            };
            let mut cluster = SimulatedCluster::new(config).expect("cluster");
            let workload = WorkloadBuilder::new(clients)
                .ops_per_client(4)
                .op_size(op_mib * MIB)
                .chunk_size(256 << 10)
                .disjoint_reads();
            let result = cluster.run(&workload).expect("simulation run");
            (
                if cache {
                    "metadata cache ON"
                } else {
                    "metadata cache OFF"
                }
                .to_string(),
                result.aggregated_mibps(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_a1_overhead_grows_logarithmically() {
        let rows = fig_a1_metadata_overhead(&[16, 256, 4096]);
        assert_eq!(rows.len(), 3);
        // Depth grows by ~4 per 16x size increase; node count tracks depth.
        assert_eq!(rows[0].tree_depth + 4, rows[1].tree_depth);
        assert_eq!(rows[1].tree_depth + 4, rows[2].tree_depth);
        assert!(rows[2].nodes_per_write <= rows[0].nodes_per_write + 8);
        assert!(
            rows[2].overhead_ratio < 0.01,
            "metadata must stay a tiny fraction of data"
        );
    }

    #[test]
    fn fig_n1_transports_move_identical_data_and_account_wire_traffic() {
        // A reduced fig_n1: both arms do the same logical work (identical
        // data_round_trips); only the networked one puts frames on the
        // wire. Wall-clock throughput is printed by the binary, not
        // asserted — it is machine-dependent.
        let series = fig_n1_transport_overhead(&[2], 1);
        assert_eq!(series.len(), 2);
        let trips: Vec<u64> = series
            .iter()
            .map(|s| s.points.iter().map(|p| p.data_round_trips).sum())
            .collect();
        assert!(trips[0] > 0);
        assert_eq!(trips[0], trips[1], "loopback must move the same chunks");
        let wire: Vec<u64> = series
            .iter()
            .map(|s| s.points.iter().map(|p| p.bytes_on_wire).sum())
            .collect();
        assert_eq!(wire[0], 0, "in-process moves nothing over a wire");
        // The networked arm carried at least the payload itself.
        let payload = 2 * 2 * MIB; // clients × ops × op size, written then read
        assert!(wire[1] > payload);
        assert!(series[1].points.iter().all(|p| p.frames_sent > 0));
    }

    #[test]
    fn fig_n1_reports_real_metadata_round_trips() {
        let series = fig_n1_transport_overhead(&[2], 1);
        for s in &series {
            assert!(
                s.points.iter().all(|p| p.meta_round_trips > 0),
                "{}: appends weave metadata, so the figure must report real \
                 (nonzero) metadata round-trips",
                s.name
            );
        }
    }

    #[test]
    fn fig_z1_fast_codec_cuts_physical_wire_bytes_on_compressible_data() {
        // A reduced fig_z1: 2 clients × 1 op × 1 MiB per arm.
        let arms = fig_z1_compression(2, 1, 1);
        assert_eq!(arms.len(), 4);
        let arm = |name: &str| arms.iter().find(|a| a.name == name).unwrap();
        let comp_off = arm("compressible / off");
        let comp_fast = arm("compressible / fast");
        let rand_off = arm("incompressible / off");
        let rand_fast = arm("incompressible / fast");
        // All four arms move identical logical payloads.
        assert!(comp_off.payload_bytes > 0);
        assert_eq!(comp_off.payload_bytes, comp_fast.payload_bytes);
        assert_eq!(comp_off.payload_bytes, rand_fast.payload_bytes);
        // Codec off: the wire is the logical traffic, nothing is compressed.
        for a in [comp_off, rand_off] {
            assert_eq!(a.bytes_on_wire_physical, a.bytes_on_wire_logical);
            assert_eq!(a.chunks_compressed, 0);
            assert_eq!(a.payload_bytes_copied, 0, "aligned writes copy nothing");
        }
        // Compressible corpus under Fast: physical well below logical.
        assert!(comp_fast.chunks_compressed > 0);
        assert!(comp_fast.compress_saved_bytes > 0);
        assert!(
            (comp_fast.bytes_on_wire_physical as f64)
                < 0.7 * comp_fast.bytes_on_wire_logical as f64,
            "fast must cut the compressible wire below 0.7x ({} vs {})",
            comp_fast.bytes_on_wire_physical,
            comp_fast.bytes_on_wire_logical
        );
        assert_eq!(
            comp_fast.bytes_on_wire_logical,
            comp_off.bytes_on_wire_logical
        );
        // Incompressible corpus under Fast: the passthrough ships verbatim —
        // wire identical to off, zero compressions, zero copies.
        assert_eq!(
            rand_fast.bytes_on_wire_physical,
            rand_fast.bytes_on_wire_logical
        );
        assert_eq!(rand_fast.chunks_compressed, 0);
        assert_eq!(rand_fast.compress_saved_bytes, 0);
        assert_eq!(
            rand_fast.payload_bytes_copied, 0,
            "the verbatim passthrough must keep the zero-copy write path"
        );
    }

    #[test]
    fn fig_c1_shows_the_decentralization_benefit() {
        let series = fig_c1_metadata_decentralization(&[32], 16, 8, 256);
        let centralized = series[0].final_throughput().unwrap();
        let decentralized = series[1].final_throughput().unwrap();
        assert!(decentralized > 1.3 * centralized);
    }

    #[test]
    fn fig_c1_chunk_cache_strictly_beats_cold_rescans() {
        let series = fig_c1_chunk_cache(&[8], 16, 64);
        let cold = &series[0].points[0];
        let cached = &series[1].points[0];
        assert!(
            cached.data_round_trips < cold.data_round_trips,
            "cached re-scans must move strictly fewer chunks over the wire \
             ({} vs {})",
            cached.data_round_trips,
            cold.data_round_trips
        );
        assert!(
            cached.bytes_copied < cold.bytes_copied,
            "cache hits materialise nothing ({} vs {} bytes copied)",
            cached.bytes_copied,
            cold.bytes_copied
        );
        assert!(cached.cache_hits > 0);
        assert_eq!(cold.cache_hits, 0, "no cache, no hits");
        assert_eq!(cold.bytes_copied, cold.data_round_trips * MIB);
        assert!(
            cached.throughput_mibps > cold.throughput_mibps,
            "local hits must beat wire fetches ({:.0} vs {:.0} MiB/s)",
            cached.throughput_mibps,
            cold.throughput_mibps
        );
        // 8 clients × 4 scans of 16 chunks: each client fetches one cold
        // scan, every later scan hits.
        assert_eq!(cached.cache_misses, 8 * 16);
        assert_eq!(cached.cache_hits, 8 * 3 * 16);
        assert_eq!(cached.data_round_trips, 8 * 16);
    }

    #[test]
    fn fig_d1_bsfs_scales_and_hdfs_stays_flat() {
        let series = fig_d1_bsfs_vs_hdfs(&[1, 16], 16);
        let bsfs = &series[0];
        let hdfs = &series[1];
        assert!(bsfs.points[1].throughput_mibps > 4.0 * bsfs.points[0].throughput_mibps);
        let flat = hdfs.points[1].throughput_mibps / hdfs.points[0].throughput_mibps;
        assert!(
            flat < 1.2,
            "single-writer throughput must not scale with clients"
        );
        assert!(bsfs.points[1].throughput_mibps > 3.0 * hdfs.points[1].throughput_mibps);
    }

    #[test]
    fn fig_d2_runs_all_three_jobs_on_both_backends() {
        let rows = fig_d2_mapreduce_jobs(400, 4);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.input_bytes > 0);
            assert!(row.bsfs > Duration::ZERO);
            assert!(row.hdfs > Duration::ZERO);
        }
    }

    #[test]
    fn fig_e1_feedback_improves_stability() {
        let (without, with) = fig_e1_qos_stability(16, 8, 12.0);
        assert!(with.aggregated_mibps > without.aggregated_mibps);
        assert!(with.mean_mibps > without.mean_mibps);
    }

    #[test]
    fn qos_demo_flags_the_failed_provider() {
        let flagged = qos_feedback_loop_demo();
        assert!(flagged.contains(&ProviderId(2)));
    }

    #[test]
    fn tab_e2_replication_trades_throughput_for_availability() {
        let rows = tab_e2_replication(&[1, 3], 8);
        assert!(
            rows[0].write_mibps > rows[1].write_mibps,
            "replication costs write throughput"
        );
        assert!(rows[1].read_availability > rows[0].read_availability);
        assert!((rows[1].read_availability - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ablations_return_one_row_per_point() {
        assert_eq!(ablation_chunk_size(&[256, 1024], 8).points.len(), 2);
        assert_eq!(ablation_placement(8, 8).len(), 4);
        let cache = ablation_meta_cache(8, 8);
        assert_eq!(cache.len(), 2);
        assert!(
            cache[0].1 >= cache[1].1 * 0.95,
            "caching must not hurt reads"
        );
    }
}
