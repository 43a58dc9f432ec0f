//! Integration tests: provider failures, replication and the QoS feedback
//! loop on a real in-process cluster — and on the networked transport,
//! where a provider can die harder than in-process (its endpoint vanishes
//! mid-connection instead of answering "unavailable").

use blobseer::core::{ClientServices, Cluster, InProcessChunkService};
use blobseer::net::NetCluster;
use blobseer::persist::{open_log_file, scan, LogFile, SegmentStore, SegmentStoreOptions};
use blobseer::provider::{ChunkStore, DataProvider};
use blobseer::qos::{MonitoringCollector, QosController};
use blobseer::types::wire::WireReader;
use blobseer::types::{
    BlobConfig, BlobError, ChunkId, ClusterConfig, Durability, PlacementPolicy, ProviderId, Version,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn replicated_data_survives_rolling_failures() {
    let cluster = Cluster::new(ClusterConfig {
        data_providers: 6,
        metadata_providers: 3,
        ..ClusterConfig::default()
    })
    .unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(1024, 3).unwrap())
        .unwrap();
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    client.append(blob, &payload).unwrap();

    // Fail two providers at a time, in a rolling fashion: with replication 3
    // every chunk always keeps at least one live replica.
    for pair in [(0u32, 1u32), (2, 3), (4, 5)] {
        cluster.fail_provider(ProviderId(pair.0)).unwrap();
        cluster.fail_provider(ProviderId(pair.1)).unwrap();
        assert_eq!(client.read_all(blob, None).unwrap(), payload);
        cluster.recover_provider(ProviderId(pair.0)).unwrap();
        cluster.recover_provider(ProviderId(pair.1)).unwrap();
    }
}

#[test]
fn writes_continue_and_recover_after_provider_failures() {
    let cluster = Cluster::new(ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        ..ClusterConfig::default()
    })
    .unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(512, 2).unwrap())
        .unwrap();
    client.append(blob, vec![1u8; 2048]).unwrap();

    cluster.fail_provider(ProviderId(0)).unwrap();
    cluster.fail_provider(ProviderId(1)).unwrap();
    // Two live providers remain: replication 2 is still satisfiable.
    client.append(blob, vec![2u8; 2048]).unwrap();
    cluster.recover_provider(ProviderId(0)).unwrap();
    cluster.recover_provider(ProviderId(1)).unwrap();
    client.append(blob, vec![3u8; 2048]).unwrap();

    let all = client.read_all(blob, None).unwrap();
    assert_eq!(all.len(), 6144);
    assert!(all[..2048].iter().all(|&b| b == 1));
    assert!(all[2048..4096].iter().all(|&b| b == 2));
    assert!(all[4096..].iter().all(|&b| b == 3));
}

#[test]
fn metadata_dht_replication_survives_a_metadata_node_failure() {
    let cluster = Cluster::new(ClusterConfig {
        data_providers: 4,
        metadata_providers: 3,
        dht_replication: 2,
        ..ClusterConfig::default()
    })
    .unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(512, 1).unwrap())
        .unwrap();
    let payload = vec![5u8; 8192];
    client.append(blob, &payload).unwrap();

    cluster
        .fail_metadata_node(blobseer::types::MetaNodeId(0))
        .unwrap();
    assert_eq!(client.read_all(blob, None).unwrap(), payload);
    cluster
        .recover_metadata_node(blobseer::types::MetaNodeId(0))
        .unwrap();
}

#[test]
fn networked_provider_killed_mid_write_is_substituted_without_data_loss() {
    // A *networked* provider dying is harsher than the in-process failure
    // switch: its server endpoint disappears, tearing live connections down
    // under in-flight chunk stores. The writer must fail over to live
    // providers mid-operation and publish an intact version.
    let cluster = NetCluster::tcp(
        Cluster::new(ClusterConfig {
            data_providers: 6,
            metadata_providers: 3,
            io_timeout_ms: 500, // fail over quickly once the endpoint is gone
            ..ClusterConfig::default()
        })
        .unwrap(),
    )
    .unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(1024, 2).unwrap())
        .unwrap();
    // Warm up so provider 0 holds replicas of the first version.
    let base = vec![7u8; 24 * 1024];
    client.append(blob, &base).unwrap();

    // A long append races the kill: the writer thread streams 96 chunks
    // while the main thread waits for the first of them to land on
    // provider 0, then kills its endpoint outright.
    let big = vec![9u8; 96 * 1024];
    let writer = std::thread::spawn({
        let client = cluster.client();
        let big = big.clone();
        move || client.append(blob, big)
    });
    let victim = cluster.inner().provider(ProviderId(0)).unwrap();
    let before = victim.stats().writes;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while victim.stats().writes == before && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    cluster.stop_provider_endpoint(ProviderId(0)).unwrap();
    writer
        .join()
        .unwrap()
        .expect("the write must fail over to live providers");

    // Both versions read back intact; chunks assigned to the dead endpoint
    // were substituted (replication 2 also keeps earlier data readable).
    let all = client.read_all(blob, None).unwrap();
    assert_eq!(all.len(), base.len() + big.len());
    assert!(all[..base.len()].iter().all(|&b| b == 7));
    assert!(all[base.len()..].iter().all(|&b| b == 9));
}

// ---------------------------------------------------------------------------
// Durable persistence tier: crash-restart matrix + at-rest corruption.
// ---------------------------------------------------------------------------

const DUR_CS: u64 = 64;

fn durable_config() -> ClusterConfig {
    ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        chunk_cache_bytes: 0,
        // Process-kill semantics need no fsync (the bytes are in the page
        // cache, not the process); Buffered keeps the matrix fast.
        durability: Durability::Buffered,
        ..ClusterConfig::default()
    }
}

fn durable_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blobseer-ft-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

fn ft_pattern(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            ((i as u64)
                .wrapping_mul(131)
                .wrapping_add(seed.wrapping_mul(2654435761))) as u8
        })
        .collect()
}

/// One step of a random durable history: appends grow the blob, writes
/// overwrite (possibly past the end — hole semantics stay out by writing
/// within the appended span only at chunk boundaries).
#[derive(Debug, Clone, Copy)]
enum DurOp {
    Append { len: usize, seed: u64 },
    Write { slot: u64, seed: u64 },
}

/// Draws random durable histories (roughly half appends, half chunk-aligned
/// overwrites).
struct DurOpsStrategy;

impl Strategy for DurOpsStrategy {
    type Value = Vec<DurOp>;

    fn sample(&self, rng: &mut rand::rngs::StdRng) -> Vec<DurOp> {
        use rand::Rng;
        let count = rng.gen_range(3..9);
        (0..count)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    DurOp::Append {
                        len: rng.gen_range(1..3 * DUR_CS as usize),
                        seed: rng.gen(),
                    }
                } else {
                    DurOp::Write {
                        slot: rng.gen_range(0..6u64),
                        seed: rng.gen(),
                    }
                }
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The crash-restart matrix of the durable tier: a random history runs
    /// against a durable deployment, then the metadata WAL is truncated at
    /// *every* record boundary in turn (every possible `kill -9` point the
    /// log can witness) and the directory reopened. Each truncation must
    /// recover a *prefix-consistent* version set — the latest recovered
    /// version only ever grows with the truncation point, never invents a
    /// version the history didn't publish, and every recovered version
    /// reads byte-identical to what was acknowledged when it was published.
    #[test]
    fn wal_truncation_at_every_record_boundary_recovers_a_consistent_prefix(
        ops in DurOpsStrategy,
    ) {
        let master = durable_dir("matrix-master");
        // Replay the history, recording the model bytes at every published
        // version (version numbers start at 1; 0 is the empty snapshot).
        let mut published: Vec<(Version, Vec<u8>)> = Vec::new();
        let blob = {
            let cluster = Cluster::open_durable(durable_config(), &master).unwrap();
            let client = cluster.client();
            let blob = client
                .create_blob(BlobConfig::new(DUR_CS, 2).unwrap())
                .unwrap();
            let mut model: Vec<u8> = Vec::new();
            for op in &ops {
                let version = match *op {
                    DurOp::Append { len, seed } => {
                        let data = ft_pattern(len, seed);
                        let v = client.append(blob, &data).unwrap();
                        model.extend_from_slice(&data);
                        v
                    }
                    DurOp::Write { slot, seed } => {
                        let data = ft_pattern(DUR_CS as usize, seed);
                        let offset = slot * DUR_CS;
                        let v = client.write(blob, offset, &data).unwrap();
                        let end = offset as usize + data.len();
                        if model.len() < end {
                            model.resize(end, 0);
                        }
                        model[offset as usize..end].copy_from_slice(&data);
                        v
                    }
                };
                published.push((version, model.clone()));
            }
            blob
        };

        // Every WAL record boundary is a kill point (plus offset 0: the
        // crash before anything landed).
        let wal = std::fs::read(master.join("meta.wal")).unwrap();
        let mut boundaries: Vec<usize> = vec![0];
        boundaries.extend(scan(&wal).records.iter().map(|r| r.span.end));

        let mut last_recovered = Version(0);
        for (i, &cut) in boundaries.iter().enumerate() {
            let trial = durable_dir(&format!("matrix-{i}"));
            copy_dir(&master, &trial);
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(trial.join("meta.wal"))
                .unwrap();
            file.set_len(cut as u64).unwrap();
            drop(file);

            let cluster = Cluster::open_durable(durable_config(), &trial).unwrap();
            if cluster.recovery_stats().recovered_blobs == 0 {
                // Killed before the create-blob record: nothing to serve.
                prop_assert!(cluster.client().read_all(blob, None).is_err());
                let _ = std::fs::remove_dir_all(&trial);
                continue;
            }
            let latest = cluster.version_manager().latest_snapshot(blob).unwrap().version;
            // Prefix consistency: the recovered set only grows with the
            // truncation point and never exceeds what was published.
            prop_assert!(latest >= last_recovered,
                "recovered version went backwards: {latest:?} after {last_recovered:?}");
            prop_assert!(latest.0 as usize <= published.len(),
                "recovered a version the history never published: {latest:?}");
            last_recovered = latest;
            // Byte-identical reads of every recovered version.
            let client = cluster.client();
            for (version, model) in published.iter().filter(|(v, _)| *v <= latest) {
                prop_assert_eq!(
                    &client.read_all(blob, Some(*version)).unwrap(),
                    model,
                    "version {:?} diverged after truncation at {} of {}",
                    version, cut, wal.len()
                );
            }
            let _ = std::fs::remove_dir_all(&trial);
        }
        // The full log recovers the full history.
        prop_assert_eq!(last_recovered.0 as usize, published.len());
        let _ = std::fs::remove_dir_all(&master);
    }
}

/// At-rest corruption rotates to a replica instead of serving garbage: a
/// payload byte of one provider's segment file is flipped between restarts;
/// the per-read CRC surfaces the damage as a retryable transport error, the
/// client fails the read over to the intact replica, and the answer is
/// byte-identical.
#[test]
fn flipped_segment_byte_fails_over_to_the_intact_replica() {
    let dir = durable_dir("crc-flip");
    let payload = ft_pattern(8 * DUR_CS as usize, 42);
    let blob = {
        let cluster = Cluster::open_durable(durable_config(), &dir).unwrap();
        let client = cluster.client();
        let blob = client
            .create_blob(BlobConfig::new(DUR_CS, 2).unwrap())
            .unwrap();
        client.append(blob, &payload).unwrap();
        blob
    };
    // Flip one payload byte of the *first* record of one provider's first
    // segment. Mid-file CRC damage stays addressable (only a torn *tail* is
    // truncated), so the read path — not recovery — must catch it. Offset
    // 100 is safely inside the first record's chunk payload: the framing
    // header, chunk id and envelope header together span 47 bytes, and the
    // chunk itself is 64.
    let seg = dir.join("provider-0000").join("seg-000001.log");
    let mut raw = std::fs::read(&seg).unwrap();
    assert!(
        raw.len() > 2 * DUR_CS as usize,
        "segment holds several records"
    );
    raw[100] ^= 0xFF;
    std::fs::write(&seg, &raw).unwrap();

    let cluster = Cluster::open_durable(durable_config(), &dir).unwrap();
    assert_eq!(cluster.recovery_stats().recovered_blobs, 1);
    assert!(
        cluster.recovery_stats().corrupt_chunk_records >= 1,
        "recovery must notice the at-rest damage"
    );
    // The live cluster serves the read by rotating to the intact replica.
    let client = cluster.client();
    assert_eq!(
        client.read_all(blob, None).unwrap(),
        payload,
        "a flipped byte must never reach the reader"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sealed segment file truncated behind a running durable cluster: the
/// positioned reads of its records come up short, which is the retryable
/// transport error, so the client fails over to the intact replica and the
/// answer is byte-identical.
#[test]
fn truncated_segment_behind_a_live_cluster_fails_over_to_the_intact_replica() {
    let dir = durable_dir("truncated");
    let payload = ft_pattern(32 * DUR_CS as usize, 7);
    let cluster = Cluster::open_durable(
        ClusterConfig {
            // Every few records seal a segment.
            segment_bytes: 512,
            ..durable_config()
        },
        &dir,
    )
    .unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(DUR_CS, 2).unwrap())
        .unwrap();
    client.append(blob, &payload).unwrap();
    let (provider, sealed) = (0..4u32)
        .map(|p| {
            let seg = dir.join(format!("provider-{p:04}")).join("seg-000001.log");
            (p, seg)
        })
        .find(|(_, seg)| seg.with_file_name("seg-000002.log").exists())
        .expect("some provider sealed its first segment");
    let raw = std::fs::read(&sealed).unwrap();
    let damaged: Vec<ChunkId> = scan(&raw)
        .records
        .iter()
        .map(|record| WireReader::new(&raw[record.payload.clone()]).get().unwrap())
        .collect();
    assert!(!damaged.is_empty());
    std::fs::OpenOptions::new()
        .write(true)
        .open(&sealed)
        .unwrap()
        .set_len(0)
        .unwrap();
    let provider = cluster.provider(ProviderId(provider)).unwrap();
    for id in &damaged {
        assert!(
            matches!(provider.get_chunk(id), Err(BlobError::Transport(_))),
            "{id}: a short positioned read is the retryable error"
        );
    }
    // Replicas are probed in a random order: several reads make sure the
    // damaged one is tried first for some chunk.
    for _ in 0..8 {
        assert_eq!(
            client.read_all(blob, None).unwrap(),
            payload,
            "a damaged replica must never shorten or fail the read"
        );
    }
    drop((client, cluster));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment file whose positioned reads fail with EIO once armed.
struct EioOnRead {
    file: Box<dyn LogFile>,
    armed: Arc<AtomicBool>,
    failed_reads: Arc<AtomicUsize>,
}

impl LogFile for EioOnRead {
    fn append(&self, buf: &[u8]) -> std::io::Result<()> {
        self.file.append(buf)
    }

    fn truncate(&self, len: u64) -> std::io::Result<()> {
        self.file.truncate(len)
    }

    fn sync(&self) -> std::io::Result<()> {
        self.file.sync()
    }

    fn read_at(&self, buf: &mut [u8], at: u64) -> std::io::Result<()> {
        if !self.armed.load(Ordering::SeqCst) {
            return self.file.read_at(buf, at);
        }
        self.failed_reads.fetch_add(1, Ordering::SeqCst);
        Err(std::io::Error::from_raw_os_error(5))
    }
}

/// One replica's disk returns EIO on every positioned read of a chunk:
/// each such read is the retryable transport error, and a replication-2
/// read is served whole by the other replica.
#[test]
fn an_eio_on_one_replica_is_served_by_the_other() {
    let dir = durable_dir("eio");
    let payload = ft_pattern(16 * DUR_CS as usize, 11);
    let cluster = Cluster::open_durable(durable_config(), &dir).unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(DUR_CS, 2).unwrap())
        .unwrap();
    client.append(blob, &payload).unwrap();
    // Provider 0's segments, opened a second time over a disk that fails
    // every chunk read.
    let (armed, failed_reads) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicUsize::new(0)),
    );
    let (arm, counter) = (Arc::clone(&armed), Arc::clone(&failed_reads));
    let store = SegmentStore::open_over(
        dir.join("provider-0000"),
        SegmentStoreOptions::default(),
        move |path| {
            Ok(Box::new(EioOnRead {
                file: open_log_file(path)?,
                armed: Arc::clone(&arm),
                failed_reads: Arc::clone(&counter),
            }))
        },
    )
    .unwrap();
    let store = Arc::new(store);
    armed.store(true, Ordering::SeqCst);
    let raw = std::fs::read(dir.join("provider-0000").join("seg-000001.log")).unwrap();
    let held: Vec<ChunkId> = scan(&raw)
        .records
        .iter()
        .map(|record| WireReader::new(&raw[record.payload.clone()]).get().unwrap())
        .collect();
    assert!(!held.is_empty(), "provider 0 holds replicas");
    for id in &held {
        assert!(
            matches!(store.get(id), Err(BlobError::Transport(_))),
            "{id}: an EIO is the retryable error"
        );
    }
    let mut providers: HashMap<ProviderId, Arc<DataProvider>> = cluster
        .providers()
        .into_iter()
        .map(|provider| (provider.id(), provider))
        .collect();
    let failing = DataProvider::with_store(ProviderId(0), Arc::clone(&store) as _);
    providers.insert(ProviderId(0), Arc::new(failing));
    let chunks = Arc::new(InProcessChunkService::new(
        Arc::clone(cluster.provider_manager()),
        providers,
    ));
    // Replicas are probed in a random order: several fresh clients make
    // sure the failing one is tried first for some chunk.
    for _ in 0..8 {
        let client = cluster.client_over(ClientServices {
            versions: Arc::clone(cluster.version_manager()) as _,
            chunks: Arc::clone(&chunks) as _,
            metadata: Arc::clone(cluster.metadata_service()),
        });
        assert_eq!(
            client.read_all(blob, None).unwrap(),
            payload,
            "a replica whose disk fails reads must never fail the read"
        );
    }
    assert!(
        failed_reads.load(Ordering::SeqCst) > held.len(),
        "clients hit the EIO"
    );
    assert_eq!(
        store.chunk_count(),
        held.len(),
        "unreadable chunks are still held"
    );
    drop((client, cluster));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn qos_feedback_steers_placement_away_from_a_failed_provider() {
    let cluster = Cluster::new(ClusterConfig {
        data_providers: 6,
        metadata_providers: 2,
        placement: PlacementPolicy::QosAware,
        ..ClusterConfig::default()
    })
    .unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(4096, 1).unwrap())
        .unwrap();
    let collector = Arc::new(MonitoringCollector::new(cluster.providers()));
    let mut controller = QosController::new(
        Arc::clone(&collector),
        Arc::clone(cluster.provider_manager()),
        3,
        4,
    );

    for round in 0..10u8 {
        if round == 4 {
            cluster.fail_provider(ProviderId(1)).unwrap();
        }
        client.append(blob, vec![round; 16 * 1024]).unwrap();
        collector.sample();
    }
    let flagged = controller.step().unwrap();
    assert!(
        flagged.contains(&ProviderId(1)),
        "failed provider must be flagged: {flagged:?}"
    );
    // Subsequent placements avoid the flagged provider.
    let before = cluster.provider(ProviderId(1)).unwrap().stats().chunks;
    for round in 0..5u8 {
        client.append(blob, vec![round; 16 * 1024]).unwrap();
    }
    let after = cluster.provider(ProviderId(1)).unwrap().stats().chunks;
    assert_eq!(
        before, after,
        "no new chunks may land on the flagged provider"
    );
}
