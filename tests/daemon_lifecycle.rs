//! Durability and lifecycle bugfix sweep: the WAL stays bounded without
//! lifecycle help, the sweeper racing a shutdown tears nothing, and the
//! maintenance tick compacts segment stores once enough of their records
//! are dead. Each test pins one fix end-to-end on a real durable cluster.

use blobseer::core::Cluster;
use blobseer::net::NetCluster;
use blobseer::types::{BlobConfig, ClusterConfig, Durability, FaultPlan, Version};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blobseer-lifecycle-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// Copies a durable directory byte-for-byte — the restart tests use this as
/// a crash image taken while the source cluster is still open, so recovery
/// sees exactly what a power cut would have left.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let target = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

/// Total bytes of chunk segment logs under `dir`, recursively.
fn segment_log_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_dir() {
            total += segment_log_bytes(&entry.path());
        } else if entry.file_name().to_string_lossy().ends_with(".log") {
            total += entry.metadata().unwrap().len();
        }
    }
    total
}

/// The WAL must checkpoint on its own record-count trigger even when the
/// lifecycle engine never runs — a long lifecycle-off history used to grow
/// the log (and with it recovery replay) without bound.
#[test]
fn checkpoints_bound_the_wal_with_the_lifecycle_off() {
    let dir = temp_dir("walbound");
    let config = || ClusterConfig {
        data_providers: 3,
        metadata_providers: 2,
        // Lifecycle fully off: both knobs zero, engine never started.
        retained_versions: 0,
        flatten_threshold: 0,
        checkpoint_records: 16,
        // No background checkpointer either — the record-count trigger
        // alone, driven from the maintenance pass, must do the bounding.
        checkpoint_interval_ms: 0,
        durability: Durability::Commit,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::open_durable(config(), &dir).unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(1024, 1).unwrap())
        .unwrap();
    let wal = cluster.durable_tier().unwrap().wal().clone();

    let mut max_since = 0;
    for round in 0..12u8 {
        for i in 0..4u8 {
            client
                .append(blob, pattern(4096, round.wrapping_mul(4) + i))
                .unwrap();
        }
        cluster.run_maintenance();
        max_since = max_since.max(wal.records_since_checkpoint());
    }
    assert!(
        max_since >= 1,
        "the appends must be journaling records at all"
    );
    assert!(
        max_since < 64,
        "48 appends of history must never pile up past the checkpoint \
         trigger plus one round of slack, saw {max_since} records"
    );

    // Crash image: copy the still-open directory, then recover from the
    // copy. Replay is bounded by the same trigger — not by history length.
    let crash = temp_dir("walbound-crash");
    copy_dir(&dir, &crash);
    let reopened = Cluster::open_durable(config(), &crash).unwrap();
    let rec = reopened.recovery_stats();
    assert!(
        rec.wal_replayed_records < 64,
        "recovery must replay only the post-checkpoint tail: {rec:?}"
    );
    assert_eq!(rec.recovered_blobs, 1, "{rec:?}");
    let expected: Vec<u8> = (0..48u8).flat_map(|n| pattern(4096, n)).collect();
    assert_eq!(reopened.client().read_all(blob, None).unwrap(), expected);

    drop(reopened);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
}

/// Sweeper passes and checkpoint attempts racing a coordinated shutdown
/// must fail cleanly — endpoints mid-teardown and a sealing WAL produce
/// requeues and errors, never a panic or a torn log.
#[test]
fn sweeper_racing_a_shutdown_tears_nothing() {
    let dir = temp_dir("shutrace");
    let cluster = NetCluster::channel(
        Cluster::open_durable(
            ClusterConfig {
                data_providers: 3,
                metadata_providers: 2,
                // Retention keeps the sweeper busy: every overwrite below
                // strands a version it will want to reclaim.
                retained_versions: 2,
                durability: Durability::Commit,
                ..ClusterConfig::default()
            },
            &dir,
        )
        .unwrap(),
        FaultPlan::none(),
    )
    .unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(1024, 1).unwrap())
        .unwrap();
    let last = pattern(8192, 5);
    for v in 0..5u8 {
        client.write(blob, 0, pattern(8192, v + 1)).unwrap();
    }

    std::thread::scope(|scope| {
        let lifecycle = cluster.inner().lifecycle().clone();
        scope.spawn(move || {
            // Sweep passes before, during and after the teardown: RPCs
            // against endpoints that just stopped must come back as errors
            // (requeued), not hang or poison anything.
            for _ in 0..300 {
                lifecycle.run_once();
            }
        });
        let inner = cluster.inner();
        scope.spawn(move || {
            // Checkpoint attempts racing the WAL seal: once the log is
            // closing they must return an error instead of appending a
            // torn image.
            for _ in 0..300 {
                let _ = inner.force_checkpoint();
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        cluster.shutdown();
    });
    drop(cluster);

    // Recovery after the contested shutdown: nothing torn, the surviving
    // history serves the last version byte-identically.
    let reopened = Cluster::open_durable(
        ClusterConfig {
            data_providers: 3,
            metadata_providers: 2,
            retained_versions: 2,
            durability: Durability::Commit,
            ..ClusterConfig::default()
        },
        &dir,
    )
    .unwrap();
    let rec = reopened.recovery_stats();
    assert_eq!(rec.torn_commits_dropped, 0, "{rec:?}");
    assert_eq!(rec.corrupt_chunk_records, 0, "{rec:?}");
    assert_eq!(rec.recovered_blobs, 1, "{rec:?}");
    assert_eq!(reopened.client().read_all(blob, None).unwrap(), last);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Once version GC has killed enough records, the maintenance tick must
/// compact the segment stores: reads stay byte-identical while the on-disk
/// footprint shrinks.
#[test]
fn maintenance_tick_compacts_dead_segments_without_changing_reads() {
    let dir = temp_dir("compact");
    let cluster = Cluster::open_durable(
        ClusterConfig {
            data_providers: 2,
            metadata_providers: 2,
            retained_versions: 1,
            compact_dead_ratio: 0.3,
            checkpoint_interval_ms: 0,
            durability: Durability::Commit,
            // Small segments so the overwrites below seal several of them:
            // only sealed segments are compaction victims.
            segment_bytes: 32 << 10,
            ..ClusterConfig::default()
        },
        &dir,
    )
    .unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(4096, 1).unwrap())
        .unwrap();
    // Six full overwrites of a 16-chunk blob: five versions' worth of
    // chunks become garbage the moment retention evicts them.
    for v in 0..6u8 {
        client.write(blob, 0, pattern(64 << 10, v)).unwrap();
    }
    let latest = client.read_all(blob, None).unwrap();
    assert_eq!(latest, pattern(64 << 10, 5));
    let before = segment_log_bytes(&dir);
    assert!(before as usize >= latest.len(), "all six versions on disk");

    // Drive eviction and sweeping until GC has reclaimed the dead chunks;
    // each pass ends in the maintenance hook — the same tick the daemon's
    // lifecycle thread fires — whose dead-ratio policy triggers compaction.
    for _ in 0..8 {
        cluster.lifecycle().run_once();
    }
    assert!(
        cluster.lifecycle().stats().reclaimed_chunks > 0,
        "retention must have swept the overwritten versions: {:?}",
        cluster.lifecycle().stats()
    );
    cluster.run_maintenance(); // one more inline tick, as the daemon runs it
    let after = segment_log_bytes(&dir);
    assert!(
        after * 2 < before,
        "compaction must shrink the segment footprint well past the dead \
         ratio: {before} -> {after}"
    );
    assert_eq!(
        client.read_all(blob, Some(Version(6))).unwrap(),
        latest,
        "compaction must preserve every surviving byte"
    );

    // And the compacted directory still recovers.
    drop(cluster);
    let reopened = Cluster::open_durable(
        ClusterConfig {
            data_providers: 2,
            metadata_providers: 2,
            retained_versions: 1,
            compact_dead_ratio: 0.3,
            durability: Durability::Commit,
            segment_bytes: 32 << 10,
            ..ClusterConfig::default()
        },
        &dir,
    )
    .unwrap();
    assert_eq!(reopened.client().read_all(blob, None).unwrap(), latest);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
