//! Durability and lifecycle bugfix sweep: the WAL stays bounded without
//! lifecycle help, the sweeper racing a shutdown tears nothing, the
//! maintenance tick compacts segment stores once enough of their records
//! are dead, appends racing a checkpoint survive it, and a flatten survives
//! a crash. Each test pins one fix end-to-end on a real durable cluster.

use blobseer::core::Cluster;
use blobseer::net::NetCluster;
use blobseer::types::{BlobConfig, ClusterConfig, Durability, Version};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

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
/// lifecycle knobs are off — a long lifecycle-off history used to grow the
/// log (and with it recovery replay) without bound.
#[test]
fn checkpoints_bound_the_wal_with_the_lifecycle_off() {
    let dir = temp_dir("walbound");
    let config = || ClusterConfig {
        data_providers: 3,
        metadata_providers: 2,
        // Lifecycle fully off: both knobs zero. The record-count trigger
        // alone, driven from the maintenance pass, must do the bounding.
        retained_versions: 0,
        flatten_threshold: 0,
        checkpoint_records: 16,
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
    let cluster = NetCluster::tcp(
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

    // Drive the maintenance tick — exactly what the daemon's loop runs —
    // until GC has reclaimed the dead chunks: each tick's lifecycle pass
    // evicts and sweeps, and its durable pass compacts by dead ratio.
    for _ in 0..8 {
        cluster.run_maintenance();
    }
    assert!(
        cluster.lifecycle().stats().reclaimed_chunks > 0,
        "retention must have swept the overwritten versions: {:?}",
        cluster.lifecycle().stats()
    );
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

/// A checkpoint captures the live state without holding the WAL, so
/// appends keep committing while it runs. Every one of them must survive:
/// a crash image taken after a storm of checkpoints racing 400 appends
/// reopens at version 400 with every byte in place.
#[test]
fn appends_racing_checkpoints_survive_a_crash_image() {
    const APPENDS: usize = 400;
    const LEN: usize = 1024;
    let dir = temp_dir("ckptrace");
    let config = || ClusterConfig {
        data_providers: 2,
        metadata_providers: 2,
        durability: Durability::Commit,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::open_durable(config(), &dir).unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(LEN as u64, 1).unwrap())
        .unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                cluster.force_checkpoint().unwrap();
            }
        });
        for i in 0..APPENDS {
            client.append(blob, pattern(LEN, i as u8)).unwrap();
        }
        done.store(true, Ordering::Release);
    });
    let checkpoints = cluster.durable_tier().unwrap().wal().checkpoints();
    assert!(
        checkpoints > 1,
        "the checkpoints must have raced the appends"
    );

    let crash = temp_dir("ckptrace-crash");
    copy_dir(&dir, &crash);
    let reopened = Cluster::open_durable(config(), &crash).unwrap();
    let latest = reopened.version_manager().latest_snapshot(blob).unwrap();
    assert_eq!(
        latest.version,
        Version(APPENDS as u64),
        "every acknowledged append must survive {checkpoints} racing checkpoints"
    );
    let expected: Vec<u8> = (0..APPENDS).flat_map(|i| pattern(LEN, i as u8)).collect();
    assert_eq!(reopened.client().read_all(blob, None).unwrap(), expected);

    drop(reopened);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
}

/// Flatness is journaled by the commit descriptor the flatten publishes:
/// after a crash the flat version is still flat and reads the same bytes.
#[test]
fn a_flattened_version_survives_a_crash_image() {
    let dir = temp_dir("flatten");
    let config = || ClusterConfig {
        data_providers: 2,
        metadata_providers: 2,
        durability: Durability::Commit,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::open_durable(config(), &dir).unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(1024, 1).unwrap())
        .unwrap();
    for i in 0..6u8 {
        client.append(blob, pattern(3000, i)).unwrap();
    }
    assert!(cluster.lifecycle().flatten_now(blob).unwrap());
    let flat = cluster.version_manager().latest_snapshot(blob).unwrap();
    assert!(flat.flat, "the flatten publishes a flat version");
    let bytes = client.read_all(blob, None).unwrap();

    let crash = temp_dir("flatten-crash");
    copy_dir(&dir, &crash);
    let reopened = Cluster::open_durable(config(), &crash).unwrap();
    assert_eq!(
        reopened.version_manager().latest_snapshot(blob).unwrap(),
        flat,
        "the recovered latest descriptor is the flat one"
    );
    assert_eq!(reopened.client().read_all(blob, None).unwrap(), bytes);

    drop(reopened);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
}
