//! Fig. R1 — cold-restart recovery of the durable persistence tier: a
//! durable deployment ingests a history, the process "dies" (the cluster is
//! dropped — segment files and WAL survive), and a fresh deployment over
//! the same directory replays the log. Measured per history length:
//!
//! * **recovery time** — wall-clock cost of `Cluster::open_durable` over
//!   the populated directory (WAL replay + segment scan + rebuild);
//! * **post-restart read throughput** — whole-blob read served by
//!   positioned reads of the recovered segment files;
//! * the recovery counters the CI gate greps for (`recovered_chunks`,
//!   `wal_replayed_records`).
//!
//! Beyond the figure, this binary *asserts* the tier's contract, so running
//! it doubles as a regression test:
//!
//! * every history recovers exactly one blob, with nonzero chunk and WAL
//!   record counts that grow with the history;
//! * the recovered blob reads byte-identically to the pre-restart model;
//! * an aligned post-restart read is genuinely zero-copy
//!   (`payload_bytes_copied == 0`): each chunk's positioned read fills an
//!   exact-size buffer that becomes its refcounted payload, never copied
//!   again on its way to the reader.

use blobseer_bench::{emit, Clock, Json};
use blobseer_core::Cluster;
use blobseer_types::{BlobConfig, ClusterConfig, Durability};
use std::time::Instant;

const CHUNK: u64 = 16 * 1024;
/// History lengths (appended chunks) the restart is measured at.
const HISTORIES: [u64; 3] = [32, 128, 512];
/// Early chunk slots the ingest phase periodically overwrites, so the WAL
/// carries superseded versions and the segments carry dead records.
const OVERWRITE_SLOTS: u64 = 4;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            ((i as u64)
                .wrapping_mul(131)
                .wrapping_add(seed.wrapping_mul(2654435761))) as u8
        })
        .collect()
}

fn durable_config() -> ClusterConfig {
    ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        chunk_cache_bytes: 0, // reads must hit the recovered segments
        durability: Durability::Commit,
        ..ClusterConfig::default()
    }
}

struct Arm {
    appends: u64,
    history_bytes: u64,
    recovery_ms: f64,
    recovered_blobs: u64,
    recovered_chunks: u64,
    wal_replayed_records: u64,
    read_mibps: f64,
    payload_bytes_copied: u64,
}

fn run_arm(appends: u64) -> Arm {
    let dir =
        std::env::temp_dir().join(format!("blobseer-fig-r1-{}-{appends}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Ingest phase: appends plus periodic chunk-aligned overwrites, so the
    // log holds both live and superseded records when the "crash" happens.
    let mut model: Vec<u8> = Vec::new();
    let blob = {
        let cluster = Cluster::open_durable(durable_config(), &dir).expect("durable opens");
        let client = cluster.client();
        let blob = client
            .create_blob(BlobConfig::new(CHUNK, 2).expect("valid blob config"))
            .expect("blob creates");
        for i in 0..appends {
            let data = pattern(CHUNK as usize, i);
            client.append(blob, &data).expect("append succeeds");
            model.extend_from_slice(&data);
            if i % 16 == 15 {
                let patch = pattern(CHUNK as usize, 10_000 + i);
                let offset = ((i / 16) % OVERWRITE_SLOTS) * CHUNK;
                client.write(blob, offset, &patch).expect("write succeeds");
                model[offset as usize..(offset + CHUNK) as usize].copy_from_slice(&patch);
            }
        }
        blob
        // Dropping the cluster is the crash: nothing is flushed beyond what
        // the Commit policy already ordered to disk.
    };

    // Cold restart: replay the WAL, scan the segments, rebuild the cluster.
    let t0 = Instant::now();
    let cluster = Cluster::open_durable(durable_config(), &dir).expect("durable reopens");
    let recovery_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    let stats = cluster.recovery_stats();

    // Post-restart read path: aligned whole-blob read, one positioned read
    // per chunk and no copy after it, byte-identical to the pre-crash model.
    let client = cluster.client();
    let t1 = Instant::now();
    let slice = client
        .read_bytes(blob, None, 0, model.len() as u64)
        .expect("recovered blob reads");
    let read_s = t1.elapsed().as_secs_f64();
    let payload_bytes_copied = client.stats().payload_bytes_copied;
    assert_eq!(
        slice.to_vec(),
        model,
        "{appends} appends: the recovered version must read byte-identically"
    );
    assert_eq!(
        payload_bytes_copied, 0,
        "{appends} appends: an aligned read of recovered segments must stay zero-copy"
    );
    assert_eq!(stats.recovered_blobs, 1, "exactly one blob recovers");
    assert!(stats.recovered_chunks > 0, "chunks must come back");
    assert!(stats.wal_replayed_records > 0, "WAL records must replay");

    let _ = std::fs::remove_dir_all(&dir);
    Arm {
        appends,
        history_bytes: model.len() as u64,
        recovery_ms,
        recovered_blobs: stats.recovered_blobs,
        recovered_chunks: stats.recovered_chunks,
        wal_replayed_records: stats.wal_replayed_records,
        read_mibps: model.len() as f64 / (1024.0 * 1024.0) / read_s.max(1e-9),
        payload_bytes_copied,
    }
}

fn main() {
    println!(
        "Fig. R1 — cold-restart recovery: durable deployments ({} B chunks,\n\
         replication 2, Commit durability, 4 data / 2 metadata providers) are\n\
         dropped after their ingest history and reopened over the same\n\
         directory; recovery replays the WAL and rescans the segments.\n",
        CHUNK
    );
    let arms: Vec<Arm> = HISTORIES.iter().map(|&n| run_arm(n)).collect();

    println!(
        "{:>8}  {:>12}  {:>12}  {:>16}  {:>14}  {:>12}",
        "appends", "history B", "recovery ms", "replayed records", "recov. chunks", "read MiB/s"
    );
    for a in &arms {
        println!(
            "{:>8}  {:>12}  {:>12.2}  {:>16}  {:>14}  {:>12.0}",
            a.appends,
            a.history_bytes,
            a.recovery_ms,
            a.wal_replayed_records,
            a.recovered_chunks,
            a.read_mibps
        );
    }

    // Recovery work must scale with the history, not with anything hidden.
    for pair in arms.windows(2) {
        assert!(
            pair[1].wal_replayed_records > pair[0].wal_replayed_records,
            "longer histories must replay more WAL records"
        );
        assert!(
            pair[1].recovered_chunks > pair[0].recovered_chunks,
            "longer histories must recover more chunks"
        );
    }
    println!("\ncold-restart assertions passed.");

    emit(
        "fig_r1",
        Clock::Wall,
        Json::arr(arms.iter().map(|a| {
            Json::obj([
                ("appends", Json::num(a.appends as f64)),
                ("history_bytes", Json::num(a.history_bytes as f64)),
                ("recovery_ms", Json::num(a.recovery_ms)),
                ("recovered_blobs", Json::num(a.recovered_blobs as f64)),
                ("recovered_chunks", Json::num(a.recovered_chunks as f64)),
                (
                    "wal_replayed_records",
                    Json::num(a.wal_replayed_records as f64),
                ),
                ("read_mibps", Json::num(a.read_mibps)),
                (
                    "payload_bytes_copied",
                    Json::num(a.payload_bytes_copied as f64),
                ),
            ])
        })),
    );
}
