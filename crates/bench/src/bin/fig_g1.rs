//! Fig. G1 — the version lifecycle tier: snapshot flattening + concurrent
//! chunk GC on a real in-process deployment, measured as metadata
//! round-trips per whole-blob read while a blob ages through 200 appends
//! (plus periodic overwrites that strand old chunks).
//!
//! Two arms over identical operation histories:
//!
//! * **no-lifecycle** — every version retained forever, never flattened:
//!   the read-path tree descent deepens as the blob grows, so the metadata
//!   round-trips of a full read keep climbing and nothing is ever
//!   reclaimed;
//! * **lifecycle** — retention + flattening + sweeping: aged snapshots are
//!   consolidated into flat versions whose leaves are addressed directly
//!   (one batched metadata round per shard, independent of history), and
//!   chunks/tree nodes unreachable from the retained window are swept.
//!
//! Beyond the figure, this binary *asserts* the tier's contract, so running
//! it doubles as a regression test:
//!
//! * the lifecycle arm's read round-trips do **not** grow with append count
//!   while the no-lifecycle arm's do;
//! * the sweeper actually frees provider memory (`reclaimed_bytes > 0`) and
//!   the lifecycle arm ends the run storing strictly fewer bytes;
//! * reads are byte-identical across arms at every checkpoint, and reading
//!   a retained version returns the same bytes before and after a
//!   flatten + GC pass.

use blobseer_bench::{emit, Clock, Json};
use blobseer_core::Cluster;
use blobseer_types::{BlobConfig, ClusterConfig, Version};

const CHUNK: u64 = 4096;
const APPENDS: u64 = 200;
const CHECKPOINT_EVERY: u64 = 50;
/// Early chunks that periodic overwrites rotate through (their superseded
/// chunks are what the sweeper reclaims).
const OVERWRITE_SLOTS: u64 = 5;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            ((i as u64)
                .wrapping_mul(131)
                .wrapping_add(seed.wrapping_mul(2654435761))) as u8
        })
        .collect()
}

struct Checkpoint {
    appends: u64,
    read_meta_round_trips: u64,
}

struct ArmResult {
    name: &'static str,
    checkpoints: Vec<Checkpoint>,
    reclaimed_bytes: u64,
    flattens: u64,
    stored_bytes: u64,
    final_read: Vec<u8>,
}

fn run_arm(name: &'static str, lifecycle: bool) -> ArmResult {
    let config = ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        // Honest metadata accounting: every descent pays its round-trips.
        client_metadata_cache: false,
        chunk_cache_bytes: 0,
        retained_versions: if lifecycle { 4 } else { 0 },
        flatten_threshold: if lifecycle { 25 } else { 0 },
        ..ClusterConfig::default()
    };
    let cluster = Cluster::new(config).expect("cluster builds");
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(CHUNK, 1).expect("valid blob config"))
        .expect("blob creates");

    let mut model: Vec<u8> = Vec::new();
    let mut latest: Version;
    let mut checkpoints = Vec::new();
    for i in 0..APPENDS {
        let data = pattern(CHUNK as usize, i);
        latest = client.append(blob, &data).expect("append succeeds");
        model.extend_from_slice(&data);
        // Every tenth op also overwrites an early chunk: each overwrite
        // strands the chunk it superseded, which only the lifecycle arm
        // ever gets back.
        if i % 10 == 9 {
            let patch = pattern(CHUNK as usize, 1_000 + i);
            let offset = ((i / 10) % OVERWRITE_SLOTS) * CHUNK;
            latest = client.write(blob, offset, &patch).expect("write succeeds");
            model[offset as usize..(offset + CHUNK) as usize].copy_from_slice(&patch);
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            // A retained version must read the same bytes before and after
            // the flatten + evict + sweep pass.
            let before = client
                .read_all(blob, Some(latest))
                .expect("pre-pass read succeeds");
            assert_eq!(before, model, "{name}: read diverged from the model");
            cluster.lifecycle().run_blob(blob);
            let after = client
                .read_all(blob, Some(latest))
                .expect("a retained version must stay readable through GC");
            assert_eq!(
                after, before,
                "{name}: flatten + GC changed the bytes of a retained version"
            );
            // The measured quantity: metadata round-trips of one full read
            // of the (aged, possibly flattened) latest snapshot.
            let trips_before = cluster.metadata_round_trips();
            let read = client.read_all(blob, None).expect("read succeeds");
            assert_eq!(read, model, "{name}: latest-snapshot read diverged");
            checkpoints.push(Checkpoint {
                appends: i + 1,
                read_meta_round_trips: cluster.metadata_round_trips() - trips_before,
            });
        }
    }
    let stats = cluster.lifecycle().stats();
    ArmResult {
        name,
        checkpoints,
        reclaimed_bytes: stats.reclaimed_bytes,
        flattens: stats.flattens,
        stored_bytes: cluster.total_stored_bytes(),
        final_read: client.read_all(blob, None).expect("final read succeeds"),
    }
}

fn main() {
    println!(
        "Fig. G1 — version lifecycle: snapshot flattening + concurrent chunk GC,\n\
         {APPENDS} x {CHUNK} B appends + periodic overwrites, whole-blob read at every\n\
         {CHECKPOINT_EVERY} appends, 4 KiB chunks, 4 data / 2 metadata providers,\n\
         metadata cache off (lifecycle arm: retain 4 versions, flatten every 25 writes)\n"
    );
    let arms = [run_arm("no-lifecycle", false), run_arm("lifecycle", true)];

    println!(
        "{:>14}  {:>10}  {:>22}  {:>10}  {:>14}  {:>12}",
        "arm", "appends", "read meta round-trips", "flattens", "reclaimed B", "stored B"
    );
    for a in &arms {
        for c in &a.checkpoints {
            println!(
                "{:>14}  {:>10}  {:>22}  {:>10}  {:>14}  {:>12}",
                a.name,
                c.appends,
                c.read_meta_round_trips,
                a.flattens,
                a.reclaimed_bytes,
                a.stored_bytes
            );
        }
    }

    let baseline = &arms[0];
    let flat = &arms[1];
    assert_eq!(
        baseline.final_read, flat.final_read,
        "both arms replay the same history and must read identical bytes"
    );
    let first = |a: &ArmResult| {
        a.checkpoints
            .first()
            .expect("checkpoints")
            .read_meta_round_trips
    };
    let last = |a: &ArmResult| {
        a.checkpoints
            .last()
            .expect("checkpoints")
            .read_meta_round_trips
    };
    assert!(
        last(baseline) > first(baseline),
        "without the lifecycle the read's metadata round-trips must grow with \
         the blob's history ({} -> {})",
        first(baseline),
        last(baseline)
    );
    let flat_max = flat
        .checkpoints
        .iter()
        .map(|c| c.read_meta_round_trips)
        .max()
        .expect("checkpoints");
    assert!(
        flat_max <= first(flat),
        "a flattened blob's read round-trips must not grow with append count \
         (first {} vs max {})",
        first(flat),
        flat_max
    );
    assert!(flat.flattens > 0, "the lifecycle arm must actually flatten");
    assert!(
        flat.reclaimed_bytes > 0,
        "the sweeper must reclaim provider memory"
    );
    assert!(
        flat.stored_bytes < baseline.stored_bytes,
        "the lifecycle arm must end the run storing fewer bytes ({} vs {})",
        flat.stored_bytes,
        baseline.stored_bytes
    );
    println!("\nlifecycle-tier assertions passed.");

    emit(
        "fig_g1",
        Clock::Counts,
        Json::arr(arms.iter().map(|a| {
            Json::obj([
                ("name", Json::str(a.name)),
                (
                    "checkpoints",
                    Json::arr(a.checkpoints.iter().map(|c| {
                        Json::obj([
                            ("appends", Json::num(c.appends as f64)),
                            (
                                "read_meta_round_trips",
                                Json::num(c.read_meta_round_trips as f64),
                            ),
                        ])
                    })),
                ),
                ("flattens", Json::num(a.flattens as f64)),
                ("reclaimed_bytes", Json::num(a.reclaimed_bytes as f64)),
                ("stored_bytes", Json::num(a.stored_bytes as f64)),
            ])
        })),
    );
}
