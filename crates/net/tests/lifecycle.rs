//! Version-lifecycle integration tests: snapshot flattening + concurrent GC
//! exercised end to end, differentially across deployment shapes.
//!
//! The tier's contract is that the lifecycle is *invisible* to correct
//! readers: any retained version reads byte-identical before and after a
//! flatten + evict + sweep pass, on the in-process cluster and on the
//! networked deployments alike (where the sweeper's deletes cross the wire
//! as `REMOVE_CHUNKS`/`META_DELETE` RPCs), with the client metadata/chunk
//! caches on or off. Evicted versions fail *cleanly* (`VersionRetired`),
//! never with torn data; a provider dying mid-sweep costs leaked replicas
//! and a counted error, never correctness; and the sweeper shares no lock
//! with readers, so a GC storm cannot stall them.
//!
//! CI runs this file single-threaded (`--test-threads=1`): several tests
//! spin up whole deployments with background lifecycle threads, and serial
//! execution keeps their timing assertions honest.

use blobseer_core::{BlobClient, Cluster};
use blobseer_net::NetCluster;
use blobseer_types::{
    BlobConfig, BlobError, BlobId, ChunkCodec, ClusterConfig, FaultPlan, ProviderId, Version,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CS: u64 = 128;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            ((i as u64)
                .wrapping_mul(131)
                .wrapping_add(seed.wrapping_mul(2654435761))) as u8
        })
        .collect()
}

fn lifecycle_config(cache: bool) -> ClusterConfig {
    ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        client_metadata_cache: cache,
        chunk_cache_bytes: if cache { 1 << 20 } else { 0 },
        // Aggressive knobs so short histories cross every lifecycle edge:
        // flatten often, retain a window wider than one flatten (the version
        // we re-read must survive the pass that follows it).
        retained_versions: 3,
        flatten_threshold: 4,
        ..ClusterConfig::default()
    }
}

/// One step of a random operation history. Writes address slot boundaries
/// of the current blob (possibly past the end — hole semantics) so the
/// histories cover appends, overwrites (which strand chunks for the
/// sweeper) and gap-creating extensions.
#[derive(Debug, Clone)]
enum Op {
    Append { len: usize, seed: u64 },
    Write { slot: u64, len: usize, seed: u64 },
}

/// Draws random operation histories (roughly half appends, half
/// slot-addressed writes with arbitrary lengths).
struct OpsStrategy;

impl Strategy for OpsStrategy {
    type Value = Vec<Op>;

    fn sample(&self, rng: &mut StdRng) -> Vec<Op> {
        let count = rng.gen_range(6..28);
        (0..count)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Op::Append {
                        len: rng.gen_range(1..3 * CS as usize),
                        seed: rng.gen(),
                    }
                } else {
                    Op::Write {
                        slot: rng.gen_range(0..8u64),
                        len: rng.gen_range(1..2 * CS as usize),
                        seed: rng.gen(),
                    }
                }
            })
            .collect()
    }
}

/// Replays `ops` against one deployment, running `pass` (a full lifecycle
/// pass over the blob) every few operations and asserting around it that
/// the newest retained version reads byte-identically before and after.
/// Returns the final content.
fn replay(client: &BlobClient, blob: BlobId, ops: &[Op], pass: &dyn Fn()) -> Vec<u8> {
    let mut model: Vec<u8> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let latest = match *op {
            Op::Append { len, seed } => {
                let data = pattern(len, seed);
                let v = client.append(blob, &data).expect("append succeeds");
                model.extend_from_slice(&data);
                v
            }
            Op::Write { slot, len, seed } => {
                let data = pattern(len, seed);
                let offset = slot * CS;
                let v = client.write(blob, offset, &data).expect("write succeeds");
                let end = offset as usize + len;
                if model.len() < end {
                    model.resize(end, 0); // the unwritten gap reads as holes
                }
                model[offset as usize..end].copy_from_slice(&data);
                v
            }
        };
        if (i + 1) % 5 == 0 && !model.is_empty() {
            let before = client
                .read_all(blob, Some(latest))
                .expect("pre-pass read of the newest version succeeds");
            assert_eq!(before, model, "read diverged from the model");
            pass();
            let after = client
                .read_all(blob, Some(latest))
                .expect("a retained version must stay readable through flatten + GC");
            assert_eq!(
                after, before,
                "flatten + GC changed the bytes of a retained version"
            );
        }
    }
    if model.is_empty() {
        return model;
    }
    pass();
    let end = client.read_all(blob, None).expect("final read succeeds");
    assert_eq!(end, model, "final read diverged from the model");
    end
}

fn replay_local(cache: bool, ops: &[Op]) -> Vec<u8> {
    let cluster = Cluster::new(lifecycle_config(cache)).expect("cluster builds");
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(CS, 1).expect("valid blob config"))
        .expect("blob creates");
    replay(&client, blob, ops, &|| cluster.lifecycle().run_blob(blob))
}

fn replay_net(cluster: &NetCluster, ops: &[Op]) -> Vec<u8> {
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(CS, 1).expect("valid blob config"))
        .expect("blob creates");
    replay(&client, blob, ops, &|| {
        cluster.inner().lifecycle().run_blob(blob)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The differential heart of the tier: the same random history replayed
    /// on the in-process cluster and on the channel-transport networked
    /// deployment (whose GC crosses the wire), caches on and off, must end
    /// with byte-identical content — and every intermediate lifecycle pass
    /// must leave the newest retained version's bytes untouched.
    #[test]
    fn lifecycle_reads_are_differential_across_deployments(
        ops in OpsStrategy,
        cache in any::<bool>(),
    ) {
        let local = replay_local(cache, &ops);
        let net = NetCluster::channel(Cluster::new(lifecycle_config(cache)).expect("cluster builds"), FaultPlan::none())
            .expect("channel cluster builds");
        let networked = replay_net(&net, &ops);
        prop_assert_eq!(local, networked);
    }
}

proptest! {
    // TCP deployments are slow to stand up; keep the sample small.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same differential over real TCP loopback sockets.
    #[test]
    fn lifecycle_reads_are_differential_over_tcp(
        ops in OpsStrategy,
        cache in any::<bool>(),
    ) {
        let local = replay_local(cache, &ops);
        let net = NetCluster::tcp(Cluster::new(lifecycle_config(cache)).expect("cluster builds")).expect("tcp cluster builds");
        let networked = replay_net(&net, &ops);
        prop_assert_eq!(local, networked);
    }
}

/// Evicted versions fail cleanly on a networked deployment: the retention
/// gate answers `VersionRetired` (never torn data), while every retained
/// version keeps serving.
#[test]
fn evicted_versions_answer_version_retired() {
    let cluster = NetCluster::tcp(Cluster::new(lifecycle_config(false)).expect("cluster builds"))
        .expect("tcp cluster builds");
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(CS, 1).expect("valid blob config"))
        .expect("blob creates");
    let mut model = Vec::new();
    for i in 0..6u64 {
        let data = pattern(CS as usize, i);
        client.append(blob, &data).expect("append succeeds");
        model.extend_from_slice(&data);
    }
    cluster.inner().lifecycle().run_blob(blob);
    let err = client
        .read_all(blob, Some(Version(1)))
        .expect_err("an evicted version must not serve");
    assert!(
        matches!(err, BlobError::VersionRetired { first_retained, .. } if first_retained > Version(1)),
        "expected VersionRetired, got {err:?}"
    );
    assert_eq!(
        client.read_all(blob, None).expect("latest serves"),
        model,
        "retention must not disturb retained versions"
    );
}

/// A provider dying mid-sweep costs a counted error and *requeued*
/// replicas — never a wrong answer. The dead endpoint's delete RPC fails,
/// the sweep carries on with the remaining providers, the failed replicas
/// go back to the version manager for a later retry, and every retained
/// version still reads correctly (replication fails reads over to live
/// providers).
#[test]
fn killed_provider_mid_sweep_requeues_without_corrupting() {
    let config = ClusterConfig {
        io_timeout_ms: 300, // fail the dead endpoint's RPCs quickly
        chunk_cache_bytes: 0,
        retained_versions: 1,
        ..lifecycle_config(false)
    };
    let cluster = NetCluster::channel(
        Cluster::new(config).expect("cluster builds"),
        FaultPlan::none(),
    )
    .expect("cluster builds");
    let client = cluster.client();
    // Two replicas per chunk: reads survive a dead provider.
    let blob = client
        .create_blob(BlobConfig::new(CS, 2).expect("valid blob config"))
        .expect("blob creates");
    let mut model = Vec::new();
    for i in 0..8u64 {
        let data = pattern(CS as usize, i);
        client.append(blob, &data).expect("append succeeds");
        model.extend_from_slice(&data);
    }
    // Strand every chunk once: each overwrite retires its predecessor.
    for i in 0..8u64 {
        let patch = pattern(CS as usize, 100 + i);
        client.write(blob, i * CS, &patch).expect("write succeeds");
        model[(i * CS) as usize..((i + 1) * CS) as usize].copy_from_slice(&patch);
    }
    // The provider process dies: connections torn down, new ones refused.
    cluster
        .stop_provider_endpoint(ProviderId(0))
        .expect("endpoint stops");
    cluster.inner().lifecycle().run_blob(blob);
    let stats = cluster.inner().lifecycle().stats();
    assert!(
        stats.sweep_errors > 0,
        "deletes aimed at the dead endpoint must be counted as sweep errors"
    );
    assert!(
        stats.reclaimed_bytes > 0,
        "the sweep must still reclaim from the surviving providers"
    );
    assert!(
        stats.requeued_entries > 0,
        "the dead endpoint's replicas must be requeued for retry, not dropped"
    );
    assert_eq!(
        client
            .read_all(blob, None)
            .expect("reads fail over to live replicas"),
        model,
        "a sweep racing a dead provider must never corrupt retained data"
    );
    // A later pass keeps working: the dead endpoint's replicas come back
    // out of the requeue, fail again, and are requeued again — retried
    // forever (never double-freed, never silently leaked) rather than
    // wedging the sweeper.
    cluster.inner().lifecycle().run_blob(blob);
    let later = cluster.inner().lifecycle().stats();
    assert!(
        later.requeued_entries > stats.requeued_entries,
        "while the endpoint stays dead every pass must requeue, not drop"
    );
}

/// The eventual-reclaim half of the requeue story: deletes aimed at an
/// unavailable provider are journaled with the version manager and drained
/// by the first sweep after the provider returns — the leak the old
/// single-shot sweeper baked in is now a bounded delay.
#[test]
fn requeued_deletes_drain_once_the_provider_returns() {
    let config = ClusterConfig {
        io_timeout_ms: 300,
        chunk_cache_bytes: 0,
        retained_versions: 1,
        ..lifecycle_config(false)
    };
    let cluster = NetCluster::channel(
        Cluster::new(config).expect("cluster builds"),
        FaultPlan::none(),
    )
    .expect("cluster builds");
    let client = cluster.client();
    // Two replicas per chunk: reads survive the unavailable provider.
    let blob = client
        .create_blob(BlobConfig::new(CS, 2).expect("valid blob config"))
        .expect("blob creates");
    let mut model = Vec::new();
    for i in 0..8u64 {
        let data = pattern(CS as usize, i);
        client.append(blob, &data).expect("append succeeds");
        model.extend_from_slice(&data);
    }
    // Strand every chunk once: each overwrite retires its predecessor.
    for i in 0..8u64 {
        let patch = pattern(CS as usize, 100 + i);
        client.write(blob, i * CS, &patch).expect("write succeeds");
        model[(i * CS) as usize..((i + 1) * CS) as usize].copy_from_slice(&patch);
    }
    cluster
        .inner()
        .fail_provider(ProviderId(0))
        .expect("provider fails over a healthy wire");
    cluster.inner().lifecycle().run_blob(blob);
    let mid = cluster.inner().lifecycle().stats();
    assert!(
        mid.sweep_errors > 0,
        "deletes aimed at the unavailable provider must fail"
    );
    assert!(
        mid.requeued_entries > 0,
        "the failed replicas must be journaled for retry"
    );

    cluster
        .inner()
        .recover_provider(ProviderId(0))
        .expect("provider recovers");
    cluster.inner().lifecycle().run_blob(blob);
    let end = cluster.inner().lifecycle().stats();
    assert!(
        end.reclaimed_chunks > mid.reclaimed_chunks,
        "the requeued replicas must be reclaimed once the provider returns"
    );
    assert_eq!(
        end.requeued_entries, mid.requeued_entries,
        "a successful retry must drain the requeue, not grow it"
    );
    assert_eq!(
        end.sweep_errors, mid.sweep_errors,
        "retries against the recovered provider must succeed"
    );
    assert_eq!(
        client.read_all(blob, None).expect("final read succeeds"),
        model,
        "requeue and drain must never disturb retained data"
    );
}

/// The no-blocking story under load: a background lifecycle thread sweeping
/// every millisecond, an appender and an overwriter mutating the blob, and
/// readers hammering the latest snapshot — every read must return a
/// consistent prefix state, and the GC must demonstrably reclaim meanwhile.
///
/// A flatten can only start at a moment with no pending write, so both
/// writers pause for a couple of lifecycle ticks every few writes, and the
/// overwriter and readers keep going until the engine has flattened and
/// reclaimed at least once (or a generous deadline passes and the asserts
/// below report which one never happened).
#[test]
fn sweeper_never_blocks_concurrent_readers() {
    const APPENDS: u64 = 120;
    const TICK: Duration = Duration::from_millis(1);
    const PAUSE_EVERY: u64 = 4;
    let cluster = Arc::new(Cluster::new(lifecycle_config(false)).expect("cluster builds"));
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(CS, 1).expect("valid blob config"))
        .expect("blob creates");
    // Slot 0 always holds `patch`; appended slots hold pattern(CS, slot).
    // The overwriter rewrites slot 0 with the *same* bytes, so any published
    // snapshot's content is a pure function of its length — readers can
    // verify full consistency without synchronising with the writers.
    let patch = pattern(CS as usize, 9999);
    let expected = |len: usize| -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        for slot in 0..(len as u64).div_ceil(CS) {
            if slot == 0 {
                v.extend_from_slice(&patch);
            } else {
                v.extend_from_slice(&pattern(CS as usize, slot));
            }
        }
        v.truncate(len);
        v
    };
    client.append(blob, &patch).expect("seed append succeeds");

    cluster.lifecycle().start(TICK);
    let done = Arc::new(AtomicBool::new(false));

    let appender = {
        let client = cluster.client();
        std::thread::spawn(move || {
            for slot in 1..=APPENDS {
                client
                    .append(blob, pattern(CS as usize, slot))
                    .expect("append succeeds under concurrent GC");
                if slot % PAUSE_EVERY == 0 {
                    std::thread::sleep(2 * TICK);
                }
            }
        })
    };
    let overwriter = {
        let client = cluster.client();
        let done = Arc::clone(&done);
        let patch = patch.clone();
        std::thread::spawn(move || {
            let mut strands = 0u64;
            while !done.load(Ordering::Acquire) {
                // Identical bytes, fresh chunk id: every rewrite strands the
                // previous slot-0 chunk for the sweeper to reclaim live.
                client
                    .write(blob, 0, &patch)
                    .expect("overwrite succeeds under concurrent GC");
                strands += 1;
                if strands % PAUSE_EVERY == 0 {
                    std::thread::sleep(2 * TICK);
                }
            }
            strands
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let client = cluster.client();
            let done = Arc::clone(&done);
            let patch = patch.clone();
            std::thread::spawn(move || {
                let expected = |len: usize| -> Vec<u8> {
                    let mut v = Vec::with_capacity(len);
                    for slot in 0..(len as u64).div_ceil(CS) {
                        if slot == 0 {
                            v.extend_from_slice(&patch);
                        } else {
                            v.extend_from_slice(&pattern(CS as usize, slot));
                        }
                    }
                    v.truncate(len);
                    v
                };
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) {
                    let data = client
                        .read_all(blob, None)
                        .expect("a read must never fail because a sweep is running");
                    assert_eq!(
                        data,
                        expected(data.len()),
                        "a concurrent sweep tore an in-flight read"
                    );
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    appender.join().expect("appender survives");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = cluster.lifecycle().stats();
        if (stats.flattens > 0 && stats.reclaimed_chunks > 0)
            || std::time::Instant::now() >= deadline
        {
            break;
        }
        std::thread::sleep(TICK);
    }
    done.store(true, Ordering::Release);
    let strands = overwriter.join().expect("overwriter survives");
    let total_reads: u64 = readers
        .into_iter()
        .map(|r| r.join().expect("reader survives"))
        .sum();
    cluster.lifecycle().shutdown();

    assert!(total_reads > 0, "readers must have made progress");
    assert!(strands > 0, "the overwriter must have stranded chunks");
    let stats = cluster.lifecycle().stats();
    assert!(
        stats.reclaimed_chunks > 0,
        "the background sweeper must have reclaimed concurrently with the readers"
    );
    assert!(stats.flattens > 0, "the blob must have been flattened live");
    let final_read = cluster.client().read_all(blob, None).expect("final read");
    assert_eq!(final_read, expected(((APPENDS + 1) * CS) as usize));
}

/// Per-blob codec override (satellite of the lifecycle PR): a blob pinned
/// to `ChunkCodec::Fast` compresses its chunks even when the cluster
/// default is `Off`, a blob pinned to `Off` ships verbatim under a `Fast`
/// default, and both read back byte-identically either way.
#[test]
fn per_blob_codec_overrides_the_cluster_default() {
    let compressible = vec![42u8; 8 * CS as usize];
    for (cluster_codec, blob_codec) in [
        (ChunkCodec::Off, ChunkCodec::Fast),
        (ChunkCodec::Fast, ChunkCodec::Off),
    ] {
        let config = ClusterConfig {
            chunk_codec: cluster_codec,
            chunk_cache_bytes: 0,
            ..lifecycle_config(false)
        };
        let cluster = NetCluster::channel(
            Cluster::new(config).expect("cluster builds"),
            FaultPlan::none(),
        )
        .expect("cluster builds");

        // One client per blob so the compression counters are attributable.
        let default_client = cluster.client();
        let default_blob = default_client
            .create_blob(BlobConfig::new(CS, 1).expect("valid blob config"))
            .expect("blob creates");
        default_client
            .append(default_blob, &compressible)
            .expect("append succeeds");

        let pinned_client = cluster.client();
        let pinned_blob = pinned_client
            .create_blob(
                BlobConfig::new(CS, 1)
                    .expect("valid blob config")
                    .with_chunk_codec(blob_codec),
            )
            .expect("blob creates");
        pinned_client
            .append(pinned_blob, &compressible)
            .expect("append succeeds");

        let (fast_stats, off_stats) = match blob_codec {
            ChunkCodec::Fast => (pinned_client.stats(), default_client.stats()),
            ChunkCodec::Off => (default_client.stats(), pinned_client.stats()),
        };
        assert!(
            fast_stats.chunks_compressed > 0 && fast_stats.compress_saved_bytes > 0,
            "the Fast-codec blob must compress (cluster default {cluster_codec:?})"
        );
        assert_eq!(
            off_stats.chunks_compressed, 0,
            "the Off-codec blob must ship verbatim (cluster default {cluster_codec:?})"
        );
        assert!(
            fast_stats.bytes_on_wire_physical < off_stats.bytes_on_wire_physical,
            "compression must show up on the wire"
        );

        // The override changes the encoding, never the bytes.
        assert_eq!(
            default_client
                .read_all(default_blob, None)
                .expect("default blob reads"),
            compressible
        );
        assert_eq!(
            pinned_client
                .read_all(pinned_blob, None)
                .expect("pinned blob reads"),
            compressible
        );
    }
}
