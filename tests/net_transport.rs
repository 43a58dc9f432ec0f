//! Differential integration tests of the networked transports.
//!
//! The framed RPC protocol must be *observationally identical* to the
//! in-process service boundary: for any operation history, the in-process
//! cluster and the TCP loopback deployment (clean, and lossy with retries)
//! publish the same versions, serve byte-identical reads and account the
//! same `bytes_read` — with the client chunk cache on or off. On top of the
//! differential property, a fault matrix drives every fault kind
//! `NetCluster::tcp_with_faults` can inject against the production reactor,
//! and a zero-copy regression pins the no-flatten contract at the RPC
//! boundary.

use blobseer::core::{BlobClient, Cluster};
use blobseer::net::NetCluster;
use blobseer::types::{BlobConfig, BlobError, BlobId, ClusterConfig, FaultPlan, Version};
use proptest::prelude::*;

const CS: u64 = 256;

fn config(chunk_cache_bytes: u64) -> ClusterConfig {
    ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        chunk_cache_bytes,
        ..ClusterConfig::default()
    }
}

/// One random client operation over a two-blob namespace.
#[derive(Debug, Clone, Copy)]
enum HistOp {
    Append {
        blob: usize,
        len: u64,
    },
    Write {
        blob: usize,
        offset: u64,
        len: u64,
    },
    /// Read a prefix of some already-published version (picked by index so
    /// the choice is deterministic across stacks).
    Read {
        blob: usize,
        pick: usize,
    },
}

/// The raw tuple the (shrink-less, combinator-less) vendored proptest can
/// sample; [`decode_op`] maps it onto a [`HistOp`].
type RawOp = ((usize, usize), (u64, u64, usize));

fn op_strategy() -> impl Strategy<Value = RawOp> {
    (
        (0usize..3, 0usize..2),
        (0u64..6 * CS, 1u64..3 * CS, 0usize..16),
    )
}

fn decode_op(((kind, blob), (offset, len, pick)): RawOp) -> HistOp {
    match kind {
        0 => HistOp::Append { blob, len },
        1 => HistOp::Write { blob, offset, len },
        _ => HistOp::Read { blob, pick },
    }
}

/// Everything observable about one replay: per-blob version histories, the
/// full contents of every published version, and the client's read
/// accounting.
#[derive(Debug, PartialEq)]
struct Observation {
    versions: Vec<Vec<Version>>,
    contents: Vec<Vec<Vec<u8>>>,
    bytes_read: u64,
}

fn fill(len: u64, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

fn replay(client: &BlobClient, ops: &[HistOp]) -> Observation {
    let blobs = [
        client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap(),
        client.create_blob(BlobConfig::new(CS, 2).unwrap()).unwrap(),
    ];
    for (i, op) in ops.iter().enumerate() {
        let seed = (i + 1) as u8;
        match *op {
            HistOp::Append { blob, len } => {
                client.append(blobs[blob], fill(len, seed)).unwrap();
            }
            HistOp::Write { blob, offset, len } => {
                client.write(blobs[blob], offset, fill(len, seed)).unwrap();
            }
            HistOp::Read { blob, pick } => {
                let versions = client.published_versions(blobs[blob]).unwrap();
                let version = versions[pick % versions.len()];
                let size = client.size(blobs[blob], Some(version)).unwrap();
                let len = size / 2;
                if len > 0 {
                    client.read(blobs[blob], Some(version), 0, len).unwrap();
                }
            }
        }
    }
    let mut versions = Vec::new();
    let mut contents = Vec::new();
    for &blob in &blobs {
        let published = client.published_versions(blob).unwrap();
        contents.push(
            published
                .iter()
                .map(|&v| client.read_all(blob, Some(v)).unwrap())
                .collect(),
        );
        versions.push(published);
    }
    Observation {
        versions,
        contents,
        bytes_read: client.stats().bytes_read,
    }
}

/// A gently lossy plan every op must converge through (the RPC layer's
/// retries mask it).
fn mild_faults() -> FaultPlan {
    FaultPlan {
        seed: 42,
        drop: 0.02,
        duplicate: 0.05,
        truncate: 0.02,
        delay: 0.1,
        delay_us: 100,
        ..FaultPlan::none()
    }
}

fn lossy_config(chunk_cache_bytes: u64) -> ClusterConfig {
    ClusterConfig {
        io_timeout_ms: 200, // lost frames cost one timeout per retry; keep it quick
        ..config(chunk_cache_bytes)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// The transport differential: every stack observes the same histories.
    #[test]
    fn prop_transports_are_observationally_identical(
        raw_ops in proptest::collection::vec(op_strategy(), 1..8)
    ) {
        let ops: Vec<HistOp> = raw_ops.into_iter().map(decode_op).collect();
        for cache in [0u64, 1 << 20] {
            let reference = {
                let cluster = Cluster::new(config(cache)).unwrap();
                replay(&cluster.client(), &ops)
            };
            let tcp = {
                let cluster = NetCluster::tcp(Cluster::new(config(cache)).unwrap()).unwrap();
                replay(&cluster.client(), &ops)
            };
            prop_assert_eq!(&reference, &tcp, "tcp loopback diverged (cache={})", cache);
            let lossy = {
                let cluster =
                    NetCluster::tcp_with_faults(Cluster::new(lossy_config(cache)).unwrap(), mild_faults()).unwrap();
                replay(&cluster.client(), &ops)
            };
            prop_assert_eq!(
                &reference, &lossy,
                "lossy tcp with retries diverged (cache={})", cache
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-injection matrix
// ---------------------------------------------------------------------------

/// Runs a write/overwrite/read workload under one fault plan and asserts
/// full convergence: every op succeeds (masked by retries and replica
/// rotation), every published version stays readable and byte-correct.
fn converges_under(plan: FaultPlan) {
    let cluster =
        NetCluster::tcp_with_faults(Cluster::new(lossy_config(0)).unwrap(), plan).unwrap();
    converges(&cluster.client());
}

/// The workload of [`converges_under`] on `client`; returns the blob and
/// its latest contents.
fn converges(client: &BlobClient) -> (BlobId, Vec<u8>) {
    let blob = client.create_blob(BlobConfig::new(CS, 2).unwrap()).unwrap();
    let base = fill(16 * CS, 1);
    client.append(blob, &base).unwrap();
    let patch = fill(3 * CS + 17, 2);
    client.write(blob, 2 * CS + 9, &patch).unwrap();
    let mut expected = base.clone();
    expected[(2 * CS + 9) as usize..(2 * CS + 9) as usize + patch.len()].copy_from_slice(&patch);
    assert_eq!(client.read_all(blob, None).unwrap(), expected);
    assert_eq!(client.read_all(blob, Some(Version(1))).unwrap(), base);
    assert_eq!(
        client.published_versions(blob).unwrap(),
        vec![Version(0), Version(1), Version(2)],
        "no version may be torn or lost"
    );
    (blob, expected)
}

#[test]
fn dropped_frames_are_masked_by_retries() {
    converges_under(FaultPlan {
        seed: 7,
        drop: 0.05,
        ..FaultPlan::none()
    });
}

#[test]
fn truncated_frames_are_detected_and_retried() {
    // Every link and thread draws from one seeded generator, so the seed
    // does not fix which frames get cut: the rate alone must make a failed
    // run negligible. A call fails only when all 4 of its attempts
    // (`DEFAULT_RPC_RETRIES` + 1) lose the request or the response. At a
    // cut rate p one attempt fails with q = 1 - (1 - p)^2, a call with q^4.
    // At p = 0.01: q = 0.0199, q^4 = 1.6e-7, and the ~1 900 calls below
    // (~95 to converge, ~18 per 16-chunk read) fail a run with probability
    // ~3e-4. They send ~3 800 frames counting responses, so ~38 get cut;
    // fewer than 10 has probability below 1e-7.
    let cluster = NetCluster::tcp_with_faults(
        Cluster::new(lossy_config(0)).unwrap(),
        FaultPlan {
            seed: 8,
            truncate: 0.01,
            ..FaultPlan::none()
        },
    )
    .unwrap();
    let client = cluster.client();
    let (blob, latest) = converges(&client);
    for _ in 0..100 {
        assert_eq!(client.read_all(blob, None).unwrap(), latest);
    }
    let cut = cluster.fault_state().unwrap().truncated_frames();
    assert!(cut >= 10, "only {cut} frames were cut");
}

#[test]
fn duplicated_frames_are_idempotent() {
    converges_under(FaultPlan {
        seed: 9,
        duplicate: 0.4,
        ..FaultPlan::none()
    });
}

#[test]
fn mid_stream_disconnects_reconnect_and_converge() {
    converges_under(FaultPlan {
        seed: 10,
        disconnect: 0.04,
        ..FaultPlan::none()
    });
}

#[test]
fn stalled_frames_time_out_and_retry() {
    converges_under(FaultPlan {
        seed: 11,
        stall: 0.04,
        ..FaultPlan::none()
    });
}

#[test]
fn slow_endpoints_within_the_timeout_only_cost_time() {
    converges_under(FaultPlan {
        seed: 12,
        delay: 0.5,
        delay_us: 300,
        ..FaultPlan::none()
    });
}

#[test]
fn a_fully_hung_network_fails_operations_cleanly_within_bounded_time() {
    // Every frame is swallowed: `io_timeout` (threaded through both the RPC
    // waits and the transfer-pool joins) must fail the op — quickly, with a
    // retryable transport error, no deadlock, no torn version. The blob is
    // created over a healthy network first (with the version manager on the
    // wire, *nothing* succeeds at stall 1.0), then the plan is swapped to a
    // total stall under the append.
    let mut cfg = config(0);
    cfg.io_timeout_ms = 100;
    let cluster = NetCluster::tcp_with_faults(
        Cluster::new(cfg).unwrap(),
        FaultPlan {
            seed: 13,
            ..FaultPlan::none()
        },
    )
    .unwrap();
    let client = cluster.client();
    let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
    let faults = cluster.fault_state().unwrap();
    faults.set_plan(FaultPlan {
        seed: 13,
        stall: 1.0,
        ..FaultPlan::none()
    });
    let started = std::time::Instant::now();
    let err = client.append(blob, fill(4 * CS, 1)).unwrap_err();
    assert!(
        matches!(
            err,
            BlobError::Transport(_) | BlobError::InsufficientProviders { .. }
        ),
        "expected a clean retryable failure, got {err:?}"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "a hung network must fail ops, not wedge them"
    );
    // With the version manager on the wire, the total stall fails the
    // append at ticket assignment — before any version is claimed, so there
    // is nothing to repair (`failed_writes` counts post-claim failures).
    // No torn state once the network heals: whatever the append claimed
    // before failing was aborted/repaired, so the blob serves reads and
    // later writers are never blocked by the failure.
    faults.set_plan(FaultPlan::none());
    let published = client.published_versions(blob).unwrap();
    assert_eq!(published[0], Version(0));
    for version in published {
        let bytes = client.read_all(blob, Some(version)).unwrap();
        assert_eq!(
            bytes.len() as u64,
            client.size(blob, Some(version)).unwrap()
        );
    }
    let data = fill(2 * CS, 7);
    let healed = client.append(blob, &data).unwrap();
    let size = client.size(blob, Some(healed)).unwrap();
    assert_eq!(
        client
            .read(blob, Some(healed), size - 2 * CS, 2 * CS)
            .unwrap(),
        data,
        "a later writer reads back its bytes after the hung-network failure"
    );
}

// ---------------------------------------------------------------------------
// Zero-copy regression
// ---------------------------------------------------------------------------

#[test]
fn aligned_writes_over_loopback_copy_nothing_and_chunks_materialise_once() {
    // Chunks big enough that frame/metadata overhead is noise next to the
    // payload, so the wire byte counts below isolate payload movement.
    const BIG: u64 = 64 * 1024;
    let cluster = NetCluster::tcp(Cluster::new(config(0)).unwrap()).unwrap();
    let writer = cluster.client();
    let blob = writer
        .create_blob(BlobConfig::new(BIG, 1).unwrap())
        .unwrap();

    // Chunk-aligned, chunk-multiple append: every slot ships as a
    // refcounted sub-slice of the caller's buffer, through the vectored
    // frame writer, onto the socket — zero client-side payload copies.
    let chunks = 8u64;
    writer.append(blob, fill(chunks * BIG, 3)).unwrap();
    let wstats = writer.stats();
    assert_eq!(
        wstats.payload_bytes_copied, 0,
        "the RPC boundary silently reintroduced write-path copies"
    );
    assert!(wstats.frames_sent > 0);
    assert!(
        wstats.bytes_on_wire >= chunks * BIG,
        "the payload must actually have crossed the wire"
    );
    let wire_metrics = writer.transport_metrics().unwrap().snapshot();
    assert_eq!(
        wire_metrics.chunk_rx_payload_bytes, 0,
        "a writer fetches nothing"
    );

    // A fresh reader fetches every chunk exactly once: one receive-side
    // materialisation per chunk — the response frame's buffer — and no
    // other copy before the bytes land in the BlobSlice.
    let reader = cluster.client();
    let slice = reader.read_all_bytes(blob, None).unwrap();
    assert_eq!(slice.to_vec(), fill(chunks * BIG, 3));
    let rstats = reader.stats();
    assert_eq!(rstats.chunks_read, chunks);
    let rx = reader.transport_metrics().unwrap().snapshot();
    assert_eq!(
        rx.chunk_rx_payload_bytes,
        chunks * BIG,
        "each fetched chunk must materialise exactly once on receive"
    );
    // The payload crossed the reader's wire once (plus framing and the
    // metadata plane): well under twice the payload, so nothing was
    // flattened or double-buffered on the way.
    assert!(rx.bytes_on_wire >= chunks * BIG);
    assert!(
        rx.bytes_on_wire < 2 * chunks * BIG,
        "read-path wire traffic {} suggests an extra payload copy",
        rx.bytes_on_wire
    );
    // Re-reading through the chunk cache adds no new materialisations.
    let cached_cluster = NetCluster::tcp(Cluster::new(config(4 << 20)).unwrap()).unwrap();
    let cached = cached_cluster.client();
    let blob2 = cached
        .create_blob(BlobConfig::new(BIG, 1).unwrap())
        .unwrap();
    cached.append(blob2, fill(chunks * BIG, 4)).unwrap();
    cached.read_all(blob2, None).unwrap();
    assert_eq!(
        cached
            .transport_metrics()
            .unwrap()
            .snapshot()
            .chunk_rx_payload_bytes,
        0,
        "write-through cache hits never touch the wire"
    );
}
