//! Integration tests of the chunk compression tier.
//!
//! The codec must be *invisible*: for any operation history, a cluster with
//! `ChunkCodec::Fast` publishes the same versions and serves byte-identical
//! reads as one with the codec off — in-process and over real loopback TCP,
//! with the client chunk cache on or off, and across payloads the codec can
//! and cannot shrink. On top of the differential property: compressed
//! replicas must survive provider failures (the repair path re-reads the
//! stored envelope, it never re-codes), the shared node-local chunk cache
//! must let one client's fetch hit for another, and the batched client
//! must coalesce frames on the wire.

use blobseer::core::{BlobClient, Cluster};
use blobseer::net::NetCluster;
use blobseer::types::{BlobConfig, ChunkCodec, ClusterConfig, ProviderId};
use proptest::prelude::*;

const CS: u64 = 256;

fn config(codec: ChunkCodec, chunk_cache_bytes: u64) -> ClusterConfig {
    ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        chunk_codec: codec,
        chunk_cache_bytes,
        ..ClusterConfig::default()
    }
}

/// Deterministic payloads straddling the codec's interesting regimes: even
/// seeds produce highly compressible cycled text (rotated by the seed so
/// versions still differ), odd seeds produce xorshift noise the codec must
/// pass through verbatim.
fn fill(len: u64, seed: u8) -> Vec<u8> {
    if seed % 2 == 0 {
        const LINE: &[u8] = b"GET /chunk/0042 HTTP/1.1 200 OK length=65536 provider=3 \n";
        LINE.iter()
            .copied()
            .cycle()
            .skip(seed as usize % LINE.len())
            .take(len as usize)
            .collect()
    } else {
        let mut x = u64::from(seed) << 32 | 0x9e37_79b9;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }
}

/// One random client operation: `((kind, offset_slots), (len, seed))` —
/// nested pairs because the vendored proptest only implements `Strategy`
/// for 2- and 3-tuples.
type RawOp = ((usize, u64), (u64, u8));

/// Replays a history on a fresh blob and returns the contents of every
/// published version — the observation the codec must leave unchanged.
fn replay(client: &BlobClient, ops: &[RawOp]) -> Vec<Vec<u8>> {
    let blob = client.create_blob(BlobConfig::new(CS, 2).unwrap()).unwrap();
    for &((kind, offset_slots), (len, seed)) in ops {
        let data = fill(len, seed);
        match kind {
            0 => client.append(blob, data).unwrap(),
            _ => client
                .write(blob, offset_slots * CS + u64::from(seed) % 13, data)
                .unwrap(),
        };
    }
    let versions = client.published_versions(blob).unwrap();
    versions
        .iter()
        .map(|&v| client.read_all(blob, Some(v)).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The codec differential: `Fast` and `Off` are observationally
    /// identical for any history, in-process and over loopback TCP, cache
    /// on or off, on compressible and incompressible payloads alike.
    #[test]
    fn prop_codec_off_and_fast_read_identically(
        ops in proptest::collection::vec(
            ((0usize..2, 0u64..8), (1u64..4 * CS, 0u8..255)), 1..6
        )
    ) {
        for cache in [0u64, 4 * CS] {
            let reference = {
                let cluster = Cluster::new(config(ChunkCodec::Off, cache)).unwrap();
                replay(&cluster.client(), &ops)
            };
            let fast = {
                let cluster = Cluster::new(config(ChunkCodec::Fast, cache)).unwrap();
                replay(&cluster.client(), &ops)
            };
            prop_assert_eq!(&reference, &fast, "in-process fast diverged (cache={})", cache);
            let fast_tcp = {
                let cluster = NetCluster::tcp(Cluster::new(config(ChunkCodec::Fast, cache)).unwrap()).unwrap();
                replay(&cluster.client(), &ops)
            };
            prop_assert_eq!(&reference, &fast_tcp, "tcp fast diverged (cache={})", cache);
        }
    }
}

/// Replication repairs compressed chunks too: the failover read and the
/// degraded re-replication path hand the stored envelope around without
/// re-coding it, so killing providers under `Fast` must not cost a byte.
#[test]
fn compressed_replicas_survive_provider_failures() {
    let cluster = NetCluster::tcp(Cluster::new(config(ChunkCodec::Fast, 0)).unwrap()).unwrap();
    let client = cluster.client();
    let blob = client.create_blob(BlobConfig::new(CS, 2).unwrap()).unwrap();
    let payload = fill(64 * CS, 2); // compressible: the codec must engage
    client.append(blob, payload.clone()).unwrap();
    let stats = client.stats();
    assert!(
        stats.chunks_compressed > 0,
        "the compressible corpus must actually compress"
    );
    assert!(
        stats.bytes_on_wire_physical < stats.bytes_on_wire_logical,
        "compressed chunks must ship compressed"
    );

    // With replication 2 over 4 providers, any single failure leaves every
    // chunk a live compressed replica. Roll the failure across all four.
    for id in 0u32..4 {
        cluster.inner().fail_provider(ProviderId(id)).unwrap();
        let reader = cluster.client();
        assert_eq!(
            reader.read_all(blob, None).unwrap(),
            payload,
            "degraded read of compressed replicas diverged"
        );
        cluster.inner().recover_provider(ProviderId(id)).unwrap();
    }
}

/// The shared node-local chunk cache: chunks one client fetched (and
/// decompressed) serve another client's reads without touching the wire.
/// With `shared_chunk_cache` off, each client warms a private cache and the
/// second reader starts cold.
#[test]
fn shared_chunk_cache_serves_across_clients() {
    let hits_for_second_reader = |shared: bool| {
        let cluster = Cluster::new(ClusterConfig {
            shared_chunk_cache: shared,
            ..config(ChunkCodec::Fast, 16 * CS)
        })
        .unwrap();
        let writer = cluster.client();
        let blob = writer.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        // 64 chunks through a 16-chunk cache: the writer's write-through
        // entries for the head are long evicted by the time it finishes.
        let payload = fill(64 * CS, 4);
        writer.append(blob, payload.clone()).unwrap();

        let head = &payload[..(8 * CS) as usize];
        let first = cluster.client();
        assert_eq!(first.read(blob, None, 0, 8 * CS).unwrap(), head);
        assert!(first.stats().cache_misses > 0, "first reader must fetch");

        let second = cluster.client();
        assert_eq!(second.read(blob, None, 0, 8 * CS).unwrap(), head);
        second.stats().cache_hits
    };
    assert!(
        hits_for_second_reader(true) > 0,
        "with the shared cache, the first reader's fetches must hit for the second"
    );
    assert_eq!(
        hits_for_second_reader(false),
        0,
        "with private caches, the second reader starts cold"
    );
}

/// The batched client coalesces frames on real loopback TCP: a writer ships
/// each provider's chunks as one flush, a reader fetches each request
/// train as one flush, and a metadata batch (the tree update, a descent's
/// cache misses) is one frame that the serving DHT routes per owner — so
/// the whole read sends fewer frames than its tree has nodes plus chunks.
#[test]
fn metadata_descent_coalesces_frames_on_the_wire() {
    let cluster = NetCluster::tcp(Cluster::new(config(ChunkCodec::Off, 0)).unwrap()).unwrap();
    let writer = cluster.client();
    let blob = writer.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
    let payload = fill(64 * CS, 6);
    writer.append(blob, payload.clone()).unwrap();
    assert!(
        writer.stats().frames_coalesced > 0,
        "the writer's chunk puts must share flushes"
    );

    let reader = cluster.client();
    assert_eq!(reader.read_all(blob, None).unwrap(), payload);
    let stats = reader.stats();
    assert!(
        stats.frames_coalesced > 0,
        "the reader's chunk trains must share flushes"
    );
    // 64 leaves mean a 127-node tree plus 64 chunk fetches; without
    // coalescing every one would be its own flush. The batched descent
    // must flush strictly fewer times than it sends frames.
    let flushes = stats.frames_sent - stats.frames_coalesced;
    assert!(
        flushes < stats.frames_sent,
        "coalescing must reduce flushes below one-per-frame"
    );
    assert!(
        stats.frames_sent < 127 + 64 + 16,
        "the descent should not send more frames than nodes + chunks (+ slack): {}",
        stats.frames_sent
    );
}
