//! Request trains on the read path, over real loopback TCP.
//!
//! A read groups each tree level's uncached chunks by the replica its
//! rotated probe tries first and fetches each group with one
//! `ChunkService::get_chunks` — one flush of frames per provider, the read
//! twin of the write path's per-provider `put_chunks`. These tests pin the
//! shape down with counters, and check that a chunk its train could not
//! deliver — its first replica lacks it, is dead, or hangs — still reads
//! back byte-identical from its other replica.

use blobseer::meta::collect_leaves;
use blobseer::net::{connect_remote, NetCluster, RemoteEndpoints};
use blobseer::types::{BlobConfig, BlobId, ByteRange, ClusterConfig, ProviderId};
use std::net::TcpListener;
use std::time::{Duration, Instant};

const CHUNK: u64 = 64 * 1024;

fn config() -> ClusterConfig {
    ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        chunk_cache_bytes: 0,
        client_metadata_cache: false,
        ..ClusterConfig::default()
    }
}

fn fill(len: u64, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed))
        .collect()
}

/// A cluster holding one blob of `chunks` whole chunks at `replication`.
fn written(chunks: u64, replication: usize) -> (NetCluster, BlobId, Vec<u8>) {
    let cluster = NetCluster::new_tcp(config()).unwrap();
    let writer = cluster.client();
    let blob = writer
        .create_blob(BlobConfig::new(CHUNK, replication).unwrap())
        .unwrap();
    let data = fill(chunks * CHUNK, 7);
    writer.append(blob, data.clone()).unwrap();
    (cluster, blob, data)
}

#[test]
fn a_cold_read_ships_one_request_train_per_provider() {
    // 2 MiB = 32 chunks striped round-robin over 4 providers, one replica
    // each: the read's single leaf level forms 4 trains of 8 chunks.
    let (cluster, blob, data) = written(32, 1);
    let reader = cluster.client();
    let before = reader.stats();
    let rx_before = reader.transport_metrics().unwrap().snapshot();
    let slice = reader.read_all_bytes(blob, None).unwrap();
    assert_eq!(slice.to_vec(), data);

    let after = reader.stats();
    let rx_after = reader.transport_metrics().unwrap().snapshot();
    // Each train of 8 leaves in one flush: 7 frames ride along with the
    // first, 4 × 7 = 28. Metadata batches may coalesce a few more.
    assert!(
        after.frames_coalesced - before.frames_coalesced >= 28,
        "coalesced {} → {}",
        before.frames_coalesced,
        after.frames_coalesced
    );
    assert_eq!(after.chunks_read - before.chunks_read, 32);
    assert_eq!(
        rx_after.chunk_rx_payload_bytes - rx_before.chunk_rx_payload_bytes,
        32 * CHUNK,
        "each chunk materialises exactly once on receive"
    );
    assert_eq!(after.payload_bytes_copied, 0);
}

#[test]
fn chunks_missing_from_their_first_replica_fall_back_inside_a_train() {
    let (cluster, blob, data) = written(32, 2);
    // Delete every chunk's copy on the first replica its leaf names. The
    // rotated probe starts there for half of the chunks, so half of every
    // train answers `ChunkNotFound` and must probe the other replica alone.
    let inner = cluster.inner();
    let snapshot = inner.version_manager().latest_snapshot(blob).unwrap();
    let leaves = collect_leaves(
        inner.metadata_service().as_ref(),
        blob,
        &snapshot,
        ByteRange::new(0, snapshot.size),
    )
    .unwrap();
    assert_eq!(leaves.len(), 32);
    for mapping in &leaves {
        let leaf = mapping.leaf.as_ref().unwrap();
        let provider = inner.provider(leaf.providers[0]).unwrap();
        assert!(provider.remove_chunks(&[leaf.chunk]).unwrap() > 0);
    }

    let reader = cluster.client();
    for _ in 0..3 {
        assert_eq!(reader.read_all(blob, None).unwrap(), data);
    }
    assert_eq!(reader.stats().chunks_read, 3 * 32);
    assert_eq!(
        reader
            .transport_metrics()
            .unwrap()
            .snapshot()
            .chunk_rx_payload_bytes,
        3 * 32 * CHUNK,
        "a missed probe materialises nothing"
    );
    assert_eq!(reader.stats().payload_bytes_copied, 0);
}

#[test]
fn a_killed_provider_endpoint_fails_its_trains_over_to_the_other_replicas() {
    let (cluster, blob, data) = written(32, 2);
    let reader = cluster.client();
    assert_eq!(reader.read_all(blob, None).unwrap(), data);
    // The provider process dies: its trains fail at the transport and every
    // chunk they carried is fetched from its surviving replica.
    cluster.stop_provider_endpoint(ProviderId(1)).unwrap();
    for _ in 0..3 {
        assert_eq!(reader.read_all(blob, None).unwrap(), data);
    }
    assert_eq!(reader.stats().chunks_read, 4 * 32);
    assert_eq!(reader.stats().payload_bytes_copied, 0);
}

#[test]
fn a_hung_provider_fails_its_trains_over_within_the_join_bound() {
    let io_timeout_ms = 300;
    let config = ClusterConfig {
        io_timeout_ms,
        ..config()
    };
    let cluster = NetCluster::new_tcp(config.clone()).unwrap();
    let writer = cluster.client();
    let blob = writer
        .create_blob(BlobConfig::new(CHUNK, 2).unwrap())
        .unwrap();
    let data = fill(32 * CHUNK, 3);
    writer.append(blob, data.clone()).unwrap();

    // Point provider 1 at a socket that completes the TCP handshake (the
    // kernel's accept backlog) but never answers a frame: every request
    // sent there waits out the full `io_timeout`.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut endpoints = RemoteEndpoints::from_pairs(&cluster.endpoint_addrs()).unwrap();
    for (id, addr) in &mut endpoints.providers {
        if *id == ProviderId(1) {
            *addr = silent.local_addr().unwrap();
        }
    }
    let reader = connect_remote(&config, &endpoints).unwrap();

    // Each read sends provider 1 a train of about eight chunks. The train
    // gives up on the provider after one chunk's retry budget, not one per
    // chunk, and its chunks move on to their other replica — well inside
    // the transfer pool's join bound of 8 × `io_timeout`, past which the
    // read would fail.
    let bound = Duration::from_millis(8 * io_timeout_ms);
    for _ in 0..2 {
        let started = Instant::now();
        assert_eq!(reader.read_all(blob, None).unwrap(), data);
        assert!(
            started.elapsed() < bound,
            "read took {:?}",
            started.elapsed()
        );
    }
    assert_eq!(reader.stats().chunks_read, 2 * 32);
}
