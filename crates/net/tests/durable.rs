//! Durable served deployments: `Cluster::open_durable` behind `NetCluster`
//! round trips.
//!
//! The persistence tier lives behind the store traits, so a networked
//! deployment gets durability for free — chunks written over the wire land
//! in append-only segment files, remote metadata mutations hit the
//! write-ahead log *before* the DHT (the `MetaHost` serves the WAL-wrapped
//! store), and reopening the same directory recovers every blob's last
//! complete version and serves it back over RPC.
//!
//! CI runs this file single-threaded (`--test-threads=1`): each test owns
//! an on-disk directory and a whole deployment.

use blobseer_core::{BlobClient, Cluster, VersionService, WriteKind};
use blobseer_net::{
    connect_remote, default_rpc_workers, NetCluster, NetVersionService, RemoteEndpoints,
    RpcEndpoint, TcpConnector,
};
use blobseer_types::{BlobConfig, BlobId, ClusterConfig, Result, TransportMetrics};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("blobseer-net-durable-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_durable(dir: &Path) -> Cluster {
    let config = ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        chunk_cache_bytes: 0,
        ..ClusterConfig::default()
    };
    Cluster::open_durable(config, dir).expect("durable cluster opens")
}

fn write_history(client: &BlobClient) -> (BlobId, Vec<u8>) {
    let blob = client
        .create_blob(BlobConfig::new(CS, 2).expect("valid blob config"))
        .expect("blob creates");
    let mut model = Vec::new();
    for i in 0..6u64 {
        let data = pattern(CS as usize, i);
        client.append(blob, &data).expect("append succeeds");
        model.extend_from_slice(&data);
    }
    let patch = pattern(CS as usize, 99);
    client
        .write(blob, 2 * CS, &patch)
        .expect("overwrite succeeds");
    model[(2 * CS) as usize..(3 * CS) as usize].copy_from_slice(&patch);
    (blob, model)
}

fn round_trip(serve: fn(Cluster) -> Result<NetCluster>, tag: &str) {
    let dir = temp_dir(tag);
    let (blob, model) = {
        let cluster = serve(open_durable(&dir)).expect("durable deployment serves");
        assert_eq!(cluster.inner().recovery_stats().recovered_blobs, 0);
        let out = write_history(&cluster.client());
        assert!(dir.join("meta.wal").exists(), "the WAL must exist on disk");
        out
    };
    // "Restart": a fresh deployment over the same directory recovers the
    // blob and serves it over the wire.
    let cluster = serve(open_durable(&dir)).expect("durable deployment reopens");
    let stats = cluster.inner().recovery_stats();
    assert_eq!(stats.recovered_blobs, 1, "the blob must be recovered");
    assert!(
        stats.recovered_chunks > 0,
        "chunk payloads must come back from the segment files"
    );
    assert!(
        stats.recovered_nodes > 0,
        "remote metadata mutations must have hit the WAL before the DHT"
    );
    assert_eq!(
        cluster
            .client()
            .read_all(blob, None)
            .expect("recovered blob reads over the wire"),
        model,
        "the recovered version must read byte-identically over RPC"
    );
    // New blobs never collide with recovered ids.
    let fresh = cluster
        .client()
        .create_blob(BlobConfig::new(CS, 2).expect("valid blob config"))
        .expect("blob creates after recovery");
    assert_ne!(fresh, blob);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_deployment_round_trips_through_restart() {
    round_trip(NetCluster::tcp, "tcp");
}

/// The serving cache is a write-through RAM tier in front of the disk:
/// `PUT`s fill it by reference (no copy), reads of recent writes hit it, and
/// a miss — every read of an old chunk after a restart — is answered from
/// the segment files without being inserted.
#[test]
fn the_serving_cache_fills_on_write_only() {
    const CHUNK: u64 = 64 << 10;
    const CHUNKS: u64 = 8;
    let dir = temp_dir("serving-cache");
    let serve = || {
        let config = ClusterConfig {
            data_providers: 4,
            metadata_providers: 2,
            shared_chunk_cache: true,
            ..ClusterConfig::default()
        };
        NetCluster::tcp(Cluster::open_durable(config, &dir).expect("durable cluster opens"))
            .expect("durable deployment serves")
    };
    // A client without a chunk cache of its own: only the chunk hosts can
    // touch the shared one.
    let connect = |cluster: &NetCluster| {
        let config = ClusterConfig {
            metadata_providers: 2,
            chunk_cache_bytes: 0,
            ..ClusterConfig::default()
        };
        let endpoints = RemoteEndpoints::from_pairs(&cluster.endpoint_addrs()).unwrap();
        connect_remote(&config, &endpoints).expect("client connects")
    };
    let cache_stats = |cluster: &NetCluster| cluster.inner().shared_chunk_cache().unwrap().stats();
    let data = pattern((CHUNKS * CHUNK) as usize, 7);
    let blob = {
        let cluster = serve();
        let client = connect(&cluster);
        let blob = client
            .create_blob(BlobConfig::new(CHUNK, 1).expect("valid blob config"))
            .expect("blob creates");
        client.append(blob, &data).expect("append succeeds");
        let written = cache_stats(&cluster);
        assert_eq!(written.insertions, CHUNKS, "{written:?}");
        assert_eq!(
            written.bytes_compacted, 0,
            "PUT payloads are cached by reference"
        );
        assert_eq!(client.read_all(blob, None).unwrap(), data);
        assert_eq!(client.read_all(blob, None).unwrap(), data);
        let read = cache_stats(&cluster);
        assert_eq!(read.hits, 2 * CHUNKS, "{read:?}");
        assert_eq!(read.misses, 0, "{read:?}");
        assert_eq!(read.insertions, CHUNKS, "reads insert nothing");
        blob
    };
    let cluster = serve();
    let client = connect(&cluster);
    assert_eq!(client.read_all(blob, None).unwrap(), data);
    let restarted = cache_stats(&cluster);
    assert_eq!(restarted.misses, CHUNKS, "{restarted:?}");
    assert_eq!(
        restarted.insertions, 0,
        "a miss is served from disk, not cached"
    );
    assert_eq!(restarted.entries, 0, "{restarted:?}");
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// More commits wait on one durable blob than the server has workers: each
/// holds a worker until the blob's first version settles, and the request
/// settling it arrives last, over the wire. It must still run — the pool
/// lends stand-in workers — and then every append is acknowledged.
#[test]
fn more_waiting_commits_than_workers_do_not_wedge_the_server() {
    let dir = temp_dir("waiting-commits");
    let cluster = NetCluster::tcp(open_durable(&dir)).expect("serves");
    let blob = cluster
        .client()
        .create_blob(BlobConfig::new(CS, 1).expect("valid blob config"))
        .expect("blob creates");
    let vm_addr = cluster
        .endpoint_addrs()
        .into_iter()
        .find(|(name, _)| name == "vm")
        .expect("a version-manager endpoint")
        .1;
    let held_writer = NetVersionService::new(RpcEndpoint::new(
        Arc::new(TcpConnector::new(vm_addr)),
        Some(Duration::from_secs(30)),
        Arc::new(TransportMetrics::new()),
    ));
    let held = held_writer
        .assign_ticket(blob, WriteKind::Append { len: CS })
        .expect("ticket");

    let writers = default_rpc_workers() + 1;
    let (done, acked) = mpsc::channel();
    for i in 0..writers {
        let client = cluster.client();
        let done = done.clone();
        std::thread::spawn(move || {
            let _ = done.send(client.append(blob, pattern(CS as usize, i as u64)));
        });
    }
    let vm = cluster.inner().version_manager();
    let deadline = Instant::now() + Duration::from_secs(30);
    while vm.pending_count(blob).unwrap() < writers + 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let every writer reach its commit, or queue behind the waiting ones.
    std::thread::sleep(Duration::from_millis(300));
    held_writer
        .abort_write(blob, held.version, None)
        .expect("the held version settles");
    for _ in 0..writers {
        acked
            .recv_timeout(Duration::from_secs(30))
            .expect("an append never acknowledged: the server's pool is wedged")
            .expect("append succeeds");
    }
    assert_eq!(
        vm.latest_snapshot(blob).unwrap().version.0,
        writers as u64 + 1
    );
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}
