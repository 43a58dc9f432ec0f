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

use blobseer_core::{BlobClient, Cluster};
use blobseer_net::NetCluster;
use blobseer_types::{BlobConfig, BlobId, ClusterConfig, FaultPlan, Result};
use std::path::{Path, PathBuf};

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
fn channel_deployment_round_trips_through_restart() {
    round_trip(
        |cluster| NetCluster::channel(cluster, FaultPlan::none()),
        "channel",
    );
}

#[test]
fn tcp_deployment_round_trips_through_restart() {
    round_trip(NetCluster::tcp, "tcp");
}
