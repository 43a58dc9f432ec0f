//! Integration tests of the pipelined transfer scheduler: a model-based
//! differential against a flat byte-vector oracle on a real in-process
//! cluster, and liveness when a metadata shard fails while chunk
//! submissions are in flight.

use blobseer::core::Cluster;
use blobseer::types::{BlobConfig, ClusterConfig, MetaNodeId, Version};
use proptest::prelude::*;

const CS: u64 = 512;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// For any history of unaligned writes the cluster behaves like a flat
    /// `Vec<u8>` that zero-fills past its end and keeps one copy per
    /// version: versions are dense, and every published snapshot reads
    /// byte-identically to the oracle's retained copy.
    #[test]
    fn prop_write_history_matches_a_flat_byte_vector_model(
        ops in proptest::collection::vec((0u64..24, 1u64..6, 1u8..255), 1..8)
    ) {
        let cluster = Cluster::new(ClusterConfig {
            data_providers: 8,
            metadata_providers: 4,
            ..ClusterConfig::default()
        })
        .unwrap();
        let client = cluster.client();
        let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
        // Version 0 is the empty blob.
        let mut model: Vec<Vec<u8>> = vec![Vec::new()];
        for &(slot, len_slots, seed) in &ops {
            // Deliberately unaligned offsets and lengths: boundary-chunk
            // merging runs inside the pipelined write path too.
            let len = len_slots * CS + u64::from(seed) % CS;
            let offset = (slot * CS + u64::from(seed) % 7) as usize;
            let data: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
                .collect();
            let version = client.write(blob, offset as u64, &data).unwrap();
            let mut next = model.last().unwrap().clone();
            next.resize(next.len().max(offset + data.len()), 0);
            next[offset..offset + data.len()].copy_from_slice(&data);
            model.push(next);
            prop_assert_eq!(version, Version(model.len() as u64 - 1));
        }
        let versions = client.published_versions(blob).unwrap();
        let dense: Vec<Version> = (0..model.len() as u64).map(Version).collect();
        prop_assert_eq!(&versions, &dense);
        for (version, expected) in versions.iter().zip(&model) {
            prop_assert_eq!(&client.read_all(blob, Some(*version)).unwrap(), expected);
        }
    }
}

#[test]
fn failing_metadata_shard_does_not_deadlock_inflight_submissions() {
    // No client-side cache, so the descent really revisits the failed shard.
    let cluster = Cluster::new(ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        pipeline_depth: 4,
        client_metadata_cache: false,
        ..ClusterConfig::default()
    })
    .unwrap();
    let client = cluster.client();
    let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
    let data: Vec<u8> = (0..16 * CS).map(|i| i as u8).collect();
    client.append(blob, &data).unwrap();
    assert_eq!(client.read_all(blob, None).unwrap(), data);

    // Kill one of the two metadata shards: the next pipelined read hits
    // missing metadata mid-descent while chunk fetches for earlier levels
    // are already submitted. The read must return an error — not hang on
    // dangling completions — and the shared pool must keep serving.
    cluster.fail_metadata_node(MetaNodeId(0)).unwrap();
    assert!(client.read_all(blob, None).is_err());
    assert!(
        client.read_all(blob, None).is_err(),
        "still live, still failing"
    );

    // Writes from another client keep flowing through the same transfer
    // pool once the shard recovers, and the blob is intact.
    cluster.recover_metadata_node(MetaNodeId(0)).unwrap();
    assert_eq!(client.read_all(blob, None).unwrap(), data);
    let other = cluster.client();
    other.append(blob, &data).unwrap();
    assert_eq!(other.size(blob, None).unwrap(), 32 * CS);
}

#[test]
fn pipelined_reads_spread_over_replicas() {
    // One chunk replicated on two providers: with start-index rotation both
    // replicas serve reads; probing stored order would pin all load on the
    // first replica. Cache off — rotation is only observable on reads that
    // actually reach the providers.
    let cluster = Cluster::new(ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        chunk_cache_bytes: 0,
        ..ClusterConfig::default()
    })
    .unwrap();
    let client = cluster.client();
    let blob = client.create_blob(BlobConfig::new(CS, 2).unwrap()).unwrap();
    client.append(blob, vec![7u8; CS as usize]).unwrap();
    for _ in 0..32 {
        client.read_all(blob, None).unwrap();
    }
    let serving: Vec<_> = cluster
        .providers()
        .iter()
        .filter(|p| p.stats().reads > 0)
        .map(|p| p.id())
        .collect();
    assert!(
        serving.len() >= 2,
        "reads must rotate over both replicas, got {serving:?}"
    );
}
