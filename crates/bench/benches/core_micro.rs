//! Micro-benchmarks of the core data structures: segment-tree weaving and
//! reading, DHT routing, the RAM and segment chunk stores, and the
//! end-to-end client write/read path on an in-process cluster.

use blobseer_core::Cluster;
use blobseer_dht::Dht;
use blobseer_meta::{
    build_write_metadata, collect_leaves, publish_metadata, InMemoryMetaStore, SnapshotDescriptor,
    WrittenChunk,
};
use blobseer_persist::{scan, Crc32, SegmentStore, SegmentStoreOptions};
use blobseer_provider::{ChunkStore, RamStore};
use blobseer_types::{
    BlobConfig, BlobId, ByteRange, ChunkId, ClusterConfig, Durability, ProviderId, Version,
};
use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::Arc;
use std::time::Duration;

fn bench_segment_tree_weave(c: &mut Criterion) {
    // A 4096-chunk blob; measure weaving a single-chunk overwrite.
    let store = InMemoryMetaStore::new();
    let blob = BlobId(1);
    let chunk_size = 1 << 20;
    let chunks: Vec<WrittenChunk> = (0..4096)
        .map(|slot| WrittenChunk {
            slot,
            chunk: ChunkId {
                blob,
                write_tag: 1,
                slot,
            },
            providers: vec![ProviderId((slot % 64) as u32)],
            len: chunk_size,
        })
        .collect();
    let base = build_write_metadata(
        &store,
        blob,
        &SnapshotDescriptor::initial(chunk_size),
        Version(1),
        4096 * chunk_size,
        &chunks,
    )
    .unwrap();
    let base = {
        let descriptor = base.descriptor;
        publish_metadata(&store, base).unwrap();
        descriptor
    };

    c.bench_function("segment_tree_single_chunk_weave", |b| {
        b.iter(|| {
            build_write_metadata(
                &store,
                blob,
                &base,
                Version(2),
                base.size,
                &[WrittenChunk {
                    slot: 1234,
                    chunk: ChunkId {
                        blob,
                        write_tag: 2,
                        slot: 1234,
                    },
                    providers: vec![ProviderId(0)],
                    len: chunk_size,
                }],
            )
            .unwrap()
        })
    });

    c.bench_function("segment_tree_read_descent_64_chunks", |b| {
        b.iter(|| {
            collect_leaves(
                &store,
                blob,
                &base,
                ByteRange::new(1000 * chunk_size, 64 * chunk_size),
            )
            .unwrap()
        })
    });
}

fn bench_dht_routing_and_puts(c: &mut Criterion) {
    let dht: Dht<u64, u64> = Dht::new(16, 64, 2).unwrap();
    c.bench_function("dht_route", |b| {
        let mut key = 0u64;
        b.iter(|| {
            key = key.wrapping_add(1);
            dht.route(&key)
        })
    });
    c.bench_function("dht_put_get", |b| {
        let mut key = 1u64 << 32;
        b.iter(|| {
            key = key.wrapping_add(1);
            dht.put(key, key).unwrap();
            dht.get(&key).unwrap()
        })
    });
}

fn bench_ram_store(c: &mut Criterion) {
    let store = RamStore::unbounded();
    let payload = Bytes::from(vec![7u8; 64 << 10]);
    c.bench_function("ram_store_put_get_64k", |b| {
        let mut slot = 0u64;
        b.iter(|| {
            slot += 1;
            let id = ChunkId {
                blob: BlobId(1),
                write_tag: 3,
                slot,
            };
            store.put(id, payload.clone().into()).unwrap();
            store.get(&id).unwrap()
        })
    });
}

/// One positioned read of a 64 KiB chunk record — what every uncached
/// durable `GET_CHUNK` pays — from a store as appended, from the same
/// store reopened (its index rebuilt by recovery, its files reopened), and,
/// as the floor both are measured against, the same bytes of the same file
/// read with a bare `read_exact_at` into a fresh buffer.
fn bench_segment_store(c: &mut Criterion) {
    const CHUNKS: u64 = 256;
    let dir = std::env::temp_dir().join(format!("blobseer-micro-segments-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let id = |slot| ChunkId {
        blob: BlobId(1),
        write_tag: 3,
        slot,
    };
    let read_all = |c: &mut Criterion, name: &str, store: &SegmentStore| {
        c.bench_function(name, |b| {
            let mut slot = 0u64;
            b.iter(|| {
                slot = (slot + 1) % CHUNKS;
                store.get(&id(slot)).unwrap().unwrap()
            })
        });
    };
    let payload = Bytes::from(vec![7u8; 64 << 10]);
    {
        let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
        for slot in 0..CHUNKS {
            store.put(id(slot), payload.clone().into()).unwrap();
        }
        read_all(c, "segment_store_get_64k", &store);
    }
    let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
    read_all(c, "segment_store_get_64k_reopened", &store);
    drop(store);
    // The chunk bytes end each record's payload; the store reads exactly
    // those.
    let path = dir.join("seg-000001.log");
    let chunks: Vec<u64> = scan(&std::fs::read(&path).unwrap())
        .records
        .iter()
        .map(|record| (record.payload.end - payload.len()) as u64)
        .collect();
    assert_eq!(chunks.len() as u64, CHUNKS);
    let file = Arc::new(File::open(&path).unwrap());
    c.bench_function("segment_file_read_exact_at_64k", |b| {
        let mut slot = 0usize;
        b.iter(|| {
            slot = (slot + 1) % chunks.len();
            let mut buf = vec![0; payload.len()];
            file.read_exact_at(&mut buf, chunks[slot]).unwrap();
            Bytes::from(buf)
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable commit's chunk side: eight 64 KiB puts into a fresh
/// `Durability::Commit` store on a real file, then the store's fsync, timed
/// as one unit. Early writeback shows here: the fsync finds most of the
/// pages already on their way to disk.
fn bench_segment_store_commit(c: &mut Criterion) {
    let root = std::env::temp_dir().join(format!("blobseer-micro-commit-{}", std::process::id()));
    let payload = Bytes::from(vec![7u8; 64 << 10]);
    let mut round = 0u64;
    c.bench_function("segment_store_commit_512k", |b| {
        b.iter_batched(
            || {
                // A fresh store per round, so the disk holds one round.
                let _ = std::fs::remove_dir_all(&root);
                round += 1;
                let opts = SegmentStoreOptions {
                    durability: Durability::Commit,
                    ..SegmentStoreOptions::default()
                };
                SegmentStore::open(root.join(round.to_string()), opts).unwrap()
            },
            |store| {
                for slot in 0..8 {
                    let id = ChunkId {
                        blob: BlobId(1),
                        write_tag: 3,
                        slot,
                    };
                    store.put(id, payload.clone().into()).unwrap();
                }
                store.sync().unwrap();
                store
            },
            BatchSize::SmallInput,
        )
    });
    let _ = std::fs::remove_dir_all(&root);
}

/// The record CRC over 64 KiB: the dispatched path (carry-less multiply
/// where the CPU has it) and the slicing-by-16 tables it falls back to.
fn bench_record_crc(c: &mut Criterion) {
    let data = vec![0x5Au8; 64 << 10];
    c.bench_function("record_crc_64k", |b| {
        b.iter(|| Crc32::new().update(black_box(&data)).finalize())
    });
    c.bench_function("record_crc_64k_tables", |b| {
        b.iter(|| Crc32::new().update_with_tables(black_box(&data)).finalize())
    });
}

fn bench_client_roundtrip(c: &mut Criterion) {
    let cluster = Cluster::new(ClusterConfig {
        data_providers: 8,
        metadata_providers: 4,
        ..ClusterConfig::default()
    })
    .unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(64 << 10, 1).unwrap())
        .unwrap();
    let payload = vec![42u8; 256 << 10];
    c.bench_function("client_append_256k", |b| {
        b.iter_batched(
            || payload.clone(),
            |data| client.append(blob, &data).unwrap(),
            BatchSize::SmallInput,
        )
    });
    client.append(blob, &payload).unwrap();
    c.bench_function("client_read_256k", |b| {
        b.iter(|| client.read(blob, None, 0, 256 << 10).unwrap())
    });
}

/// The zero-copy write fast path: a chunk-aligned append of an already
/// shared `Bytes` buffer ships every slot as a reference-count bump. The
/// bench asserts (not just times) that the fast path copies nothing.
fn bench_zero_copy_write_path(c: &mut Criterion) {
    let cluster = Cluster::new(ClusterConfig {
        data_providers: 8,
        metadata_providers: 4,
        ..ClusterConfig::default()
    })
    .unwrap();
    let client = cluster.client();
    let blob = client
        .create_blob(BlobConfig::new(64 << 10, 1).unwrap())
        .unwrap();
    let payload = Bytes::from(vec![42u8; 256 << 10]);
    c.bench_function("client_append_256k_aligned_bytes_zero_copy", |b| {
        b.iter(|| client.append(blob, payload.clone()).unwrap())
    });
    assert_eq!(
        client.stats().payload_bytes_copied,
        0,
        "the aligned fast path must not copy"
    );
    c.bench_function("client_write_256k_unaligned_boundary_merge", |b| {
        b.iter(|| client.write(blob, 7, payload.clone()).unwrap())
    });
    assert!(client.stats().payload_bytes_copied > 0);
}

/// Cold versus cached reads of one published region: the cached client
/// serves every chunk from its chunk cache after the first scan.
fn bench_cold_vs_cached_reads(c: &mut Criterion) {
    let make = |cache_bytes: u64| {
        let cluster = Cluster::new(ClusterConfig {
            data_providers: 8,
            metadata_providers: 4,
            chunk_cache_bytes: cache_bytes,
            ..ClusterConfig::default()
        })
        .unwrap();
        let client = cluster.client();
        let blob = client
            .create_blob(BlobConfig::new(64 << 10, 1).unwrap())
            .unwrap();
        client.append(blob, vec![7u8; 1 << 20]).unwrap();
        (cluster, client, blob)
    };
    let (_cold_cluster, cold, cold_blob) = make(0);
    c.bench_function("client_read_1m_cold", |b| {
        b.iter(|| cold.read_bytes(cold_blob, None, 0, 1 << 20).unwrap())
    });
    let (_cached_cluster, cached, cached_blob) = make(64 << 20);
    c.bench_function("client_read_1m_cached", |b| {
        b.iter(|| cached.read_bytes(cached_blob, None, 0, 1 << 20).unwrap())
    });
    assert!(cached.stats().cache_hits > 0);
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = bench_segment_tree_weave, bench_dht_routing_and_puts, bench_ram_store, bench_segment_store, bench_segment_store_commit, bench_record_crc, bench_client_roundtrip, bench_zero_copy_write_path, bench_cold_vs_cached_reads
}
criterion_main!(micro);
