//! Per-layer probes: each layer of the program timed from outside, through
//! its public functions, on inputs shaped like the workload's own (its
//! chunks, a tree of its blob's size, the batches its appends and reads
//! produce). They run in a traced pass, after the workload, on an idle
//! machine — so they say what a layer costs by itself, not how it fares
//! under the workload's contention; the trace says the latter.

use crate::daemon::RunDir;
use crate::payload::{Payload, Rng, CHUNK};
use crate::stats::median;
use crate::workloads::Workload;
use blobseer_core::{ChunkCache, TransferPool, VersionManager, WriteKind};
use blobseer_dht::Dht;
use blobseer_meta::{
    build_write_metadata, collect_leaves, publish_metadata, InMemoryMetaStore, MetadataStore,
    NodeBody, NodeKey, SnapshotDescriptor, WrittenChunk,
};
use blobseer_net::{tcp_listener, Frame, Reactor, RpcEndpoint, RpcHandler, RpcServer, WorkerPool};
use blobseer_persist::{MetaWal, SegmentStore, SegmentStoreOptions};
use blobseer_provider::{ChunkStore, RamStore};
use blobseer_types::{
    BlobConfig, BlobId, ByteRange, ChunkCodec, ChunkEnvelope, ChunkId, Durability, ProviderId,
    Result, TransportMetrics, Version,
};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const MIB: u64 = 1 << 20;
const OP_CHUNKS: u64 = 32;
const OP_BYTES: u64 = OP_CHUNKS * CHUNK as u64;
/// Time each probe may take.
const BUDGET: Duration = Duration::from_millis(150);

/// Median nanoseconds of one call of `f`, timing batches of `batch` calls
/// for [`BUDGET`] (at least five batches, after one to warm up).
fn time_ns(batch: u32, mut f: impl FnMut()) -> f64 {
    let run = |f: &mut dyn FnMut()| {
        let started = Instant::now();
        for _ in 0..batch {
            f();
        }
        started.elapsed().as_nanos() as f64 / f64::from(batch)
    };
    run(&mut f);
    let deadline = Instant::now() + BUDGET;
    let mut samples = Vec::new();
    while samples.len() < 5 || Instant::now() < deadline {
        samples.push(run(&mut f));
    }
    median(&samples)
}

fn chunk_id(n: u64) -> ChunkId {
    ChunkId {
        blob: BlobId(1),
        write_tag: 0xE2E,
        slot: n,
    }
}

/// Blob size the metadata probes build their tree for.
fn nominal_blob_bytes(workload: Workload, smoke: bool) -> u64 {
    // What the appenders add in a ten-second window at seed speed.
    let appended = if smoke { 32 * MIB } else { 1024 * MIB };
    match workload {
        Workload::BulkAppend => appended,
        Workload::ReadUnderAppend => workload.preload_bytes(smoke) + appended,
        _ => workload.preload_bytes(smoke),
    }
}

fn codec(payload: &Payload, out: &mut BTreeMap<&'static str, f64>) {
    let chunks: Vec<Bytes> = (0..OP_CHUNKS).map(|i| payload.make(1, i, 1)).collect();
    let mib = OP_BYTES as f64 / MIB as f64;
    let seal_ns = time_ns(1, || {
        for chunk in &chunks {
            black_box(blobseer_codec::seal(ChunkCodec::Fast, chunk.clone()));
        }
    });
    let sealed: Vec<ChunkEnvelope> = chunks
        .iter()
        .map(|c| blobseer_codec::seal(ChunkCodec::Fast, c.clone()))
        .collect();
    let open_ns = time_ns(1, || {
        for envelope in &sealed {
            black_box(blobseer_codec::open(envelope).expect("sealed here"));
        }
    });
    let physical: usize = sealed.iter().map(|e| e.payload().len()).sum();
    out.insert("codec.seal_mibps", mib / (seal_ns / 1e9));
    out.insert("codec.open_mibps", mib / (open_ns / 1e9));
    out.insert("codec.ratio", OP_BYTES as f64 / physical as f64);
}

struct Echo;

impl RpcHandler for Echo {
    fn handle(&self, _opcode: u8, header: &[u8], payload: Bytes) -> Result<(Bytes, Bytes)> {
        Ok((Bytes::copy_from_slice(header), payload))
    }
}

fn net(
    payload: &Payload,
    out: &mut BTreeMap<&'static str, f64>,
) -> std::result::Result<(), String> {
    let header = Bytes::from(vec![7u8; 24]);
    for (encode, decode, body) in [
        (
            "net.frame_encode_empty_ns",
            "net.frame_decode_empty_ns",
            Bytes::new(),
        ),
        (
            "net.frame_encode_64k_ns",
            "net.frame_decode_64k_ns",
            payload.make(1, 0, 1),
        ),
    ] {
        let frame = Frame::new(42, 0x02, header.clone(), body);
        out.insert(
            encode,
            time_ns(64, || drop(black_box(frame.to_wire_bytes()))),
        );
        let wire = Bytes::from(frame.to_wire_bytes()).slice(4..);
        out.insert(
            decode,
            time_ns(64, || {
                black_box(Frame::decode_body(wire.clone()).expect("encoded here"));
            }),
        );
    }

    // An echo endpoint behind the production serving shape.
    let reactor = Reactor::new(WorkerPool::with_configured(0), None);
    let (connector, listener) = tcp_listener("127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut server = RpcServer::spawn_reactor(&reactor, listener, Arc::new(Echo));
    let endpoint = RpcEndpoint::new(
        connector,
        Some(Duration::from_secs(10)),
        Arc::new(TransportMetrics::new()),
    );
    let call_us = || {
        let started = Instant::now();
        let reply = endpoint.call(0x60, header.clone(), Bytes::new());
        let us = started.elapsed().as_secs_f64() * 1e6;
        reply.map(|_| us).map_err(|e| format!("echo rpc: {e}"))
    };
    call_us()?;
    let mut dense = Vec::new();
    let deadline = Instant::now() + BUDGET;
    while Instant::now() < deadline {
        dense.push(call_us()?);
    }
    // 12.5 ms apart, the arrival gap of the sparse phase of `small_ops`:
    // past the reactor's spin window, so every call finds it parked.
    let mut sparse = Vec::new();
    for _ in 0..40 {
        std::thread::sleep(Duration::from_micros(12_500));
        sparse.push(call_us()?);
    }
    drop(endpoint);
    server.stop();
    reactor.stop();
    out.insert("net.rpc_rtt_dense_us", median(&dense));
    out.insert("net.rpc_rtt_sparse_us", median(&sparse));
    Ok(())
}

/// A metadata store that counts the nodes crossing it and keeps the batches.
#[derive(Default)]
struct CountingStore {
    inner: InMemoryMetaStore,
    nodes_put: AtomicU64,
    nodes_got: AtomicU64,
    get_batches: Mutex<Vec<Vec<NodeKey>>>,
}

impl MetadataStore for CountingStore {
    fn put_node(&self, key: NodeKey, body: NodeBody) -> Result<()> {
        self.nodes_put.fetch_add(1, Ordering::Relaxed);
        self.inner.put_node(key, body)
    }
    fn get_node(&self, key: &NodeKey) -> Result<Option<NodeBody>> {
        self.get_nodes(std::slice::from_ref(key))
            .map(|mut nodes| nodes.pop().flatten())
    }
    fn get_nodes(&self, keys: &[NodeKey]) -> Result<Vec<Option<NodeBody>>> {
        self.nodes_got
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        self.get_batches
            .lock()
            .expect("probe is single-threaded")
            .push(keys.to_vec());
        self.inner.get_nodes(keys)
    }
    fn put_nodes(&self, nodes: Vec<(NodeKey, NodeBody)>) -> Result<()> {
        self.nodes_put
            .fetch_add(nodes.len() as u64, Ordering::Relaxed);
        self.inner.put_nodes(nodes)
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn snapshot_nodes(&self) -> Result<Vec<(NodeKey, NodeBody)>> {
        self.inner.snapshot_nodes()
    }
}

/// What the metadata probe hands to the DHT and WAL probes: the node
/// batches its last appends published and the key batches its descents
/// fetched.
struct MetaBatches {
    all_nodes: Vec<(NodeKey, NodeBody)>,
    put_batches: Vec<Vec<(NodeKey, NodeBody)>>,
    get_batches: Vec<Vec<NodeKey>>,
    descents: u64,
}

fn meta(
    blob_bytes: u64,
    seed: u64,
    out: &mut BTreeMap<&'static str, f64>,
) -> std::result::Result<MetaBatches, String> {
    let store = CountingStore::default();
    let blob = BlobId(1);
    let appends = blob_bytes / OP_BYTES;
    // The last appends onto the full-size blob are the timed ones.
    let timed = appends.min(64);
    let mut descriptor = SnapshotDescriptor::initial(CHUNK as u64);
    let mut weave_us = Vec::new();
    let mut put_batches = Vec::new();
    for n in 0..appends {
        let first_slot = n * OP_CHUNKS;
        let chunks: Vec<WrittenChunk> = (0..OP_CHUNKS)
            .map(|i| WrittenChunk {
                slot: first_slot + i,
                chunk: chunk_id(first_slot + i),
                providers: vec![ProviderId(((first_slot + i) % 4) as u32)],
                len: CHUNK as u64,
            })
            .collect();
        let started = Instant::now();
        let woven = build_write_metadata(
            &store,
            blob,
            &descriptor,
            Version(n + 1),
            descriptor.size + OP_BYTES,
            &chunks,
        )
        .map_err(|e| format!("weave: {e}"))?;
        if n >= appends - timed {
            weave_us.push(started.elapsed().as_secs_f64() * 1e6);
            put_batches.push(woven.nodes.clone());
        }
        descriptor = woven.descriptor;
        publish_metadata(&store, woven).map_err(|e| format!("publish: {e}"))?;
    }
    out.insert("meta.weave_us", median(&weave_us));
    out.insert(
        "meta.nodes_written_per_append",
        store.nodes_put.load(Ordering::Relaxed) as f64 / appends as f64,
    );

    // Descents of the two read sizes the workloads issue, at random offsets.
    let mut rng = Rng::new(seed ^ 0xDE5C);
    store.get_batches.lock().expect("single-threaded").clear();
    let mut descend = |len: u64, align: u64| -> std::result::Result<(f64, u64), String> {
        let mut us = Vec::new();
        let deadline = Instant::now() + BUDGET;
        while Instant::now() < deadline {
            let offset = rng.below((descriptor.size - len) / align + 1) * align;
            let started = Instant::now();
            let leaves = collect_leaves(&store, blob, &descriptor, ByteRange::new(offset, len))
                .map_err(|e| format!("descent: {e}"))?;
            us.push(started.elapsed().as_secs_f64() * 1e6);
            black_box(leaves);
        }
        Ok((median(&us), us.len() as u64))
    };
    let got_before = store.nodes_got.load(Ordering::Relaxed);
    let (descent_2m, descents) = descend(OP_BYTES, CHUNK as u64)?;
    let nodes_per_read =
        (store.nodes_got.load(Ordering::Relaxed) - got_before) as f64 / descents as f64;
    let get_batches = std::mem::take(&mut *store.get_batches.lock().expect("single-threaded"));
    let (descent_4k, _) = descend(4096, 4096)?;
    out.insert("meta.descent_2m_us", descent_2m);
    out.insert("meta.descent_4k_us", descent_4k);
    out.insert("meta.nodes_read_per_read", nodes_per_read);
    Ok(MetaBatches {
        all_nodes: store.snapshot_nodes().map_err(|e| e.to_string())?,
        put_batches,
        get_batches,
        descents,
    })
}

fn dht(
    batches: &MetaBatches,
    out: &mut BTreeMap<&'static str, f64>,
) -> std::result::Result<(), String> {
    // The daemon's metadata plane: 2 nodes, default virtual nodes, no
    // replication.
    let new_dht = || Dht::<NodeKey, NodeBody>::new(2, 64, 1).map_err(|e| e.to_string());
    let fresh = new_dht()?;
    let mut put_us = Vec::new();
    for batch in &batches.put_batches {
        let batch = batch.clone();
        let started = Instant::now();
        fresh
            .put_batch(batch)
            .map_err(|e| format!("put_batch: {e}"))?;
        put_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let full = new_dht()?;
    full.put_batch(batches.all_nodes.clone())
        .map_err(|e| format!("put_batch: {e}"))?;
    let trips_before = full.round_trips();
    let mut get_us = Vec::new();
    for batch in &batches.get_batches {
        let started = Instant::now();
        black_box(full.get_batch(batch));
        get_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    out.insert("dht.put_batch_us", median(&put_us));
    out.insert("dht.get_batch_us", median(&get_us));
    out.insert(
        "dht.round_trips_per_op",
        (full.round_trips() - trips_before) as f64 / batches.descents.max(1) as f64,
    );
    Ok(())
}

fn core(out: &mut BTreeMap<&'static str, f64>) -> std::result::Result<(), String> {
    let vm = VersionManager::new();
    let blob = vm
        .create_blob(BlobConfig::new(CHUNK as u64, 1).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let mut failed = false;
    let ticket_ns = time_ns(16, || {
        let done = vm
            .assign_ticket(blob, WriteKind::Append { len: OP_BYTES })
            .and_then(|ticket| vm.complete_write(blob, ticket.version));
        failed |= done.is_err();
    });
    if failed {
        return Err("version manager probe: ticket or commit failed".into());
    }
    out.insert("core.vm_ticket_commit_us", ticket_ns / 1e3);

    // The client's default pool size.
    let pool = TransferPool::new(8);
    out.insert(
        "core.transfer_submit_join_us",
        time_ns(16, || pool.submit(|| ()).join()) / 1e3,
    );

    // The default 64 MiB cache: hits on a resident half, then inserts that
    // each evict (the cache never holds more than its budget).
    let cache = ChunkCache::new(64 * MIB);
    let chunk = Bytes::from(vec![1u8; CHUNK]);
    let resident = 512;
    for n in 0..resident {
        cache.insert(chunk_id(n), chunk.clone());
    }
    let mut n = 0;
    out.insert(
        "core.cache_hit_ns",
        time_ns(256, || {
            n = (n + 1) % resident;
            black_box(cache.get(&chunk_id(n)));
        }),
    );
    for n in resident..2048 {
        cache.insert(chunk_id(n), chunk.clone());
    }
    let mut n = 2048;
    out.insert(
        "core.cache_insert_evict_ns",
        time_ns(256, || {
            n += 1;
            cache.insert(chunk_id(n), chunk.clone());
        }),
    );
    Ok(())
}

fn provider(payload: &Payload, out: &mut BTreeMap<&'static str, f64>) {
    let store = RamStore::unbounded();
    let envelope = ChunkEnvelope::verbatim(payload.make(1, 0, 1));
    let mut n = 0;
    let put_ns = time_ns(64, || {
        n += 1;
        store.put(chunk_id(n), envelope.clone()).expect("fresh id");
    });
    let stored = n;
    let mut n = 0;
    let get_ns = time_ns(64, || {
        n = n % stored + 1;
        black_box(store.get(&chunk_id(n)).expect("ram store"));
    });
    out.insert("provider.put_us", put_ns / 1e3);
    out.insert("provider.get_us", get_ns / 1e3);
}

fn persist(
    run_dir: &RunDir,
    payload: &Payload,
    batches: &MetaBatches,
    out: &mut BTreeMap<&'static str, f64>,
) -> std::result::Result<(), String> {
    let dir = run_dir.path().join("probe");
    let _ = std::fs::remove_dir_all(&dir);
    let segments = SegmentStore::open(
        dir.join("segments"),
        SegmentStoreOptions {
            durability: Durability::Commit,
            ..SegmentStoreOptions::default()
        },
    )
    .map_err(|e| format!("segment store: {e}"))?;
    let envelope = ChunkEnvelope::verbatim(payload.make(1, 0, 1));
    let mut n = 0;
    let mut failed = false;
    let put_ns = time_ns(32, || {
        n += 1;
        failed |= segments.put(chunk_id(n), envelope.clone()).is_err();
    });
    if failed {
        return Err("segment store probe: put failed".into());
    }
    out.insert("persist.segment_put_us", put_ns / 1e3);

    let (wal, _) =
        MetaWal::open(dir.join("meta.wal"), Durability::Commit).map_err(|e| format!("wal: {e}"))?;
    let mut put_us = Vec::new();
    let mut commit_us = Vec::new();
    let deadline = Instant::now() + 2 * BUDGET;
    let mut version = 0;
    while Instant::now() < deadline {
        for batch in &batches.put_batches {
            version += 1;
            let started = Instant::now();
            wal.log_put_nodes(batch)
                .map_err(|e| format!("wal put: {e}"))?;
            put_us.push(started.elapsed().as_secs_f64() * 1e6);
            let descriptor = SnapshotDescriptor {
                version: Version(version),
                size: version * OP_BYTES,
                chunk_size: CHUNK as u64,
                flat: false,
            };
            let started = Instant::now();
            wal.log_commit(BlobId(1), &descriptor)
                .map_err(|e| format!("wal commit: {e}"))?;
            commit_us.push(started.elapsed().as_secs_f64() * 1e6);
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    out.insert("persist.wal_put_nodes_us", median(&put_us));
    out.insert("persist.wal_commit_us", median(&commit_us));
    drop((segments, wal));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Runs every probe for `workload` and adds its metrics to `out`.
pub fn probe(
    workload: Workload,
    seed: u64,
    smoke: bool,
    run_dir: &RunDir,
    payload: &Payload,
    out: &mut BTreeMap<&'static str, f64>,
) -> std::result::Result<(), String> {
    codec(payload, out);
    net(payload, out)?;
    let batches = meta(nominal_blob_bytes(workload, smoke), seed, out)?;
    dht(&batches, out)?;
    core(out)?;
    provider(payload, out);
    persist(run_dir, payload, &batches, out)
}
