//! The metadata write-ahead log: an indexed append-only record of every
//! durable metadata mutation, with periodic checkpoints. It is the second
//! keyspace over the log engine ([`crate::frame`]): one file, `meta.wal`,
//! that never rolls.
//!
//! The engine owns recovery, appends, the group fsync, fail-stop and the
//! file swap. The WAL keeps what its records mean: the record codecs,
//! replay (the first CRC-failing or undecodable record ends the log), and
//! the fuzzy checkpoint.
//!
//! Write-ahead ordering makes publication atomic: a writer's chunks land in
//! segment files and its tree nodes land here (`PutNodes`) *before* the
//! version manager's `Commit` record is appended — and the commit record is
//! appended (and, under [`Durability::Commit`], fsynced behind the chunk
//! segments) before the client's write is acknowledged. Recovery replays
//! the log, truncates any torn tail, applies the longest contiguous commit
//! prefix per blob, and drops every orphaned pre-commit record (nodes of
//! versions whose commit never made it).
//!
//! Commits are group-committed. [`MetaWal::append_commit`] appends a
//! record without an fsync and hands back its sequence number;
//! [`MetaWal::sync_through`] makes every record up to a sequence number
//! durable. One caller at a time leads: it fsyncs the log outside the
//! append lock, and that one fsync covers every record appended before it
//! started. Callers that queued behind it find their records covered and
//! return without an fsync of their own. A failed append or fsync fails the
//! log for good (fail-stop): [`MetaWal::failure`] says why.
//!
//! A checkpoint rewrites the log as a compacted image of the live state
//! (blobs, surviving nodes, commit prefix) so the log does not grow with
//! history forever. It is *fuzzy*: the live state is captured without
//! holding the log, and every record appended after the checkpoint's begin
//! mark is carried over behind the image, so no acknowledged mutation falls
//! between capture and swap. The image is written to `meta.ckpt` through
//! the same opener as the log and fsynced, and the append handle on it
//! exists before it is renamed over `meta.wal`: nothing that can fail runs
//! between the rename and the swap, and a failed directory fsync after it
//! fails the log.

use crate::frame::{frame_record, open_log_file, parent_dir, LogConfig, LogFile, RecordLog};
use blobseer_meta::{MetadataStore, NodeBody, NodeKey, SnapshotDescriptor};
use blobseer_types::wire::{encode, WireReader, WireWriter};
use blobseer_types::{BlobConfig, BlobError, BlobId, ChunkCodec, Durability, Result, Version};
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Record kinds of the metadata WAL.
const KIND_CREATE_BLOB: u8 = 1;
const KIND_PUT_NODES: u8 = 2;
const KIND_COMMIT: u8 = 3;
const KIND_DELETE_NODES: u8 = 4;
const KIND_RETIRE: u8 = 5;
// Kind 6 is reserved: it was a flatten record that nothing ever wrote.
// Flatness is journaled by the commit descriptor's `flat` byte.

/// The payload of a blob-creation record.
fn create_payload(blob: BlobId, config: &BlobConfig) -> Bytes {
    let mut w = WireWriter::new();
    w.put(&blob);
    w.put_u64(config.chunk_size);
    w.put_u64(config.replication as u64);
    w.put_u64(config.meta_retry.initial_delay_us);
    w.put_u64(config.meta_retry.max_delay_us);
    w.put_u32(config.meta_retry.max_attempts);
    match config.chunk_codec {
        None => w.put_u8(0),
        Some(ChunkCodec::Off) => w.put_u8(1),
        Some(ChunkCodec::Fast) => w.put_u8(2),
    }
    w.finish()
}

fn get_blob_config(r: &mut WireReader<'_>) -> Result<BlobConfig> {
    let chunk_size = r.get_u64()?;
    let replication = r.get_u64()? as usize;
    let meta_retry = blobseer_types::RetryPolicy {
        initial_delay_us: r.get_u64()?,
        max_delay_us: r.get_u64()?,
        max_attempts: r.get_u32()?,
    };
    let chunk_codec = match r.get_u8()? {
        0 => None,
        1 => Some(ChunkCodec::Off),
        2 => Some(ChunkCodec::Fast),
        tag => {
            return Err(BlobError::Transport(format!(
                "wal: unknown chunk codec tag {tag}"
            )))
        }
    };
    Ok(BlobConfig {
        chunk_size,
        replication,
        meta_retry,
        chunk_codec,
    })
}

/// The payload of a commit record.
fn commit_payload(blob: BlobId, descriptor: &SnapshotDescriptor) -> Bytes {
    let mut w = WireWriter::new();
    w.put(&blob);
    w.put(&descriptor.version);
    w.put_u64(descriptor.size);
    w.put_u64(descriptor.chunk_size);
    w.put_u8(u8::from(descriptor.flat));
    w.finish()
}

fn put_nodes_payload(nodes: &[(NodeKey, NodeBody)]) -> Bytes {
    let mut w = WireWriter::new();
    w.put_u32(nodes.len() as u32);
    for (key, body) in nodes {
        w.put(key);
        w.put(body);
    }
    w.finish()
}

fn get_descriptor(r: &mut WireReader<'_>) -> Result<SnapshotDescriptor> {
    Ok(SnapshotDescriptor {
        version: r.get()?,
        size: r.get_u64()?,
        chunk_size: r.get_u64()?,
        flat: r.get_u8()? != 0,
    })
}

/// One blob as the WAL knows it after replay.
#[derive(Debug, Clone)]
pub struct RecoveredBlob {
    /// The blob's id.
    pub id: BlobId,
    /// Creation-time configuration.
    pub config: BlobConfig,
    /// The contiguous published prefix, version 0's implicit descriptor
    /// included. Commits past a gap (torn publishes) are dropped.
    pub published: Vec<SnapshotDescriptor>,
    /// Lifecycle floor replayed from `Retire` records.
    pub first_retained: Version,
}

/// Counters describing one recovery pass (surfaced through cluster stats
/// and the cold-restart figure).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// WAL records replayed (after tail truncation).
    pub wal_replayed_records: u64,
    /// Torn-tail bytes truncated from the WAL.
    pub wal_truncated_bytes: u64,
    /// Blobs restored.
    pub recovered_blobs: u64,
    /// Metadata nodes surviving replay and orphan filtering.
    pub recovered_nodes: u64,
    /// Pre-commit nodes dropped (their version's commit never landed).
    pub orphaned_nodes_dropped: u64,
    /// Commit records dropped for landing past a version gap.
    pub torn_commits_dropped: u64,
    /// Live chunks indexed across every provider's segment store.
    pub recovered_chunks: u64,
    /// Torn-tail bytes truncated across segment files.
    pub segment_truncated_bytes: u64,
    /// Corrupt (CRC-failing) segment records encountered.
    pub corrupt_chunk_records: u64,
}

/// Everything recovery reconstructed from the WAL, ready to install into a
/// fresh version manager and metadata store.
#[derive(Debug, Clone, Default)]
pub struct RecoveredMetadata {
    /// Restored blobs with their contiguous published prefixes.
    pub blobs: Vec<RecoveredBlob>,
    /// Surviving metadata nodes (orphans already dropped).
    pub nodes: Vec<(NodeKey, NodeBody)>,
    /// Replay counters (chunk-side fields still zero; the durable tier
    /// fills them in from its segment stores).
    pub stats: RecoveryStats,
}

#[derive(Debug, Default)]
struct ReplayBlob {
    config: Option<BlobConfig>,
    commits: BTreeMap<u64, SnapshotDescriptor>,
    /// The lifecycle floor's version number.
    first_retained: u64,
}

/// The live state a checkpoint compacts the log to: every blob's id,
/// creation config, published prefix and retention floor, plus every
/// metadata node.
pub type CheckpointImage = (
    Vec<(BlobId, BlobConfig, Vec<SnapshotDescriptor>, Version)>,
    Vec<(NodeKey, NodeBody)>,
);

/// The append-only metadata log.
pub struct MetaWal {
    log: RecordLog,
    records_since_checkpoint: AtomicU64,
    bytes_since_checkpoint: AtomicU64,
    checkpoints: AtomicU64,
}

impl MetaWal {
    /// Opens (or creates) the WAL at `path`, replaying its records. The torn
    /// tail — everything at and past the first incomplete, CRC-failing or
    /// undecodable record — is physically truncated (a WAL cannot trust
    /// anything past the first unprovable record).
    pub fn open(
        path: impl AsRef<Path>,
        durability: Durability,
    ) -> Result<(Self, RecoveredMetadata)> {
        Self::open_over(path, durability, open_log_file)
    }

    /// [`MetaWal::open`], with the log file — and every checkpoint's
    /// replacement — opened or created through `open` instead of
    /// [`open_log_file`]. Tests pass a wrapper whose writes or fsyncs fail
    /// on demand.
    pub fn open_over(
        path: impl AsRef<Path>,
        durability: Durability,
        open: impl Fn(&Path) -> io::Result<Box<dyn LogFile>> + Send + Sync + 'static,
    ) -> Result<(Self, RecoveredMetadata)> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut blobs: BTreeMap<BlobId, ReplayBlob> = BTreeMap::new();
        let mut nodes: HashMap<NodeKey, NodeBody> = HashMap::new();
        let mut replayed = 0u64;
        let numbers = if path.exists() { vec![1] } else { Vec::new() };
        let named = path.clone();
        let config = LogConfig {
            dir: parent_dir(&path).to_path_buf(),
            path: Box::new(move |_| named.clone()),
            durability,
            roll_bytes: u64::MAX,
            fail_on_append_error: true,
            open: Arc::new(open),
        };
        let (log, found) = RecordLog::open(config, numbers, |_, record, payload, _| {
            let applied = record.crc_ok
                && Self::apply_record(record.kind, payload, &mut blobs, &mut nodes).is_ok();
            replayed += u64::from(applied);
            applied
        })?;
        let mut recovered = Self::finish_replay(blobs, nodes);
        recovered.stats.wal_replayed_records = replayed;
        recovered.stats.wal_truncated_bytes = found.truncated_bytes;
        let len = found.files.iter().map(|&(_, len)| len).sum();
        Ok((
            MetaWal {
                log,
                records_since_checkpoint: AtomicU64::new(replayed),
                // Seed with the surviving log length: a reopened WAL that is
                // already huge is as checkpoint-due as one that grew huge.
                bytes_since_checkpoint: AtomicU64::new(len),
                checkpoints: AtomicU64::new(0),
            },
            recovered,
        ))
    }

    fn apply_record(
        kind: u8,
        payload: &[u8],
        blobs: &mut BTreeMap<BlobId, ReplayBlob>,
        nodes: &mut HashMap<NodeKey, NodeBody>,
    ) -> Result<()> {
        let mut r = WireReader::new(payload);
        match kind {
            KIND_CREATE_BLOB => {
                let id: BlobId = r.get()?;
                let config = get_blob_config(&mut r)?;
                r.expect_end()?;
                blobs.entry(id).or_default().config = Some(config);
            }
            KIND_PUT_NODES => {
                let batch: Vec<(NodeKey, NodeBody)> = r.get()?;
                r.expect_end()?;
                for (key, body) in batch {
                    nodes.insert(key, body);
                }
            }
            KIND_COMMIT => {
                let id: BlobId = r.get()?;
                let descriptor = get_descriptor(&mut r)?;
                r.expect_end()?;
                blobs
                    .entry(id)
                    .or_default()
                    .commits
                    .insert(descriptor.version.0, descriptor);
            }
            KIND_DELETE_NODES => {
                let keys: Vec<NodeKey> = r.get()?;
                r.expect_end()?;
                for key in keys {
                    nodes.remove(&key);
                }
            }
            KIND_RETIRE => {
                let id: BlobId = r.get()?;
                let first_retained: Version = r.get()?;
                r.expect_end()?;
                let entry = blobs.entry(id).or_default();
                entry.first_retained = entry.first_retained.max(first_retained.0);
            }
            tag => {
                return Err(BlobError::Transport(format!(
                    "wal: unknown record kind {tag}"
                )))
            }
        }
        Ok(())
    }

    /// Applies prefix consistency and orphan filtering to the raw replay.
    fn finish_replay(
        blobs: BTreeMap<BlobId, ReplayBlob>,
        nodes: HashMap<NodeKey, NodeBody>,
    ) -> RecoveredMetadata {
        let mut out = RecoveredMetadata::default();
        let mut last_version: HashMap<BlobId, u64> = HashMap::new();
        for (id, replay) in blobs {
            // A blob whose create record is missing (pre-checkpoint
            // corruption) cannot be restored; its nodes become orphans.
            let Some(config) = replay.config else {
                continue;
            };
            let mut published = vec![SnapshotDescriptor::initial(config.chunk_size)];
            let mut next = 1u64;
            while let Some(descriptor) = replay.commits.get(&next) {
                published.push(*descriptor);
                next += 1;
            }
            out.stats.torn_commits_dropped += replay.commits.range(next..).count() as u64;
            last_version.insert(id, next - 1);
            out.blobs.push(RecoveredBlob {
                id,
                config,
                published,
                first_retained: Version(replay.first_retained),
            });
        }
        for (key, body) in nodes {
            match last_version.get(&key.blob) {
                Some(&last) if key.version.0 <= last => out.nodes.push((key, body)),
                // Orphaned pre-commit node: its write never published (or
                // its whole blob never committed to existence).
                _ => out.stats.orphaned_nodes_dropped += 1,
            }
        }
        out.stats.recovered_blobs = out.blobs.len() as u64;
        out.stats.recovered_nodes = out.nodes.len() as u64;
        out
    }

    /// Records appended (or replayed) since the last checkpoint — the
    /// trigger the durable tier's maintenance pass compares against its
    /// checkpoint threshold.
    #[must_use]
    pub fn records_since_checkpoint(&self) -> u64 {
        self.records_since_checkpoint.load(Ordering::Relaxed)
    }

    /// Bytes appended (framing included) since the last checkpoint — the
    /// second trigger of the checkpoint policy. Seeded at open with the
    /// surviving log length, so replay cost is bounded in bytes too.
    #[must_use]
    pub fn bytes_since_checkpoint(&self) -> u64 {
        self.bytes_since_checkpoint.load(Ordering::Relaxed)
    }

    /// Seals the log for shutdown with a final sync: every later append,
    /// sync or checkpoint fails with a clean error instead of writing into
    /// a file that is being closed. Sealing is one-way and idempotent; an
    /// append racing it either lands before the final sync or is refused.
    pub fn seal(&self) {
        self.log.seal();
    }

    /// Whether [`MetaWal::seal`] has been called.
    #[must_use]
    pub fn is_sealed(&self) -> bool {
        self.log.is_sealed()
    }

    /// Checkpoints taken since open.
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Fsyncs of the log since open: the inline ones of synced appends, the
    /// group fsyncs of [`MetaWal::sync_through`] and the checkpoints'.
    #[must_use]
    pub fn fsyncs(&self) -> u64 {
        self.log.fsyncs()
    }

    /// Why the log failed, once a failed append or fsync stopped it. A
    /// failed log refuses every later append, sync and checkpoint until the
    /// process restarts and recovery replays what reached the disk. Takes
    /// no lock, so a health probe never waits on a running checkpoint.
    #[must_use]
    pub fn failure(&self) -> Option<String> {
        self.log.failure()
    }

    /// Fails the log from outside (fail-stop), with `why` as the reason
    /// [`MetaWal::failure`] reports. The durable tier calls it when a
    /// segment store's fsync fails: no commit may name chunks that a
    /// failing disk may have lost.
    pub fn fail(&self, why: String) {
        self.log.lock().fail(why);
    }

    /// Appends one record and returns its sequence number, fsyncing it
    /// first when `sync` is set or the policy syncs every record. Any
    /// failure fails the log.
    fn append(&self, kind: u8, payload: &[u8], sync: bool) -> Result<u64> {
        let record = frame_record(kind, payload);
        self.log.lock().append(&record, sync, |pos| {
            // Counted under the lock, so a checkpoint's mark and swap see
            // the counters agree with the log length.
            self.records_since_checkpoint
                .fetch_add(1, Ordering::Relaxed);
            self.bytes_since_checkpoint
                .fetch_add(record.len() as u64, Ordering::Relaxed);
            pos.seq
        })
    }

    /// Journals a blob creation. Synced before returning, whatever the
    /// policy short of `Buffered` — handing out a blob id that a restart
    /// forgets would let the next incarnation mint it twice.
    pub fn log_create_blob(&self, blob: BlobId, config: &BlobConfig) -> Result<()> {
        self.append(KIND_CREATE_BLOB, &create_payload(blob, config), true)
            .map(drop)
    }

    /// Journals a batch of published tree nodes (before they reach the
    /// metadata store — the write-ahead half of publication).
    pub fn log_put_nodes(&self, nodes: &[(NodeKey, NodeBody)]) -> Result<()> {
        if nodes.is_empty() {
            return Ok(());
        }
        self.append(KIND_PUT_NODES, &put_nodes_payload(nodes), false)
            .map(drop)
    }

    /// Appends a version-manager commit record — the publication point —
    /// and returns its sequence number for [`MetaWal::sync_through`]. Not
    /// synced here (unless the policy syncs every record): the record must
    /// land after the chunks and nodes it names, and in publication order,
    /// but many commits can share one fsync.
    pub fn append_commit(&self, blob: BlobId, descriptor: &SnapshotDescriptor) -> Result<u64> {
        self.append(KIND_COMMIT, &commit_payload(blob, descriptor), false)
    }

    /// Makes every record up to sequence number `seq` durable: the log's
    /// group fsync. Returns at once when an earlier fsync already covered
    /// `seq`; otherwise one caller leads the fsync, outside the append
    /// lock, for every record appended before it started. A failed fsync
    /// fails the log. A no-op under [`Durability::Buffered`].
    pub fn sync_through(&self, seq: u64) -> Result<()> {
        self.log.sync_through(seq)
    }

    /// Journals a commit and waits for it to be durable:
    /// [`MetaWal::append_commit`] then [`MetaWal::sync_through`].
    pub fn log_commit(&self, blob: BlobId, descriptor: &SnapshotDescriptor) -> Result<()> {
        let seq = self.append_commit(blob, descriptor)?;
        self.sync_through(seq)
    }

    /// Journals a sweeper delete so recovery does not resurrect swept nodes.
    pub fn log_delete_nodes(&self, keys: &[NodeKey]) -> Result<()> {
        if keys.is_empty() {
            return Ok(());
        }
        self.append(KIND_DELETE_NODES, &encode(&keys.to_vec()), false)
            .map(drop)
    }

    /// Journals a lifecycle retention floor so recovery does not resurrect
    /// retired versions.
    pub fn log_retire(&self, blob: BlobId, first_retained: Version) -> Result<()> {
        self.append(KIND_RETIRE, &encode(&(blob, first_retained)), false)
            .map(drop)
    }

    /// Rewrites the log as a compacted image of the live state: temp file,
    /// fsync, atomic rename. `capture` gathers the state — blobs from the
    /// version manager, nodes from the metadata store — with the log *not*
    /// held, so appends keep flowing while it runs.
    ///
    /// The checkpoint is fuzzy: it marks the log length before `capture`
    /// and, at the swap, carries every record appended past that mark
    /// behind the image, so a mutation that raced the capture survives in
    /// its record. Replaying a record whose effect the image already holds
    /// is idempotent. What the capture needs from its callers: a mutation
    /// must reach the captured state no later than its record reaches the
    /// log. A capture that another checkpoint overtook is dropped.
    pub fn checkpoint(&self, capture: impl FnOnce() -> Result<CheckpointImage>) -> Result<()> {
        let (generation, mark, records_at_mark) = {
            let log = self.log.lock();
            log.writable()?;
            (
                self.checkpoints.load(Ordering::Relaxed),
                log.len(),
                self.records_since_checkpoint.load(Ordering::Relaxed),
            )
        };
        let (blobs, nodes) = capture()?;
        let mut image: Vec<u8> = Vec::new();
        // Nodes land in the image *before* the publication records, for the
        // same reason live appends log metadata before the commit that
        // references it: recovery of any record-boundary prefix of the image
        // must never see a published version whose tree nodes are missing.
        if !nodes.is_empty() {
            image.extend_from_slice(&frame_record(KIND_PUT_NODES, &put_nodes_payload(&nodes)));
        }
        for (id, config, published, first_retained) in &blobs {
            image.extend(frame_record(KIND_CREATE_BLOB, &create_payload(*id, config)));
            for descriptor in published.iter().filter(|d| d.version.0 > 0) {
                image.extend(frame_record(KIND_COMMIT, &commit_payload(*id, descriptor)));
            }
            if first_retained.0 > 0 {
                let payload = encode(&(*id, *first_retained));
                image.extend_from_slice(&frame_record(KIND_RETIRE, &payload));
            }
        }
        // Hold the append lock across the swap so no append lands in the
        // old file between reading its tail and switching to the new one.
        let mut log = self.log.lock();
        log.writable()?;
        if self.checkpoints.load(Ordering::Relaxed) != generation {
            return Ok(());
        }
        let tail_len = log.len() - mark;
        image.extend_from_slice(&log.read(mark, tail_len as usize)?);
        // The synced image carries every record appended so far, unsynced
        // commits included: the swap completes their sync.
        log.replace(&image)?;
        // Both triggers count the carried tail only — the compacted image
        // itself is the floor another checkpoint cannot shrink, so counting
        // it would loop the trigger forever on a large live state.
        self.records_since_checkpoint
            .fetch_sub(records_at_mark, Ordering::Relaxed);
        self.bytes_since_checkpoint
            .store(tail_len, Ordering::Relaxed);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// The version manager's durability hook: what it tells the durable tier at
/// each lifecycle-relevant transition. A RAM-resident deployment runs with
/// no journal at all; the durable tier implements this over its WAL and
/// segment stores.
///
/// A commit takes three steps, so that no fsync runs under the blob lock:
/// [`Journal::prepare_commit`] before the lock, [`Journal::append_commit`]
/// under it (records land in publication order) and
/// [`Journal::sync_commits`] after it, where concurrent commits share one
/// fsync. A version counts as durable, and becomes visible to readers, only
/// once its record is synced.
pub trait Journal: Send + Sync {
    /// A blob was created (journaled, and synced, before the creation is
    /// acknowledged).
    fn record_create_blob(&self, blob: BlobId, config: &BlobConfig) -> Result<()>;
    /// Step 1, before the blob lock: makes every chunk written so far
    /// durable, so no commit record appended after it can name a chunk that
    /// is not on disk (write-ahead ordering).
    fn prepare_commit(&self) -> Result<()>;
    /// Step 2, under the blob lock: appends the commit record of one
    /// published version without syncing it. Returns its sequence number.
    fn append_commit(&self, blob: BlobId, descriptor: &SnapshotDescriptor) -> Result<u64>;
    /// Step 3, after the blob lock: returns once every record up to `seq`
    /// is durable. A failure is final: the journal refuses every later
    /// commit.
    fn sync_commits(&self, seq: u64) -> Result<()>;
    /// The retention floor moved.
    fn record_retire(&self, blob: BlobId, first_retained: Version) -> Result<()>;
}

/// A [`MetadataStore`] that journals every mutation in the WAL. Reads pass
/// straight through.
///
/// Node puts reach the wrapped store *before* their record reaches the
/// log: a fuzzy checkpoint carries only records past its mark, so a put
/// logged before the mark must already be in the state it captures. That
/// is still write-ahead where it matters — a node is unreachable until the
/// commit that publishes it, and the commit is logged after the put.
/// Deletes log first: the worst a raced delete can do is leave its node in
/// the image, where it is a leak, never a loss.
pub struct WalMetaStore {
    inner: Arc<dyn MetadataStore>,
    wal: Arc<MetaWal>,
}

impl WalMetaStore {
    /// Wraps `inner` so every mutation is also journaled in `wal`.
    pub fn new(inner: Arc<dyn MetadataStore>, wal: Arc<MetaWal>) -> Self {
        WalMetaStore { inner, wal }
    }
}

impl MetadataStore for WalMetaStore {
    fn put_node(&self, key: NodeKey, body: NodeBody) -> Result<()> {
        self.inner.put_node(key, body.clone())?;
        self.wal.log_put_nodes(&[(key, body)])
    }

    fn get_node(&self, key: &NodeKey) -> Result<Option<NodeBody>> {
        self.inner.get_node(key)
    }

    fn get_nodes(&self, keys: &[NodeKey]) -> Result<Vec<Option<NodeBody>>> {
        self.inner.get_nodes(keys)
    }

    fn put_nodes(&self, nodes: Vec<(NodeKey, NodeBody)>) -> Result<()> {
        if nodes.is_empty() {
            return self.inner.put_nodes(nodes);
        }
        // Encoded before the store takes the batch, so it moves in uncopied.
        let payload = put_nodes_payload(&nodes);
        self.inner.put_nodes(nodes)?;
        self.wal.append(KIND_PUT_NODES, &payload, false).map(drop)
    }

    fn delete_nodes(&self, keys: &[NodeKey]) -> Result<usize> {
        self.wal.log_delete_nodes(keys)?;
        self.inner.delete_nodes(keys)
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn snapshot_nodes(&self) -> Result<Vec<(NodeKey, NodeBody)>> {
        self.inner.snapshot_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_meta::LeafNode;
    use blobseer_types::ByteRange;
    use parking_lot::Mutex;
    use std::fs::OpenOptions;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicBool;

    fn temp_wal(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("blobseer-persist-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("meta.wal")
    }

    fn node(blob: u64, version: u64, slot: u64) -> (NodeKey, NodeBody) {
        (
            NodeKey {
                blob: BlobId(blob),
                version: Version(version),
                range: ByteRange::new(slot * 64, 64),
            },
            NodeBody::Leaf(LeafNode::hole(BlobId(blob), slot)),
        )
    }

    fn descriptor(version: u64, size: u64) -> SnapshotDescriptor {
        SnapshotDescriptor {
            version: Version(version),
            size,
            chunk_size: 64,
            flat: false,
        }
    }

    #[test]
    fn replay_restores_blobs_nodes_and_commits() {
        let path = temp_wal("replay");
        let config = BlobConfig::new(64, 2).unwrap();
        {
            let (wal, recovered) = MetaWal::open(&path, Durability::Commit).unwrap();
            assert!(recovered.blobs.is_empty());
            wal.log_create_blob(BlobId(1), &config).unwrap();
            wal.log_put_nodes(&[node(1, 1, 0), node(1, 1, 1)]).unwrap();
            wal.log_commit(BlobId(1), &descriptor(1, 128)).unwrap();
        }
        let (_, recovered) = MetaWal::open(&path, Durability::Commit).unwrap();
        assert_eq!(recovered.stats.wal_replayed_records, 3);
        assert_eq!(recovered.stats.recovered_blobs, 1);
        assert_eq!(recovered.stats.recovered_nodes, 2);
        assert_eq!(recovered.stats.orphaned_nodes_dropped, 0);
        let blob = &recovered.blobs[0];
        assert_eq!(blob.id, BlobId(1));
        assert_eq!(blob.config, config);
        assert_eq!(blob.published.len(), 2, "initial + committed v1");
        assert_eq!(blob.published[1], descriptor(1, 128));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn orphaned_pre_commit_nodes_are_dropped() {
        let path = temp_wal("orphans");
        {
            let (wal, _) = MetaWal::open(&path, Durability::Commit).unwrap();
            wal.log_create_blob(BlobId(1), &BlobConfig::default())
                .unwrap();
            wal.log_put_nodes(&[node(1, 1, 0)]).unwrap();
            wal.log_commit(BlobId(1), &descriptor(1, 64)).unwrap();
            // Version 2's nodes landed but its commit never did: a torn
            // publish.
            wal.log_put_nodes(&[node(1, 2, 0), node(1, 2, 1)]).unwrap();
        }
        let (_, recovered) = MetaWal::open(&path, Durability::Commit).unwrap();
        assert_eq!(recovered.stats.orphaned_nodes_dropped, 2);
        assert_eq!(recovered.stats.recovered_nodes, 1);
        assert_eq!(recovered.blobs[0].published.len(), 2);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn commits_past_a_gap_are_dropped() {
        let path = temp_wal("gap");
        {
            let (wal, _) = MetaWal::open(&path, Durability::Commit).unwrap();
            wal.log_create_blob(BlobId(1), &BlobConfig::default())
                .unwrap();
            wal.log_commit(BlobId(1), &descriptor(1, 64)).unwrap();
            // Version 2's commit is missing; version 3's somehow landed
            // (out-of-order append interleaving) — it must not publish.
            wal.log_commit(BlobId(1), &descriptor(3, 192)).unwrap();
        }
        let (_, recovered) = MetaWal::open(&path, Durability::Commit).unwrap();
        assert_eq!(recovered.blobs[0].published.len(), 2);
        assert_eq!(recovered.stats.torn_commits_dropped, 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let path = temp_wal("torn");
        {
            let (wal, _) = MetaWal::open(&path, Durability::Commit).unwrap();
            wal.log_create_blob(BlobId(1), &BlobConfig::default())
                .unwrap();
            wal.log_commit(BlobId(1), &descriptor(1, 64)).unwrap();
        }
        // Crash mid-append: cut the file inside the last record.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);
        let (wal, recovered) = MetaWal::open(&path, Durability::Commit).unwrap();
        assert!(recovered.stats.wal_truncated_bytes > 0);
        assert_eq!(recovered.blobs[0].published.len(), 1, "commit was torn");
        // The log still accepts appends after truncation.
        wal.log_commit(BlobId(1), &descriptor(1, 64)).unwrap();
        drop(wal);
        let (_, recovered) = MetaWal::open(&path, Durability::Commit).unwrap();
        assert_eq!(recovered.blobs[0].published.len(), 2);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn deletes_and_retires_replay() {
        let path = temp_wal("lifecycle");
        {
            let (wal, _) = MetaWal::open(&path, Durability::Commit).unwrap();
            wal.log_create_blob(BlobId(1), &BlobConfig::default())
                .unwrap();
            wal.log_put_nodes(&[node(1, 1, 0), node(1, 1, 1)]).unwrap();
            wal.log_commit(BlobId(1), &descriptor(1, 64)).unwrap();
            wal.log_commit(BlobId(1), &descriptor(2, 128)).unwrap();
            wal.log_delete_nodes(&[node(1, 1, 1).0]).unwrap();
            wal.log_retire(BlobId(1), Version(2)).unwrap();
        }
        let (_, recovered) = MetaWal::open(&path, Durability::Commit).unwrap();
        assert_eq!(
            recovered.stats.recovered_nodes, 1,
            "deleted node stays dead"
        );
        assert_eq!(recovered.blobs[0].first_retained, Version(2));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn checkpoint_compacts_and_replays_identically() {
        let path = temp_wal("checkpoint");
        let config = BlobConfig::default();
        let recovered_before;
        {
            let (wal, _) = MetaWal::open(&path, Durability::Commit).unwrap();
            wal.log_create_blob(BlobId(1), &config).unwrap();
            for v in 1..=5u64 {
                wal.log_put_nodes(&[node(1, v, 0)]).unwrap();
                wal.log_commit(BlobId(1), &descriptor(v, v * 64)).unwrap();
            }
            assert!(wal.records_since_checkpoint() >= 11);
            let published: Vec<SnapshotDescriptor> =
                std::iter::once(SnapshotDescriptor::initial(config.chunk_size))
                    .chain((1..=5u64).map(|v| descriptor(v, v * 64)))
                    .collect();
            let nodes: Vec<(NodeKey, NodeBody)> = (1..=5u64).map(|v| node(1, v, 0)).collect();
            wal.checkpoint(|| Ok((vec![(BlobId(1), config, published, Version(0))], nodes)))
                .unwrap();
            assert_eq!(wal.records_since_checkpoint(), 0);
            assert_eq!(wal.checkpoints(), 1);
            // Post-checkpoint appends extend the compacted log.
            wal.log_put_nodes(&[node(1, 6, 0)]).unwrap();
            wal.log_commit(BlobId(1), &descriptor(6, 384)).unwrap();
            let (_, r) = MetaWal::open(&path, Durability::Commit).unwrap();
            recovered_before = r;
        }
        assert_eq!(recovered_before.blobs[0].published.len(), 7);
        assert_eq!(recovered_before.stats.recovered_nodes, 6);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn byte_counter_tracks_appends_and_resets_on_checkpoint() {
        let path = temp_wal("bytes");
        let (wal, _) = MetaWal::open(&path, Durability::Buffered).unwrap();
        assert_eq!(wal.bytes_since_checkpoint(), 0);
        wal.log_create_blob(BlobId(1), &BlobConfig::default())
            .unwrap();
        wal.log_commit(BlobId(1), &descriptor(1, 64)).unwrap();
        let grown = wal.bytes_since_checkpoint();
        assert!(grown > 0, "appends must advance the byte counter");
        wal.checkpoint(|| {
            Ok((
                vec![(
                    BlobId(1),
                    BlobConfig::default(),
                    vec![
                        SnapshotDescriptor::initial(BlobConfig::default().chunk_size),
                        descriptor(1, 64),
                    ],
                    Version(0),
                )],
                Vec::new(),
            ))
        })
        .unwrap();
        assert_eq!(
            wal.bytes_since_checkpoint(),
            0,
            "the compacted image is the floor — only fresh appends count"
        );
        drop(wal);
        // Reopening seeds the counter with the surviving log length, so an
        // already-large log reads as checkpoint-due in bytes too.
        let (wal, _) = MetaWal::open(&path, Durability::Buffered).unwrap();
        assert!(wal.bytes_since_checkpoint() > 0);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn sealed_wal_fails_appends_and_checkpoints_cleanly() {
        let path = temp_wal("seal");
        let (wal, _) = MetaWal::open(&path, Durability::Commit).unwrap();
        wal.log_create_blob(BlobId(1), &BlobConfig::default())
            .unwrap();
        wal.seal();
        assert!(wal.is_sealed());
        let err = wal
            .log_commit(BlobId(1), &descriptor(1, 64))
            .expect_err("append after seal must fail");
        assert!(matches!(err, BlobError::Internal(_)));
        assert!(wal.checkpoint(|| Ok((Vec::new(), Vec::new()))).is_err());
        // The records before the seal survive untorn.
        let (_, recovered) = MetaWal::open(&path, Durability::Commit).unwrap();
        assert_eq!(recovered.blobs.len(), 1);
        assert_eq!(recovered.stats.wal_truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A commit appended after the checkpoint captured its image — the
    /// window where the capture runs without the log — must survive the
    /// swap: the checkpoint carries it behind the image.
    #[test]
    fn records_appended_during_the_capture_survive_the_checkpoint() {
        let path = temp_wal("fuzzy");
        let config = BlobConfig::default();
        {
            let (wal, _) = MetaWal::open(&path, Durability::Commit).unwrap();
            wal.log_create_blob(BlobId(1), &config).unwrap();
            wal.log_put_nodes(&[node(1, 1, 0)]).unwrap();
            wal.log_commit(BlobId(1), &descriptor(1, 64)).unwrap();
            wal.checkpoint(|| {
                let image = (
                    vec![(
                        BlobId(1),
                        config,
                        vec![SnapshotDescriptor::initial(64), descriptor(1, 64)],
                        Version(0),
                    )],
                    vec![node(1, 1, 0)],
                );
                // Version 2 publishes after the capture, before the swap.
                wal.log_put_nodes(&[node(1, 2, 0)]).unwrap();
                wal.log_commit(BlobId(1), &descriptor(2, 128)).unwrap();
                Ok(image)
            })
            .unwrap();
            assert_eq!(wal.checkpoints(), 1);
            assert_eq!(
                wal.records_since_checkpoint(),
                2,
                "the carried tail counts towards the next checkpoint"
            );
            assert!(wal.bytes_since_checkpoint() > 0);
        }
        let (_, recovered) = MetaWal::open(&path, Durability::Commit).unwrap();
        assert_eq!(
            recovered.blobs[0].published.len(),
            3,
            "the acknowledged version 2 must survive the checkpoint"
        );
        assert_eq!(recovered.stats.recovered_nodes, 2);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Of two checkpoints whose captures overlap, the one that swaps second
    /// captured an older log and is dropped instead of undoing the first.
    #[test]
    fn an_overtaken_checkpoint_is_dropped() {
        let path = temp_wal("overtaken");
        let config = BlobConfig::default();
        let (wal, _) = MetaWal::open(&path, Durability::Commit).unwrap();
        wal.log_create_blob(BlobId(1), &config).unwrap();
        let image = || {
            Ok((
                vec![(
                    BlobId(1),
                    config,
                    vec![SnapshotDescriptor::initial(64)],
                    Version(0),
                )],
                Vec::new(),
            ))
        };
        wal.checkpoint(|| {
            wal.checkpoint(image).unwrap();
            image()
        })
        .unwrap();
        assert_eq!(wal.checkpoints(), 1, "the overtaken checkpoint is dropped");
        drop(wal);
        let (_, recovered) = MetaWal::open(&path, Durability::Commit).unwrap();
        assert_eq!(recovered.blobs.len(), 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Commits appended without a sync share one group fsync, and a sync
    /// an earlier fsync already covered costs none.
    #[test]
    fn one_group_fsync_covers_every_commit_queued_before_it() {
        let path = temp_wal("group");
        let (wal, _) = MetaWal::open(&path, Durability::Commit).unwrap();
        let seqs: Vec<u64> = (1..=3u64)
            .map(|v| {
                wal.append_commit(BlobId(1), &descriptor(v, v * 64))
                    .unwrap()
            })
            .collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(wal.fsyncs(), 0, "appending a commit does not sync it");
        wal.sync_through(3).unwrap();
        assert_eq!(wal.fsyncs(), 1);
        wal.sync_through(1).unwrap();
        wal.sync_through(2).unwrap();
        assert_eq!(
            wal.fsyncs(),
            1,
            "covered records need no fsync of their own"
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A commit record appended, unsynced, before a checkpoint's mark is
    /// carried by the capture (the version manager exports its in-memory
    /// prefix), and the synced image completes its sync.
    #[test]
    fn an_unsynced_commit_before_the_mark_survives_a_checkpoint() {
        let path = temp_wal("unsynced");
        let config = BlobConfig::default();
        {
            let (wal, _) = MetaWal::open(&path, Durability::Commit).unwrap();
            wal.log_create_blob(BlobId(1), &config).unwrap();
            wal.log_put_nodes(&[node(1, 1, 0)]).unwrap();
            let seq = wal.append_commit(BlobId(1), &descriptor(1, 64)).unwrap();
            wal.checkpoint(|| {
                Ok((
                    vec![(
                        BlobId(1),
                        config,
                        vec![SnapshotDescriptor::initial(64), descriptor(1, 64)],
                        Version(0),
                    )],
                    vec![node(1, 1, 0)],
                ))
            })
            .unwrap();
            let fsyncs = wal.fsyncs();
            wal.sync_through(seq).unwrap();
            assert_eq!(wal.fsyncs(), fsyncs, "the synced image covered the commit");
        }
        let (_, recovered) = MetaWal::open(&path, Durability::Commit).unwrap();
        assert_eq!(recovered.blobs[0].published.len(), 2);
        assert_eq!(recovered.stats.recovered_nodes, 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A log file whose fsyncs fail while `failing` is set.
    struct FailingSync {
        file: Box<dyn LogFile>,
        failing: Arc<AtomicBool>,
    }

    impl LogFile for FailingSync {
        fn append(&self, buf: &[u8]) -> io::Result<()> {
            self.file.append(buf)
        }

        fn truncate(&self, len: u64) -> io::Result<()> {
            self.file.truncate(len)
        }

        fn sync(&self) -> io::Result<()> {
            if self.failing.load(Ordering::SeqCst) {
                return Err(io::Error::other("injected fsync failure"));
            }
            self.file.sync()
        }

        fn read_at(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
            self.file.read_at(buf, at)
        }
    }

    /// A checkpoint that fails opening or fsyncing the file that replaces
    /// the log loses no acknowledged commit: a later commit is either in
    /// the file a reopen finds, or refused with the WAL failed. (Opening
    /// the new append handle after the rename left a failed open appending
    /// acknowledged commits to the unlinked old file.)
    #[test]
    fn a_failed_checkpoint_loses_no_acknowledged_commit() {
        for fail_open in [true, false] {
            let path = temp_wal(&format!("ckpt-fails-{fail_open}"));
            let (opens, syncs) = (
                Arc::new(AtomicBool::new(false)),
                Arc::new(AtomicBool::new(false)),
            );
            let (failing_opens, failing_syncs) = (Arc::clone(&opens), Arc::clone(&syncs));
            let (wal, _) = MetaWal::open_over(&path, Durability::Commit, move |path| {
                if failing_opens.load(Ordering::SeqCst) {
                    return Err(io::Error::other("injected open failure"));
                }
                Ok(Box::new(FailingSync {
                    file: open_log_file(path)?,
                    failing: Arc::clone(&failing_syncs),
                }))
            })
            .unwrap();
            let config = BlobConfig::default();
            wal.log_create_blob(BlobId(1), &config).unwrap();
            wal.log_commit(BlobId(1), &descriptor(1, 64)).unwrap();
            let fault = if fail_open { &opens } else { &syncs };
            fault.store(true, Ordering::SeqCst);
            let failed = wal.checkpoint(|| {
                Ok((
                    vec![(
                        BlobId(1),
                        config,
                        vec![SnapshotDescriptor::initial(64), descriptor(1, 64)],
                        Version(0),
                    )],
                    Vec::new(),
                ))
            });
            assert!(failed.is_err(), "fail open: {fail_open}");
            fault.store(false, Ordering::SeqCst);
            let acked = wal.log_commit(BlobId(1), &descriptor(2, 128)).is_ok();
            assert!(acked || wal.failure().is_some(), "fail open: {fail_open}");
            drop(wal);
            let (_, recovered) = MetaWal::open(&path, Durability::Commit).unwrap();
            assert_eq!(
                recovered.blobs[0].published.len(),
                if acked { 3 } else { 2 },
                "fail open: {fail_open}: every acknowledged commit survives"
            );
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
        }
    }

    /// A store that checkpoints the WAL over its current contents right
    /// before it takes a batch: the tightest a capture can race a put.
    struct CheckpointingStore {
        nodes: Mutex<Vec<(NodeKey, NodeBody)>>,
        wal: Arc<MetaWal>,
    }

    impl MetadataStore for CheckpointingStore {
        fn put_node(&self, key: NodeKey, body: NodeBody) -> Result<()> {
            self.put_nodes(vec![(key, body)])
        }

        fn get_node(&self, _key: &NodeKey) -> Result<Option<NodeBody>> {
            Ok(None)
        }

        fn put_nodes(&self, nodes: Vec<(NodeKey, NodeBody)>) -> Result<()> {
            let blobs = vec![(
                BlobId(1),
                BlobConfig::default(),
                vec![SnapshotDescriptor::initial(64)],
                Version(0),
            )];
            let image = self.nodes.lock().clone();
            self.wal.checkpoint(|| Ok((blobs, image)))?;
            self.nodes.lock().extend(nodes);
            Ok(())
        }

        fn node_count(&self) -> usize {
            self.nodes.lock().len()
        }
    }

    /// A node put must reach the store before its record reaches the log:
    /// a checkpoint whose capture misses the node then still carries the
    /// record. Logged first, the record would fall before the mark and the
    /// node would be in neither the image nor the tail.
    #[test]
    fn a_node_put_racing_a_checkpoint_survives_it() {
        let path = temp_wal("putrace");
        {
            let (wal, _) = MetaWal::open(&path, Durability::Commit).unwrap();
            let wal = Arc::new(wal);
            wal.log_create_blob(BlobId(1), &BlobConfig::default())
                .unwrap();
            let inner = CheckpointingStore {
                nodes: Mutex::new(Vec::new()),
                wal: Arc::clone(&wal),
            };
            let store = WalMetaStore::new(Arc::new(inner), Arc::clone(&wal));
            store.put_nodes(vec![node(1, 1, 0)]).unwrap();
            wal.log_commit(BlobId(1), &descriptor(1, 64)).unwrap();
            assert_eq!(wal.checkpoints(), 1);
        }
        let (_, recovered) = MetaWal::open(&path, Durability::Commit).unwrap();
        assert_eq!(recovered.blobs[0].published.len(), 2);
        assert_eq!(
            recovered.stats.recovered_nodes, 1,
            "the published version's node must survive the checkpoint"
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
