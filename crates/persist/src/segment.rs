//! Append-only chunk segment files: the durable backend behind
//! [`blobseer_provider::ChunkStore`].
//!
//! One provider owns one directory of `seg-NNNNNN.log` files. Every sealed
//! [`ChunkEnvelope`] is appended verbatim as one CRC-framed record
//! ([`crate::frame`]); an in-memory index maps chunk ids to slots. Removals
//! append *tombstone* records — the log itself is never rewritten in place
//! — and [`SegmentStore::compact`] folds tombstoned and superseded bytes
//! away by rewriting survivors into the active segment.
//!
//! A record's CRC is computed once, when it is appended, and checked once,
//! when recovery scans it; reads never re-check it. Every slot owns its
//! envelope: the one it arrived as for records appended this run, and for
//! recovered records a zero-copy slice of the segment's recovered buffer
//! (in the spirit of the `OwnedArchivedVersionChanges` pattern), so aligned
//! reads keep the client's `payload_bytes_copied == 0` even after a cold
//! restart. A record whose CRC failed at recovery stays addressable, and
//! every read of it fails with the retryable [`BlobError::Transport`] so
//! readers rotate to another replica instead of consuming silent
//! corruption. Sealing a segment is an fsync and a roll to the next file:
//! nothing is read back.

use crate::frame::{frame_parts, frame_record, scan, LogTail, RECORD_HEADER_BYTES};
use blobseer_provider::ChunkStore;
use blobseer_types::wire::{encode, WireReader};
use blobseer_types::{BlobError, ChunkEnvelope, ChunkId, Durability, EnvelopeHeader, Result};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Record kinds of the chunk segment log.
const KIND_CHUNK: u8 = 1;
const KIND_TOMBSTONE: u8 = 2;

/// Wire size of a `ChunkId` (three `u64`s).
const CHUNK_ID_BYTES: usize = 24;
/// Wire size of an `EnvelopeHeader` (encoding tag + logical len + physical
/// len).
const ENVELOPE_HEADER_BYTES: usize = 13;
/// Bytes of a chunk record that are not payload.
const CHUNK_RECORD_OVERHEAD: usize = RECORD_HEADER_BYTES + CHUNK_ID_BYTES + ENVELOPE_HEADER_BYTES;

/// Tuning knobs of a [`SegmentStore`].
#[derive(Debug, Clone, Copy)]
pub struct SegmentStoreOptions {
    /// Fsync policy: `Always` syncs every appended record, everything else
    /// leaves syncing to [`SegmentStore::sync`] (called by the durable
    /// tier's commit hook under `Commit`).
    pub durability: Durability,
    /// Size at which the active segment file is sealed and a new one
    /// started.
    pub segment_bytes: u64,
}

impl Default for SegmentStoreOptions {
    fn default() -> Self {
        SegmentStoreOptions {
            durability: Durability::default(),
            segment_bytes: 64 << 20,
        }
    }
}

/// What recovery found while opening a segment directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentRecovery {
    /// Live chunks indexed after replaying every segment.
    pub recovered_chunks: u64,
    /// Torn-tail bytes physically truncated.
    pub truncated_bytes: u64,
    /// Complete-but-CRC-failing records kept addressable (reads of them
    /// fail retryably) plus undecodable ones dropped.
    pub corrupt_records: u64,
    /// Segment files opened.
    pub segments: u64,
}

/// One indexed chunk.
struct Slot {
    /// Segment holding the record.
    seg: u64,
    /// Record length on disk, framing included.
    len: u64,
    /// The chunk as appended this run, or a slice of its recovered segment;
    /// `None` when recovery found the record's CRC failing.
    envelope: Option<ChunkEnvelope>,
}

impl Slot {
    fn physical_len(&self) -> u64 {
        self.len - CHUNK_RECORD_OVERHEAD as u64
    }
}

/// One segment file's length and the bytes of it live slots cover.
#[derive(Debug, Clone, Copy, Default)]
struct Usage {
    len: u64,
    live: u64,
}

#[derive(Default)]
struct Index {
    slots: HashMap<ChunkId, Slot>,
    /// Every segment file, oldest first; the last is the active one.
    segments: BTreeMap<u64, Usage>,
    /// Physical payload bytes of every indexed chunk.
    physical: u64,
}

impl Index {
    /// Indexes `id` at a `len`-byte record in `seg`, replacing (and
    /// un-counting) any earlier slot of the same chunk.
    fn insert(&mut self, id: ChunkId, seg: u64, len: u64, envelope: Option<ChunkEnvelope>) {
        let slot = Slot { seg, len, envelope };
        self.segments.entry(seg).or_default().live += len;
        self.physical += slot.physical_len();
        if let Some(old) = self.slots.insert(id, slot) {
            self.forget(&old);
        }
    }

    /// Drops `id`'s slot, returning the physical bytes it held.
    fn remove(&mut self, id: &ChunkId) -> Option<u64> {
        let old = self.slots.remove(id)?;
        self.forget(&old);
        Some(old.physical_len())
    }

    fn forget(&mut self, slot: &Slot) {
        if let Some(usage) = self.segments.get_mut(&slot.seg) {
            usage.live -= slot.len;
        }
        self.physical -= slot.physical_len();
    }

    /// Every segment but the active one, which is always the newest.
    fn sealed(&self) -> impl Iterator<Item = (u64, Usage)> + '_ {
        let active = self.segments.keys().next_back().copied().unwrap_or(0);
        self.segments
            .range(..active)
            .map(|(&seg, &usage)| (seg, usage))
    }
}

struct Active {
    seg: u64,
    tail: LogTail,
    /// Bytes appended since open, across every segment.
    appended: u64,
}

/// The log-structured durable chunk store.
pub struct SegmentStore {
    dir: PathBuf,
    opts: SegmentStoreOptions,
    active: Mutex<Active>,
    index: RwLock<Index>,
    /// How much of [`Active::appended`] a completed fsync covers. Raised
    /// (`AcqRel`) only after the fsync returns; a `sync` that reads
    /// (`Acquire`) a value covering its bytes may skip its own.
    synced: AtomicU64,
    recovery: SegmentRecovery,
}

fn segment_path(dir: &Path, seg: u64) -> PathBuf {
    dir.join(format!("seg-{seg:06}.log"))
}

fn segment_number(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    digits.parse().ok()
}

fn chunk_record(id: &ChunkId, data: &ChunkEnvelope) -> Vec<u8> {
    frame_parts(
        KIND_CHUNK,
        &[&encode(id), &encode(&data.header()), data.payload()],
    )
}

impl SegmentStore {
    /// Opens (or creates) the segment directory, replaying every segment
    /// file: torn tails are physically truncated, tombstones are folded into
    /// the index, and the last segment becomes the active append target.
    pub fn open(dir: impl AsRef<Path>, opts: SegmentStoreOptions) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut seg_numbers: Vec<u64> = std::fs::read_dir(&dir)?
            .filter_map(|entry| segment_number(&entry.ok()?.path()))
            .collect();
        seg_numbers.sort_unstable();
        if seg_numbers.is_empty() {
            seg_numbers.push(1);
        }

        let mut index = Index::default();
        let mut recovery = SegmentRecovery::default();
        for &seg in &seg_numbers {
            let path = segment_path(&dir, seg);
            let raw = match std::fs::read(&path) {
                Ok(raw) => raw,
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(err) => return Err(err.into()),
            };
            let outcome = scan(&raw);
            let mut cut = outcome.valid_len;
            let mut records = outcome.records;
            // A final record with intact framing but a failing CRC is a torn
            // append (the payload write itself was interrupted): cut there.
            // Mid-file CRC failures are at-rest corruption and stay
            // addressable so reads fail loudly instead of missing silently.
            if let Some(last) = records.last() {
                if !last.crc_ok {
                    cut = last.span.start;
                    records.pop();
                }
            }
            recovery.truncated_bytes += (raw.len() - cut) as u64;
            // The file's read buffer itself backs every recovered envelope.
            let buf = Bytes::from(raw).slice(0..cut);
            index.segments.insert(
                seg,
                Usage {
                    len: cut as u64,
                    live: 0,
                },
            );
            for record in records {
                let payload = &buf[record.payload.clone()];
                match record.kind {
                    KIND_CHUNK => {
                        let mut reader = WireReader::new(payload);
                        let parsed = reader
                            .get::<ChunkId>()
                            .and_then(|id| Ok((id, reader.get::<EnvelopeHeader>()?)));
                        match parsed {
                            Ok((id, header))
                                if CHUNK_RECORD_OVERHEAD + header.physical_len as usize
                                    == record.span.len() =>
                            {
                                // The one CRC check this record ever gets.
                                let body = record.span.start + CHUNK_RECORD_OVERHEAD;
                                let envelope = record
                                    .crc_ok
                                    .then(|| header.into_envelope(buf.slice(body..record.span.end)))
                                    .and_then(Result::ok);
                                if envelope.is_none() {
                                    recovery.corrupt_records += 1;
                                }
                                index.insert(id, seg, record.span.len() as u64, envelope);
                            }
                            // Undecodable chunk record: unreachable with a
                            // passing CRC, droppable garbage without one.
                            _ => recovery.corrupt_records += 1,
                        }
                    }
                    KIND_TOMBSTONE => {
                        if record.crc_ok {
                            if let Ok(id) = blobseer_types::wire::decode::<ChunkId>(payload) {
                                index.remove(&id);
                                continue;
                            }
                        }
                        // A corrupt tombstone is ignored rather than applied:
                        // deleting the wrong chunk is worse than leaking one
                        // (the sweeper re-issues deletes it could not prove).
                        recovery.corrupt_records += 1;
                    }
                    _ => recovery.corrupt_records += 1,
                }
            }
            // Physically drop the torn tail so future appends extend a
            // well-framed file.
            let file_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            if file_len > cut as u64 {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(cut as u64)?;
                file.sync_data()?;
            }
            recovery.segments += 1;
        }

        let last_seg = *seg_numbers.last().unwrap();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&dir, last_seg))?;
        let len = file.metadata()?.len();
        recovery.recovered_chunks = index.slots.len() as u64;
        Ok(SegmentStore {
            dir,
            opts,
            active: Mutex::new(Active {
                seg: last_seg,
                tail: LogTail::new(file, len),
                appended: 0,
            }),
            index: RwLock::new(index),
            synced: AtomicU64::new(0),
            recovery,
        })
    }

    /// What recovery found when this store was opened.
    #[must_use]
    pub fn recovery(&self) -> SegmentRecovery {
        self.recovery
    }

    /// The directory the segments live in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Flushes the active segment to stable storage. The durable tier calls
    /// this from its commit hook under [`Durability::Commit`], *before* the
    /// WAL commit record is written — the write-ahead ordering that makes
    /// publication atomic. The fsync runs outside the append lock, so
    /// appends keep flowing during it, and is skipped when an earlier one
    /// already covers every appended byte.
    pub fn sync(&self) -> Result<()> {
        let (file, appended) = {
            let active = self.active.lock();
            (active.tail.handle()?, active.appended)
        };
        if self.synced.load(Ordering::Acquire) < appended {
            file.sync_data()?;
            self.synced.fetch_max(appended, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Number of segment files currently on disk.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.index.read().segments.len()
    }

    /// Bytes that a [`SegmentStore::compact`] pass could reclaim: everything
    /// in sealed segments not covered by a live record.
    #[must_use]
    pub fn reclaimable_bytes(&self) -> u64 {
        self.index
            .read()
            .sealed()
            .map(|(_, usage)| usage.len - usage.live)
            .sum()
    }

    /// Fraction of sealed-segment bytes a [`SegmentStore::compact`] pass
    /// would reclaim — the dead-record ratio compaction policy triggers on.
    /// `0.0` when no segment is sealed yet (an active segment is never a
    /// compaction victim, so its garbage does not count).
    #[must_use]
    pub fn dead_ratio(&self) -> f64 {
        let (total, dead) = self
            .index
            .read()
            .sealed()
            .fold((0u64, 0u64), |(total, dead), (_, usage)| {
                (total + usage.len, dead + usage.len - usage.live)
            });
        if total == 0 {
            0.0
        } else {
            dead as f64 / total as f64
        }
    }

    /// Rewrites every sealed segment's surviving records into the active
    /// segment and deletes the sealed files, folding tombstoned, superseded
    /// and torn bytes away. Returns `(segments_removed, bytes_reclaimed)`.
    /// Corrupt records are dropped (they were unreadable anyway; replication
    /// and writer repair own redundancy).
    pub fn compact(&self) -> Result<(u64, u64)> {
        // Only segments sealed *before* this pass are victims. The rewrite
        // below may roll the active segment, sealing fresh segments full of
        // survivors mid-flight; chasing those would copy the same records
        // forward forever.
        let Some((last, _)) = self.index.read().sealed().last() else {
            return Ok((0, 0));
        };
        let survivors: Vec<ChunkId> = self
            .index
            .read()
            .slots
            .iter()
            .filter(|(_, slot)| slot.seg <= last)
            .map(|(id, _)| *id)
            .collect();
        let mut rewritten = 0u64;
        for id in &survivors {
            rewritten += self.relocate(id, last)?;
        }
        // The rewritten survivors must be on disk before the files holding
        // their only other copy go.
        self.sync()?;
        let victims = {
            let mut index = self.index.write();
            let newer = index.segments.split_off(&(last + 1));
            std::mem::replace(&mut index.segments, newer)
        };
        let mut victim_bytes = 0u64;
        for (&seg, usage) in &victims {
            std::fs::remove_file(segment_path(&self.dir, seg))?;
            victim_bytes += usage.len;
        }
        Ok((victims.len() as u64, victim_bytes.saturating_sub(rewritten)))
    }

    /// Rewrites `id`'s record into the active segment if it still lives in
    /// a segment no newer than `last`, and returns the bytes written. A
    /// record recovery found corrupt is dropped instead: that turns a
    /// permanent read error into a clean miss replicas can answer.
    fn relocate(&self, id: &ChunkId, last: u64) -> Result<u64> {
        // Checked under the append lock, so a concurrent remove or rewrite
        // of the chunk wins.
        let mut active = self.active.lock();
        let envelope = match self.index.read().slots.get(id) {
            Some(slot) if slot.seg <= last => slot.envelope.clone(),
            _ => return Ok(0),
        };
        let Some(envelope) = envelope else {
            self.index.write().remove(id);
            return Ok(0);
        };
        let record = chunk_record(id, &envelope);
        let len = record.len() as u64;
        self.append_locked(&mut active, &record, |index, seg| {
            index.insert(*id, seg, len, Some(envelope));
        })?;
        Ok(len)
    }

    /// Appends a framed record to the active segment and applies `update`
    /// to the index under the same lock, so the index always agrees with
    /// the log's order.
    fn append<T>(&self, record: &[u8], update: impl FnOnce(&mut Index, u64) -> T) -> Result<T> {
        self.append_locked(&mut self.active.lock(), record, update)
    }

    fn append_locked<T>(
        &self,
        active: &mut Active,
        record: &[u8],
        update: impl FnOnce(&mut Index, u64) -> T,
    ) -> Result<T> {
        if active.tail.len() >= self.opts.segment_bytes && active.tail.len() > 0 {
            self.roll(active)?;
        }
        active
            .tail
            .append(record, self.opts.durability == Durability::Always)?;
        active.appended += record.len() as u64;
        let mut index = self.index.write();
        index.segments.entry(active.seg).or_default().len += record.len() as u64;
        Ok(update(&mut index, active.seg))
    }

    /// Seals the active segment — one fsync, nothing read back — and makes
    /// a fresh segment file the append target.
    fn roll(&self, active: &mut Active) -> Result<()> {
        active.tail.handle()?.sync_data()?;
        self.synced.fetch_max(active.appended, Ordering::AcqRel);
        let next = active.seg + 1;
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(&self.dir, next))?;
        self.index.write().segments.insert(next, Usage::default());
        active.seg = next;
        active.tail = LogTail::new(file, 0);
        Ok(())
    }
}

impl ChunkStore for SegmentStore {
    fn put(&self, id: ChunkId, data: ChunkEnvelope) -> Result<()> {
        match self.get(&id) {
            Ok(Some(existing)) if existing == data => return Ok(()),
            Ok(Some(_)) => {
                return Err(BlobError::Internal(format!(
                    "conflicting immutable chunk write for {id}"
                )))
            }
            // A corrupt at-rest copy is superseded by the rewrite: writers
            // repairing a failed read land here.
            Ok(None) | Err(_) => {}
        }
        // Framed (and checksummed) outside the append lock.
        let record = chunk_record(&id, &data);
        let len = record.len() as u64;
        self.append(&record, |index, seg| index.insert(id, seg, len, Some(data)))
    }

    fn get(&self, id: &ChunkId) -> Result<Option<ChunkEnvelope>> {
        let index = self.index.read();
        let Some(slot) = index.slots.get(id) else {
            return Ok(None);
        };
        match &slot.envelope {
            Some(envelope) => Ok(Some(envelope.clone())),
            None => Err(BlobError::Transport(format!(
                "chunk {id}: its record in segment {} failed its CRC at recovery \
                 (at-rest corruption)",
                slot.seg
            ))),
        }
    }

    fn remove(&self, id: &ChunkId) -> Option<u64> {
        // Check membership first so removing an absent chunk appends
        // nothing; the tombstone lands before the index forgets the chunk,
        // mirroring recovery's replay order.
        if !self.index.read().slots.contains_key(id) {
            return None;
        }
        let record = frame_record(KIND_TOMBSTONE, &encode(id));
        self.append(&record, |index, _| index.remove(id)).ok()?
    }

    fn chunk_count(&self) -> usize {
        self.index.read().slots.len()
    }

    fn bytes_stored(&self) -> u64 {
        self.index.read().physical
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::reference_crc32;
    use blobseer_types::BlobId;
    use proptest::collection;
    use proptest::prelude::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("blobseer-persist-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cid(slot: u64) -> ChunkId {
        ChunkId {
            blob: BlobId(1),
            write_tag: 7,
            slot,
        }
    }

    fn env(data: Vec<u8>) -> ChunkEnvelope {
        ChunkEnvelope::verbatim(Bytes::from(data))
    }

    #[test]
    fn roundtrip_and_reopen_recovers_everything() {
        let dir = temp_dir("roundtrip");
        {
            let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
            for i in 0..10u64 {
                store.put(cid(i), env(vec![i as u8; 100])).unwrap();
            }
            assert_eq!(store.chunk_count(), 10);
            assert_eq!(store.bytes_stored(), 1000);
        }
        let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
        assert_eq!(store.recovery().recovered_chunks, 10);
        assert_eq!(store.recovery().truncated_bytes, 0);
        assert_eq!(store.chunk_count(), 10);
        assert_eq!(store.bytes_stored(), 1000);
        for i in 0..10u64 {
            assert_eq!(
                store.get(&cid(i)).unwrap().unwrap(),
                env(vec![i as u8; 100])
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_reads_share_the_segment_buffer() {
        let dir = temp_dir("zerocopy");
        {
            let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
            store.put(cid(0), env(vec![42u8; 4096])).unwrap();
        }
        let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
        let a = store.get(&cid(0)).unwrap().unwrap();
        let b = store.get(&cid(0)).unwrap().unwrap();
        // Both reads are slices of the same recovered buffer: identical
        // payload addresses prove no copy was made.
        assert_eq!(a.payload().as_ptr(), b.payload().as_ptr());
        assert_eq!(a.payload().len(), 4096);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compressed_envelopes_survive_restart_without_recoding() {
        let dir = temp_dir("codec");
        let sealed = ChunkEnvelope::compressed(8192, Bytes::from(vec![3u8; 512]));
        {
            let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
            store.put(cid(0), sealed.clone()).unwrap();
        }
        let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
        let back = store.get(&cid(0)).unwrap().unwrap();
        assert_eq!(back, sealed);
        assert!(!back.is_verbatim());
        assert_eq!(back.logical_len(), 8192);
        assert_eq!(store.bytes_stored(), 512);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let dir = temp_dir("torn");
        {
            let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
            store.put(cid(0), env(vec![1u8; 64])).unwrap();
            store.put(cid(1), env(vec![2u8; 64])).unwrap();
        }
        // Simulate a crash mid-append: chop the last record in half.
        let path = segment_path(&dir, 1);
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 40).unwrap();
        drop(file);
        let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
        assert_eq!(store.recovery().recovered_chunks, 1);
        assert!(store.recovery().truncated_bytes > 0);
        assert_eq!(store.get(&cid(0)).unwrap().unwrap(), env(vec![1u8; 64]));
        assert_eq!(store.get(&cid(1)).unwrap(), None);
        // Appends after the truncation work and survive another reopen.
        store.put(cid(2), env(vec![3u8; 64])).unwrap();
        drop(store);
        let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
        assert_eq!(store.recovery().recovered_chunks, 2);
        assert_eq!(store.recovery().truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_surfaces_as_retryable_transport_error() {
        let dir = temp_dir("corrupt");
        {
            let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
            store.put(cid(0), env(vec![5u8; 256])).unwrap();
            store.put(cid(1), env(vec![6u8; 256])).unwrap();
        }
        // Flip one payload byte of the FIRST record (not the last, which
        // the torn-tail rule would truncate instead).
        let path = segment_path(&dir, 1);
        let mut raw = std::fs::read(&path).unwrap();
        raw[RECORD_HEADER_BYTES + CHUNK_ID_BYTES + ENVELOPE_HEADER_BYTES + 17] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
        assert_eq!(store.recovery().corrupt_records, 1);
        assert!(matches!(store.get(&cid(0)), Err(BlobError::Transport(_))));
        // The chunk still *counts* as held — it exists, it is unreadable.
        assert!(store.contains(&cid(0)));
        assert_eq!(store.get(&cid(1)).unwrap().unwrap(), env(vec![6u8; 256]));
        // A writer repairing the chunk overwrites the corrupt copy.
        store.put(cid(0), env(vec![5u8; 256])).unwrap();
        assert_eq!(store.get(&cid(0)).unwrap().unwrap(), env(vec![5u8; 256]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstones_survive_restart_and_compaction_reclaims() {
        let dir = temp_dir("tombstone");
        let opts = SegmentStoreOptions {
            segment_bytes: 1024,
            ..SegmentStoreOptions::default()
        };
        {
            let store = SegmentStore::open(&dir, opts).unwrap();
            for i in 0..20u64 {
                store.put(cid(i), env(vec![i as u8; 200])).unwrap();
            }
            for i in 0..10u64 {
                assert_eq!(store.remove(&cid(i)), Some(200));
            }
            assert_eq!(store.remove(&cid(0)), None, "removals are idempotent");
            assert_eq!(store.chunk_count(), 10);
        }
        let store = SegmentStore::open(&dir, opts).unwrap();
        assert_eq!(store.chunk_count(), 10, "tombstones replayed on reopen");
        assert!(store.get(&cid(3)).unwrap().is_none());
        assert!(store.get(&cid(15)).unwrap().is_some());
        assert!(store.segment_count() > 1);
        assert!(store.reclaimable_bytes() > 0);
        let (segments, reclaimed) = store.compact().unwrap();
        assert!(segments > 0);
        assert!(reclaimed > 0);
        // Every survivor still reads back after compaction and a reopen.
        for i in 10..20u64 {
            assert_eq!(
                store.get(&cid(i)).unwrap().unwrap(),
                env(vec![i as u8; 200])
            );
        }
        drop(store);
        let store = SegmentStore::open(&dir, opts).unwrap();
        assert_eq!(store.chunk_count(), 10);
        for i in 10..20u64 {
            assert_eq!(
                store.get(&cid(i)).unwrap().unwrap(),
                env(vec![i as u8; 200])
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_roll_at_the_configured_size() {
        let dir = temp_dir("roll");
        let opts = SegmentStoreOptions {
            segment_bytes: 512,
            ..SegmentStoreOptions::default()
        };
        let store = SegmentStore::open(&dir, opts).unwrap();
        for i in 0..8u64 {
            store.put(cid(i), env(vec![i as u8; 300])).unwrap();
        }
        assert!(store.segment_count() >= 4);
        // Sealed-segment reads still return the right bytes.
        for i in 0..8u64 {
            assert_eq!(
                store.get(&cid(i)).unwrap().unwrap(),
                env(vec![i as u8; 300])
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn conflicting_rewrites_are_rejected() {
        let dir = temp_dir("conflict");
        let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
        store.put(cid(0), env(vec![1u8; 16])).unwrap();
        store.put(cid(0), env(vec![1u8; 16])).unwrap();
        assert!(store.put(cid(0), env(vec![2u8; 16])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_keep_the_on_disk_format() {
        let dir = temp_dir("golden");
        // Long enough to fill several 16-byte CRC blocks with non-zero bytes.
        let block = b"an lz block that spans four sixteen-byte slices of the CRC loop";
        let sealed = ChunkEnvelope::compressed(4096, Bytes::from_static(block));
        {
            let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
            store.put(cid(9), sealed.clone()).unwrap();
            assert_eq!(store.remove(&cid(9)), Some(block.len() as u64));
        }
        let id = encode(&cid(9)).to_vec();
        let chunk_payload = [
            id.clone(),
            encode(&sealed.header()).to_vec(),
            block.to_vec(),
        ]
        .concat();
        let expected = [
            frame_record(KIND_CHUNK, &chunk_payload),
            frame_record(KIND_TOMBSTONE, &id),
        ]
        .concat();
        assert_eq!(std::fs::read(segment_path(&dir, 1)).unwrap(), expected);
        // The framing itself, built by hand with the bytewise reference
        // CRC: what every earlier version of the store wrote, so existing
        // segment directories still recover.
        let by_hand = |kind: u8, payload: &[u8]| {
            let crc = reference_crc32(&[&[kind][..], payload].concat());
            [
                &[crate::frame::RECORD_MAGIC, kind][..],
                &(payload.len() as u32).to_le_bytes(),
                &crc.to_le_bytes(),
                payload,
            ]
            .concat()
        };
        assert_eq!(
            expected,
            [
                by_hand(KIND_CHUNK, &chunk_payload),
                by_hand(KIND_TOMBSTONE, &id)
            ]
            .concat()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The dead-record accounting recomputed from the files alone: replay
    /// every segment in order, keep the last record of each chunk still
    /// live, and count everything else in sealed segments (all but the
    /// newest file) as dead. Returns `(dead, total)` sealed bytes.
    fn dead_bytes_on_disk(dir: &Path, live: &HashMap<ChunkId, ChunkEnvelope>) -> (u64, u64) {
        let mut segs: Vec<u64> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|entry| segment_number(&entry.ok()?.path()))
            .collect();
        segs.sort_unstable();
        let active = *segs.last().unwrap();
        let mut latest: HashMap<ChunkId, (u64, u64)> = HashMap::new();
        let mut total = 0u64;
        for &seg in &segs {
            let raw = std::fs::read(segment_path(dir, seg)).unwrap();
            let outcome = scan(&raw);
            assert_eq!(outcome.valid_len, raw.len(), "segment {seg} is torn");
            for record in outcome.records {
                let id: ChunkId = WireReader::new(&raw[record.payload.clone()]).get().unwrap();
                if record.kind == KIND_CHUNK {
                    latest.insert(id, (seg, record.span.len() as u64));
                } else {
                    latest.remove(&id);
                }
            }
            if seg != active {
                total += raw.len() as u64;
            }
        }
        let mut on_disk: Vec<ChunkId> = latest.keys().copied().collect();
        let mut in_model: Vec<ChunkId> = live.keys().copied().collect();
        on_disk.sort_unstable_by_key(|id| id.slot);
        in_model.sort_unstable_by_key(|id| id.slot);
        assert_eq!(on_disk, in_model, "the files replay to the model's chunks");
        let live_sealed: u64 = latest
            .values()
            .filter(|(seg, _)| *seg != active)
            .map(|(_, len)| len)
            .sum();
        (total - live_sealed, total)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn store_matches_a_hashmap_model_across_seals_compaction_and_reopen(
            ops in collection::vec((0u8..12, 0u64..10, 1usize..300), 1..80),
        ) {
            let dir = temp_dir("model");
            // Tiny segments: most appends seal one.
            let opts = SegmentStoreOptions {
                segment_bytes: 512,
                ..SegmentStoreOptions::default()
            };
            let mut store = SegmentStore::open(&dir, opts).unwrap();
            let mut model: HashMap<ChunkId, ChunkEnvelope> = HashMap::new();
            for (op, slot, len) in ops {
                let id = cid(slot);
                match op {
                    0..=5 => {
                        let payload = Bytes::from(vec![slot as u8 ^ len as u8; len]);
                        let data = if len % 3 == 0 {
                            ChunkEnvelope::compressed(4 * len as u64, payload)
                        } else {
                            ChunkEnvelope::verbatim(payload)
                        };
                        match model.get(&id) {
                            Some(held) if *held != data => {
                                prop_assert!(store.put(id, data).is_err(), "chunks are immutable");
                            }
                            _ => {
                                store.put(id, data.clone()).unwrap();
                                model.insert(id, data);
                            }
                        }
                    }
                    6..=8 => {
                        let freed = model.remove(&id).map(|data| data.physical_len());
                        prop_assert_eq!(store.remove(&id), freed);
                    }
                    9 => {
                        store.compact().unwrap();
                    }
                    _ => {
                        drop(store);
                        store = SegmentStore::open(&dir, opts).unwrap();
                        prop_assert_eq!(store.recovery().truncated_bytes, 0);
                        prop_assert_eq!(store.recovery().corrupt_records, 0);
                        prop_assert_eq!(store.recovery().recovered_chunks, model.len() as u64);
                    }
                }
                for slot in 0..10 {
                    prop_assert_eq!(store.get(&cid(slot)).unwrap(), model.get(&cid(slot)).cloned());
                }
                prop_assert_eq!(store.chunk_count(), model.len());
                prop_assert_eq!(
                    store.bytes_stored(),
                    model.values().map(ChunkEnvelope::physical_len).sum::<u64>()
                );
                let (dead, total) = dead_bytes_on_disk(&dir, &model);
                prop_assert_eq!(store.reclaimable_bytes(), dead);
                let ratio = if total == 0 { 0.0 } else { dead as f64 / total as f64 };
                prop_assert_eq!(store.dead_ratio(), ratio);
            }
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
