//! Append-only chunk segment files: the durable backend behind
//! [`blobseer_provider::ChunkStore`], one keyspace over the log engine
//! ([`crate::frame`]).
//!
//! One provider owns one directory of `seg-NNNNNN.log` files, the engine's
//! numbered files. Every sealed [`ChunkEnvelope`] is appended verbatim as
//! one CRC-framed record; an in-memory index maps chunk ids to slots.
//! Removals append *tombstone* records — the log itself is never rewritten
//! in place — and [`SegmentStore::compact`] folds tombstoned and superseded
//! bytes away by rewriting survivors into the active segment and retiring
//! the sealed ones.
//!
//! The engine owns recovery, appends, rolling, syncing, fail-stop,
//! positioned reads and retiring files. The store keeps what chunk records
//! mean: the index, tombstones, the dead-byte accounting and compaction's
//! survivor relocation.
//!
//! The log is the store. A slot holds where its record lies (segment,
//! offset, length) and the envelope header, never the payload. A read is
//! one positioned read of the payload into an exact-size buffer, and that
//! buffer becomes the envelope's payload with no further copy, so aligned
//! reads keep the client's `payload_bytes_copied == 0`. The only RAM above
//! the segments is the serving side's bounded chunk cache, so a store's
//! memory does not grow with the bytes it holds.
//!
//! A record's CRC is computed once, when it is appended, and checked once,
//! when recovery scans it; reads never re-check it. Only a CRC-failing
//! *final* record of a file is a torn append, cut at recovery. A record
//! whose CRC failed elsewhere stays addressable, and every read of it fails
//! with the retryable [`BlobError::Transport`] — as does a positioned read
//! that fails or comes up short — so readers rotate to another replica
//! instead of consuming silent corruption.
//!
//! Fail-stop: a failed fsync (a commit's sync, a roll's seal) fails the
//! store for good. Every later put and remove is refused, while reads of
//! what it holds go on. A failed append that was cut back cleanly is only
//! that append's error: the next put is taken.

use crate::frame::{
    frame_parts, frame_record, open_log_file, parent_dir, sync_dir, Appender, LogConfig, LogFile,
    RecordLog, RecordView, RECORD_HEADER_BYTES,
};
use blobseer_provider::ChunkStore;
use blobseer_types::wire::{encode, WireReader};
use blobseer_types::{BlobError, ChunkEnvelope, ChunkId, Durability, EnvelopeHeader, Result};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
}

/// One indexed chunk: where its record lies, and no payload.
#[derive(Clone, Copy)]
struct Slot {
    /// Segment holding the record.
    seg: u64,
    /// Offset of the record in its segment file.
    offset: u64,
    /// Record length on disk, framing included.
    len: u64,
    /// The chunk's envelope header; `None` when recovery found the record's
    /// CRC failing.
    header: Option<EnvelopeHeader>,
}

impl Slot {
    fn physical_len(&self) -> u64 {
        self.len - CHUNK_RECORD_OVERHEAD as u64
    }
}

/// One segment file's length and the bytes of it live slots cover.
#[derive(Default)]
struct Segment {
    len: u64,
    live: u64,
}

#[derive(Default)]
struct Index {
    slots: HashMap<ChunkId, Slot>,
    /// Every segment file, oldest first; the last is the active one.
    segments: BTreeMap<u64, Segment>,
    /// Physical payload bytes of every indexed chunk.
    physical: u64,
}

impl Index {
    /// Indexes `id` at `slot`, replacing (and un-counting) any earlier slot
    /// of the same chunk.
    fn insert(&mut self, id: ChunkId, slot: Slot) {
        self.segments.entry(slot.seg).or_default().live += slot.len;
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
        if let Some(segment) = self.segments.get_mut(&slot.seg) {
            segment.live -= slot.len;
        }
        self.physical -= slot.physical_len();
    }

    /// Replays one recovered record of segment `seg`, returning whether it
    /// was corrupt.
    fn replay(&mut self, seg: u64, record: &RecordView, payload: &[u8]) -> bool {
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
                        let slot = Slot {
                            seg,
                            offset: record.span.start as u64,
                            len: record.span.len() as u64,
                            header: record.crc_ok.then_some(header),
                        };
                        self.insert(id, slot);
                        !record.crc_ok
                    }
                    // Undecodable chunk record: unreachable with a passing
                    // CRC, droppable garbage without one.
                    _ => true,
                }
            }
            KIND_TOMBSTONE => {
                if record.crc_ok {
                    if let Ok(id) = blobseer_types::wire::decode::<ChunkId>(payload) {
                        self.remove(&id);
                        return false;
                    }
                }
                // A corrupt tombstone is ignored rather than applied:
                // deleting the wrong chunk is worse than leaking one (the
                // sweeper re-issues deletes it could not prove).
                true
            }
            _ => true,
        }
    }

    /// Every segment but the active one, which is always the newest.
    fn sealed(&self) -> impl Iterator<Item = (u64, &Segment)> + '_ {
        let active = self.segments.keys().next_back().copied().unwrap_or(0);
        self.segments
            .range(..active)
            .map(|(&seg, segment)| (seg, segment))
    }
}

/// The log-structured durable chunk store.
pub struct SegmentStore {
    log: RecordLog,
    index: RwLock<Index>,
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

impl SegmentStore {
    /// Opens (or creates) the segment directory, replaying every segment
    /// file: torn tails are physically truncated, tombstones are folded into
    /// the index, and the last segment becomes the active append target.
    /// Files are scanned one at a time and only their index survives, so
    /// opening peaks at one segment file of memory.
    pub fn open(dir: impl AsRef<Path>, opts: SegmentStoreOptions) -> Result<Self> {
        Self::open_over(dir, opts, open_log_file)
    }

    /// [`SegmentStore::open`], with every segment file opened or created
    /// through `open` instead of [`open_log_file`]. Tests pass a wrapper
    /// whose writes, fsyncs or reads fail on demand.
    pub fn open_over(
        dir: impl AsRef<Path>,
        opts: SegmentStoreOptions,
        open: impl Fn(&Path) -> io::Result<Box<dyn LogFile>> + Send + Sync + 'static,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut numbers: Vec<u64> = std::fs::read_dir(&dir)?
            .filter_map(|entry| segment_number(&entry.ok()?.path()))
            .collect();
        numbers.sort_unstable();
        let created = numbers.is_empty();
        let mut index = Index::default();
        let mut corrupt_records = 0;
        let named = dir.clone();
        let config = LogConfig {
            dir: dir.clone(),
            path: Box::new(move |seg| segment_path(&named, seg)),
            durability: opts.durability,
            roll_bytes: opts.segment_bytes,
            fail_on_append_error: false,
            open: Arc::new(open),
        };
        let (log, found) = RecordLog::open(config, numbers, |seg, record, payload, last| {
            // A final record with intact framing but a failing CRC is a torn
            // append (the payload write itself was interrupted): cut there.
            // Mid-file CRC failures are at-rest corruption and stay
            // addressable so reads fail loudly instead of missing silently.
            if last && !record.crc_ok {
                return false;
            }
            corrupt_records += u64::from(index.replay(seg, record, payload));
            true
        })?;
        if created {
            // The new directory's own name must outlive a power cut too.
            sync_dir(parent_dir(&dir), opts.durability)?;
        }
        for &(seg, len) in &found.files {
            index.segments.entry(seg).or_default().len = len;
        }
        let recovery = SegmentRecovery {
            recovered_chunks: index.slots.len() as u64,
            truncated_bytes: found.truncated_bytes,
            corrupt_records,
        };
        Ok(SegmentStore {
            log,
            index: RwLock::new(index),
            recovery,
        })
    }

    /// What recovery found when this store was opened.
    #[must_use]
    pub fn recovery(&self) -> SegmentRecovery {
        self.recovery
    }

    /// Flushes every appended record to stable storage: the log's group
    /// fsync through the newest record. The durable tier calls this from
    /// its commit hook under [`Durability::Commit`], *before* the WAL commit
    /// record is written — the write-ahead ordering that makes publication
    /// atomic. Appends keep flowing during the fsync, and it is skipped when
    /// an earlier one already covers every appended record. A failed fsync
    /// fails the store for good, and every later sync reports it — even
    /// when a roll's seal failed with every record already synced.
    pub fn sync(&self) -> Result<()> {
        match self.log.failure() {
            Some(why) => Err(BlobError::Storage(why)),
            None => self.log.sync_through(self.log.appended()),
        }
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
            .map(|(_, segment)| segment.len - segment.live)
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
            .fold((0u64, 0u64), |(total, dead), (_, segment)| {
                (total + segment.len, dead + segment.len - segment.live)
            });
        if total == 0 {
            0.0
        } else {
            dead as f64 / total as f64
        }
    }

    /// Rewrites every sealed segment's surviving records into the active
    /// segment and retires the sealed files, folding tombstoned, superseded
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
        self.log.retire(last)?;
        let retired = {
            let mut index = self.index.write();
            let newer = index.segments.split_off(&(last + 1));
            std::mem::replace(&mut index.segments, newer)
        };
        let victim_bytes: u64 = retired.values().map(|segment| segment.len).sum();
        Ok((retired.len() as u64, victim_bytes.saturating_sub(rewritten)))
    }

    /// Rewrites `id`'s record into the active segment if it still lives in
    /// a segment no newer than `last`, and returns the bytes written. A
    /// record recovery found corrupt is dropped instead: that turns a
    /// permanent read error into a clean miss replicas can answer.
    fn relocate(&self, id: &ChunkId, last: u64) -> Result<u64> {
        // Checked under the append lock, so a concurrent remove or rewrite
        // of the chunk wins.
        let mut log = self.log.lock();
        let (slot, file) = {
            let index = self.index.read();
            match index.slots.get(id) {
                Some(&slot) if slot.seg <= last => (slot, self.log.reader(slot.seg)?),
                _ => return Ok(0),
            }
        };
        if slot.header.is_none() {
            self.index.write().remove(id);
            return Ok(0);
        }
        // The record moves byte for byte, CRC included, so damage done to
        // it since it was written is still caught by the next recovery
        // instead of being re-framed as valid.
        let record = file.read(slot.offset, slot.len as usize)?;
        self.append(&mut log, &record, slot.header, |index, moved| {
            index.insert(*id, moved)
        })?;
        Ok(slot.len)
    }

    /// Appends a framed record and applies `update` to the index under the
    /// append lock, so the index always agrees with the log's order.
    /// `update` gets the slot the record would have as a chunk carrying
    /// `header`.
    fn append<T>(
        &self,
        log: &mut Appender<'_>,
        record: &[u8],
        header: Option<EnvelopeHeader>,
        update: impl FnOnce(&mut Index, Slot) -> T,
    ) -> Result<T> {
        log.append(record, false, |pos| {
            let len = record.len() as u64;
            let mut index = self.index.write();
            index.segments.entry(pos.file).or_default().len += len;
            let slot = Slot {
                seg: pos.file,
                offset: pos.offset,
                len,
                header,
            };
            update(&mut index, slot)
        })
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
            // A corrupt or unreadable at-rest copy is superseded by the
            // rewrite: writers repairing a failed read land here.
            Ok(None) | Err(_) => {}
        }
        // Framed (and checksummed) outside the append lock. The arrived
        // envelope is dropped once its record is in the log.
        let header = data.header();
        let record = frame_parts(
            KIND_CHUNK,
            &[&encode(&id), &encode(&header), data.payload()],
        );
        let mut log = self.log.lock();
        self.append(&mut log, &record, Some(header), |index, slot| {
            index.insert(id, slot)
        })
    }

    fn get(&self, id: &ChunkId) -> Result<Option<ChunkEnvelope>> {
        let (slot, header, file) = {
            let index = self.index.read();
            let Some(&slot) = index.slots.get(id) else {
                return Ok(None);
            };
            let Some(header) = slot.header else {
                return Err(BlobError::Transport(format!(
                    "chunk {id}: its record in segment {} failed its CRC at recovery \
                     (at-rest corruption)",
                    slot.seg
                )));
            };
            // Taken under the index lock: compaction retires a file only
            // after every slot in it has moved.
            (slot, header, self.log.reader(slot.seg)?)
        };
        // Read outside the index lock: appends and other reads go on.
        let payload = file.read(
            slot.offset + CHUNK_RECORD_OVERHEAD as u64,
            header.physical_len as usize,
        )?;
        header.into_envelope(Bytes::from(payload)).map(Some)
    }

    fn contains(&self, id: &ChunkId) -> bool {
        self.index.read().slots.contains_key(id)
    }

    fn remove(&self, id: &ChunkId) -> Option<u64> {
        // Check membership first so removing an absent chunk appends
        // nothing; the tombstone lands before the index forgets the chunk,
        // mirroring recovery's replay order.
        if !self.contains(id) {
            return None;
        }
        let record = frame_record(KIND_TOMBSTONE, &encode(id));
        let mut log = self.log.lock();
        self.append(&mut log, &record, None, |index, _| index.remove(id))
            .ok()?
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
    use crate::frame::{reference_crc32, scan};
    use blobseer_types::BlobId;
    use proptest::collection;
    use proptest::prelude::*;
    use std::fs::OpenOptions;
    use std::sync::atomic::{AtomicBool, Ordering};

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
    fn reopened_store_serves_every_envelope_from_the_log() {
        // A slot records where its record lies and never the payload.
        assert!(std::mem::size_of::<Slot>() <= 64);
        let dir = temp_dir("reopen");
        let opts = SegmentStoreOptions {
            segment_bytes: 4096,
            ..SegmentStoreOptions::default()
        };
        let model: Vec<(ChunkId, ChunkEnvelope)> = (0..24u64)
            .map(|i| {
                let payload = Bytes::from(vec![i as u8 ^ 0x5A; 300 + 97 * i as usize]);
                let data = if i % 3 == 0 {
                    ChunkEnvelope::compressed(8192, payload)
                } else {
                    ChunkEnvelope::verbatim(payload)
                };
                (cid(i), data)
            })
            .collect();
        {
            let store = SegmentStore::open(&dir, opts).unwrap();
            for (id, data) in &model {
                store.put(*id, data.clone()).unwrap();
            }
            assert!(store.segment_count() > 2);
        }
        let store = SegmentStore::open(&dir, opts).unwrap();
        assert_eq!(store.recovery().recovered_chunks, model.len() as u64);
        for (id, data) in &model {
            let back = store.get(id).unwrap().unwrap();
            assert_eq!(&back, data);
            assert_eq!(back.payload().len() as u64, data.physical_len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_segment_file_fails_reads_retryably() {
        let dir = temp_dir("damaged");
        let opts = SegmentStoreOptions {
            segment_bytes: 1024,
            ..SegmentStoreOptions::default()
        };
        let store = SegmentStore::open(&dir, opts).unwrap();
        for i in 0..12u64 {
            store.put(cid(i), env(vec![i as u8; 300])).unwrap();
        }
        assert!(store.segment_count() > 2);
        let in_first: Vec<ChunkId> = {
            let index = store.index.read();
            (0..12)
                .map(cid)
                .filter(|id| index.slots[id].seg == 1)
                .collect()
        };
        assert!(
            in_first.len() > 1,
            "the first segment is sealed with records"
        );
        let path = segment_path(&dir, 1);
        let len = std::fs::metadata(&path).unwrap().len();

        // Truncated behind the open store: the records past the cut are
        // unreachable, and every read of them is the retryable error.
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        let mut failed = 0;
        for id in &in_first {
            match store.get(id) {
                Ok(Some(data)) => assert_eq!(data, env(vec![id.slot as u8; 300])),
                Err(BlobError::Transport(_)) => failed += 1,
                other => panic!("chunk {id}: {other:?}"),
            }
        }
        assert!(failed >= 1);

        // Replaced in place by a short file: the same, for every record.
        std::fs::write(&path, b"not a segment").unwrap();
        for id in &in_first {
            assert!(matches!(store.get(id), Err(BlobError::Transport(_))));
            assert!(store.contains(id), "an unreadable chunk is still held");
        }
        // Chunks in other segments are untouched, and a writer repairing a
        // damaged chunk supersedes its record.
        assert_eq!(store.get(&cid(11)).unwrap().unwrap(), env(vec![11; 300]));
        store
            .put(in_first[0], env(vec![in_first[0].slot as u8; 300]))
            .unwrap();
        assert_eq!(
            store.get(&in_first[0]).unwrap().unwrap(),
            env(vec![in_first[0].slot as u8; 300])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reads_racing_compaction_return_the_model_bytes() {
        let dir = temp_dir("race");
        let opts = SegmentStoreOptions {
            segment_bytes: 2048,
            ..SegmentStoreOptions::default()
        };
        let store = SegmentStore::open(&dir, opts).unwrap();
        let mut model: HashMap<ChunkId, ChunkEnvelope> = HashMap::new();
        for i in 0..48u64 {
            let data = env(vec![i as u8; 200 + 13 * i as usize]);
            store.put(cid(i), data.clone()).unwrap();
            model.insert(cid(i), data);
        }
        for i in (0..48u64).step_by(3) {
            store.remove(&cid(i)).unwrap();
            model.remove(&cid(i));
        }
        // A reader that cloned a segment's handle just before a compaction
        // deleted the file, frozen at that point.
        let (held_slot, held_file) = {
            let index = store.index.read();
            let slot = index.slots[&cid(1)];
            (slot, store.log.reader(slot.seg).unwrap())
        };
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Every pass moves each survivor out of the segment it was
                // in and deletes that file under the reader's feet.
                for _ in 0..40 {
                    store.compact().unwrap();
                }
                done.store(true, Ordering::Release);
            });
            let mut rounds = 0;
            while !done.load(Ordering::Acquire) || rounds < 2 {
                for (id, data) in &model {
                    assert_eq!(store.get(id).unwrap().as_ref(), Some(data), "{id}");
                }
                rounds += 1;
            }
        });
        assert!(!segment_path(&dir, held_slot.seg).exists());
        let payload = held_file
            .read(
                held_slot.offset + CHUNK_RECORD_OVERHEAD as u64,
                held_slot.physical_len() as usize,
            )
            .unwrap();
        assert_eq!(payload, model[&cid(1)].payload().as_ref());
        drop(store);
        let store = SegmentStore::open(&dir, opts).unwrap();
        assert_eq!(store.chunk_count(), model.len());
        for (id, data) in &model {
            assert_eq!(store.get(id).unwrap().as_ref(), Some(data));
        }
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

    /// A segment file whose appends run out of space half way through
    /// while `full` is set.
    struct FillingDisk {
        file: Box<dyn LogFile>,
        full: Arc<AtomicBool>,
    }

    impl LogFile for FillingDisk {
        fn append(&self, buf: &[u8]) -> io::Result<()> {
            if self.full.load(Ordering::SeqCst) {
                self.file.append(&buf[..buf.len() / 2])?;
                return Err(io::Error::from_raw_os_error(28));
            }
            self.file.append(buf)
        }

        fn truncate(&self, len: u64) -> io::Result<()> {
            self.file.truncate(len)
        }

        fn sync(&self) -> io::Result<()> {
            self.file.sync()
        }

        fn read_at(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
            self.file.read_at(buf, at)
        }
    }

    /// An ENOSPC mid-append leaves no partial record behind: a reopen finds
    /// exactly the records that were acknowledged, and the store takes the
    /// next put once space is back.
    #[test]
    fn an_enospc_mid_append_leaves_no_partial_record() {
        let dir = temp_dir("enospc");
        let full = Arc::new(AtomicBool::new(false));
        let disk = Arc::clone(&full);
        let store = SegmentStore::open_over(&dir, SegmentStoreOptions::default(), move |path| {
            Ok(Box::new(FillingDisk {
                file: open_log_file(path)?,
                full: Arc::clone(&disk),
            }))
        })
        .unwrap();
        store.put(cid(0), env(vec![1u8; 300])).unwrap();
        full.store(true, Ordering::SeqCst);
        assert!(store.put(cid(1), env(vec![2u8; 300])).is_err());
        assert!(!store.contains(&cid(1)));
        let raw = std::fs::read(segment_path(&dir, 1)).unwrap();
        assert_eq!(scan(&raw).valid_len, raw.len(), "no partial record");
        full.store(false, Ordering::SeqCst);
        store.put(cid(2), env(vec![3u8; 300])).unwrap();
        drop(store);
        let store = SegmentStore::open(&dir, SegmentStoreOptions::default()).unwrap();
        assert_eq!(store.recovery().truncated_bytes, 0);
        assert_eq!(store.recovery().corrupt_records, 0);
        assert_eq!(store.recovery().recovered_chunks, 2);
        assert_eq!(store.get(&cid(0)).unwrap().unwrap(), env(vec![1u8; 300]));
        assert_eq!(store.get(&cid(1)).unwrap(), None);
        assert_eq!(store.get(&cid(2)).unwrap().unwrap(), env(vec![3u8; 300]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment file whose fsyncs fail with EIO while `failing` is set.
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
                return Err(io::Error::from_raw_os_error(5));
            }
            self.file.sync()
        }

        fn read_at(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
            self.file.read_at(buf, at)
        }
    }

    /// A failed fsync fails the store for good, whether a commit's sync or
    /// a roll's seal hit it: every later put and sync is refused even once
    /// the disk is healthy — a seal that failed with every record already
    /// synced included — reads of what reached the disk go on, and a reopen
    /// finds exactly that.
    #[test]
    fn a_failed_fsync_stops_the_store() {
        for seal in [false, true] {
            let dir = temp_dir(&format!("fsync-{seal}"));
            let failing = Arc::new(AtomicBool::new(false));
            let disk = Arc::clone(&failing);
            let opts = SegmentStoreOptions {
                // Tiny segments: the second put seals the first.
                segment_bytes: if seal { 64 } else { 64 << 20 },
                ..SegmentStoreOptions::default()
            };
            let store = SegmentStore::open_over(&dir, opts, move |path| {
                Ok(Box::new(FailingSync {
                    file: open_log_file(path)?,
                    failing: Arc::clone(&disk),
                }))
            })
            .unwrap();
            store.put(cid(0), env(vec![1u8; 100])).unwrap();
            store.sync().unwrap();
            if seal {
                failing.store(true, Ordering::SeqCst);
                assert!(store.put(cid(1), env(vec![2u8; 100])).is_err());
            } else {
                store.put(cid(1), env(vec![2u8; 100])).unwrap();
                failing.store(true, Ordering::SeqCst);
                assert!(store.sync().is_err());
            }
            failing.store(false, Ordering::SeqCst);
            assert!(store.put(cid(2), env(vec![3u8; 100])).is_err());
            assert!(store.sync().is_err(), "a failed store never syncs again");
            assert_eq!(store.get(&cid(0)).unwrap().unwrap(), env(vec![1u8; 100]));
            drop(store);
            let store = SegmentStore::open(&dir, opts).unwrap();
            assert_eq!(
                store.recovery().recovered_chunks,
                1,
                "seal: {seal}: the unsynced put is cut"
            );
            assert_eq!(store.get(&cid(0)).unwrap().unwrap(), env(vec![1u8; 100]));
            let _ = std::fs::remove_dir_all(&dir);
        }
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
