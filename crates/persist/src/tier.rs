//! The durable tier: one metadata WAL plus one chunk segment store per
//! hosted provider, opened from (and recovered out of) a single directory.
//!
//! ```text
//! <dir>/
//!   meta.wal            — indexed append-only metadata log (+ checkpoints)
//!   provider-0000/      — chunk segment files of provider 0
//!     seg-000000.log
//!     ...
//!   provider-0001/
//! ```
//!
//! The tier implements [`Journal`], the version manager's durability hook.
//! Its commit is the write-ahead ordering in three steps, none of which
//! holds a fsync under the blob lock:
//!
//! 1. [`Journal::prepare_commit`], before the lock: under
//!    [`Durability::Commit`] it fsyncs every provider's segment store, so a
//!    commit record appended afterwards never names a chunk that is not on
//!    disk. A store no append touched since its last fsync skips the call.
//!    Each put already asked the kernel to start writing its whole pages
//!    back, so the fsync mostly waits for writes under way.
//! 2. [`Journal::append_commit`], under the lock: the WAL record, unsynced.
//! 3. [`Journal::sync_commits`], after the lock: the WAL's group fsync
//!    ([`MetaWal::sync_through`]), one for every commit queued behind it.
//!
//! Any failed fsync, of a segment store or of the WAL, fails the WAL for
//! good: a disk that lost bytes once is not trusted with a commit again. A
//! segment store whose fsync failed is failed too, and refuses every later
//! put.

use crate::frame::{open_log_file, LogFile};
use crate::segment::{SegmentStore, SegmentStoreOptions};
use crate::wal::{Journal, MetaWal, RecoveredMetadata};
use blobseer_meta::SnapshotDescriptor;
use blobseer_types::{BlobConfig, BlobId, Durability, Result, Version};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Tuning knobs of a [`DurableTier`].
#[derive(Debug, Clone, Copy)]
pub struct DurableTierOptions {
    /// Fsync policy, shared by the WAL and every segment store.
    pub durability: Durability,
    /// Segment roll size per provider store.
    pub segment_bytes: u64,
    /// WAL records between automatic checkpoints (see
    /// [`MetaWal::records_since_checkpoint`]); the maintenance pass
    /// compares against this.
    pub checkpoint_every: u64,
    /// WAL bytes appended since the last checkpoint that also make one due
    /// (whichever threshold trips first). Zero disables the byte trigger.
    pub checkpoint_bytes: u64,
    /// Dead-record ratio above which a provider's segment store is
    /// compacted by [`DurableTier::compact_stores`].
    pub compact_dead_ratio: f64,
}

impl Default for DurableTierOptions {
    fn default() -> Self {
        DurableTierOptions {
            durability: Durability::default(),
            segment_bytes: 64 << 20,
            checkpoint_every: 4096,
            checkpoint_bytes: 16 << 20,
            compact_dead_ratio: 0.5,
        }
    }
}

/// One open durable directory: WAL + per-provider segment stores.
pub struct DurableTier {
    options: DurableTierOptions,
    wal: Arc<MetaWal>,
    stores: Vec<Arc<SegmentStore>>,
}

impl DurableTier {
    /// Opens (creating if absent) a durable directory hosting `providers`
    /// segment stores, replaying the WAL and every segment file. Returns
    /// the tier and the recovered metadata image, its stats merged with
    /// the chunk-side recovery counters.
    pub fn open(
        dir: impl AsRef<Path>,
        providers: usize,
        options: DurableTierOptions,
    ) -> Result<(Self, RecoveredMetadata)> {
        Self::open_over(dir, providers, options, open_log_file)
    }

    /// [`DurableTier::open`], with every file of the WAL and of the segment
    /// stores opened or created through `open` instead of
    /// [`open_log_file`]. Tests pass a wrapper whose writes, fsyncs or reads
    /// fail on demand.
    pub fn open_over(
        dir: impl AsRef<Path>,
        providers: usize,
        options: DurableTierOptions,
        open: impl Fn(&Path) -> io::Result<Box<dyn LogFile>> + Clone + Send + Sync + 'static,
    ) -> Result<(Self, RecoveredMetadata)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let (wal, mut recovered) =
            MetaWal::open_over(dir.join("meta.wal"), options.durability, open.clone())?;
        let seg_opts = SegmentStoreOptions {
            durability: options.durability,
            segment_bytes: options.segment_bytes,
        };
        let mut stores = Vec::with_capacity(providers);
        for idx in 0..providers {
            let store = SegmentStore::open_over(
                dir.join(format!("provider-{idx:04}")),
                seg_opts,
                open.clone(),
            )?;
            let seg = store.recovery();
            recovered.stats.recovered_chunks += seg.recovered_chunks;
            recovered.stats.segment_truncated_bytes += seg.truncated_bytes;
            recovered.stats.corrupt_chunk_records += seg.corrupt_records;
            stores.push(Arc::new(store));
        }
        Ok((
            DurableTier {
                options,
                wal: Arc::new(wal),
                stores,
            },
            recovered,
        ))
    }

    /// The metadata WAL.
    #[must_use]
    pub fn wal(&self) -> &Arc<MetaWal> {
        &self.wal
    }

    /// The per-provider segment stores, in provider index order.
    #[must_use]
    pub fn stores(&self) -> &[Arc<SegmentStore>] {
        &self.stores
    }

    /// Whether the WAL has accumulated enough records — or enough bytes —
    /// since the last checkpoint for a maintenance pass to take one
    /// (whichever trigger trips first).
    #[must_use]
    pub fn checkpoint_due(&self) -> bool {
        if self.wal.records_since_checkpoint() >= self.options.checkpoint_every {
            return true;
        }
        self.options.checkpoint_bytes > 0
            && self.wal.bytes_since_checkpoint() >= self.options.checkpoint_bytes
    }

    /// Compacts every segment store whose dead-record ratio has crossed
    /// `options.compact_dead_ratio`, returning the total
    /// `(segments_removed, bytes_reclaimed)`. Stores below the threshold
    /// are left alone — rewriting mostly-live segments would copy much and
    /// reclaim little.
    pub fn compact_stores(&self) -> Result<(u64, u64)> {
        let mut removed = 0u64;
        let mut reclaimed = 0u64;
        for store in &self.stores {
            if store.dead_ratio() >= self.options.compact_dead_ratio {
                let (segs, bytes) = store.compact()?;
                removed += segs;
                reclaimed += bytes;
            }
        }
        Ok((removed, reclaimed))
    }
}

impl Journal for DurableTier {
    fn record_create_blob(&self, blob: BlobId, config: &BlobConfig) -> Result<()> {
        self.wal.log_create_blob(blob, config)
    }

    fn prepare_commit(&self) -> Result<()> {
        // Write-ahead ordering: the chunks of a version must be durable
        // before the record that publishes them. Under `Always` every
        // record was already synced; under `Buffered` the caller opted out
        // of syncing entirely. Under `Commit` every put already started
        // the writeback of its whole pages, so these fsyncs mostly wait
        // for writes under way and commit the file system's journal; an
        // error in that writeback surfaces here, as a failed fsync.
        if self.options.durability == Durability::Commit {
            if let Err(err) = self.stores.iter().try_for_each(|store| store.sync()) {
                self.wal.fail(format!("segment store fsync failed: {err}"));
                return Err(err);
            }
        }
        Ok(())
    }

    fn append_commit(&self, blob: BlobId, descriptor: &SnapshotDescriptor) -> Result<u64> {
        self.wal.append_commit(blob, descriptor)
    }

    fn sync_commits(&self, seq: u64) -> Result<()> {
        self.wal.sync_through(seq)
    }

    fn record_retire(&self, blob: BlobId, first_retained: Version) -> Result<()> {
        self.wal.log_retire(blob, first_retained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_provider::ChunkStore;
    use blobseer_types::wire::ChunkEnvelope;
    use blobseer_types::{BlobId as ChunkBlobId, ChunkId};
    use bytes::Bytes;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn chunk_id(tag: u64, slot: u64) -> ChunkId {
        ChunkId {
            blob: ChunkBlobId(1),
            write_tag: tag,
            slot,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "blobseer-persist-tier-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_creates_layout_and_recovers_chunks() {
        let dir = temp_dir("layout");
        let id = chunk_id(2, 3);
        {
            let (tier, recovered) =
                DurableTier::open(&dir, 2, DurableTierOptions::default()).unwrap();
            assert_eq!(recovered.stats.recovered_chunks, 0);
            tier.stores()[1]
                .put(id, ChunkEnvelope::verbatim(Bytes::from_static(b"payload")))
                .unwrap();
        }
        let (tier, recovered) = DurableTier::open(&dir, 2, DurableTierOptions::default()).unwrap();
        assert_eq!(recovered.stats.recovered_chunks, 1);
        assert!(tier.stores()[1].get(&id).unwrap().is_some());
        assert!(tier.stores()[0].get(&id).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment file that takes early-writeback requests (passing them to
    /// the real file, and counting them) and whose fsyncs fail with EIO
    /// while `failing` is set.
    struct WritebackThenEio {
        file: Box<dyn LogFile>,
        failing: Arc<AtomicBool>,
        requests: Arc<AtomicUsize>,
    }

    impl LogFile for WritebackThenEio {
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

        fn start_writeback(&self, at: u64, len: u64) {
            self.requests.fetch_add(1, Ordering::SeqCst);
            self.file.start_writeback(at, len);
        }
    }

    /// Early writeback changes nothing about fail-stop: a store whose pages
    /// were handed to writeback and whose commit fsync then fails fails the
    /// commit, the store and the WAL, and a reopen finds only what the last
    /// good fsync covered.
    #[test]
    fn a_failed_fsync_after_early_writeback_fails_the_store_and_the_wal() {
        let dir = temp_dir("writeback-eio");
        let (failing, requests) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicUsize::new(0)),
        );
        let (disk, asked) = (Arc::clone(&failing), Arc::clone(&requests));
        let (tier, _) =
            DurableTier::open_over(&dir, 1, DurableTierOptions::default(), move |path| {
                Ok(Box::new(WritebackThenEio {
                    file: open_log_file(path)?,
                    failing: Arc::clone(&disk),
                    requests: Arc::clone(&asked),
                }))
            })
            .unwrap();
        let store = &tier.stores()[0];
        let chunk = |slot| ChunkEnvelope::verbatim(Bytes::from(vec![slot as u8; 64 << 10]));
        // Eight chunks per commit: 512 KiB, two writeback requests' worth.
        for slot in 0..8 {
            store.put(chunk_id(1, slot), chunk(slot)).unwrap();
        }
        tier.prepare_commit().unwrap();
        for slot in 8..16 {
            store.put(chunk_id(1, slot), chunk(slot)).unwrap();
        }
        let asked = requests.load(Ordering::SeqCst);
        assert!(asked >= 3, "the puts asked for writeback {asked} times");
        failing.store(true, Ordering::SeqCst);
        assert!(tier.prepare_commit().is_err());
        failing.store(false, Ordering::SeqCst);
        assert!(store.sync().is_err(), "a failed store never syncs again");
        assert!(store.put(chunk_id(1, 16), chunk(16)).is_err());
        assert!(
            tier.wal().failure().is_some(),
            "the WAL failed with the store"
        );
        assert!(tier.prepare_commit().is_err());
        drop(tier);
        let (tier, recovered) = DurableTier::open(&dir, 1, DurableTierOptions::default()).unwrap();
        assert_eq!(
            recovered.stats.recovered_chunks, 8,
            "the unsynced puts are cut"
        );
        for slot in 0..8 {
            let found = tier.stores()[0].get(&chunk_id(1, slot)).unwrap();
            assert_eq!(found, Some(chunk(slot)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_journal_survives_reopen() {
        let dir = temp_dir("journal");
        let config = BlobConfig::new(64, 1).unwrap();
        {
            let (tier, _) = DurableTier::open(&dir, 1, DurableTierOptions::default()).unwrap();
            tier.record_create_blob(BlobId(7), &config).unwrap();
            tier.prepare_commit().unwrap();
            let seq = tier
                .append_commit(
                    BlobId(7),
                    &SnapshotDescriptor {
                        version: Version(1),
                        size: 64,
                        chunk_size: 64,
                        flat: false,
                    },
                )
                .unwrap();
            tier.sync_commits(seq).unwrap();
        }
        let (_, recovered) = DurableTier::open(&dir, 1, DurableTierOptions::default()).unwrap();
        assert_eq!(recovered.blobs.len(), 1);
        assert_eq!(recovered.blobs[0].id, BlobId(7));
        assert_eq!(recovered.blobs[0].published.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
