//! # blobseer-persist — the durable, log-structured persistence tier
//!
//! BlobSeer's versioning model is append-only all the way down: chunks are
//! immutable, metadata tree nodes are immutable, and a version exists the
//! instant the version manager publishes its snapshot descriptor. This
//! crate maps that model onto disks with the only layout an append-only
//! system needs — logs — and writes the log mechanics once:
//!
//! - **One log engine** (`frame`): numbered files of CRC-framed records.
//!   It owns torn-tail recovery (a per-record visitor says where a file
//!   ends), appends that land whole or not at all, rolling, the group fsync
//!   (one leader, outside the append lock), fail-stop (a failed fsync fails
//!   the log for good, and the reason is readable without a lock),
//!   positioned reads (a failure is the retryable `Transport`), retiring
//!   sealed files, and the fault seam: every file it opens or creates comes
//!   from one opener, [`open_log_file`] unless a test passes a [`LogFile`]
//!   double through an `open_over` constructor. The two stores below are
//!   keyspaces over it.
//! - **Chunk segment files** ([`SegmentStore`]): each provider appends
//!   sealed [`ChunkEnvelope`](blobseer_types::wire::ChunkEnvelope)s
//!   verbatim (compressed chunks stay compressed) into `seg-NNNNNN.log`
//!   files. The log is the store: the index holds each record's position,
//!   never its payload, and every read is one positioned read into the
//!   buffer that becomes the chunk's payload — the same
//!   `payload_bytes_copied == 0` discipline the RAM tier keeps. The
//!   serving side's bounded chunk cache is the only RAM tier above the
//!   segments. Deletes are tombstone records folded by
//!   [`SegmentStore::compact`]. The store keeps the index, tombstones and
//!   compaction's survivor relocation.
//! - **Metadata WAL** ([`MetaWal`]): every blob creation, node batch,
//!   commit, delete and retire is a record of `meta.wal`. Publication is
//!   write-ahead: chunks and nodes land (and under
//!   [`Durability::Commit`](blobseer_types::Durability) are fsynced) before
//!   the commit record, so recovery can replay the log, truncate the torn
//!   tail, keep the longest contiguous commit prefix per blob and drop
//!   orphaned pre-commit records — a crash at any byte yields the last
//!   complete version, never a torn snapshot. The WAL keeps the record
//!   codecs, replay and the fuzzy checkpoint.
//! - **[`DurableTier`]**: one directory holding the WAL plus per-provider
//!   segment stores; implements [`Journal`], the version manager's
//!   durability hook. WAL checkpoints are fuzzy: the live state is
//!   captured without holding the log, and the records appended since the
//!   checkpoint began are carried behind the compacted image (temp-file +
//!   fsync + rename + directory fsync).
//!
//! The crate sits below `blobseer-core` (which wires the tier into cluster
//! construction and lifecycle maintenance) and beside `blobseer-provider`
//! (whose [`ChunkStore`](blobseer_provider::ChunkStore) trait the segment
//! store implements, with the RAM store relegated to cache duty).

#![deny(unsafe_code)]

mod frame;
mod segment;
#[allow(unsafe_code)]
mod sys;
mod tier;
mod wal;

pub use frame::{
    frame_record, open_log_file, record_crc, scan, Crc32, LogFile, RecordView, ScanOutcome,
    RECORD_HEADER_BYTES, RECORD_MAGIC,
};
pub use segment::{SegmentRecovery, SegmentStore, SegmentStoreOptions};
pub use tier::{DurableTier, DurableTierOptions};
pub use wal::{
    CheckpointImage, Journal, MetaWal, RecoveredBlob, RecoveredMetadata, RecoveryStats,
    WalMetaStore,
};
