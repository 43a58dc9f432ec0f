//! Record framing shared by chunk segment files and the metadata WAL.
//!
//! Every durable file is a sequence of self-delimiting records:
//!
//! ```text
//! ┌───────┬──────┬─────────┬─────────┬────────────────┐
//! │ magic │ kind │ len u32 │ crc u32 │ payload (len B)│
//! └───────┴──────┴─────────┴─────────┴────────────────┘
//! ```
//!
//! The CRC (IEEE CRC-32) covers the kind byte and the payload, so a record
//! whose framing survived a crash but whose contents did not is detectable.
//! [`scan`] walks a buffer and classifies every byte: complete records
//! (each flagged `crc_ok` or not) followed by at most one *torn tail* — an
//! incomplete or unframeable suffix that a crash mid-append leaves behind
//! and recovery physically truncates. [`LogTail`] is the other end: it
//! appends records so that a failed write never leaves one behind.

use blobseer_types::{BlobError, Durability, Result};
use std::fs::File;
use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// First byte of every record; anything else marks the start of a torn tail.
pub const RECORD_MAGIC: u8 = 0xB5;

/// Bytes of framing before the payload: magic, kind, length, CRC.
pub const RECORD_HEADER_BYTES: usize = 1 + 1 + 4 + 4;

/// Incrementally computed IEEE CRC-32 (the polynomial every storage format
/// uses; hand-rolled because the build environment vendors no crc crate).
/// Slicing-by-16: sixteen bytes per step through sixteen derived tables,
/// about ten times the speed of the byte-at-a-time loop.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// `tables[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so the
/// sixteen bytes of a block can be folded in independently.
const fn crc32_slicing_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = crc32_table();
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 16 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_slicing_tables();

impl Crc32 {
    /// A fresh accumulator.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the accumulator.
    #[must_use]
    pub fn update(mut self, data: &[u8]) -> Self {
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            let mut bytes = [0u8; 16];
            bytes.copy_from_slice(block);
            let head = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) ^ self.state;
            bytes[..4].copy_from_slice(&head.to_le_bytes());
            let mut state = 0;
            for (i, &byte) in bytes.iter().enumerate() {
                state ^= CRC_TABLES[15 - i][usize::from(byte)];
            }
            self.state = state;
        }
        for &byte in blocks.remainder() {
            let idx = ((self.state ^ u32::from(byte)) & 0xFF) as usize;
            self.state = (self.state >> 8) ^ CRC_TABLES[0][idx];
        }
        self
    }

    /// The final checksum.
    #[must_use]
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// The checksum a record with this kind and payload must carry.
#[must_use]
pub fn record_crc(kind: u8, payload: &[u8]) -> u32 {
    Crc32::new().update(&[kind]).update(payload).finalize()
}

/// Serialises one framed record ready to append.
#[must_use]
pub fn frame_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    frame_parts(kind, &[payload])
}

/// Frames a record whose payload is the concatenation of `parts`: one
/// buffer, one copy of each part, one CRC pass over the copy.
pub(crate) fn frame_parts(kind: u8, parts: &[&[u8]]) -> Vec<u8> {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + len);
    out.extend_from_slice(&[RECORD_MAGIC, kind]);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    for part in parts {
        out.extend_from_slice(part);
    }
    let crc = record_crc(kind, &out[RECORD_HEADER_BYTES..]);
    out[6..RECORD_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    out
}

/// The file operations an appending log needs. [`File`] is the real one;
/// a test can open a [`MetaWal`](crate::MetaWal) over a wrapper whose
/// writes or fsyncs fail on demand (see `MetaWal::open_over`).
pub trait LogFile: Send + Sync {
    /// Appends `buf` at the end of the file.
    fn append(&self, buf: &[u8]) -> io::Result<()>;
    /// Cuts the file to `len` bytes.
    fn truncate(&self, len: u64) -> io::Result<()>;
    /// Flushes the file's data to stable storage.
    fn sync(&self) -> io::Result<()>;
}

impl<T: LogFile + ?Sized> LogFile for Box<T> {
    fn append(&self, buf: &[u8]) -> io::Result<()> {
        (**self).append(buf)
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        (**self).truncate(len)
    }

    fn sync(&self) -> io::Result<()> {
        (**self).sync()
    }
}

impl LogFile for File {
    fn append(&self, buf: &[u8]) -> io::Result<()> {
        let mut file: &File = self;
        file.write_all(buf)
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        self.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        self.sync_data()
    }
}

/// The append end of one log file (opened in append mode): the handle and
/// its length. An append either lands whole or leaves the file as it was —
/// a failed write is cut back off, so the next record never lands behind
/// garbage that recovery would stop at. When even the cut fails the tail
/// is *torn*, and it refuses every later append and sync (fail-stop);
/// [`LogTail::fail`] puts it in that state on purpose.
pub(crate) struct LogTail<F = File> {
    file: Arc<F>,
    len: u64,
    /// Bytes a completed fsync covers (everything found at open counts).
    synced_len: u64,
    torn: Option<String>,
}

impl<F: LogFile> LogTail<F> {
    /// The tail of `file`, which is `len` bytes long.
    pub(crate) fn new(file: F, len: u64) -> Self {
        LogTail {
            file: Arc::new(file),
            len,
            synced_len: len,
            torn: None,
        }
    }

    /// Bytes in the file.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Records that an fsync of `file` taken when the log was `len` bytes
    /// long completed. Ignored when `file` is no longer this tail's handle.
    pub(crate) fn synced(&mut self, file: &Arc<F>, len: u64) {
        if Arc::ptr_eq(file, &self.file) {
            self.synced_len = self.synced_len.max(len);
        }
    }

    /// Fails the log (fail-stop): every later append and sync is refused
    /// with `why`; the first reason sticks. With `cut_unsynced`, the bytes
    /// no fsync covered are cut off, best effort, so the file holds what a
    /// crash at the last good fsync would have left.
    pub(crate) fn fail(&mut self, why: String, cut_unsynced: bool) {
        if self.torn.is_none() {
            if cut_unsynced {
                let _ = self.file.truncate(self.synced_len);
            }
            self.torn = Some(why);
        }
    }

    /// Why the log failed, once it has.
    pub(crate) fn failure(&self) -> Option<&str> {
        self.torn.as_deref()
    }

    /// The file handle, for an fsync taken outside the caller's lock.
    pub(crate) fn handle(&self) -> Result<Arc<F>> {
        match &self.torn {
            Some(why) => Err(BlobError::Internal(format!("log is failed: {why}"))),
            None => Ok(Arc::clone(&self.file)),
        }
    }

    /// Appends one record, fsyncing it when `sync` is set.
    pub(crate) fn append(&mut self, record: &[u8], sync: bool) -> Result<()> {
        let file = self.handle()?;
        let written = file
            .append(record)
            .and_then(|()| if sync { file.sync() } else { Ok(()) });
        if let Err(err) = written {
            if let Err(cut) = file.truncate(self.len) {
                self.torn = Some(format!(
                    "append failed ({err}) and its partial bytes could not be cut back ({cut})"
                ));
            }
            return Err(err.into());
        }
        self.len += record.len() as u64;
        if sync {
            self.synced_len = self.len;
        }
        Ok(())
    }
}

/// Makes a name change in `dir` — a file created, renamed over or removed —
/// survive a power cut. Recovery finds logs by name, so a synced file is
/// only durable once its directory entry is. A no-op under
/// [`Durability::Buffered`], which promises no machine-crash safety.
pub(crate) fn sync_dir(dir: &Path, durability: Durability) -> Result<()> {
    if durability != Durability::Buffered {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// The directory holding `path` (`.` for a bare file name).
pub(crate) fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// One complete record found by [`scan`], as byte ranges into the scanned
/// buffer (no payload copies — the segment store indexes records by these
/// offsets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordView {
    /// The record's kind byte.
    pub kind: u8,
    /// The whole record, framing included.
    pub span: Range<usize>,
    /// The payload bytes inside the buffer.
    pub payload: Range<usize>,
    /// Whether the carried CRC matches the contents.
    pub crc_ok: bool,
}

/// What [`scan`] found in a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Every frame-complete record, in file order.
    pub records: Vec<RecordView>,
    /// Bytes of well-framed prefix; everything past this is the torn tail.
    pub valid_len: usize,
}

impl ScanOutcome {
    /// Bytes of torn tail a recovery pass should physically truncate, given
    /// the buffer length scanned.
    #[must_use]
    pub fn torn_bytes(&self, buf_len: usize) -> usize {
        buf_len - self.valid_len
    }
}

/// Walks `buf` record by record. Stops at the first incomplete or
/// unframeable suffix (bad magic, header cut short, or a declared length
/// running past the end of the buffer) — that suffix is the torn tail a
/// crash mid-append leaves. Records with intact framing but a failing CRC
/// are *returned* with `crc_ok == false`; the caller decides whether that
/// means "torn tail" (the WAL: trust nothing at or past it) or "corrupt
/// at-rest record" (chunk segments: keep it addressable and fail the read).
#[must_use]
pub fn scan(buf: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= RECORD_HEADER_BYTES {
        if buf[pos] != RECORD_MAGIC {
            break;
        }
        let kind = buf[pos + 1];
        let len = u32::from_le_bytes(buf[pos + 2..pos + 6].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 6..pos + 10].try_into().unwrap());
        let payload_start = pos + RECORD_HEADER_BYTES;
        let Some(end) = payload_start.checked_add(len) else {
            break;
        };
        if end > buf.len() {
            break;
        }
        let crc_ok = record_crc(kind, &buf[payload_start..end]) == crc;
        records.push(RecordView {
            kind,
            span: pos..end,
            payload: payload_start..end,
            crc_ok,
        });
        pos = end;
    }
    ScanOutcome {
        records,
        valid_len: pos,
    }
}

/// The byte-at-a-time CRC-32 the slicing tables are derived from: the
/// reference the fast path is tested against.
#[cfg(test)]
pub(crate) fn reference_crc32(data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut state = 0xFFFF_FFFFu32;
    for &byte in data {
        state = (state >> 8) ^ table[((state ^ u32::from(byte)) & 0xFF) as usize];
    }
    state ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use proptest::collection;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn fast_crc_matches_the_bytewise_reference(
            data in collection::vec(any::<u8>(), 0..700),
            offset in 0usize..16,
            splits in collection::vec(0usize..700, 0..4),
        ) {
            // Slicing at `offset` moves the start off the allocation's
            // alignment; the split points exercise incremental feeding.
            let data = &data[offset.min(data.len())..];
            let want = reference_crc32(data);
            prop_assert_eq!(Crc32::new().update(data).finalize(), want);
            let mut cuts: Vec<usize> = splits.iter().map(|&s| s % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                crc = crc.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(crc.update(&data[from..]).finalize(), want);
        }
    }

    /// An in-memory log file whose writes fail once it holds `fail_at`
    /// bytes (after writing what fits), and whose truncation fails while
    /// `stuck` is set.
    struct FlakyFile {
        bytes: Mutex<Vec<u8>>,
        fail_at: AtomicUsize,
        stuck: AtomicBool,
    }

    impl FlakyFile {
        fn new(fail_at: usize) -> Self {
            FlakyFile {
                bytes: Mutex::new(Vec::new()),
                fail_at: AtomicUsize::new(fail_at),
                stuck: AtomicBool::new(false),
            }
        }
    }

    impl LogFile for FlakyFile {
        fn append(&self, buf: &[u8]) -> io::Result<()> {
            let mut bytes = self.bytes.lock();
            let room = self
                .fail_at
                .load(Ordering::SeqCst)
                .saturating_sub(bytes.len());
            let fits = room.min(buf.len());
            bytes.extend_from_slice(&buf[..fits]);
            if fits < buf.len() {
                return Err(io::Error::other("injected short write"));
            }
            Ok(())
        }

        fn truncate(&self, len: u64) -> io::Result<()> {
            if self.stuck.load(Ordering::SeqCst) {
                return Err(io::Error::other("injected truncate failure"));
            }
            self.bytes.lock().truncate(len as usize);
            Ok(())
        }

        fn sync(&self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_append_leaves_no_partial_record() {
        let first = frame_record(1, b"acknowledged");
        let failing = frame_record(2, b"fails part way through");
        let after = frame_record(1, b"acknowledged after the failure");
        for fail_after in 0..failing.len() {
            let mut tail = LogTail::new(FlakyFile::new(first.len() + fail_after), 0);
            tail.append(&first, false).unwrap();
            assert!(tail.append(&failing, true).is_err());
            tail.file.fail_at.store(usize::MAX, Ordering::SeqCst);
            tail.append(&after, false).unwrap();
            let bytes = tail.file.bytes.lock().clone();
            assert_eq!(bytes, [first.clone(), after.clone()].concat());
            assert_eq!(tail.len(), bytes.len() as u64);
            let outcome = scan(&bytes);
            assert_eq!(outcome.records.len(), 2, "fail after {fail_after} bytes");
            assert_eq!(outcome.valid_len, bytes.len());
        }
    }

    #[test]
    fn an_append_that_cannot_be_cut_back_fails_the_log() {
        let file = FlakyFile::new(20);
        file.stuck.store(true, Ordering::SeqCst);
        let mut tail = LogTail::new(file, 0);
        assert!(tail.append(&frame_record(1, &[7; 64]), false).is_err());
        tail.file.fail_at.store(usize::MAX, Ordering::SeqCst);
        let refused = tail.append(&frame_record(1, b"next"), false);
        assert!(matches!(refused, Err(BlobError::Internal(_))));
        assert!(tail.handle().is_err(), "a torn log refuses syncs too");
        assert_eq!(
            tail.file.bytes.lock().len(),
            20,
            "nothing lands behind the torn bytes"
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(Crc32::new().update(b"123456789").finalize(), 0xCBF4_3926);
        assert_eq!(Crc32::new().finalize(), 0);
        // Incremental feeding is equivalent to one shot.
        assert_eq!(
            Crc32::new().update(b"1234").update(b"56789").finalize(),
            0xCBF4_3926
        );
    }

    #[test]
    fn framed_records_scan_back() {
        let mut buf = frame_record(1, b"hello");
        buf.extend_from_slice(&frame_record(2, b""));
        buf.extend_from_slice(&frame_record(1, b"world"));
        let outcome = scan(&buf);
        assert_eq!(outcome.records.len(), 3);
        assert_eq!(outcome.valid_len, buf.len());
        assert!(outcome.records.iter().all(|r| r.crc_ok));
        assert_eq!(&buf[outcome.records[0].payload.clone()], b"hello");
        assert_eq!(outcome.records[1].kind, 2);
        assert_eq!(&buf[outcome.records[2].payload.clone()], b"world");
    }

    #[test]
    fn torn_tail_is_cut_at_the_last_complete_record() {
        let mut buf = frame_record(1, b"complete");
        let keep = buf.len();
        let torn = frame_record(1, b"never finished");
        buf.extend_from_slice(&torn[..torn.len() - 3]);
        let outcome = scan(&buf);
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.valid_len, keep);
        assert_eq!(outcome.torn_bytes(buf.len()), torn.len() - 3);
    }

    #[test]
    fn garbage_magic_ends_the_scan() {
        let mut buf = frame_record(3, b"good");
        let keep = buf.len();
        buf.extend_from_slice(&[0u8; 64]);
        let outcome = scan(&buf);
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.valid_len, keep);
    }

    #[test]
    fn flipped_payload_byte_fails_the_crc_but_keeps_framing() {
        let mut buf = frame_record(1, b"precious bytes");
        let n = buf.len();
        buf[n - 3] ^= 0x40;
        buf.extend_from_slice(&frame_record(1, b"after"));
        let outcome = scan(&buf);
        assert_eq!(outcome.records.len(), 2);
        assert!(!outcome.records[0].crc_ok, "corruption must be detected");
        assert!(outcome.records[1].crc_ok, "later records still scan");
        assert_eq!(outcome.valid_len, buf.len());
    }

    #[test]
    fn a_declared_length_past_the_end_is_a_torn_tail() {
        let mut buf = frame_record(1, b"ok");
        let keep = buf.len();
        // Hand-build a header declaring 1 GiB of payload that is not there.
        buf.push(RECORD_MAGIC);
        buf.push(1);
        buf.extend_from_slice(&(1u32 << 30).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(b"tiny");
        let outcome = scan(&buf);
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.valid_len, keep);
    }
}
