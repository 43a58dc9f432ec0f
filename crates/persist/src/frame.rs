//! Records, their framing, and the one log engine both durable stores sit
//! on.
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
//! It is computed by carry-less multiplication where the CPU has it, and by
//! slicing-by-16 tables elsewhere; both give the same bytes.
//! [`scan`] walks a buffer and classifies every byte: complete records
//! (each flagged `crc_ok` or not) followed by at most one *torn tail* — an
//! incomplete or unframeable suffix that a crash mid-append leaves behind
//! and recovery physically truncates.
//!
//! `RecordLog` is the engine: numbered files of records, appended to at the
//! newest. Everything a log does that does not depend on what its records
//! mean is written here once:
//! - **recovery**, one file at a time: read, scan, let the caller's visitor
//!   say where the file ends, truncate the torn tail and fsync the cut;
//! - **appends** under one lock, with a callback that learns each record's
//!   file, offset and sequence number under that lock; a failed write is
//!   cut back off, and the active file rolls to the next number at the
//!   caller's size limit, fsyncing the sealed one;
//! - **early writeback**: under [`Durability::Commit`], once the append
//!   lock is released, the kernel is asked to start writing back the whole
//!   pages appended since the last request, once they make 256 KiB, and
//!   never the partial page the next append writes into. The later fsync
//!   then mostly waits for writes already under way. The request is a hint
//!   with no wait flag, so an error in the writeback it starts is still
//!   reported by that fsync;
//! - the **group fsync**, `sync_through(seq)`: one leader fsyncs outside the
//!   append lock and raises the synced mark for everything appended before
//!   it started;
//! - **fail-stop**: a failed fsync fails the log for good and cuts its
//!   unsynced tail; the reason is readable without a lock;
//! - **positioned reads** into exact-size buffers, where a failure is the
//!   retryable [`BlobError::Transport`];
//! - **retiring** sealed files, and **replacing** a one-file log whole;
//! - the **fault seam**: every file it opens or creates comes from one
//!   opener, [`open_log_file`] unless a test passes a [`LogFile`] double.
//!
//! The chunk segment store and the metadata WAL are two keyspaces over it,
//! in the same on-disk format.

use crate::sys;
use blobseer_types::{BlobError, Durability, Result};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// First byte of every record; anything else marks the start of a torn tail.
pub const RECORD_MAGIC: u8 = 0xB5;

/// Bytes of framing before the payload: magic, kind, length, CRC.
pub const RECORD_HEADER_BYTES: usize = 1 + 1 + 4 + 4;

/// Incrementally computed IEEE CRC-32 (the polynomial every storage format
/// uses; hand-rolled because the build environment vendors no crc crate).
/// On x86_64 CPUs with `pclmulqdq`, inputs of 64 bytes or more fold
/// 4×128 bits per carry-less multiply; everything else goes through
/// slicing-by-16 tables, sixteen bytes per step, about ten times the speed
/// of the byte-at-a-time loop.
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

/// Feeds `data` into a CRC state through the slicing-by-16 tables.
pub(crate) fn crc32_tables(mut state: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(block);
        let head = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) ^ state;
        bytes[..4].copy_from_slice(&head.to_le_bytes());
        state = 0;
        for (i, &byte) in bytes.iter().enumerate() {
            state ^= CRC_TABLES[15 - i][usize::from(byte)];
        }
    }
    for &byte in blocks.remainder() {
        let idx = ((state ^ u32::from(byte)) & 0xFF) as usize;
        state = (state >> 8) ^ CRC_TABLES[0][idx];
    }
    state
}

impl Crc32 {
    /// A fresh accumulator.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the accumulator.
    #[must_use]
    pub fn update(self, data: &[u8]) -> Self {
        Crc32 {
            state: sys::crc32_update(self.state, data),
        }
    }

    /// [`Crc32::update`] through the slicing-by-16 tables only, whatever the
    /// CPU: its fallback, public so a benchmark can set the two side by side.
    #[must_use]
    pub fn update_with_tables(self, data: &[u8]) -> Self {
        Crc32 {
            state: crc32_tables(self.state, data),
        }
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

/// The file operations a log needs. [`File`] is the real one, opened by
/// [`open_log_file`]; a store opened through an `open_over` constructor
/// gets every file from the caller's opener instead, which may wrap it in
/// a double whose writes, fsyncs or reads fail on demand.
pub trait LogFile: Send + Sync {
    /// Appends `buf` at the end of the file.
    fn append(&self, buf: &[u8]) -> io::Result<()>;
    /// Cuts the file to `len` bytes.
    fn truncate(&self, len: u64) -> io::Result<()>;
    /// Flushes the file's data to stable storage.
    fn sync(&self) -> io::Result<()>;
    /// Fills `buf` with the bytes at offset `at`; a short read is an error.
    fn read_at(&self, buf: &mut [u8], at: u64) -> io::Result<()>;
    /// Asks for the `len` bytes at `at` to start going to stable storage
    /// now, without waiting for them; a log calls it outside its append
    /// lock. A hint: it reports nothing, and a writeback it starts that
    /// fails is reported by the next [`LogFile::sync`]. The default does
    /// nothing, so a double need not implement it.
    fn start_writeback(&self, at: u64, len: u64) {
        let _ = (at, len);
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

    fn read_at(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
        FileExt::read_exact_at(self, buf, at)
    }

    fn start_writeback(&self, at: u64, len: u64) {
        sys::start_writeback(self, at, len);
    }
}

/// Opens a log file, creating it if absent, the way a log opens every file
/// unless it was given an opener: readable, and appended to at its end.
pub fn open_log_file(path: &Path) -> io::Result<Box<dyn LogFile>> {
    let file = OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)?;
    Ok(Box::new(file))
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

/// Opens every file of a [`RecordLog`]: [`open_log_file`], or a test's
/// failure-injecting wrapper around it.
pub(crate) type Opener = Arc<dyn Fn(&Path) -> io::Result<Box<dyn LogFile>> + Send + Sync>;

/// A log file's shared handle. The active file's appends and every
/// positioned read go through it; a reader that cloned it finishes on the
/// file even after the log retired or replaced it.
type Handle = Arc<Box<dyn LogFile>>;

/// How a [`RecordLog`] names and treats its files.
pub(crate) struct LogConfig {
    /// The directory holding the files; its entries are fsynced after every
    /// name change.
    pub(crate) dir: PathBuf,
    /// The path of file number `n`.
    pub(crate) path: Box<dyn Fn(u64) -> PathBuf + Send + Sync>,
    pub(crate) durability: Durability,
    /// Size at which the active file is sealed and the next numbered file
    /// started (`u64::MAX`: never).
    pub(crate) roll_bytes: u64,
    /// Whether a failed append fails the log, as a failed fsync always does.
    pub(crate) fail_on_append_error: bool,
    pub(crate) open: Opener,
}

/// Where an appended record landed.
pub(crate) struct Pos {
    /// The file's number.
    pub(crate) file: u64,
    /// The record's offset in the file.
    pub(crate) offset: u64,
    /// The record's sequence number: records appended since open.
    pub(crate) seq: u64,
}

/// What recovering a log's files found.
#[derive(Debug, Default)]
pub(crate) struct Recovered {
    /// Every file, oldest first, with its length once the torn tail is cut.
    pub(crate) files: Vec<(u64, u64)>,
    /// Torn-tail bytes physically truncated.
    pub(crate) truncated_bytes: u64,
}

/// The file appends go to.
struct Active {
    no: u64,
    file: Handle,
    /// Bytes in the file.
    len: u64,
    /// Bytes a completed fsync covers (everything found at open counts).
    synced_len: u64,
    /// Bytes an early-writeback request already covers.
    kicked: u64,
}

/// Page size early-writeback requests are cut at: a request ends on a
/// page boundary, so it never covers the page the next append writes into.
const PAGE_BYTES: u64 = 4096;

/// The smallest early-writeback request (64 pages). Each request is a
/// disk write of its own: a store of small, compressed records asks once
/// per several records instead of once per record, which on
/// `read_under_append` (21 KiB records) cost concurrent reads 15 % of
/// their throughput.
const WRITEBACK_MIN_BYTES: u64 = 256 << 10;

/// The one log engine under both durable stores: numbered files of framed
/// records, appended to at the newest. It owns recovery, appends, rolling,
/// the group fsync, fail-stop, positioned reads and retiring files; a store
/// keeps only what its records mean.
pub(crate) struct RecordLog {
    config: LogConfig,
    /// The append lock.
    active: Mutex<Active>,
    /// The read handle of every file, the active one included.
    files: RwLock<BTreeMap<u64, Handle>>,
    /// Records appended since open: the sequence number of the newest one.
    /// Raised under the append lock.
    appended: AtomicU64,
    /// Every record with a sequence number up to this is on disk. Raised
    /// (`AcqRel`) only after the fsync that covers it returned.
    synced: AtomicU64,
    /// Held by the one caller of [`RecordLog::sync_through`] that fsyncs.
    sync_leader: Mutex<()>,
    fsyncs: AtomicU64,
    /// Set by [`RecordLog::seal`] at shutdown.
    sealed: AtomicBool,
    /// Why the log failed, once it has (fail-stop). Set under the append
    /// lock, read without it.
    failed: OnceLock<String>,
}

impl RecordLog {
    /// Opens the log over the files numbered `numbers` (oldest first; none
    /// creates file 1 and fsyncs its directory entry). Files are recovered
    /// one at a time, so opening peaks at one file of memory: read,
    /// [`scan`], then `visit(file, record, payload, is_last)` for each
    /// complete record in order. Where `visit` returns false the file ends:
    /// that record and everything after it are the torn tail, which is
    /// truncated and fsynced away. The newest file becomes the append
    /// target.
    pub(crate) fn open(
        config: LogConfig,
        mut numbers: Vec<u64>,
        mut visit: impl FnMut(u64, &RecordView, &[u8], bool) -> bool,
    ) -> Result<(Self, Recovered)> {
        let created = numbers.is_empty();
        if created {
            numbers.push(1);
        }
        let mut recovered = Recovered::default();
        let mut files = BTreeMap::new();
        for &no in &numbers {
            let path = (config.path)(no);
            let file = (config.open)(&path)?;
            let len = if created {
                // The new file's name must outlive a power cut before
                // anything is appended to it.
                sync_dir(&config.dir, config.durability)?;
                0
            } else {
                std::fs::metadata(&path)?.len() as usize
            };
            let mut raw = vec![0; len];
            file.read_at(&mut raw, 0)?;
            let outcome = scan(&raw);
            let mut cut = outcome.valid_len;
            let last = outcome.records.len().saturating_sub(1);
            for (i, record) in outcome.records.iter().enumerate() {
                if !visit(no, record, &raw[record.payload.clone()], i == last) {
                    cut = record.span.start;
                    break;
                }
            }
            if cut < len {
                file.truncate(cut as u64)?;
                file.sync()?;
                recovered.truncated_bytes += (len - cut) as u64;
            }
            recovered.files.push((no, cut as u64));
            files.insert(no, Arc::new(file));
        }
        let (&no, file) = files.iter().next_back().expect("a log has a file");
        let len = recovered.files.last().map_or(0, |&(_, len)| len);
        let active = Active {
            no,
            file: Arc::clone(file),
            len,
            synced_len: len,
            kicked: len,
        };
        let log = RecordLog {
            config,
            active: Mutex::new(active),
            files: RwLock::new(files),
            appended: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            sync_leader: Mutex::new(()),
            fsyncs: AtomicU64::new(0),
            sealed: AtomicBool::new(false),
            failed: OnceLock::new(),
        };
        Ok((log, recovered))
    }

    fn path(&self, no: u64) -> PathBuf {
        (self.config.path)(no)
    }

    /// Takes the append lock.
    pub(crate) fn lock(&self) -> Appender<'_> {
        Appender {
            log: self,
            active: self.active.lock(),
            writeback: Writeback(None),
        }
    }

    /// Records appended since open: the sequence number of the newest.
    pub(crate) fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Makes every record up to sequence number `seq` durable: the group
    /// fsync. Returns at once when an earlier fsync already covered `seq`.
    /// Otherwise one caller at a time leads: it reads the append count,
    /// fsyncs outside the append lock (appends keep flowing), and raises
    /// the synced mark to that count. A failed fsync fails the log. So does
    /// anything else while the fsync runs, and then the fsync counts for
    /// nothing: failing cut the unsynced tail it covered. A no-op under
    /// [`Durability::Buffered`], which promises no machine-crash safety.
    pub(crate) fn sync_through(&self, seq: u64) -> Result<()> {
        if self.config.durability == Durability::Buffered
            || self.synced.load(Ordering::Acquire) >= seq
        {
            return Ok(());
        }
        let _leader = self.sync_leader.lock();
        if self.synced.load(Ordering::Acquire) >= seq {
            return Ok(());
        }
        let log = self.lock();
        log.writable()?;
        let (file, len) = (Arc::clone(&log.active.file), log.active.len);
        let count = self.appended();
        drop(log);
        let synced = file.sync();
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let mut log = self.lock();
        if let Err(err) = synced {
            log.fail(format!("fsync failed: {err}"));
            return Err(err.into());
        }
        self.check_failed()?;
        // A roll or a replace since may have swapped the file; either
        // synced everything the old one held.
        if Arc::ptr_eq(&file, &log.active.file) {
            log.active.synced_len = log.active.synced_len.max(len);
        }
        self.synced.fetch_max(count, Ordering::AcqRel);
        Ok(())
    }

    /// Seals the log for shutdown: every later append and sync fails
    /// cleanly instead of writing into a file that is being closed, and a
    /// final fsync covers every record appended before. The flag is set
    /// under the append lock, so no append lands after the final fsync.
    /// One-way and idempotent.
    pub(crate) fn seal(&self) {
        let mut log = self.lock();
        if !self.sealed.swap(true, Ordering::SeqCst)
            && self.config.durability != Durability::Buffered
            && self.failed.get().is_none()
        {
            let _ = log.sync_active();
        }
    }

    /// Whether [`RecordLog::seal`] has been called.
    pub(crate) fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::SeqCst)
    }

    /// Fsyncs of the log's files since open.
    pub(crate) fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Why the log failed, once it has. Takes no lock.
    pub(crate) fn failure(&self) -> Option<String> {
        self.failed.get().cloned()
    }

    /// Fails once the log has failed.
    fn check_failed(&self) -> Result<()> {
        self.failed.get().map_or(Ok(()), |why| {
            Err(BlobError::Internal(format!("log is failed: {why}")))
        })
    }

    /// A reader of file `no`.
    pub(crate) fn reader(&self, no: u64) -> Result<Reader<'_>> {
        let file = self.files.read().get(&no).cloned();
        file.map(|file| Reader {
            log: self,
            no,
            file,
        })
        .ok_or_else(|| BlobError::Transport(format!("{} is not open", self.path(no).display())))
    }

    /// Retires every file numbered up to `through`, all of them sealed:
    /// deletes them, then fsyncs the directory. Their handles leave last, so
    /// a reader that cloned one finishes on the unlinked file.
    pub(crate) fn retire(&self, through: u64) -> Result<()> {
        let victims: Vec<u64> = self
            .files
            .read()
            .range(..=through)
            .map(|(&no, _)| no)
            .collect();
        for no in victims {
            match std::fs::remove_file(self.path(no)) {
                // A concurrent pass already deleted it.
                Err(err) if err.kind() == io::ErrorKind::NotFound => {}
                other => other?,
            }
        }
        sync_dir(&self.config.dir, self.config.durability)?;
        let mut files = self.files.write();
        *files = files.split_off(&(through + 1));
        Ok(())
    }
}

/// The append lock of a [`RecordLog`], held.
pub(crate) struct Appender<'a> {
    log: &'a RecordLog,
    active: MutexGuard<'a, Active>,
    /// Declared after `active`: fields drop in order, so the request is
    /// made once the append lock is released.
    writeback: Writeback,
}

/// An early-writeback request `(file, at, len)`, made when dropped.
struct Writeback(Option<(Handle, u64, u64)>);

impl Drop for Writeback {
    fn drop(&mut self) {
        if let Some((file, at, len)) = self.0.take() {
            file.start_writeback(at, len);
        }
    }
}

impl Appender<'_> {
    /// Fails once the log is sealed or failed.
    pub(crate) fn writable(&self) -> Result<()> {
        if self.log.is_sealed() {
            let path = self.log.path(self.active.no);
            let why = format!("{} is sealed (shutting down)", path.display());
            return Err(BlobError::Internal(why));
        }
        self.log.check_failed()
    }

    /// Bytes in the active file.
    pub(crate) fn len(&self) -> u64 {
        self.active.len
    }

    /// Reads `len` bytes at `at` in the active file.
    pub(crate) fn read(&self, at: u64, len: usize) -> Result<Vec<u8>> {
        self.log.reader(self.active.no)?.read(at, len)
    }

    /// Appends one record — first rolling to the next file when the active
    /// one has reached the roll size — and calls `applied` with where it
    /// landed, still under the lock, so an index over the log sees records
    /// in log order. The record is fsynced first when `sync` is set or the
    /// policy is [`Durability::Always`] (never under `Buffered`).
    ///
    /// An append lands whole or not at all: a failed write is cut back off,
    /// so the next record never lands behind garbage that recovery would
    /// stop at. A failed cut, or a failed fsync, fails the log; so does a
    /// failed append when the config says so.
    pub(crate) fn append<T>(
        &mut self,
        record: &[u8],
        sync: bool,
        applied: impl FnOnce(Pos) -> T,
    ) -> Result<T> {
        let durability = self.log.config.durability;
        let sync = (sync || durability == Durability::Always) && durability != Durability::Buffered;
        self.writable()?;
        if self.active.len >= self.log.config.roll_bytes && self.active.len > 0 {
            self.roll()?;
        }
        let offset = self.active.len;
        if let Err(err) = self.active.file.append(record) {
            match self.active.file.truncate(offset) {
                Err(cut) => self.fail(format!(
                    "append failed ({err}) and its partial bytes could not be cut back ({cut})"
                )),
                Ok(()) if self.log.config.fail_on_append_error => {
                    self.fail(format!("append failed: {err}"));
                }
                Ok(()) => {}
            }
            return Err(err.into());
        }
        self.active.len += record.len() as u64;
        let seq = self.log.appended.fetch_add(1, Ordering::Relaxed) + 1;
        if sync {
            self.sync_active()?;
        } else if durability == Durability::Commit {
            self.request_writeback();
        }
        Ok(applied(Pos {
            file: self.active.no,
            offset,
            seq,
        }))
    }

    /// Makes the early-writeback request for the whole pages appended
    /// since the last one and not yet synced, once they make
    /// [`WRITEBACK_MIN_BYTES`]. The partial page at the end is left alone:
    /// the next append writes into it, and would wait on a page under
    /// writeback. Every caller appends once per lock; a second append
    /// would replace the pending request, which is only a hint.
    fn request_writeback(&mut self) {
        let to = self.active.len / PAGE_BYTES * PAGE_BYTES;
        let from = self.active.kicked.max(self.active.synced_len);
        if to < from + WRITEBACK_MIN_BYTES {
            return;
        }
        self.active.kicked = to;
        self.writeback.0 = Some((Arc::clone(&self.active.file), from, to - from));
    }

    /// Fsyncs the active file under the lock — a roll's seal, or an inline
    /// sync — and raises the synced mark over every record appended. A
    /// failure fails the log.
    fn sync_active(&mut self) -> Result<()> {
        self.log.fsyncs.fetch_add(1, Ordering::Relaxed);
        if let Err(err) = self.active.file.sync() {
            self.fail(format!("fsync failed: {err}"));
            return Err(err.into());
        }
        self.active.synced_len = self.active.len;
        self.log
            .synced
            .fetch_max(self.log.appended(), Ordering::AcqRel);
        Ok(())
    }

    /// Seals the active file — one fsync, nothing read back — and makes the
    /// next numbered file the append target.
    fn roll(&mut self) -> Result<()> {
        self.sync_active()?;
        let no = self.active.no + 1;
        let file = (self.log.config.open)(&self.log.path(no))?;
        sync_dir(&self.log.config.dir, self.log.config.durability)?;
        self.install(no, file, 0);
        Ok(())
    }

    /// Makes `file`, `len` bytes long and all of them synced, file `no` and
    /// the append target.
    fn install(&mut self, no: u64, file: Box<dyn LogFile>, len: u64) {
        let file: Handle = Arc::new(file);
        self.log.files.write().insert(no, Arc::clone(&file));
        *self.active = Active {
            no,
            file,
            len,
            synced_len: len,
            kicked: len,
        };
    }

    /// Replaces the active file with one holding `bytes`: written to a
    /// `.ckpt` sibling through the opener and fsynced, renamed over the
    /// active file's name,
    /// installed as the append target, then the directory fsynced. The new
    /// handle exists before the rename, so nothing that can fail runs
    /// between the rename and the swap, and a failed directory fsync fails
    /// the log. Once it returns, every record appended so far counts as
    /// synced: the caller's `bytes` carry them all.
    pub(crate) fn replace(&mut self, bytes: &[u8]) -> Result<()> {
        let no = self.active.no;
        let (path, tmp) = (self.log.path(no), self.log.path(no).with_extension("ckpt"));
        let file = (self.log.config.open)(&tmp)?;
        // An earlier attempt that failed may have left a partial file.
        file.truncate(0)?;
        file.append(bytes)?;
        self.log.fsyncs.fetch_add(1, Ordering::Relaxed);
        file.sync()?;
        std::fs::rename(&tmp, path)?;
        self.install(no, file, bytes.len() as u64);
        if let Err(err) = sync_dir(&self.log.config.dir, self.log.config.durability) {
            self.fail(format!("directory fsync failed: {err}"));
            return Err(err);
        }
        self.log
            .synced
            .fetch_max(self.log.appended(), Ordering::AcqRel);
        Ok(())
    }

    /// Fails the log (fail-stop): every later append, sync and replace is
    /// refused, and [`RecordLog::failure`] reports `why`; the first reason
    /// sticks. Unless the policy never syncs, the unsynced tail is cut off,
    /// best effort, as a crash at the last good fsync would have left it:
    /// nothing in it was acknowledged as durable.
    pub(crate) fn fail(&mut self, why: String) {
        if self.log.failed.get().is_some() {
            return;
        }
        if self.log.config.durability != Durability::Buffered {
            let _ = self.active.file.truncate(self.active.synced_len);
        }
        let why = format!("{}: {why}", self.log.path(self.active.no).display());
        let _ = self.log.failed.set(why);
    }
}

/// A positioned reader of one log file.
pub(crate) struct Reader<'a> {
    log: &'a RecordLog,
    no: u64,
    file: Handle,
}

impl Reader<'_> {
    /// One positioned read of `len` bytes at `at`, into an exact-size
    /// buffer. A failed or short read is the retryable
    /// [`BlobError::Transport`]: the bytes are unreachable here, not absent.
    pub(crate) fn read(&self, at: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0; len];
        self.file.read_at(&mut buf, at).map_err(|err| {
            BlobError::Transport(format!(
                "{}: reading {len} bytes at offset {at}: {err}",
                self.log.path(self.no).display()
            ))
        })?;
        Ok(buf)
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
    use std::sync::Barrier;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn fast_crc_matches_the_bytewise_reference(
            data in collection::vec(any::<u8>(), 0..2100),
            offset in 0usize..16,
            splits in collection::vec(0usize..2100, 0..4),
        ) {
            // Slicing at `offset` moves the start off the allocation's
            // alignment; the split points exercise incremental feeding,
            // in pieces on both sides of the 64 bytes where the
            // carry-less-multiply path takes over.
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
    /// bytes (after writing what fits), whose truncation fails while
    /// `stuck` is set, whose next `fail_syncs` fsyncs fail, and whose fsync
    /// waits twice at `park` while it is set.
    struct FlakyFile {
        bytes: Mutex<Vec<u8>>,
        fail_at: AtomicUsize,
        stuck: AtomicBool,
        fail_syncs: AtomicUsize,
        park: Mutex<Option<Arc<Barrier>>>,
    }

    impl FlakyFile {
        fn new(fail_at: usize) -> Self {
            FlakyFile {
                bytes: Mutex::new(Vec::new()),
                fail_at: AtomicUsize::new(fail_at),
                stuck: AtomicBool::new(false),
                fail_syncs: AtomicUsize::new(0),
                park: Mutex::new(None),
            }
        }
    }

    impl LogFile for Arc<FlakyFile> {
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
            let park = self.park.lock().clone();
            if let Some(gate) = park {
                gate.wait();
                gate.wait();
            }
            let fails = self
                .fail_syncs
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
            if fails.is_ok() {
                return Err(io::Error::other("injected fsync failure"));
            }
            Ok(())
        }

        fn read_at(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
            let bytes = self.bytes.lock();
            let at = at as usize;
            let found = bytes
                .get(at..at + buf.len())
                .ok_or(io::ErrorKind::UnexpectedEof)?;
            buf.copy_from_slice(found);
            Ok(())
        }
    }

    /// A fresh log whose one file is `file`.
    fn log_over(file: &Arc<FlakyFile>) -> RecordLog {
        log_with(file, u64::MAX, false)
    }

    /// A fresh log whose every file is `file`, rolling at `roll_bytes`.
    fn log_with(file: &Arc<FlakyFile>, roll_bytes: u64, fail_on_append_error: bool) -> RecordLog {
        let file = Arc::clone(file);
        let config = LogConfig {
            dir: std::env::temp_dir(),
            path: Box::new(|_| PathBuf::from("flaky.log")),
            durability: Durability::Commit,
            roll_bytes,
            fail_on_append_error,
            open: Arc::new(move |_| Ok(Box::new(Arc::clone(&file)))),
        };
        RecordLog::open(config, Vec::new(), |_, _, _, _| true)
            .unwrap()
            .0
    }

    /// A failed append (the WAL fails the log on one) or a roll's failed
    /// seal while a leader's fsync is parked: that fsync then succeeds, as
    /// Linux reports a writeback error to one fsync only, but failing cut
    /// the unsynced record it covered.
    #[test]
    fn a_failure_during_a_group_fsync_syncs_nothing() {
        let synced = frame_record(1, b"synced before the parked fsync");
        let pending = frame_record(1, b"covered by the parked fsync");
        for roll in [false, true] {
            let file = Arc::new(FlakyFile::new(usize::MAX));
            let full = (synced.len() + pending.len()) as u64;
            let log = log_with(&file, if roll { full } else { u64::MAX }, !roll);
            log.lock().append(&synced, true, drop).unwrap();
            log.lock().append(&pending, false, drop).unwrap();
            let gate = Arc::new(Barrier::new(2));
            *file.park.lock() = Some(Arc::clone(&gate));
            let led = std::thread::scope(|scope| {
                let leader = scope.spawn(|| log.sync_through(2));
                // The leader is inside its fsync, off the append lock.
                gate.wait();
                *file.park.lock() = None;
                if roll {
                    // The next append rolls first, and the seal's fsync fails.
                    file.fail_syncs.store(1, Ordering::SeqCst);
                } else {
                    file.fail_at.store(0, Ordering::SeqCst);
                }
                let refused = log.lock().append(&frame_record(1, b"x"), false, drop);
                assert!(refused.is_err());
                gate.wait();
                leader.join().unwrap()
            });
            assert!(led.is_err(), "roll {roll}: the fsync covered a cut record");
            assert!(log.sync_through(2).is_err(), "the cut record is not synced");
            assert_eq!(*file.bytes.lock(), synced);
        }
    }

    /// An early-writeback request: `(file, at, len, file length when
    /// asked)`, files numbered in the order the log opened them.
    type Request = (usize, u64, u64, u64);

    /// An in-memory log file that records every early-writeback request.
    struct PagedFile {
        no: usize,
        bytes: Mutex<Vec<u8>>,
        requests: Arc<Mutex<Vec<Request>>>,
    }

    impl LogFile for PagedFile {
        fn append(&self, buf: &[u8]) -> io::Result<()> {
            self.bytes.lock().extend_from_slice(buf);
            Ok(())
        }

        fn truncate(&self, len: u64) -> io::Result<()> {
            self.bytes.lock().truncate(len as usize);
            Ok(())
        }

        fn sync(&self) -> io::Result<()> {
            Ok(())
        }

        fn read_at(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
            let bytes = self.bytes.lock();
            let at = at as usize;
            buf.copy_from_slice(&bytes[at..at + buf.len()]);
            Ok(())
        }

        fn start_writeback(&self, at: u64, len: u64) {
            let file_len = self.bytes.lock().len() as u64;
            self.requests.lock().push((self.no, at, len, file_len));
        }
    }

    /// Under `Commit` every early-writeback request covers at least
    /// `WRITEBACK_MIN_BYTES` and ends on a page boundary within the bytes
    /// already appended, so it never covers the page the next append
    /// writes into; requests on a file follow each other without overlap,
    /// start at or past the last fsync, and start over at 0 on a rolled
    /// file. `Buffered` and `Always` make none.
    #[test]
    fn early_writeback_covers_whole_appended_pages_only() {
        for durability in [Durability::Commit, Durability::Buffered, Durability::Always] {
            let requests = Arc::new(Mutex::new(Vec::new()));
            let (opened, asked) = (Arc::new(AtomicUsize::new(0)), Arc::clone(&requests));
            let config = LogConfig {
                dir: std::env::temp_dir(),
                path: Box::new(|no| PathBuf::from(format!("paged-{no}.log"))),
                durability,
                roll_bytes: 1 << 20,
                fail_on_append_error: false,
                open: Arc::new(move |_| {
                    Ok(Box::new(PagedFile {
                        no: opened.fetch_add(1, Ordering::SeqCst),
                        bytes: Mutex::new(Vec::new()),
                        requests: Arc::clone(&asked),
                    }))
                }),
            };
            let (log, _) = RecordLog::open(config, Vec::new(), |_, _, _, _| true).unwrap();
            // Synced length of each file, as of each request.
            let mut synced = Vec::new();
            for i in 0..300usize {
                let record = frame_record(1, &vec![i as u8; 2_000 + i * 7_919 % 30_000]);
                log.lock().append(&record, false, drop).unwrap();
                if i % 40 == 39 {
                    log.sync_through(log.appended()).unwrap();
                }
                let active = log.active.lock();
                synced.push((requests.lock().len(), active.no, active.synced_len));
            }
            let requests = requests.lock().clone();
            if durability != Durability::Commit {
                assert!(requests.is_empty(), "{durability:?} asks for no writeback");
                continue;
            }
            assert!(requests.len() > 8, "{requests:?}");
            let mut next = [0u64; 8];
            for (k, &(file, at, len, file_len)) in requests.iter().enumerate() {
                let end = at + len;
                assert!(len >= WRITEBACK_MIN_BYTES, "{:?}", requests[k]);
                assert_eq!(end % PAGE_BYTES, 0, "{:?}", requests[k]);
                assert!(
                    end <= file_len / PAGE_BYTES * PAGE_BYTES,
                    "{:?}",
                    requests[k]
                );
                // The synced length of the file when the request was made.
                let floor = synced
                    .iter()
                    .rev()
                    .find(|&&(made, no, _)| made <= k && no as usize == file + 1)
                    .map_or(0, |&(_, _, len)| len);
                // Each request picks up where the last one on its file
                // ended (0 on a fresh file), or at the fsync past it.
                assert_eq!(at, next[file].max(floor), "{:?}", requests[k]);
                next[file] = end;
            }
            assert!(next[1] > 0, "the log rolled and asked again: {requests:?}");
        }
    }

    #[test]
    fn a_failed_append_leaves_no_partial_record() {
        let first = frame_record(1, b"acknowledged");
        let failing = frame_record(2, b"fails part way through");
        let after = frame_record(1, b"acknowledged after the failure");
        for fail_after in 0..failing.len() {
            let file = Arc::new(FlakyFile::new(first.len() + fail_after));
            let log = log_over(&file);
            let mut tail = log.lock();
            tail.append(&first, false, drop).unwrap();
            assert!(tail.append(&failing, true, drop).is_err());
            file.fail_at.store(usize::MAX, Ordering::SeqCst);
            tail.append(&after, false, drop).unwrap();
            let bytes = file.bytes.lock().clone();
            assert_eq!(bytes, [first.clone(), after.clone()].concat());
            assert_eq!(tail.len(), bytes.len() as u64);
            let outcome = scan(&bytes);
            assert_eq!(outcome.records.len(), 2, "fail after {fail_after} bytes");
            assert_eq!(outcome.valid_len, bytes.len());
        }
    }

    #[test]
    fn an_append_that_cannot_be_cut_back_fails_the_log() {
        let file = Arc::new(FlakyFile::new(20));
        file.stuck.store(true, Ordering::SeqCst);
        let log = log_over(&file);
        assert!(log
            .lock()
            .append(&frame_record(1, &[7; 64]), false, drop)
            .is_err());
        file.fail_at.store(usize::MAX, Ordering::SeqCst);
        let refused = log.lock().append(&frame_record(1, b"next"), false, drop);
        assert!(matches!(refused, Err(BlobError::Internal(_))));
        assert!(log.sync_through(1).is_err(), "a torn log refuses syncs too");
        assert_eq!(
            file.bytes.lock().len(),
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
