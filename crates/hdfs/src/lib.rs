//! An HDFS-like baseline storage layer.
//!
//! Experiment D of the paper compares BSFS (the BlobSeer-backed file system)
//! against Hadoop's stock storage layer, HDFS. This crate provides the
//! baseline with the two properties that drive the comparison:
//!
//! * **centralised metadata** — a single namenode owns the whole namespace
//!   and every block mapping, so every metadata operation funnels through
//!   one component;
//! * **single-writer, append-only files** — a file can have at most one
//!   writer at a time (a lease); concurrent appenders to the same file must
//!   wait for each other, and random-offset writes are not supported at all.
//!   BlobSeer supports both, which is exactly the advantage the paper's
//!   Hadoop experiments exploit.
//!
//! The data path (datanodes holding fixed-size blocks) is modelled with the
//! same in-memory stores the BlobSeer providers use, so the functional
//! comparison in `blobseer-mapreduce` is apples-to-apples.

use blobseer_types::{BlobError, BlobSlice, ProviderId, Result};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// Default block size (64 MiB, HDFS's historical default).
pub const DEFAULT_BLOCK_SIZE: u64 = 64 << 20;

/// A block of a file, stored on one or more datanodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Identifier of the block (unique within the namenode).
    pub id: u64,
    /// Length of the block in bytes.
    pub len: u64,
    /// Datanodes holding a replica.
    pub datanodes: Vec<ProviderId>,
}

/// Per-file metadata kept by the namenode.
#[derive(Debug, Clone, Default)]
struct FileMeta {
    blocks: Vec<BlockInfo>,
    size: u64,
    lease_holder: Option<u64>,
}

/// A datanode: an in-memory block store.
struct DataNode {
    blocks: RwLock<HashMap<u64, Bytes>>,
}

impl DataNode {
    fn new() -> Self {
        DataNode {
            blocks: RwLock::new(HashMap::new()),
        }
    }
}

/// The HDFS-like file system: one namenode plus a set of datanodes.
pub struct HdfsLikeFs {
    files: Mutex<HashMap<String, FileMeta>>,
    datanodes: Vec<Arc<DataNode>>,
    block_size: u64,
    replication: usize,
    next_block: Mutex<u64>,
    next_lease: Mutex<u64>,
    next_datanode: Mutex<usize>,
}

impl HdfsLikeFs {
    /// Creates a deployment with `datanodes` datanodes, the given block size
    /// and replication factor.
    pub fn new(datanodes: usize, block_size: u64, replication: usize) -> Result<Self> {
        if datanodes == 0 {
            return Err(BlobError::InvalidConfig("at least one datanode".into()));
        }
        if block_size == 0 {
            return Err(BlobError::InvalidConfig(
                "block size must be positive".into(),
            ));
        }
        if replication == 0 || replication > datanodes {
            return Err(BlobError::InvalidConfig(format!(
                "replication must be in 1..={datanodes}"
            )));
        }
        Ok(HdfsLikeFs {
            files: Mutex::new(HashMap::new()),
            datanodes: (0..datanodes).map(|_| Arc::new(DataNode::new())).collect(),
            block_size,
            replication,
            next_block: Mutex::new(0),
            next_lease: Mutex::new(0),
            next_datanode: Mutex::new(0),
        })
    }

    /// Creates an empty file. Fails if it already exists.
    pub fn create_file(&self, path: &str) -> Result<()> {
        let mut files = self.files.lock();
        if files.contains_key(path) {
            return Err(BlobError::AlreadyExists(path.to_string()));
        }
        files.insert(path.to_string(), FileMeta::default());
        Ok(())
    }

    /// Whether a file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.lock().contains_key(path)
    }

    /// Size of a file in bytes.
    pub fn file_size(&self, path: &str) -> Result<u64> {
        self.files
            .lock()
            .get(path)
            .map(|f| f.size)
            .ok_or_else(|| BlobError::InvalidPath(path.to_string()))
    }

    /// Opens a file for appending, acquiring its single-writer lease.
    /// Returns a writer handle; any concurrent open of the same file fails
    /// with [`BlobError::WriterConflict`] until the writer is closed — the
    /// key limitation BlobSeer removes.
    pub fn open_for_append(self: &Arc<Self>, path: &str) -> Result<HdfsWriter> {
        let lease = {
            let mut next = self.next_lease.lock();
            *next += 1;
            *next
        };
        let mut files = self.files.lock();
        let meta = files
            .get_mut(path)
            .ok_or_else(|| BlobError::InvalidPath(path.to_string()))?;
        if meta.lease_holder.is_some() {
            return Err(BlobError::WriterConflict(format!(
                "{path} already has an active writer"
            )));
        }
        meta.lease_holder = Some(lease);
        Ok(HdfsWriter {
            fs: Arc::clone(self),
            path: path.to_string(),
            lease,
            pending: Vec::new(),
            closed: false,
        })
    }

    /// Appends a whole buffer (acquires and releases the lease around it).
    pub fn append(self: &Arc<Self>, path: &str, data: &[u8]) -> Result<()> {
        let mut writer = self.open_for_append(path)?;
        writer.write(data)?;
        writer.close()
    }

    /// Random-offset writes are fundamentally unsupported (HDFS files are
    /// append-only); this always fails and exists to make the API contrast
    /// with BlobSeer explicit in benchmarks and tests.
    pub fn write_at(&self, path: &str, _offset: u64, _data: &[u8]) -> Result<()> {
        Err(BlobError::WriterConflict(format!(
            "{path}: random-offset writes are not supported by the HDFS-like baseline"
        )))
    }

    /// Reads `len` bytes at `offset` as a scatter-gather [`BlobSlice`]: each
    /// segment is a zero-copy sub-slice of the block a datanode holds, so
    /// nothing is flattened on the storage side.
    pub fn read_at_bytes(&self, path: &str, offset: u64, len: u64) -> Result<BlobSlice> {
        let blocks = {
            let files = self.files.lock();
            let meta = files
                .get(path)
                .ok_or_else(|| BlobError::InvalidPath(path.to_string()))?;
            if offset + len > meta.size {
                return Err(BlobError::InvalidPath(format!(
                    "{path}: read past end of file ({} > {})",
                    offset + len,
                    meta.size
                )));
            }
            meta.blocks.clone()
        };
        let mut segments = Vec::new();
        let mut block_start = 0u64;
        for block in &blocks {
            let block_end = block_start + block.len;
            let want_start = offset.max(block_start);
            let want_end = (offset + len).min(block_end);
            if want_start < want_end {
                let datanode = &self.datanodes[block.datanodes[0].0 as usize];
                let data = datanode
                    .blocks
                    .read()
                    .get(&block.id)
                    .cloned()
                    .ok_or_else(|| BlobError::Internal(format!("lost block {}", block.id)))?;
                let src = (want_start - block_start) as usize;
                let n = (want_end - want_start) as usize;
                segments.push((want_start - offset, data.slice(src..src + n)));
            }
            block_start = block_end;
        }
        Ok(BlobSlice::new(len, segments))
    }

    /// Reads `len` bytes at `offset` into one contiguous buffer.
    pub fn read_at(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        Ok(self.read_at_bytes(path, offset, len)?.to_vec())
    }

    /// Reads a whole file.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>> {
        let size = self.file_size(path)?;
        self.read_at(path, 0, size)
    }

    /// The block layout of a file: byte range and datanodes per block
    /// (the locality API MapReduce uses).
    pub fn block_locations(&self, path: &str) -> Result<Vec<(u64, u64, Vec<ProviderId>)>> {
        let files = self.files.lock();
        let meta = files
            .get(path)
            .ok_or_else(|| BlobError::InvalidPath(path.to_string()))?;
        let mut out = Vec::with_capacity(meta.blocks.len());
        let mut offset = 0u64;
        for block in &meta.blocks {
            out.push((offset, block.len, block.datanodes.clone()));
            offset += block.len;
        }
        Ok(out)
    }

    fn allocate_datanodes(&self) -> Vec<ProviderId> {
        let mut cursor = self.next_datanode.lock();
        let n = self.datanodes.len();
        let picked = (0..self.replication)
            .map(|k| ProviderId(((*cursor + k) % n) as u32))
            .collect();
        *cursor = (*cursor + 1) % n;
        picked
    }

    /// Appends data under an already-held lease.
    fn append_with_lease(&self, path: &str, lease: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        // Verify the lease before moving any data.
        {
            let files = self.files.lock();
            let meta = files
                .get(path)
                .ok_or_else(|| BlobError::InvalidPath(path.to_string()))?;
            if meta.lease_holder != Some(lease) {
                return Err(BlobError::WriterConflict(format!(
                    "{path}: lease expired or stolen"
                )));
            }
        }
        // Store the data block by block, then register the blocks.
        let mut new_blocks = Vec::new();
        for piece in data.chunks(self.block_size as usize) {
            let id = {
                let mut next = self.next_block.lock();
                *next += 1;
                *next
            };
            let datanodes = self.allocate_datanodes();
            for dn in &datanodes {
                self.datanodes[dn.0 as usize]
                    .blocks
                    .write()
                    .insert(id, Bytes::copy_from_slice(piece));
            }
            new_blocks.push(BlockInfo {
                id,
                len: piece.len() as u64,
                datanodes,
            });
        }
        let mut files = self.files.lock();
        let meta = files
            .get_mut(path)
            .ok_or_else(|| BlobError::InvalidPath(path.to_string()))?;
        for block in new_blocks {
            meta.size += block.len;
            meta.blocks.push(block);
        }
        Ok(())
    }

    fn release_lease(&self, path: &str, lease: u64) {
        if let Some(meta) = self.files.lock().get_mut(path) {
            if meta.lease_holder == Some(lease) {
                meta.lease_holder = None;
            }
        }
    }
}

/// A single-writer append handle. Dropping it without calling
/// [`HdfsWriter::close`] still releases the lease.
pub struct HdfsWriter {
    fs: Arc<HdfsLikeFs>,
    path: String,
    lease: u64,
    pending: Vec<u8>,
    closed: bool,
}

impl HdfsWriter {
    /// Buffers `data`; full blocks are shipped to datanodes immediately.
    pub fn write(&mut self, data: &[u8]) -> Result<()> {
        self.pending.extend_from_slice(data);
        let block = self.fs.block_size as usize;
        while self.pending.len() >= block {
            let piece: Vec<u8> = self.pending.drain(..block).collect();
            self.fs.append_with_lease(&self.path, self.lease, &piece)?;
        }
        Ok(())
    }

    /// Flushes the remaining bytes and releases the lease.
    pub fn close(mut self) -> Result<()> {
        let pending = std::mem::take(&mut self.pending);
        let result = self.fs.append_with_lease(&self.path, self.lease, &pending);
        self.fs.release_lease(&self.path, self.lease);
        self.closed = true;
        result
    }
}

impl Drop for HdfsWriter {
    fn drop(&mut self) {
        if !self.closed {
            self.fs.release_lease(&self.path, self.lease);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Arc<HdfsLikeFs> {
        Arc::new(HdfsLikeFs::new(4, 128, 2).unwrap())
    }

    #[test]
    fn create_append_read_roundtrip() {
        let fs = fs();
        fs.create_file("/logs/app").unwrap();
        fs.append("/logs/app", b"hello ").unwrap();
        fs.append("/logs/app", b"world").unwrap();
        assert_eq!(fs.file_size("/logs/app").unwrap(), 11);
        assert_eq!(fs.read_file("/logs/app").unwrap(), b"hello world");
        assert_eq!(fs.read_at("/logs/app", 6, 5).unwrap(), b"world");
        assert!(fs.exists("/logs/app"));
    }

    #[test]
    fn files_split_into_blocks_across_datanodes() {
        let fs = fs();
        fs.create_file("/big").unwrap();
        fs.append("/big", &vec![7u8; 1000]).unwrap(); // 8 blocks of 128
        let locations = fs.block_locations("/big").unwrap();
        assert_eq!(locations.len(), 8);
        let total: u64 = locations.iter().map(|(_, len, _)| len).sum();
        assert_eq!(total, 1000);
        for (_, _, datanodes) in &locations {
            assert_eq!(datanodes.len(), 2);
        }
        assert_eq!(fs.read_file("/big").unwrap(), vec![7u8; 1000]);
    }

    #[test]
    fn single_writer_lease_blocks_concurrent_appenders() {
        let fs = fs();
        fs.create_file("/shared").unwrap();
        let writer = fs.open_for_append("/shared").unwrap();
        // Second writer is rejected while the first holds the lease.
        assert!(matches!(
            fs.open_for_append("/shared"),
            Err(BlobError::WriterConflict(_))
        ));
        writer.close().unwrap();
        // After the first writer closes, a new one can proceed.
        let mut second = fs.open_for_append("/shared").unwrap();
        second.write(b"data").unwrap();
        second.close().unwrap();
        assert_eq!(fs.file_size("/shared").unwrap(), 4);
    }

    #[test]
    fn dropped_writer_releases_the_lease() {
        let fs = fs();
        fs.create_file("/f").unwrap();
        {
            let _writer = fs.open_for_append("/f").unwrap();
        }
        assert!(fs.open_for_append("/f").is_ok());
    }

    #[test]
    fn random_writes_are_not_supported() {
        let fs = fs();
        fs.create_file("/f").unwrap();
        fs.append("/f", b"0123456789").unwrap();
        assert!(matches!(
            fs.write_at("/f", 2, b"xx"),
            Err(BlobError::WriterConflict(_))
        ));
    }

    #[test]
    fn errors_for_missing_files_and_bad_reads() {
        let fs = fs();
        assert!(fs.file_size("/ghost").is_err());
        assert!(fs.read_file("/ghost").is_err());
        assert!(fs.append("/ghost", b"x").is_err());
        fs.create_file("/a").unwrap();
        assert!(fs.create_file("/a").is_err());
        fs.append("/a", b"abc").unwrap();
        assert!(fs.read_at("/a", 1, 10).is_err());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(HdfsLikeFs::new(0, 128, 1).is_err());
        assert!(HdfsLikeFs::new(2, 0, 1).is_err());
        assert!(HdfsLikeFs::new(2, 128, 0).is_err());
        assert!(HdfsLikeFs::new(2, 128, 3).is_err());
    }

    #[test]
    fn concurrent_writers_to_different_files_proceed() {
        let fs = fs();
        for i in 0..4 {
            fs.create_file(&format!("/f{i}")).unwrap();
        }
        std::thread::scope(|scope| {
            for i in 0..4 {
                let fs = Arc::clone(&fs);
                scope.spawn(move || {
                    let path = format!("/f{i}");
                    for _ in 0..10 {
                        fs.append(&path, &[i as u8; 50]).unwrap();
                    }
                });
            }
        });
        for i in 0..4 {
            assert_eq!(fs.file_size(&format!("/f{i}")).unwrap(), 500);
        }
    }
}
