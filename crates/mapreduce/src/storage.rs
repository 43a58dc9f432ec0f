//! The storage abstraction the MapReduce engine runs against, and its two
//! implementations: BSFS (BlobSeer) and the HDFS-like baseline.

use blobseer_bsfs::Bsfs;
use blobseer_hdfs::HdfsLikeFs;
use blobseer_types::{BlobSlice, ByteRange, ProviderId, Result};
use bytes::Bytes;
use std::sync::Arc;

/// One input split: a byte range of an input file plus the storage nodes
/// holding the data at its start (for locality-aware task placement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSplit {
    /// Input file the split belongs to.
    pub path: String,
    /// Byte range of the split.
    pub range: ByteRange,
    /// Storage nodes holding the split's leading data.
    pub locations: Vec<ProviderId>,
}

/// What the MapReduce engine needs from a file system.
pub trait JobStorage: Send + Sync {
    /// Cuts an input file into splits of roughly `split_bytes` bytes.
    fn input_splits(&self, path: &str, split_bytes: u64) -> Result<Vec<InputSplit>>;

    /// Reads a byte range of a file.
    fn read_range(&self, path: &str, range: ByteRange) -> Result<Vec<u8>>;

    /// Reads a byte range of a file as a scatter-gather [`BlobSlice`]. The
    /// map-task record reader consumes the segments directly, so backends
    /// that can serve zero-copy views of their stored chunks (both BSFS and
    /// the HDFS-like baseline can) never flatten split payloads. The default
    /// wraps [`JobStorage::read_range`] for backends without a slice path.
    fn read_range_slice(&self, path: &str, range: ByteRange) -> Result<BlobSlice> {
        Ok(BlobSlice::from_bytes(Bytes::from(
            self.read_range(path, range)?,
        )))
    }

    /// Size of a file.
    fn file_size(&self, path: &str) -> Result<u64>;

    /// Creates an (empty) output file.
    fn create_file(&self, path: &str) -> Result<()>;

    /// Appends data to an output file.
    fn append(&self, path: &str, data: &[u8]) -> Result<()>;

    /// Reads a whole file (used by tests and by jobs that post-process their
    /// own output).
    fn read_file(&self, path: &str) -> Result<Vec<u8>> {
        let size = self.file_size(path)?;
        self.read_range(path, ByteRange::new(0, size))
    }
}

/// BSFS (BlobSeer-backed) storage backend.
pub struct BsfsStorage {
    fs: Arc<Bsfs>,
}

impl BsfsStorage {
    /// Wraps a BSFS mount.
    pub fn new(fs: Arc<Bsfs>) -> Self {
        BsfsStorage { fs }
    }
}

impl JobStorage for BsfsStorage {
    fn input_splits(&self, path: &str, split_bytes: u64) -> Result<Vec<InputSplit>> {
        Ok(self
            .fs
            .input_splits(path, split_bytes)?
            .into_iter()
            .map(|(range, locations)| InputSplit {
                path: path.to_string(),
                range,
                locations,
            })
            .collect())
    }

    fn read_range(&self, path: &str, range: ByteRange) -> Result<Vec<u8>> {
        self.fs.read_at(path, range.offset, range.len)
    }

    fn read_range_slice(&self, path: &str, range: ByteRange) -> Result<BlobSlice> {
        self.fs.read_at_bytes(path, range.offset, range.len)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        self.fs.file_size(path)
    }

    fn create_file(&self, path: &str) -> Result<()> {
        if let Some(parent) = path.rfind('/') {
            if parent > 0 {
                self.fs.create_dir_all(&path[..parent])?;
            }
        }
        self.fs.create_file(path)
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        self.fs.append(path, data)
    }
}

/// HDFS-like baseline storage backend.
pub struct HdfsStorage {
    fs: Arc<HdfsLikeFs>,
}

impl HdfsStorage {
    /// Wraps an HDFS-like deployment.
    pub fn new(fs: Arc<HdfsLikeFs>) -> Self {
        HdfsStorage { fs }
    }
}

impl JobStorage for HdfsStorage {
    fn input_splits(&self, path: &str, split_bytes: u64) -> Result<Vec<InputSplit>> {
        let size = self.fs.file_size(path)?;
        let blocks = self.fs.block_locations(path)?;
        let mut splits = Vec::new();
        let mut offset = 0;
        while offset < size {
            let len = split_bytes.min(size - offset);
            let locations = blocks
                .iter()
                .find(|(start, blen, _)| offset >= *start && offset < start + blen)
                .map(|(_, _, nodes)| nodes.clone())
                .unwrap_or_default();
            splits.push(InputSplit {
                path: path.to_string(),
                range: ByteRange::new(offset, len),
                locations,
            });
            offset += len;
        }
        Ok(splits)
    }

    fn read_range(&self, path: &str, range: ByteRange) -> Result<Vec<u8>> {
        self.fs.read_at(path, range.offset, range.len)
    }

    fn read_range_slice(&self, path: &str, range: ByteRange) -> Result<BlobSlice> {
        self.fs.read_at_bytes(path, range.offset, range.len)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        self.fs.file_size(path)
    }

    fn create_file(&self, path: &str) -> Result<()> {
        self.fs.create_file(path)
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        self.fs.append(path, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_core::Cluster;
    use blobseer_types::{BlobConfig, ClusterConfig};

    fn bsfs_storage() -> BsfsStorage {
        let cluster = Cluster::new(ClusterConfig::small()).unwrap();
        let fs = Bsfs::new(Arc::new(cluster.client()), BlobConfig::new(64, 1).unwrap()).unwrap();
        BsfsStorage::new(Arc::new(fs))
    }

    fn hdfs_storage() -> HdfsStorage {
        HdfsStorage::new(Arc::new(HdfsLikeFs::new(4, 128, 1).unwrap()))
    }

    fn exercise(storage: &dyn JobStorage) {
        storage.create_file("/out/data").unwrap();
        storage.append("/out/data", &vec![b'x'; 500]).unwrap();
        assert_eq!(storage.file_size("/out/data").unwrap(), 500);
        let splits = storage.input_splits("/out/data", 200).unwrap();
        assert_eq!(splits.len(), 3);
        let covered: u64 = splits.iter().map(|s| s.range.len).sum();
        assert_eq!(covered, 500);
        assert!(splits.iter().all(|s| !s.locations.is_empty()));
        let body = storage
            .read_range("/out/data", ByteRange::new(100, 50))
            .unwrap();
        assert_eq!(body, vec![b'x'; 50]);
        assert_eq!(storage.read_file("/out/data").unwrap().len(), 500);
    }

    #[test]
    fn bsfs_backend_implements_the_contract() {
        exercise(&bsfs_storage());
    }

    #[test]
    fn hdfs_backend_implements_the_contract() {
        exercise(&hdfs_storage());
    }
}
