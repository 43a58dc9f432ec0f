//! The BlobSeer core library: client API, version manager and in-process
//! cluster wiring.
//!
//! BlobSeer is a storage service for huge, versioned BLOBs (Binary Large
//! OBjects) accessed concurrently by many clients. Its design rests on three
//! pillars (Section I-B.3 of the paper):
//!
//! 1. **Data striping** — every blob is split into fixed-size chunks spread
//!    over the data providers by a configurable distribution strategy
//!    (`blobseer-provider`);
//! 2. **Distributed metadata management** — the chunk map of every snapshot
//!    is a segment tree whose nodes are scattered over a DHT of metadata
//!    providers (`blobseer-meta` + `blobseer-dht`);
//! 3. **Versioning-based concurrency control** — writes never modify
//!    existing data or metadata, so readers never wait for writers and
//!    writers only synchronise at the (tiny) version-assignment step
//!    ([`version_manager::VersionManager`]).
//!
//! # Quick start
//!
//! ```
//! use blobseer_core::Cluster;
//! use blobseer_types::{BlobConfig, ClusterConfig};
//!
//! let cluster = Cluster::new(ClusterConfig::small()).unwrap();
//! let client = cluster.client();
//! let blob = client.create_blob(BlobConfig::new(64, 1).unwrap()).unwrap();
//!
//! let v1 = client.append(blob, b"hello, blobseer").unwrap();
//! let v2 = client.write(blob, 7, b"versioned world").unwrap();
//!
//! // Every snapshot stays readable forever.
//! assert_eq!(client.read_all(blob, Some(v1)).unwrap(), b"hello, blobseer");
//! assert_eq!(client.read_all(blob, Some(v2)).unwrap(), b"hello, versioned world");
//! ```

pub mod admission;
pub mod chunk_cache;
pub mod client;
pub mod cluster;
pub mod lifecycle;
pub mod services;
pub mod transfer;
pub mod version_manager;
pub mod version_service;

pub use admission::{AdmissionController, AdmissionPermit, AdmissionStats};
pub use chunk_cache::{ChunkCache, ChunkCacheStats};
pub use client::{BlobClient, ClientStats};
pub use cluster::Cluster;
pub use lifecycle::{LifecycleEngine, LifecycleStats};
pub use services::{ChunkService, ClientServices, InProcessChunkService, MetadataService};
pub use transfer::TransferPool;
pub use version_manager::{
    ArtifactKind, CollectableSet, FlattenTicket, NodeArtifact, VersionManager, WriteKind,
    WriteTicket,
};
pub use version_service::{VersionPin, VersionService};

/// The durability hook [`VersionManager::set_journal`] installs.
pub use blobseer_persist::Journal;
