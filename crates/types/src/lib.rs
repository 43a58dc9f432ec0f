//! Common identifiers, byte ranges, errors and configuration shared by every
//! BlobSeer-RS crate.
//!
//! BlobSeer manipulates *blobs* (Binary Large OBjects): long sequences of
//! bytes identified by a [`BlobId`], accessed through explicit snapshots
//! identified by a [`Version`]. Blobs are split into fixed-size *chunks*
//! (identified by a [`ChunkId`]) which are scattered over *data providers*
//! ([`ProviderId`]); the mapping from byte ranges to chunks is kept by
//! *metadata providers* organised as a DHT ([`MetaNodeId`]).
//!
//! This crate holds only plain data types so that all service crates can
//! share them without dependency cycles.

pub mod buf;
pub mod config;
pub mod error;
pub mod id;
pub mod metrics;
pub mod range;
pub mod wire;

pub use buf::{zero_page, BlobSlice, ZERO_PAGE_BYTES};
pub use config::{
    BlobConfig, ChunkCodec, ClusterConfig, Durability, FaultPlan, PlacementPolicy, RetryPolicy,
    DHT_VIRTUAL_NODES, QOS_HORIZON,
};
pub use error::{BlobError, Result};
pub use id::{BlobId, ChunkId, ClientId, IdGenerator, MetaNodeId, ProviderId, Version};
pub use metrics::{TransportMetrics, TransportStats};
pub use range::{chunk_span, ByteRange, ChunkSlot};
pub use wire::{ChunkEncoding, ChunkEnvelope, EnvelopeHeader, Wire, WireReader, WireWriter};
