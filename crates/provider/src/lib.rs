//! Data providers and the provider manager.
//!
//! In BlobSeer the *data providers* physically store the fixed-size chunks
//! blobs are striped into, while the *provider manager* decides which chunks
//! go to which providers when writes and appends are issued (the
//! "configurable chunk distribution strategy" of the paper).
//!
//! * [`store`] — chunk storage backends: a RAM store (the paper's initial
//!   prototype) and a persistent, file-backed store that keeps the RAM store
//!   as a cache (Section IV.B adds "persistent data and metadata storage
//!   while keeping our initial RAM-based storage scheme as an underlying
//!   caching mechanism").
//! * [`provider`] — a data provider node: a store plus statistics and a
//!   failure switch.
//! * [`manager`] — the provider manager: registry, liveness, QoS scores
//!   and placement strategies (round-robin, random, least-loaded,
//!   QoS-aware).
//! * [`service`] — the [`ChunkService`] boundary clients program against,
//!   with the shared-memory [`InProcessChunkService`] implementation.

pub mod manager;
pub mod provider;
pub mod service;
pub mod store;
pub mod wire;

pub use manager::{PlacementRequest, ProviderManager, ProviderStatus};
pub use provider::{DataProvider, ProviderStats};
pub use service::{ChunkService, InProcessChunkService};
pub use store::{ChunkStore, RamStore};
