//! BlobSeer-RS facade crate: re-exports the public API of every workspace
//! crate so that downstream users can depend on a single `blobseer` crate.
//!
//! See the individual crates for detailed documentation:
//! [`blobseer_core`] (client API, version manager, in-process cluster),
//! [`blobseer_meta`] (versioned segment trees), [`blobseer_dht`] (metadata
//! DHT), [`blobseer_provider`] (data providers and placement),
//! [`blobseer_net`] (framed zero-copy RPC transport: TCP loopback and the
//! fault-injecting channel transport), [`blobseer_persist`] (durable
//! persistence tier: chunk segment logs + metadata WAL), [`blobseer_bsfs`]
//! (file system layer), [`blobseer_hdfs`] (HDFS-like baseline), [`blobseer_mapreduce`]
//! (MapReduce engine), [`blobseer_qos`] (monitoring and behaviour
//! modelling) and [`blobseer_sim`] (discrete-event cluster simulator).

pub use blobseer_bsfs as bsfs;
pub use blobseer_core as core;
pub use blobseer_dht as dht;
pub use blobseer_hdfs as hdfs;
pub use blobseer_mapreduce as mapreduce;
pub use blobseer_meta as meta;
pub use blobseer_net as net;
pub use blobseer_persist as persist;
pub use blobseer_provider as provider;
pub use blobseer_qos as qos;
pub use blobseer_sim as sim;
pub use blobseer_types as types;

pub use blobseer_core::{
    BlobClient, ChunkService, Cluster, MetadataService, TransferPool, VersionManager,
};
pub use blobseer_net::NetCluster;
pub use blobseer_types::{BlobConfig, BlobId, ByteRange, ClusterConfig, FaultPlan, Version};
