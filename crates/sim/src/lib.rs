//! Discrete-event cluster simulator for BlobSeer-RS.
//!
//! The paper's evaluation ran on the Grid'5000 testbed with dozens to
//! hundreds of physical nodes; this crate stands in for that testbed on a
//! single machine. It is a *flow/queue-level* simulator: client operations
//! are decomposed into protocol phases (version ticket → chunk transfers →
//! metadata weaving → publication) whose individual jobs are charged to the
//! resources they would occupy in a real deployment.
//!
//! What runs is the **real** BlobSeer-RS code:
//!
//! * placement (`blobseer-provider`), versioning (`blobseer-core`'s version
//!   manager), the segment tree (`blobseer-meta`) and DHT routing
//!   (`blobseer-dht`), so *which* chunks go to *which* providers and
//!   *which* metadata nodes go to *which* DHT nodes is exactly what the
//!   library produces;
//! * each simulated client's caches: a `blobseer-core` `ChunkCache` and,
//!   with `client_metadata_cache`, a `blobseer-meta` `CachedMetadataStore`
//!   (with its read-path prefetch) over a cost-recording metadata store.
//!
//! What is modelled is time and what takes time:
//!
//! * every node (client, data provider, metadata provider) owns FIFO
//!   byte-server [`resource::Resource`]s for its NIC and its request
//!   processing, with the constants of [`model`];
//! * the version manager is a fixed delay; fsyncs cost a fixed latency per
//!   `Durability` policy; the chunk codec is a compressibility ratio plus a
//!   scan cost; admission is the workload's paced submission window;
//! * metadata round-trips are the ones the DHT reports for each batch
//!   (`Dht::get_batch_traced`, `Dht::put_batch_traced`), charged to the
//!   owning metadata provider.
//!
//! The version lifecycle and network faults are not simulated: they are
//! measured on real deployments (`fig_g1`, `tests/fault_tolerance.rs`).
//! [`SimulatedCluster::new`] rejects a configuration that enables the
//! lifecycle.
//!
//! The simulator answers the performance-at-scale questions (aggregated
//! throughput versus number of clients / providers / metadata nodes, impact
//! of failures, …) that cannot be answered faithfully by running hundreds of
//! threads on one laptop; functional correctness is covered by the real
//! in-process cluster of `blobseer-core`.

pub mod cluster;
pub mod model;
pub mod report;
pub mod resource;
pub mod workload;

pub use cluster::{grid_like_cluster, OpRecord, SimulatedCluster, SimulationResult};
pub use report::{format_table, mean, std_dev, SeriesPoint, SweepSeries};
pub use resource::{Resource, SimTime, NANOS_PER_SEC};
pub use workload::{OpKind, SimOp, Workload, WorkloadBuilder};
