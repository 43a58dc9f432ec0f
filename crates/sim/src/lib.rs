//! Discrete-event cluster simulator for BlobSeer-RS.
//!
//! The paper's evaluation ran on the Grid'5000 testbed with dozens to
//! hundreds of physical nodes; this crate stands in for that testbed on a
//! single machine. It is a *flow/queue-level* simulator:
//!
//! * every node (client, data provider, metadata provider, version manager)
//!   owns FIFO byte-server [`resource::Resource`]s modelling its NIC and its
//!   request-processing capacity;
//! * client operations are decomposed into protocol phases (version ticket →
//!   chunk transfers → metadata weaving → publication) whose individual jobs
//!   are charged to the resources they would occupy in a real deployment;
//! * crucially, *which* chunks go to *which* providers and *which* metadata
//!   nodes go to *which* DHT nodes is decided by the **real** BlobSeer-RS
//!   code (`blobseer-provider`, `blobseer-meta`, `blobseer-dht`,
//!   `blobseer-core`), so the simulated contention structure is exactly the
//!   one the library produces.
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

pub use cluster::{
    check_workload, grid_like_cluster, OpRecord, SimulatedCluster, SimulationResult,
};
pub use report::{format_table, mean, std_dev, SeriesPoint, SweepSeries};
pub use resource::{Resource, SimTime, NANOS_PER_SEC};
pub use workload::{OpKind, SimOp, Workload, WorkloadBuilder};
