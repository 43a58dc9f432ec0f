//! The end-to-end benchmark of BlobSeer-RS: a wall-clock harness that
//! drives the real `blobseer-server` daemon over TCP from two client
//! threads and reports end-to-end and per-layer metrics. See `README.md`
//! beside this crate for the command, the workloads and the metric glossary.

pub mod compare;
pub mod daemon;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod openloop;
pub mod payload;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
