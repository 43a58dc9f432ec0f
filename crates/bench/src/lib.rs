//! Benchmark harness: one experiment function per table/figure of the
//! paper's evaluation, shared between the figure-regeneration binaries
//! (`cargo run -p blobseer-bench --bin fig_xx`) and the criterion benches
//! (`cargo bench -p blobseer-bench`).
//!
//! The mapping from experiment functions to the paper's Sections IV.A–IV.E
//! is documented in `DESIGN.md` (per-experiment index) and the measured
//! numbers are recorded in `EXPERIMENTS.md`.

pub mod experiments;
pub mod json;

pub use experiments::*;
pub use json::{emit, series_json, series_list_json, Clock, Json};
