//! The simulator's hardware cost model: the fixed per-resource costs every
//! simulated deployment is charged with. No real crate reads these — they
//! describe the Grid'5000-like testbed the simulator stands in for, not a
//! tunable of the system under test.

/// Network bandwidth of every node in bytes per second (1 Gbps full duplex,
/// matching Grid'5000's interconnect).
pub const LINK_BANDWIDTH_BPS: u64 = 125_000_000;

/// One-way network latency in nanoseconds (100 µs).
pub const LINK_LATENCY_NS: u64 = 100_000;

/// Service time of one metadata operation at a metadata provider, in
/// nanoseconds.
pub const META_SERVICE_NS: u64 = 50_000;

/// Service time of one version-manager operation, in nanoseconds.
pub const VERSION_MANAGER_SERVICE_NS: u64 = 20_000;

/// Latency of one fsync in nanoseconds (~200 µs, an NVMe-class flush).
pub const FSYNC_NS: u64 = 200_000;
