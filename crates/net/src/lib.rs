//! Networked service transport for BlobSeer-RS.
//!
//! The paper's throughput-under-heavy-concurrency story rests on clients
//! talking to *remote* providers and metadata nodes. This crate closes the
//! gap between the in-process reproduction and that deployment shape with a
//! length-prefixed framed RPC protocol (request id, opcode, header,
//! payload) behind the existing `ChunkService`/`MetadataService`/
//! `VersionService` traits. [`NetCluster`] serves a `Cluster` it is given;
//! the transport is the constructor called:
//!
//! * **TCP loopback** ([`NetCluster::tcp`]): real `std::net` sockets bound
//!   by [`transport::tcp_listener`] and owned by one event-driven
//!   [`Reactor`], one server endpoint per data provider plus the provider
//!   manager, the metadata plane and the version manager, clients
//!   multiplexing their in-flight requests over one connection per endpoint
//!   (so the pipelined scheduler's overlap survives the wire);
//! * **channel** ([`NetCluster::channel`]): the same frames over
//!   in-process channels ([`transport::channel_endpoint`]) with
//!   deterministic, seedable fault injection (drop / delay / duplicate /
//!   truncate / disconnect / stall per frame) — the workhorse of the
//!   fault-tolerance test matrix.
//!
//! Payloads stay [`bytes::Bytes`] end to end: senders scatter-write prefix,
//! header and payload as separate `IoSlice`s (no flattening), receivers
//! land each frame in one `BytesMut` and hand the payload out as a
//! refcounted slice that feeds `BlobSlice` and the chunk cache directly.
//! `ClientStats::payload_bytes_copied` therefore stays **zero** for aligned
//! writes over the network, and the new `bytes_on_wire`/`frames_sent`
//! counters make the contract regression-testable.

pub mod cluster;
pub mod frame;
pub mod reactor;
pub mod rpc;
pub mod services;
pub mod transport;

pub use cluster::{connect_remote, NetCluster, RemoteEndpoints};
pub use frame::{Frame, FRAME_PREFIX_BYTES, MAX_FRAME_BYTES};
pub use reactor::{count_threads_with_prefix, default_rpc_workers, Reactor, WorkerPool};
pub use rpc::{
    ChunkHost, ManagerHost, MetaHost, RpcEndpoint, RpcHandler, RpcServer, VersionHost,
    DEFAULT_RPC_RETRIES, META_RPC_RETRIES, VM_RPC_RETRIES,
};
pub use services::{NetChunkService, NetMetadataService, NetVersionService};
pub use transport::{
    channel_endpoint, tcp_listener, Connect, Connection, FaultState, FrameSink, FrameSource,
    KillHandle, TcpConnector,
};
