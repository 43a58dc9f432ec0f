//! The RPC layer: multiplexed client endpoints and server loops.
//!
//! One [`RpcEndpoint`] is a client's view of one remote service (a data
//! provider, the provider manager, the metadata plane). Calls of one client
//! to one endpoint share a small pool of multiplexed connections
//! (`ClusterConfig::connections_per_endpoint`, default one), assigned round
//! robin: requests carry monotonically increasing ids, a dedicated reader
//! thread per connection demultiplexes responses back to the waiting
//! callers, and the sender side coalesces — a caller that finds the sink
//! busy parks its frame in the connection's send queue, and whichever
//! caller holds the sink next flushes the whole queue as **one** vectored
//! batch write ([`FrameSink::send_batch`]). Under concurrency, adjacent
//! small frames (metadata gets, allocations) ride one syscall; the
//! `frames_coalesced` counter makes the batching observable.
//!
//! The server side is [`RpcServer`], one endpoint registered on a shared
//! event-driven [`crate::reactor::Reactor`]: the reactor owns the
//! connections and requests execute on its bounded
//! [`crate::reactor::WorkerPool`], so serving threads scale with cores, not
//! clients.
//!
//! Every call is bounded by the deployment's `io_timeout` and retried a
//! bounded number of times on *transport* errors (timeout, disconnect,
//! undecodable frame) — safe because every protocol request is idempotent.
//! Application errors (`ChunkNotFound`, `ProviderUnavailable`, …) pass
//! through untouched for the client library's own fallback logic (replica
//! rotation, provider substitution, write repair).

use crate::frame::Frame;
use crate::reactor::Reactor;
use crate::transport::{Connect, Connection, FrameSink, KillHandle};
use blobseer_core::{ChunkCache, NodeArtifact, VersionManager, VersionPin, WriteKind};
use blobseer_meta::{MetadataStore, NodeBody, NodeKey};
use blobseer_provider::{DataProvider, PlacementRequest, ProviderManager};
use blobseer_types::wire::{decode, encode, WireReader};
use blobseer_types::{
    BlobConfig, BlobError, BlobId, ChunkEnvelope, ChunkId, EnvelopeHeader, ProviderId, Result,
    TransportMetrics, Version,
};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Protocol opcodes.
pub mod op {
    /// Store one chunk replica (payload = chunk bytes).
    pub const PUT_CHUNK: u8 = 0x01;
    /// Fetch one chunk replica (response payload = chunk bytes).
    pub const GET_CHUNK: u8 = 0x02;
    /// Ask the provider manager to place a write's chunks.
    pub const ALLOCATE: u8 = 0x03;
    /// List the providers currently believed alive.
    pub const LIVE_PROVIDERS: u8 = 0x04;
    /// Remove a batch of reclaimed chunks (lifecycle sweeper; response
    /// header = physical bytes freed).
    pub const REMOVE_CHUNKS: u8 = 0x05;
    /// Batched metadata node fetch.
    pub const META_GET: u8 = 0x10;
    /// Batched write-once metadata node store.
    pub const META_PUT: u8 = 0x11;
    /// Metadata node count (statistics).
    pub const META_COUNT: u8 = 0x12;
    /// Batched metadata node delete (lifecycle sweeper; response header =
    /// number of nodes actually removed).
    pub const META_DELETE: u8 = 0x13;
    /// Create a blob (version-manager plane; header = `BlobConfig`).
    pub const VM_CREATE_BLOB: u8 = 0x20;
    /// Fetch a blob's configuration.
    pub const VM_BLOB_CONFIG: u8 = 0x21;
    /// Descriptor of the latest published snapshot.
    pub const VM_LATEST_SNAPSHOT: u8 = 0x22;
    /// Descriptor of one published snapshot.
    pub const VM_SNAPSHOT: u8 = 0x23;
    /// Versions currently published (oldest retained first).
    pub const VM_PUBLISHED: u8 = 0x24;
    /// Assign a write/append ticket (the serialisation point).
    pub const VM_ASSIGN_TICKET: u8 = 0x25;
    /// Report a write's metadata as woven; response = latest published.
    pub const VM_COMPLETE: u8 = 0x26;
    /// Abort a write (with optional repair artifacts).
    pub const VM_ABORT: u8 = 0x27;
    /// Pin a snapshot against lifecycle collection; response carries the
    /// descriptor and a lease token for the matching unpin.
    pub const VM_PIN: u8 = 0x28;
    /// Release a pin lease.
    pub const VM_UNPIN: u8 = 0x29;
    /// Successful response.
    pub const RESP_OK: u8 = 0x80;
    /// Failed response (header = encoded `BlobError`).
    pub const RESP_ERR: u8 = 0x81;
}

/// Transport-level retries per call (first attempt not counted). Three
/// retries push the probability of a lossy-but-live link failing a call
/// below anything the fault-injection tests run at, while a genuinely dead
/// endpoint still fails within `4 × io_timeout`.
pub const DEFAULT_RPC_RETRIES: u32 = 3;

/// Deeper retry budget for the metadata endpoint. Metadata frames are tiny
/// (a lost round-trip costs microseconds to replay, not megabytes) and sit
/// on every critical path, so the metadata plane buys extra masking of
/// lossy links cheaply. Exhausting the budget is no longer a correctness
/// hazard — `MetadataStore` reads are `Result`-returning, so an endpoint
/// that stays unreachable surfaces as `Err`, never as a fake "node absent"
/// (which is meaningful: holes, not-yet-woven nodes).
pub const META_RPC_RETRIES: u32 = 6;

/// Deepest retry budget: the version-manager endpoint. Its frames are the
/// smallest of any plane, every operation serialises through it, and —
/// unlike a chunk call — there is no replica to rotate to when its budget
/// runs out: the version manager is the deployment's one serialisation
/// point. Retries are safe at any depth because the host deduplicates the
/// non-idempotent calls by client nonce.
pub const VM_RPC_RETRIES: u32 = 10;

/// Effective wait when the configured I/O timeout is disabled (zero).
const NO_TIMEOUT: Duration = Duration::from_secs(24 * 3600);

/// In-flight request registry of one connection, shared between callers and
/// the reader thread; `None` once the reader died.
type PendingMap = Arc<Mutex<Option<HashMap<u64, Sender<Frame>>>>>;

/// A live connection's client-side state.
struct LiveConn {
    sink: Arc<Mutex<Box<dyn FrameSink>>>,
    /// Frames queued for sending. A caller pushes here, then takes the sink
    /// lock and flushes *everything* queued as one batch — so whenever
    /// callers contend for the sink, the frames that piled up behind the
    /// lock-holder leave in a single vectored write (small-frame
    /// coalescing). An empty queue at flush time means a predecessor
    /// already carried our frame out.
    send_queue: Mutex<Vec<Frame>>,
    /// In-flight request registry, shared with the reader thread. `None`
    /// once the reader died — every waiter's sender is dropped with the map,
    /// so blocked callers fail over immediately instead of timing out.
    pending: PendingMap,
    kill: KillHandle,
}

impl LiveConn {
    fn is_alive(&self) -> bool {
        self.pending.lock().is_some()
    }
}

/// A client's multiplexed view of one remote service endpoint.
pub struct RpcEndpoint {
    connector: Arc<dyn Connect>,
    io_timeout: Duration,
    retries: u32,
    metrics: Arc<TransportMetrics>,
    next_id: AtomicU64,
    /// Round-robin cursor over `conns`.
    next_conn: AtomicU64,
    /// Connection slots (`connections_per_endpoint` of them); each holds an
    /// independently multiplexed connection, dialled lazily.
    conns: Vec<Mutex<Option<Arc<LiveConn>>>>,
}

impl RpcEndpoint {
    /// Builds an endpoint with one connection slot. No connection is
    /// dialled until the first call.
    #[must_use]
    pub fn new(
        connector: Arc<dyn Connect>,
        io_timeout: Option<Duration>,
        metrics: Arc<TransportMetrics>,
    ) -> Self {
        RpcEndpoint {
            connector,
            io_timeout: io_timeout.unwrap_or(NO_TIMEOUT),
            retries: DEFAULT_RPC_RETRIES,
            metrics,
            next_id: AtomicU64::new(1),
            next_conn: AtomicU64::new(0),
            conns: vec![Mutex::new(None)],
        }
    }

    /// Overrides the transport-level retry budget (tests).
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the connection-pool size (`ClusterConfig::
    /// connections_per_endpoint`). Calls are spread round robin; each slot
    /// is still a fully multiplexed connection, so depth-1 pools keep the
    /// pipelined scheduler's overlap and deeper pools add parallel sinks
    /// (and sockets) on top.
    #[must_use]
    pub fn with_connections(mut self, connections: usize) -> Self {
        self.conns = (0..connections.max(1)).map(|_| Mutex::new(None)).collect();
        self
    }

    /// The metrics handle shared by this endpoint.
    #[must_use]
    pub fn metrics(&self) -> &Arc<TransportMetrics> {
        &self.metrics
    }

    fn ensure_conn(&self, slot_index: usize) -> Result<Arc<LiveConn>> {
        let mut slot = self.conns[slot_index].lock();
        if let Some(conn) = slot.as_ref() {
            if conn.is_alive() {
                return Ok(Arc::clone(conn));
            }
        }
        let Connection { sink, source, kill } = self.connector.connect()?;
        let pending: PendingMap = Arc::new(Mutex::new(Some(HashMap::new())));
        let reader_pending = Arc::clone(&pending);
        let reader_metrics = Arc::clone(&self.metrics);
        std::thread::Builder::new()
            .name("blobseer-rpc-reader".into())
            .spawn(move || {
                let mut source = source;
                loop {
                    match source.recv() {
                        Ok(Some(frame)) => {
                            reader_metrics.frame_received(frame.wire_len());
                            let mut registry = reader_pending.lock();
                            let Some(map) = registry.as_mut() else {
                                return;
                            };
                            // A duplicated (or very late) response finds no
                            // waiter and is discarded here.
                            if let Some(waiter) = map.remove(&frame.request_id) {
                                let _ = waiter.send(frame);
                            }
                        }
                        Ok(None) | Err(_) => {
                            // Connection gone: fail every waiter fast by
                            // dropping the registry (and with it their
                            // senders).
                            *reader_pending.lock() = None;
                            return;
                        }
                    }
                }
            })
            .expect("cannot spawn rpc reader");
        let conn = Arc::new(LiveConn {
            sink: Arc::new(Mutex::new(sink)),
            send_queue: Mutex::new(Vec::new()),
            pending,
            kill,
        });
        *slot = Some(Arc::clone(&conn));
        Ok(conn)
    }

    fn drop_conn(&self, slot_index: usize, failed: &Arc<LiveConn>) {
        (failed.kill)();
        let mut slot = self.conns[slot_index].lock();
        if let Some(current) = slot.as_ref() {
            if Arc::ptr_eq(current, failed) {
                *slot = None;
            }
        }
    }

    /// Flushes the connection's send queue through its sink as one batch.
    /// Returns how many frames this caller flushed (zero = a predecessor
    /// already carried the caller's frame out).
    fn flush_queue(&self, conn: &LiveConn) -> Result<usize> {
        let mut sink = conn.sink.lock();
        // Take the queue only once the sink is held: frames queued while we
        // waited for the lock ride along in our batch.
        let batch: Vec<Frame> = std::mem::take(&mut *conn.send_queue.lock());
        if batch.is_empty() {
            return Ok(0);
        }
        sink.send_batch(&batch)?;
        drop(sink);
        for frame in &batch {
            self.metrics.frame_sent(frame.wire_len());
        }
        if batch.len() > 1 {
            self.metrics.frames_coalesced(batch.len() as u64 - 1);
        }
        Ok(batch.len())
    }

    /// One transport attempt for a batch of same-opcode requests: registers
    /// every request on a single connection, queues all frames and flushes
    /// them as one batch (one vectored write on a TCP sink — this is where
    /// deterministic client-side frame coalescing comes from), then awaits
    /// the responses off the shared reader. One outcome per request, in
    /// order: the response frame, or the transport error that lost it.
    fn attempt(&self, opcode: u8, requests: &[(Bytes, Bytes)]) -> Vec<Result<Frame>> {
        let slot_index =
            (self.next_conn.fetch_add(1, Ordering::Relaxed) as usize) % self.conns.len();
        let lost = |err: BlobError| requests.iter().map(|_| Err(err.clone())).collect();
        let conn = match self.ensure_conn(slot_index) {
            Ok(conn) => conn,
            Err(err) => return lost(err),
        };
        let mut waiters: Vec<(u64, Receiver<Frame>)> = Vec::with_capacity(requests.len());
        {
            let mut registry = conn.pending.lock();
            match registry.as_mut() {
                Some(map) => {
                    for _ in requests {
                        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
                        let (tx, rx) = channel();
                        map.insert(request_id, tx);
                        waiters.push((request_id, rx));
                    }
                }
                None => {
                    drop(registry);
                    self.drop_conn(slot_index, &conn);
                    return lost(BlobError::Transport("rpc: connection lost".into()));
                }
            }
        }
        {
            let mut queue = conn.send_queue.lock();
            for ((header, payload), (request_id, _)) in requests.iter().zip(&waiters) {
                queue.push(Frame::new(
                    *request_id,
                    opcode,
                    header.clone(),
                    payload.clone(),
                ));
            }
        }
        if let Err(err) = self.flush_queue(&conn) {
            // The failed batch may have carried other callers' frames too;
            // dropping the connection fails their waits over promptly (and
            // every request is idempotent, so they simply retry).
            if let Some(map) = conn.pending.lock().as_mut() {
                for (request_id, _) in &waiters {
                    map.remove(request_id);
                }
            }
            self.drop_conn(slot_index, &conn);
            return lost(err);
        }
        waiters
            .into_iter()
            .map(|(request_id, rx)| match rx.recv_timeout(self.io_timeout) {
                Ok(frame) => Ok(frame),
                Err(RecvTimeoutError::Timeout) => {
                    // A timed-out request means the frame (or its response)
                    // was swallowed, or the endpoint is dead; the next
                    // attempt is better off on a fresh connection. Dropping
                    // it disconnects the other in-flight requests too, so
                    // they fail over without waiting out their own timeouts
                    // — a deliberate trade: spurious group failovers on a
                    // slow-but-alive link are cheap (every request is
                    // idempotent), a dead link detected once is not
                    // re-probed by every waiter in turn.
                    if let Some(map) = conn.pending.lock().as_mut() {
                        map.remove(&request_id);
                    }
                    self.drop_conn(slot_index, &conn);
                    Err(BlobError::Transport(format!(
                        "rpc: no response within {:?}",
                        self.io_timeout
                    )))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.drop_conn(slot_index, &conn);
                    Err(BlobError::Transport("rpc: connection lost".into()))
                }
            })
            .collect()
    }

    /// Issues a batch of same-opcode requests as one pipelined send over a
    /// single connection, returning one result per request (same order).
    ///
    /// All frames leave in one flush — on a contended or batched sink that
    /// is a single vectored write, counted in
    /// `TransportMetrics::frames_coalesced` — and the responses stream back
    /// multiplexed. Any item that fails at the transport level falls back
    /// to [`RpcEndpoint::call`] individually with the full retry budget, so
    /// per-item outcomes are exactly what sequential calls would produce.
    pub fn call_many(&self, opcode: u8, requests: &[(Bytes, Bytes)]) -> Vec<Result<Frame>> {
        self.call_many_once(opcode, requests)
            .into_iter()
            .zip(requests)
            .map(|(outcome, (header, payload))| {
                outcome.unwrap_or_else(|| self.call(opcode, header.clone(), payload.clone()))
            })
            .collect()
    }

    /// The single batched attempt behind [`RpcEndpoint::call_many`]: one
    /// result per request (same order), `Some` when it is final — a
    /// `RESP_OK` frame or an application error — and `None` when the item
    /// failed at the transport level and is the caller's to retry.
    pub(crate) fn call_many_once(
        &self,
        opcode: u8,
        requests: &[(Bytes, Bytes)],
    ) -> Vec<Option<Result<Frame>>> {
        self.attempt(opcode, requests)
            .into_iter()
            .map(|outcome| settle(outcome).ok())
            .collect()
    }

    /// Issues one request and returns the decoded-enough response frame
    /// (`RESP_OK`), retrying transport-level failures with fresh
    /// connections. Application errors from the server are returned as-is.
    pub fn call(&self, opcode: u8, header: Bytes, payload: Bytes) -> Result<Frame> {
        let request = [(header, payload)];
        let mut last_err = BlobError::Transport("rpc: no attempt made".into());
        for attempt in 0..=self.retries {
            if attempt > 0 {
                self.metrics.retried();
            }
            let outcome = self.attempt(opcode, &request).pop();
            match settle(outcome.expect("one outcome per request")) {
                Ok(done) => return done,
                Err(err) => last_err = err,
            }
        }
        Err(last_err)
    }
}

/// Sorts one attempt's outcome: `Ok` when it is final — a `RESP_OK` frame,
/// or the application error the server answered — and `Err` with the
/// reason when it failed at the transport level and is worth retrying.
fn settle(outcome: Result<Frame>) -> std::result::Result<Result<Frame>, BlobError> {
    let frame = outcome?;
    match frame.opcode {
        op::RESP_OK => Ok(Ok(frame)),
        op::RESP_ERR => match decode::<BlobError>(&frame.header)? {
            // The server could not make sense of our request — almost
            // certainly a frame mangled in flight. Transport-class: retry.
            err @ BlobError::Transport(_) => Err(err),
            err => Ok(Err(err)),
        },
        other => Err(BlobError::Transport(format!(
            "rpc: unexpected response opcode {other:#x}"
        ))),
    }
}

impl Drop for RpcEndpoint {
    fn drop(&mut self) {
        for slot in &self.conns {
            if let Some(conn) = slot.lock().take() {
                (conn.kill)();
            }
        }
    }
}

impl std::fmt::Debug for RpcEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcEndpoint")
            .field("io_timeout", &self.io_timeout)
            .field("retries", &self.retries)
            .field("connections", &self.conns.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// Serves decoded requests at one endpoint.
pub trait RpcHandler: Send + Sync {
    /// Handles one request, returning the response header and payload.
    fn handle(&self, opcode: u8, header: &[u8], payload: Bytes) -> Result<(Bytes, Bytes)>;

    /// Whether serving `opcode` may block — on an fsync, or on another
    /// request. The reactor never runs such a request on its own thread.
    fn may_block(&self, _opcode: u8) -> bool {
        false
    }
}

/// Runs `handler` on one decoded request and builds its response frame.
/// An `Err` — or a handler panic, caught here so it costs neither a
/// `net-worker` thread nor the caller its full `io_timeout` — becomes a
/// `RESP_ERR` frame carrying the typed error.
pub(crate) fn respond(handler: &dyn RpcHandler, request: Frame) -> Frame {
    let Frame {
        request_id,
        opcode,
        header,
        payload,
    } = request;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handler.handle(opcode, &header, payload)
    }))
    .unwrap_or_else(|_| {
        Err(BlobError::Internal(format!(
            "rpc: handler panicked serving opcode {opcode:#x}"
        )))
    });
    match outcome {
        Ok((header, payload)) => Frame::new(request_id, op::RESP_OK, header, payload),
        Err(err) => Frame::new(request_id, op::RESP_ERR, encode(&err), Bytes::new()),
    }
}

/// One serving endpoint registered on a shared [`Reactor`]; torn down by
/// [`RpcServer::stop`] (or drop).
pub struct RpcServer {
    reactor: Arc<Reactor>,
    endpoint_id: u64,
    conn_count: Arc<std::sync::atomic::AtomicUsize>,
    stopped: bool,
}

impl RpcServer {
    /// Registers `handler` as an endpoint on the event-driven `reactor`
    /// serving `listener`: no per-connection threads at all.
    /// [`RpcServer::stop`] deregisters the endpoint (closing its listener
    /// and connections); the reactor itself is owned, and stopped, by the
    /// deployment.
    #[must_use]
    pub fn spawn_reactor(
        reactor: &Arc<Reactor>,
        listener: std::net::TcpListener,
        handler: Arc<dyn RpcHandler>,
    ) -> Self {
        let (endpoint_id, conn_count) = reactor.add_endpoint(listener, handler);
        RpcServer {
            reactor: Arc::clone(reactor),
            endpoint_id,
            conn_count,
            stopped: false,
        }
    }

    /// Number of connections currently live at this endpoint (tests,
    /// diagnostics).
    #[must_use]
    pub fn connection_count(&self) -> usize {
        self.conn_count.load(Ordering::Relaxed)
    }

    /// Stops this endpoint: once this returns, its listener and every one
    /// of its connections are closed, so a new connect is refused.
    /// Idempotent.
    pub fn stop(&mut self) {
        if !std::mem::replace(&mut self.stopped, true) {
            self.reactor.remove_endpoint(self.endpoint_id);
        }
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Service hosts
// ---------------------------------------------------------------------------

fn unknown_opcode(opcode: u8, host: &str) -> BlobError {
    BlobError::Transport(format!("{host} endpoint: unknown opcode {opcode:#x}"))
}

/// Hosts one data provider's chunk store behind [`op::PUT_CHUNK`] /
/// [`op::GET_CHUNK`].
pub struct ChunkHost {
    provider: Arc<DataProvider>,
    /// Server-side chunk cache, consulted before the provider's store on
    /// GET and populated on PUT — safe without any coherence protocol
    /// because chunks are immutable. Only verbatim envelopes are cached
    /// (the cache stores raw bytes; a compressed envelope's codec tag would
    /// be lost), which is the common daemon configuration.
    cache: Option<Arc<ChunkCache>>,
    /// Serving-side traffic accounting: every envelope crossing this host
    /// is counted at its logical and physical size, so a daemon built over
    /// these hosts can report `bytes_on_wire_{logical,physical}` for the
    /// traffic it served (clients keep their own, independent metrics).
    metrics: Option<Arc<TransportMetrics>>,
}

impl ChunkHost {
    /// Wraps a provider handle.
    #[must_use]
    pub fn new(provider: Arc<DataProvider>) -> Self {
        ChunkHost {
            provider,
            cache: None,
            metrics: None,
        }
    }

    /// Attaches a server-side chunk cache (shared across hosts is fine —
    /// chunk ids are globally unique).
    #[must_use]
    pub fn with_cache(mut self, cache: Option<Arc<ChunkCache>>) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches serving-side traffic metrics.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Option<Arc<TransportMetrics>>) -> Self {
        self.metrics = metrics;
        self
    }

    fn account(&self, envelope_logical: u64, envelope_physical: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.chunk_on_wire(envelope_logical, envelope_physical);
        }
    }
}

impl RpcHandler for ChunkHost {
    fn handle(&self, opcode: u8, header: &[u8], payload: Bytes) -> Result<(Bytes, Bytes)> {
        match opcode {
            op::PUT_CHUNK => {
                let mut r = WireReader::new(header);
                let chunk: ChunkId = r.get()?;
                let envelope_header: EnvelopeHeader = r.get()?;
                r.expect_end()?;
                // Rejoining header and payload validates the declared
                // physical (and, for verbatim, logical) length against what
                // actually arrived. The payload is a refcounted slice of the
                // receive buffer; the store keeps that slice — no
                // server-side copy, and never any server-side re-coding.
                let envelope = envelope_header.into_envelope(payload)?;
                self.account(envelope.logical_len(), envelope.physical_len());
                if let Some(cache) = &self.cache {
                    if envelope.is_verbatim() {
                        cache.insert(chunk, envelope.payload().clone());
                    }
                }
                self.provider.put_chunk(chunk, envelope)?;
                Ok((Bytes::new(), Bytes::new()))
            }
            op::GET_CHUNK => {
                let chunk: ChunkId = decode(header)?;
                if let Some(cache) = &self.cache {
                    if let Some(bytes) = cache.get(&chunk) {
                        let envelope = ChunkEnvelope::verbatim(bytes);
                        self.account(envelope.logical_len(), envelope.physical_len());
                        return Ok((encode(&envelope.header()), envelope.into_payload()));
                    }
                }
                let data = self.provider.get_chunk(&chunk)?;
                self.account(data.logical_len(), data.physical_len());
                if let Some(cache) = &self.cache {
                    if data.is_verbatim() {
                        cache.insert(chunk, data.payload().clone());
                    }
                }
                // The envelope ships exactly as stored: codec metadata in
                // the response header, physical bytes as the payload.
                Ok((encode(&data.header()), data.into_payload()))
            }
            op::REMOVE_CHUNKS => {
                let chunks: Vec<ChunkId> = decode(header)?;
                if let Some(cache) = &self.cache {
                    for chunk in &chunks {
                        cache.remove(chunk);
                    }
                }
                let freed = self.provider.remove_chunks(&chunks)?;
                Ok((encode(&freed), Bytes::new()))
            }
            other => Err(unknown_opcode(other, "chunk")),
        }
    }
}

/// Hosts the provider manager behind [`op::ALLOCATE`] /
/// [`op::LIVE_PROVIDERS`].
pub struct ManagerHost {
    manager: Arc<ProviderManager>,
}

impl ManagerHost {
    /// Wraps the provider manager.
    #[must_use]
    pub fn new(manager: Arc<ProviderManager>) -> Self {
        ManagerHost { manager }
    }
}

impl RpcHandler for ManagerHost {
    fn handle(&self, opcode: u8, header: &[u8], _payload: Bytes) -> Result<(Bytes, Bytes)> {
        match opcode {
            op::ALLOCATE => {
                let request: PlacementRequest = decode(header)?;
                let placement = self.manager.allocate(request)?;
                Ok((encode(&placement), Bytes::new()))
            }
            op::LIVE_PROVIDERS => {
                let live: Vec<ProviderId> = self.manager.live_providers();
                Ok((encode(&live), Bytes::new()))
            }
            other => Err(unknown_opcode(other, "manager")),
        }
    }
}

/// Hosts a metadata store (the DHT in production wiring) behind
/// [`op::META_GET`] / [`op::META_PUT`] / [`op::META_COUNT`].
pub struct MetaHost {
    store: Arc<dyn MetadataStore>,
}

impl MetaHost {
    /// Wraps a metadata store.
    #[must_use]
    pub fn new(store: Arc<dyn MetadataStore>) -> Self {
        MetaHost { store }
    }
}

/// Hosts the version manager behind the `0x2x` opcode range — the last
/// service plane to go on the wire, making a deployment fully remote.
///
/// Pins are leased: `VM_PIN` takes the pin server-side (so the lifecycle
/// sweeper, which runs in the serving process, really cannot collect the
/// pinned version) and answers with a lease token; `VM_UNPIN` releases the
/// lease. A client that dies without unpinning leaks its lease — bounded by
/// the client's pins in flight at death, and only delaying GC of those
/// versions, never correctness. A lease registry TTL is a follow-up.
pub struct VersionHost {
    vm: Arc<VersionManager>,
    /// Live pin leases: token → the guard holding the server-side pin.
    leases: Mutex<HashMap<u64, VersionPin>>,
    next_lease: AtomicU64,
    /// Replay window for the non-idempotent requests (create / assign / pin):
    /// nonce → the encoded response already produced for it.
    replays: Mutex<ReplayWindow>,
    /// How long a completion or abort waits for its version to become
    /// durable before it answers a retryable error (`None`: for ever).
    commit_wait: Option<Duration>,
}

/// How many completed non-idempotent requests the host remembers. A retry
/// storm deeper than this would need more in-flight mutations from live
/// clients than any deployment's worker pool admits.
const REPLAY_WINDOW: usize = 1024;

/// Bounded nonce → response memory. `RpcEndpoint::call` resends the *same*
/// header bytes on a transport retry, so a client-chosen nonce in the header
/// is stable across retries: when only the response was lost, the retry must
/// observe the original outcome, not mint a second version/blob/lease.
struct ReplayWindow {
    entries: HashMap<(u64, u64), Bytes>,
    order: VecDeque<(u64, u64)>,
}

impl ReplayWindow {
    fn new() -> Self {
        ReplayWindow {
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&mut self, nonce: (u64, u64)) -> Option<Bytes> {
        self.entries.get(&nonce).cloned()
    }

    fn put(&mut self, nonce: (u64, u64), response: Bytes) {
        if self.entries.insert(nonce, response).is_none() {
            self.order.push_back(nonce);
            while self.order.len() > REPLAY_WINDOW {
                if let Some(old) = self.order.pop_front() {
                    self.entries.remove(&old);
                }
            }
        }
    }
}

impl VersionHost {
    /// Wraps the version manager.
    #[must_use]
    pub fn new(vm: Arc<VersionManager>) -> Self {
        VersionHost {
            vm,
            leases: Mutex::new(HashMap::new()),
            next_lease: AtomicU64::new(1),
            replays: Mutex::new(ReplayWindow::new()),
            commit_wait: None,
        }
    }

    /// Bounds how long a `VM_COMPLETE` or `VM_ABORT` waits for its version
    /// to become durable — it may wait on an earlier writer of the blob,
    /// one that may have died. Past the bound the request answers the
    /// retryable [`BlobError::Transport`] and the client's retry waits
    /// again. Kept below the clients' I/O timeout, a waiting committer
    /// holds at most one server thread at a time.
    #[must_use]
    pub fn with_commit_wait(mut self, wait: Option<Duration>) -> Self {
        self.commit_wait = wait;
        self
    }

    /// Number of pin leases currently held (tests, diagnostics).
    #[must_use]
    pub fn lease_count(&self) -> usize {
        self.leases.lock().len()
    }

    /// Runs `make` once per nonce: a replayed nonce returns the memoised
    /// response without touching the version manager again.
    fn once(&self, nonce: (u64, u64), make: impl FnOnce() -> Result<Bytes>) -> Result<Bytes> {
        if let Some(hit) = self.replays.lock().get(nonce) {
            return Ok(hit);
        }
        let fresh = make()?;
        self.replays.lock().put(nonce, fresh.clone());
        Ok(fresh)
    }

    /// Maps `UnknownVersion` on a completion/abort retry to the first
    /// attempt's outcome: if the version is already published, that attempt
    /// landed and only its response was lost — or it is still syncing, and
    /// the retry waits for the same durability it waits for.
    fn settle(&self, blob: BlobId, version: Version, outcome: Result<Version>) -> Result<Version> {
        match outcome {
            Err(BlobError::UnknownVersion(..)) => {
                self.vm.await_durable(blob, version, self.commit_wait)
            }
            other => other,
        }
    }
}

impl RpcHandler for VersionHost {
    /// With a journal, a blob creation fsyncs and a completion or abort
    /// waits for its version to be durable; without one, nothing blocks.
    fn may_block(&self, opcode: u8) -> bool {
        matches!(opcode, op::VM_CREATE_BLOB | op::VM_COMPLETE | op::VM_ABORT)
            && self.vm.is_journaled()
    }

    fn handle(&self, opcode: u8, header: &[u8], _payload: Bytes) -> Result<(Bytes, Bytes)> {
        match opcode {
            op::VM_CREATE_BLOB => {
                let (tag, seq, config): (u64, u64, BlobConfig) = decode(header)?;
                let out = self.once((tag, seq), || Ok(encode(&self.vm.create_blob(config)?)))?;
                Ok((out, Bytes::new()))
            }
            op::VM_BLOB_CONFIG => {
                let blob: BlobId = decode(header)?;
                Ok((encode(&self.vm.blob_config(blob)?), Bytes::new()))
            }
            op::VM_LATEST_SNAPSHOT => {
                let blob: BlobId = decode(header)?;
                Ok((encode(&self.vm.latest_snapshot(blob)?), Bytes::new()))
            }
            op::VM_SNAPSHOT => {
                let (blob, version): (BlobId, Version) = decode(header)?;
                Ok((encode(&self.vm.snapshot(blob, version)?), Bytes::new()))
            }
            op::VM_PUBLISHED => {
                let blob: BlobId = decode(header)?;
                Ok((encode(&self.vm.published_versions(blob)?), Bytes::new()))
            }
            op::VM_ASSIGN_TICKET => {
                let (tag, seq, args): (u64, u64, (BlobId, WriteKind)) = decode(header)?;
                let out = self.once((tag, seq), || {
                    Ok(encode(&self.vm.assign_ticket(args.0, args.1)?))
                })?;
                Ok((out, Bytes::new()))
            }
            op::VM_COMPLETE => {
                let (blob, version, artifacts): (BlobId, Version, Option<Vec<NodeArtifact>>) =
                    decode(header)?;
                let outcome =
                    self.vm
                        .settle_write(blob, version, artifacts, false, self.commit_wait);
                Ok((encode(&self.settle(blob, version, outcome)?), Bytes::new()))
            }
            op::VM_ABORT => {
                let (blob, version, artifacts): (BlobId, Version, Option<Vec<NodeArtifact>>) =
                    decode(header)?;
                let outcome =
                    self.vm
                        .settle_write(blob, version, artifacts, true, self.commit_wait);
                Ok((encode(&self.settle(blob, version, outcome)?), Bytes::new()))
            }
            op::VM_PIN => {
                let (tag, seq, args): (u64, u64, (BlobId, Option<Version>)) = decode(header)?;
                let out = self.once((tag, seq), || {
                    let (descriptor, pin) = self.vm.pin_snapshot(args.0, args.1)?;
                    let lease = self.next_lease.fetch_add(1, Ordering::Relaxed);
                    self.leases.lock().insert(lease, pin);
                    Ok(encode(&(descriptor, lease)))
                })?;
                Ok((out, Bytes::new()))
            }
            op::VM_UNPIN => {
                // Idempotent: an unknown lease (double unpin after a client
                // retry) is simply gone already.
                let (_blob, _version, lease): (BlobId, Version, u64) = decode(header)?;
                self.leases.lock().remove(&lease);
                Ok((Bytes::new(), Bytes::new()))
            }
            other => Err(unknown_opcode(other, "version")),
        }
    }
}

impl RpcHandler for MetaHost {
    fn handle(&self, opcode: u8, header: &[u8], _payload: Bytes) -> Result<(Bytes, Bytes)> {
        match opcode {
            op::META_GET => {
                let keys: Vec<NodeKey> = decode(header)?;
                let bodies = self.store.get_nodes(&keys)?;
                Ok((encode(&bodies), Bytes::new()))
            }
            op::META_PUT => {
                let nodes: Vec<(NodeKey, NodeBody)> = decode(header)?;
                self.store.put_nodes(nodes)?;
                Ok((Bytes::new(), Bytes::new()))
            }
            op::META_COUNT => {
                let count = self.store.node_count();
                Ok((encode(&count), Bytes::new()))
            }
            op::META_DELETE => {
                let keys: Vec<NodeKey> = decode(header)?;
                let deleted = self.store.delete_nodes(&keys)?;
                Ok((encode(&deleted), Bytes::new()))
            }
            other => Err(unknown_opcode(other, "meta")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{WorkerPool, ACTIVE_SPIN_WINDOW, INLINE_BATCH_BYTES};
    use crate::transport::{tcp_listener, FaultState, FaultyConnector};
    use blobseer_types::{BlobId, FaultPlan};

    /// Echoes the request back; opcode 0x70 sleeps forever (a hung
    /// endpoint), 0x71 returns an application error, 0x72 is slow.
    struct EchoHandler;

    impl RpcHandler for EchoHandler {
        fn handle(&self, opcode: u8, header: &[u8], payload: Bytes) -> Result<(Bytes, Bytes)> {
            match opcode {
                0x70 => {
                    // A hung endpoint: far longer than any test timeout (the
                    // thread exits with the test process).
                    std::thread::sleep(Duration::from_secs(60));
                    Ok((Bytes::new(), Bytes::new()))
                }
                0x71 => Err(BlobError::UnknownBlob(BlobId(9))),
                0x72 => {
                    // Slow but finite: long enough to prove concurrent
                    // serving, short enough to join at test end.
                    std::thread::sleep(Duration::from_millis(800));
                    Ok((Bytes::new(), Bytes::new()))
                }
                _ => Ok((Bytes::from(header.to_vec()), payload)),
            }
        }
    }

    /// An echo endpoint on its own reactor, and the connector that dials it.
    fn echo_server() -> (RpcServer, Arc<dyn Connect>) {
        let (connector, listener) = tcp_listener("127.0.0.1:0").unwrap();
        let reactor = Reactor::new(WorkerPool::new(4), None);
        let server = RpcServer::spawn_reactor(&reactor, listener, Arc::new(EchoHandler));
        (server, connector)
    }

    fn endpoint_over(connector: Arc<dyn Connect>, io_timeout: Duration) -> RpcEndpoint {
        RpcEndpoint::new(
            connector,
            Some(io_timeout),
            Arc::new(TransportMetrics::new()),
        )
    }

    fn tcp_rig(io_timeout: Duration) -> (RpcServer, RpcEndpoint) {
        let (server, connector) = echo_server();
        (server, endpoint_over(connector, io_timeout))
    }

    /// [`tcp_rig`] with every connection dialled through a
    /// [`FaultyConnector`] injecting `plan`.
    fn faulty_rig(plan: FaultPlan, io_timeout: Duration) -> (RpcServer, RpcEndpoint) {
        let (server, connector) = echo_server();
        let faulty = FaultyConnector::new(connector, Arc::new(FaultState::new(plan)));
        (server, endpoint_over(Arc::new(faulty), io_timeout))
    }

    /// A payload too large for the reactor's inline fast path. A batch of
    /// at most `INLINE_BATCH_BYTES` runs on the reactor thread itself when
    /// the pool has no backlog, so a slow handler reached by a small request
    /// would stall every connection; a request carrying this payload runs
    /// on a worker instead, like a chunk store.
    fn pooled_payload() -> Bytes {
        Bytes::from(vec![0u8; INLINE_BATCH_BYTES + 1])
    }

    #[test]
    fn calls_roundtrip_and_count_frames() {
        let (_server, endpoint) = tcp_rig(Duration::from_secs(5));
        let resp = endpoint
            .call(0x20, Bytes::from_static(b"hd"), Bytes::from_static(b"pl"))
            .unwrap();
        assert_eq!(resp.header.as_slice(), b"hd");
        assert_eq!(resp.payload.as_slice(), b"pl");
        let m = endpoint.metrics().snapshot();
        assert_eq!(m.frames_sent, 1);
        assert_eq!(m.frames_received, 1);
        assert!(m.bytes_on_wire > 0);
        assert_eq!(m.retries, 0);
    }

    #[test]
    fn application_errors_pass_through_without_retries() {
        let (_server, endpoint) = tcp_rig(Duration::from_secs(5));
        let err = endpoint.call(0x71, Bytes::new(), Bytes::new()).unwrap_err();
        assert_eq!(err, BlobError::UnknownBlob(BlobId(9)));
        assert_eq!(endpoint.metrics().snapshot().retries, 0);
    }

    #[test]
    fn concurrent_calls_multiplex_one_connection() {
        let (_server, endpoint) = tcp_rig(Duration::from_secs(5));
        let endpoint = Arc::new(endpoint);
        let mut handles = Vec::new();
        for i in 0..8u8 {
            let endpoint = Arc::clone(&endpoint);
            handles.push(std::thread::spawn(move || {
                for j in 0..16u8 {
                    let body = Bytes::from(vec![i, j]);
                    let resp = endpoint.call(0x20, body.clone(), Bytes::new()).unwrap();
                    assert_eq!(resp.header, body, "demux must match responses to callers");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All 128 calls shared one connection's id space.
        assert_eq!(endpoint.metrics().snapshot().frames_sent, 128);
    }

    #[test]
    fn stalled_endpoints_time_out_and_healthy_retries_recover() {
        // stall = 1 swallows every request: the call must fail after
        // retries, in bounded time, with a transport error.
        let plan = FaultPlan {
            seed: 1,
            stall: 1.0,
            ..FaultPlan::none()
        };
        let (_server, endpoint) = faulty_rig(plan, Duration::from_millis(60));
        let start = std::time::Instant::now();
        let err = endpoint.call(0x20, Bytes::new(), Bytes::new()).unwrap_err();
        assert!(matches!(err, BlobError::Transport(_)));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a stalled endpoint must fail promptly, not hang"
        );
        assert_eq!(
            endpoint.metrics().snapshot().retries,
            u64::from(DEFAULT_RPC_RETRIES)
        );
    }

    #[test]
    fn lossy_links_are_masked_by_retries() {
        // A sixth of the frames vanish — in either direction, so a call
        // fails per attempt with p ≈ 0.3. A deeper retry budget still
        // converges (deterministically, per the fixed seed).
        let plan = FaultPlan {
            seed: 77,
            drop: 0.15,
            ..FaultPlan::none()
        };
        let (_server, endpoint) = faulty_rig(plan, Duration::from_millis(60));
        let endpoint = endpoint.with_retries(6);
        for i in 0..10u8 {
            let body = Bytes::from(vec![i]);
            let resp = endpoint.call(0x20, body.clone(), Bytes::new()).unwrap();
            assert_eq!(resp.header, body);
        }
        assert!(endpoint.metrics().snapshot().retries > 0);
    }

    #[test]
    fn a_hung_request_times_out_and_the_endpoint_recovers_on_a_fresh_connection() {
        let (_server, endpoint) = tcp_rig(Duration::from_millis(100));
        // One retry is plenty: every attempt hits the same sleeping handler.
        let endpoint = endpoint.with_retries(1);
        let start = std::time::Instant::now();
        let err = endpoint
            .call(0x70, Bytes::new(), pooled_payload())
            .unwrap_err();
        assert!(matches!(err, BlobError::Transport(_)));
        assert!(start.elapsed() < Duration::from_secs(5));
        // The wedged connection was dropped; the next call dials a fresh one
        // and succeeds while the hung handler still holds its worker.
        let resp = endpoint
            .call(0x20, Bytes::from_static(b"after"), Bytes::new())
            .unwrap();
        assert_eq!(resp.header.as_slice(), b"after");
    }

    #[test]
    fn dead_connections_are_pruned_from_the_server_registry() {
        let (server, connector) = echo_server();
        // Churn: dial, use, drop — like a client failing over repeatedly.
        for round in 0..5u8 {
            let endpoint = endpoint_over(Arc::clone(&connector), Duration::from_secs(5));
            endpoint
                .call(0x20, Bytes::from(vec![round]), Bytes::new())
                .unwrap();
            drop(endpoint); // kills the connection
        }
        // Each dropped connection leaves the reactor's count once the
        // reactor reads its end of stream.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.connection_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            server.connection_count(),
            0,
            "dead connections must not accumulate in the server"
        );
    }

    #[test]
    fn in_flight_requests_on_one_connection_are_served_concurrently() {
        // Two calls multiplexed on one connection, the first against a
        // handler that sleeps: the second must complete while the first is
        // still pending (no head-of-line blocking into its timeout). The
        // slow request carries a payload past the inline fast path, as a
        // slow chunk store would; see `pooled_payload`.
        let (_server, endpoint) = tcp_rig(Duration::from_secs(10));
        let endpoint = Arc::new(endpoint);
        let slow = {
            let endpoint = Arc::clone(&endpoint);
            std::thread::spawn(move || endpoint.call(0x72, Bytes::new(), pooled_payload()))
        };
        std::thread::sleep(Duration::from_millis(30)); // let the slow call land first
        let start = std::time::Instant::now();
        endpoint
            .call(0x20, Bytes::from_static(b"quick"), Bytes::new())
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "a quick request must not queue behind a slow one"
        );
        slow.join().unwrap().unwrap();
        assert_eq!(endpoint.metrics().snapshot().retries, 0);
    }

    #[test]
    fn stopped_servers_fail_calls_fast_and_cleanly() {
        let (mut server, endpoint) = tcp_rig(Duration::from_millis(200));
        endpoint
            .call(0x20, Bytes::from_static(b"a"), Bytes::new())
            .unwrap();
        server.stop();
        let err = endpoint
            .call(0x20, Bytes::from_static(b"b"), Bytes::new())
            .unwrap_err();
        assert!(matches!(err, BlobError::Transport(_)));
    }

    #[test]
    fn stopped_endpoints_refuse_connections_once_stop_returns() {
        let pool = WorkerPool::new(1);
        let reactor = Reactor::new(pool.clone(), None);
        let mut accepted = 0;
        for _ in 0..200 {
            let (connector, listener) = tcp_listener("127.0.0.1:0").unwrap();
            let mut server = RpcServer::spawn_reactor(&reactor, listener, Arc::new(EchoHandler));
            // Let the reactor go quiet and park, the state a daemon's
            // endpoints are usually stopped in.
            std::thread::sleep(ACTIVE_SPIN_WINDOW + Duration::from_millis(1));
            server.stop();
            if std::net::TcpStream::connect(connector.addr()).is_ok() {
                accepted += 1;
            }
        }
        reactor.stop();
        pool.shutdown();
        assert_eq!(
            accepted, 0,
            "{accepted} of 200 connects landed after stop returned"
        );
    }

    #[test]
    fn rpc_works_over_real_tcp_sockets() {
        let (connector, listener) = tcp_listener("127.0.0.1:0").unwrap();
        let pool = WorkerPool::new(4);
        let reactor = Reactor::new(pool.clone(), None);
        let mut server = RpcServer::spawn_reactor(&reactor, listener, Arc::new(EchoHandler));
        let endpoint = RpcEndpoint::new(
            connector,
            Some(Duration::from_secs(5)),
            Arc::new(TransportMetrics::new()),
        );
        let payload = Bytes::from(vec![7u8; 100_000]);
        let resp = endpoint
            .call(0x20, Bytes::from_static(b"big"), payload.clone())
            .unwrap();
        assert_eq!(resp.payload, payload);
        let m = endpoint.metrics().snapshot();
        assert!(m.bytes_on_wire >= 2 * 100_000);
        server.stop();
        reactor.stop();
        // After the server is gone, calls fail with a transport error
        // instead of hanging (connect refused or reset).
        let err = endpoint.call(0x20, Bytes::new(), Bytes::new());
        assert!(err.is_err());
        pool.shutdown();
    }

    /// A journal whose every commit fsync parks until the test releases
    /// it: the first barrier wait says it is parked, the second lets it go.
    struct ParkingJournal {
        seq: AtomicU64,
        gate: std::sync::Barrier,
    }

    impl blobseer_core::Journal for ParkingJournal {
        fn record_create_blob(&self, _blob: BlobId, _config: &BlobConfig) -> Result<()> {
            Ok(())
        }

        fn prepare_commit(&self) -> Result<()> {
            Ok(())
        }

        fn append_commit(
            &self,
            _blob: BlobId,
            _descriptor: &blobseer_meta::SnapshotDescriptor,
        ) -> Result<u64> {
            Ok(self.seq.fetch_add(1, Ordering::SeqCst) + 1)
        }

        fn sync_commits(&self, _seq: u64) -> Result<()> {
            self.gate.wait();
            self.gate.wait();
            Ok(())
        }

        fn record_retire(&self, _blob: BlobId, _first_retained: Version) -> Result<()> {
            Ok(())
        }
    }

    /// A `VM_COMPLETE` re-sent while the first attempt is still syncing
    /// (its response was lost, say) gets that attempt's outcome once it is
    /// durable — not `UnknownVersion`, and not before the fsync returns.
    #[test]
    fn a_completion_retried_during_its_fsync_gets_the_first_outcome() {
        let vm = Arc::new(VersionManager::new());
        let journal = Arc::new(ParkingJournal {
            seq: AtomicU64::new(0),
            gate: std::sync::Barrier::new(2),
        });
        vm.set_journal(Arc::clone(&journal) as Arc<dyn blobseer_core::Journal>);
        let host = Arc::new(VersionHost::new(Arc::clone(&vm)));
        assert!(host.may_block(op::VM_COMPLETE));
        let blob = vm.create_blob(BlobConfig::default()).unwrap();
        let ticket = vm
            .assign_ticket(blob, WriteKind::Append { len: 1 })
            .unwrap();
        let request = encode(&(blob, ticket.version, None::<Vec<NodeArtifact>>));
        let complete = || {
            let host = Arc::clone(&host);
            let request = request.clone();
            let (tx, rx) = channel();
            std::thread::spawn(move || {
                let _ = tx.send(host.handle(op::VM_COMPLETE, &request, Bytes::new()));
            });
            rx
        };
        let first = complete();
        journal.gate.wait(); // the first attempt is in its fsync
        let retry = complete();
        assert!(
            retry.recv_timeout(Duration::from_millis(100)).is_err(),
            "the retry answered before the version was durable"
        );
        journal.gate.wait();
        for attempt in [first, retry] {
            let (header, _) = attempt
                .recv_timeout(Duration::from_secs(10))
                .unwrap()
                .unwrap();
            assert_eq!(decode::<Version>(&header).unwrap(), ticket.version);
        }
    }

    #[test]
    fn chunk_host_validates_declared_payload_lengths() {
        let provider = Arc::new(DataProvider::in_memory(ProviderId(0)));
        let host = ChunkHost::new(provider);
        let chunk = ChunkId {
            blob: BlobId(1),
            write_tag: 2,
            slot: 3,
        };
        let mut w = blobseer_types::wire::WireWriter::new();
        w.put(&chunk);
        // An envelope header declaring 10 physical bytes...
        w.put(&blobseer_types::ChunkEnvelope::verbatim(Bytes::from(vec![0u8; 10])).header());
        let err = host
            .handle(op::PUT_CHUNK, &w.finish(), Bytes::from_static(b"abc"))
            .unwrap_err(); // ...but carrying 3: a truncated frame.
        assert!(matches!(err, BlobError::Transport(_)));
    }

    #[test]
    fn hosts_reject_unknown_opcodes() {
        let provider = Arc::new(DataProvider::in_memory(ProviderId(0)));
        assert!(ChunkHost::new(provider)
            .handle(0x6f, &[], Bytes::new())
            .is_err());
        let manager = Arc::new(ProviderManager::with_providers(
            blobseer_types::PlacementPolicy::RoundRobin,
            2,
        ));
        assert!(ManagerHost::new(manager)
            .handle(0x6f, &[], Bytes::new())
            .is_err());
        let store: Arc<dyn MetadataStore> = Arc::new(blobseer_meta::InMemoryMetaStore::new());
        assert!(MetaHost::new(store)
            .handle(0x6f, &[], Bytes::new())
            .is_err());
    }
}
