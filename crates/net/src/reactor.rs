//! Event-driven serving: a readiness reactor plus a bounded worker pool.
//!
//! The thread-per-connection/thread-per-request server of the first RPC
//! iteration scales with *clients*; this module makes serving scale with
//! *cores*. One `net-reactor` thread owns every accepted socket of every
//! registered endpoint in nonblocking mode and runs a `poll(2)`-style
//! readiness loop over them (implemented with `set_nonblocking` scans —
//! the build environment has no registry access, so no polling crate and no
//! libc binding; the loop parks itself briefly whenever a full scan makes
//! no progress, which keeps idle CPU near zero while staying pure
//! `std::net`). Complete frames are handed to a bounded [`WorkerPool`]
//! ([`default_rpc_workers`] threads named `net-worker-N`) through an
//! MPMC queue; responses travel back through per-connection outbound
//! queues — as one vectored write across however many responses are ready,
//! so the server coalesces small frames for free. Workers flush a response
//! straight to the (writable, in the common case) socket as they finish,
//! which takes the reactor's scan period out of the response latency; only
//! pushed-back sockets fall to the reactor's writability drain.
//!
//! Without a real `poll(2)` the scan itself must be cheap at high fan-in,
//! so connections are split hot/cold: a connection that moved bytes
//! recently is probed (one nonblocking `read`) every scan, while idle ones
//! are probed by a rotating sweep of `COLD_SWEEP_PER_SCAN` connections
//! per scan. The scan's syscall overhead is therefore O(hot + constant)
//! rather than O(connections) — a few scans of added first-byte latency on
//! a cold connection buys a server whose probe cost no longer grows with
//! fan-in.
//!
//! The zero-copy invariants of the blocking path carry over unchanged: a
//! frame is received into exactly one `BytesMut` (filled incrementally
//! across readiness events) and decoded into refcounted slices of it, and
//! responses are scatter-written `[prefix, header, payload]` without
//! flattening. A connection that stalls mid-frame or refuses to drain its
//! responses past the configured timeout is pruned — it holds no worker
//! thread hostage either way, which is what defeats slow-loris clients.

use crate::frame::{Frame, FRAME_PREFIX_BYTES, MAX_FRAME_BYTES};
use crate::rpc::{respond, RpcHandler};
use bytes::{Bytes, BytesMut};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes one connection may read per reactor scan. Bounding the per-scan
/// read keeps one fat pipe from starving its neighbours while still letting
/// a multi-megabyte chunk frame assemble in a handful of scans.
const READ_BUDGET_PER_SCAN: usize = 1 << 20;

/// Size of the burst read a between-frames connection gets probed with. A
/// pipelined peer queues several small frames back-to-back; one burst read
/// harvests all of them in a single syscall instead of paying a 4-byte
/// prefix read plus a body read each. Frames that do not fit are assembled
/// in their own exact-size buffer, so large payloads still land with at
/// most one `BURST_READ`-sized head fragment copied.
const BURST_READ: usize = 4096;

/// How long the reactor parks when a full scan over listeners and
/// connections made no progress. Short enough to stay invisible next to
/// loopback latencies, long enough to keep an idle server at ~zero CPU.
const IDLE_PARK: Duration = Duration::from_micros(500);

/// For this long after the last byte moved, an idle scan yields the core
/// instead of parking. Without a real `poll(2)` a parked reactor is blind:
/// nothing wakes it when bytes arrive, so every park lands its full
/// duration on the request's critical path. Right after activity, "no
/// bytes ready" usually means the peers need the CPU to produce the next
/// request — `yield_now` hands it over and reschedules immediately, where
/// a park would stall every in-flight client for [`IDLE_PARK`]. Past the
/// window the server is genuinely quiet and parking keeps it at ~zero CPU.
const ACTIVE_SPIN_WINDOW: Duration = Duration::from_millis(5);

/// Scans without inbound bytes after which a connection turns cold and
/// drops out of the every-scan probe set. A client mid-operation re-arms on
/// every frame, so its bursts always run at full scan rate.
const HOT_IDLE_SCANS: u32 = 16;

/// How many *cold* connections one scan probes (a rotating sweep cursor
/// walks the table). This bounds the scan's syscall overhead to a constant
/// no matter how many thousands of idle connections are parked on the
/// server — the property that lets a probe-based reactor survive without a
/// real `poll(2)`. Worst added first-byte latency on a cold connection is
/// one full sweep cycle (`conns / COLD_SWEEP_PER_SCAN` scans).
const COLD_SWEEP_PER_SCAN: usize = 16;

/// Listener backlogs are drained every `ACCEPT_STRIDE`-th scan: accepts are
/// rare after startup, and this keeps a dozen serving endpoints from adding
/// a dozen `accept` syscalls to every scan.
const ACCEPT_STRIDE: u64 = 4;

/// The pool size used when a caller does not plumb one through: the core
/// count, floored at 4 so a single-core host still rides out a couple of
/// stuck handlers while keeping fast requests flowing.
#[must_use]
pub fn default_rpc_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .max(4)
}

/// Number of live threads of this process whose name starts with `prefix`
/// (Linux: `/proc/self/task/*/comm`). This is how the thread-census tests
/// verify that serving stays O(workers) — the distinct `net-reactor` /
/// `net-worker-N` names exist exactly so this count means something.
#[must_use]
pub fn count_threads_with_prefix(prefix: &str) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .map(|comm| comm.trim_end().starts_with(prefix))
                .unwrap_or(false)
        })
        .count()
}

type Job = Box<dyn FnOnce() + Send>;

struct PoolShared {
    queue: Mutex<Option<VecDeque<Job>>>,
    available: Condvar,
    workers: usize,
    /// Jobs pushed but not yet picked up by a worker — a lock-free mirror
    /// of the queue length, read by the reactor's inline fast path.
    backlog: AtomicUsize,
}

/// A bounded pool of `net-worker-N` threads draining one MPMC job queue.
///
/// The pool is the server-side concurrency bound: however many clients
/// connect, at most `workers` requests execute at once and at most
/// `workers` threads exist for handling them. Cloning shares the pool;
/// [`WorkerPool::shutdown`] stops it (workers finish the job they are on
/// and exit — deliberately not joined, so a hung handler delays nothing
/// but itself).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl Clone for WorkerPool {
    fn clone(&self) -> Self {
        WorkerPool {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one) named `net-worker-N`.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Some(VecDeque::new())),
            available: Condvar::new(),
            workers,
            backlog: AtomicUsize::new(0),
        });
        for n in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("net-worker-{n}"))
                .spawn(move || loop {
                    let job = {
                        let mut queue = shared.queue.lock();
                        loop {
                            match queue.as_mut() {
                                Some(jobs) => match jobs.pop_front() {
                                    Some(job) => {
                                        shared.backlog.fetch_sub(1, Ordering::Relaxed);
                                        break job;
                                    }
                                    None => shared.available.wait(&mut queue),
                                },
                                None => return,
                            }
                        }
                    };
                    // A panicking job must not cost the pool a worker: the
                    // serving capacity is this fixed thread set. (Request
                    // jobs already turn handler panics into `RESP_ERR`.)
                    let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
                })
                .expect("cannot spawn rpc worker thread");
        }
        WorkerPool { shared }
    }

    /// Pool size chosen from a configured value (`0` = automatic default).
    #[must_use]
    pub fn with_configured(workers: usize) -> Self {
        WorkerPool::new(if workers > 0 {
            workers
        } else {
            default_rpc_workers()
        })
    }

    /// Number of worker threads.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.shared.workers
    }

    /// Enqueues one job. After [`WorkerPool::shutdown`] jobs are silently
    /// discarded — the servers feeding the pool are being torn down too.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut queue = self.shared.queue.lock();
        if let Some(jobs) = queue.as_mut() {
            jobs.push_back(Box::new(job));
            self.shared.backlog.fetch_add(1, Ordering::Relaxed);
            drop(queue);
            self.shared.available.notify_one();
        }
    }

    /// Whether any job is queued but not yet picked up by a worker. Used by
    /// the reactor to decide between running a cheap batch inline and
    /// handing it off: with a backlog, handing off keeps ordering with the
    /// queued work and lets the reactor get back to scanning.
    #[must_use]
    pub fn has_backlog(&self) -> bool {
        self.shared.backlog.load(Ordering::Relaxed) > 0
    }

    /// Stops the pool: queued-but-unstarted jobs are dropped and every idle
    /// worker exits. Busy workers exit after their current job; they are
    /// not joined so a hung handler cannot wedge shutdown. Idempotent.
    pub fn shutdown(&self) {
        *self.shared.queue.lock() = None;
        self.shared.available.notify_all();
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.shared.workers)
            .finish()
    }
}

/// One response queued for a connection, pre-encoded into its three wire
/// parts (the prefix must outlive partial writes, so it is materialised at
/// enqueue time; header and payload stay refcounted slices).
struct OutFrame {
    prefix: [u8; FRAME_PREFIX_BYTES],
    header: Bytes,
    payload: Bytes,
}

impl OutFrame {
    fn new(frame: &Frame) -> Self {
        OutFrame {
            prefix: frame.prefix(),
            header: frame.header.clone(),
            payload: frame.payload.clone(),
        }
    }

    fn len(&self) -> usize {
        FRAME_PREFIX_BYTES + self.header.len() + self.payload.len()
    }
}

/// Outbound side of one reactor connection, shared between the reactor
/// (which drains it on writability) and worker jobs (which push completed
/// responses into it and flush them opportunistically). Owns its own clone
/// of the nonblocking socket so either side can write.
struct OutboundShared {
    /// Raised when a worker's flush left queued bytes behind (socket
    /// pushback) or hit an error — i.e. when the reactor must step in. The
    /// reactor checks this flag instead of taking the lock on every scan,
    /// so a quiet connection costs one atomic load.
    attention: AtomicBool,
    /// Raised when a worker wrote a response: the peer just got what it was
    /// waiting for and its next request tends to follow promptly, so the
    /// reactor re-arms the connection into the hot probe set.
    rearm: AtomicBool,
    inner: Mutex<Outbound>,
}

/// See [`OutboundShared`]; this is the lock-guarded part.
struct Outbound {
    stream: TcpStream,
    queue: VecDeque<OutFrame>,
    /// Bytes of the front frame already written by a previous partial
    /// drain.
    offset: usize,
    /// Set once the connection is gone; late responses are dropped.
    closed: bool,
}

impl Outbound {
    /// Drains the queue with as few vectored writes as the socket accepts:
    /// every queued response rides one `writev` until the socket pushes
    /// back. `Ok(true)` = bytes moved; `Err(())` = peer gone (the outbound
    /// is marked closed so late responses are dropped and the reactor
    /// prunes the connection on its next scan).
    fn drain(&mut self) -> std::result::Result<bool, ()> {
        let mut moved = false;
        while !self.queue.is_empty() {
            // Gather every pending frame (minus the already-written offset
            // of the front one) into one IoSlice batch.
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.queue.len() * 3);
            let mut skip = self.offset;
            for frame in &self.queue {
                for part in [&frame.prefix[..], &frame.header, &frame.payload] {
                    if skip >= part.len() {
                        skip -= part.len();
                        continue;
                    }
                    if !part[skip..].is_empty() {
                        slices.push(IoSlice::new(&part[skip..]));
                    }
                    skip = 0;
                }
            }
            if slices.is_empty() {
                // Fully-written frames only (e.g. all parts empty).
                self.queue.clear();
                self.offset = 0;
                break;
            }
            match self.stream.write_vectored(&slices) {
                Ok(0) => {
                    self.closed = true;
                    return Err(());
                }
                Ok(n) => {
                    moved = true;
                    self.offset += n;
                    while let Some(front) = self.queue.front() {
                        let len = front.len();
                        if self.offset >= len {
                            self.offset -= len;
                            self.queue.pop_front();
                        } else {
                            break;
                        }
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(moved),
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    return Err(());
                }
            }
        }
        Ok(moved)
    }
}

type OutboundHandle = Arc<OutboundShared>;

/// Inbound reassembly state of one connection: the 4-byte length prefix,
/// then the body landing incrementally in its single `BytesMut`.
enum ReadState {
    Prefix { buf: [u8; 4], filled: usize },
    Body { buf: BytesMut, filled: usize },
}

impl ReadState {
    fn new() -> Self {
        ReadState::Prefix {
            buf: [0u8; 4],
            filled: 0,
        }
    }

    /// True when a frame is partially assembled (a stall here past the
    /// prune timeout is the slow-loris signature).
    fn mid_frame(&self) -> bool {
        match self {
            ReadState::Prefix { filled, .. } => *filled > 0,
            ReadState::Body { .. } => true,
        }
    }
}

struct ConnState {
    endpoint_id: u64,
    stream: TcpStream,
    read: ReadState,
    outbound: OutboundHandle,
    /// Last instant this connection moved bytes in either direction.
    last_progress: Instant,
    /// Consecutive scans without inbound bytes; at [`HOT_IDLE_SCANS`] the
    /// connection turns cold and is probed on a stride.
    idle_scans: u32,
    /// Whether the last frame on this connection was larger than the burst
    /// buffer. Such connections (chunk writes, mostly) skip the burst probe
    /// and read prefix-then-body precisely, so large payloads land in their
    /// single buffer with no head-fragment copy.
    expect_large: bool,
}

struct EndpointState {
    listener: TcpListener,
    handler: Arc<dyn RpcHandler>,
    conn_count: Arc<AtomicUsize>,
}

enum Command {
    AddEndpoint {
        id: u64,
        listener: TcpListener,
        handler: Arc<dyn RpcHandler>,
        conn_count: Arc<AtomicUsize>,
    },
    RemoveEndpoint {
        id: u64,
    },
}

struct ReactorShared {
    stop: AtomicBool,
    commands: Mutex<Vec<Command>>,
    next_endpoint_id: AtomicU64,
}

/// The single `net-reactor` thread multiplexing every TCP server endpoint
/// of a deployment.
///
/// Endpoints register a listener plus handler via [`Reactor::add_endpoint`]
/// (typically through `RpcServer::spawn_reactor`); the reactor accepts
/// their connections, assembles inbound frames, dispatches complete
/// requests to the shared [`WorkerPool`] and drains outbound responses —
/// all nonblocking, so one stuck peer never blocks another.
pub struct Reactor {
    shared: Arc<ReactorShared>,
    pool: WorkerPool,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Reactor {
    /// Spawns the reactor thread. `prune_timeout` bounds how long a
    /// connection may sit mid-frame or with undrained responses before it
    /// is torn down (`None` disables pruning, mirroring `io_timeout_ms =
    /// 0`).
    #[must_use]
    pub fn new(pool: WorkerPool, prune_timeout: Option<Duration>) -> Arc<Self> {
        let shared = Arc::new(ReactorShared {
            stop: AtomicBool::new(false),
            commands: Mutex::new(Vec::new()),
            next_endpoint_id: AtomicU64::new(1),
        });
        let loop_shared = Arc::clone(&shared);
        let loop_pool = pool.clone();
        let thread = std::thread::Builder::new()
            .name("net-reactor".into())
            .spawn(move || reactor_loop(&loop_shared, &loop_pool, prune_timeout))
            .expect("cannot spawn reactor thread");
        Arc::new(Reactor {
            shared,
            pool,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The worker pool requests are dispatched to.
    #[must_use]
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Registers one serving endpoint and returns its id (for
    /// [`Reactor::remove_endpoint`]) plus the live-connection gauge.
    pub fn add_endpoint(
        &self,
        listener: TcpListener,
        handler: Arc<dyn RpcHandler>,
    ) -> (u64, Arc<AtomicUsize>) {
        let id = self.shared.next_endpoint_id.fetch_add(1, Ordering::Relaxed);
        let conn_count = Arc::new(AtomicUsize::new(0));
        self.shared.commands.lock().push(Command::AddEndpoint {
            id,
            listener,
            handler,
            conn_count: Arc::clone(&conn_count),
        });
        (id, conn_count)
    }

    /// Tears one endpoint down: its listener closes and every one of its
    /// connections is dropped (in-flight requests on them are abandoned,
    /// exactly like a process death).
    pub fn remove_endpoint(&self, id: u64) {
        self.shared
            .commands
            .lock()
            .push(Command::RemoveEndpoint { id });
    }

    /// Stops the reactor thread and closes everything it owns. Does not
    /// stop the worker pool (it may be shared). Idempotent.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor").field("pool", &self.pool).finish()
    }
}

fn reactor_loop(shared: &ReactorShared, pool: &WorkerPool, prune_timeout: Option<Duration>) {
    let mut endpoints: HashMap<u64, EndpointState> = HashMap::new();
    let mut conns: Vec<ConnState> = Vec::new();
    let mut scan_seq: u64 = 0;
    // Rotating cursor of the cold-connection sweep: each scan probes the
    // next `COLD_SWEEP_PER_SCAN` cold connections after this index.
    let mut sweep: usize = 0;
    // When a scan stalls (no byte moved anywhere) the next scan probes
    // every connection: pending requests on cold connections are exactly
    // what an otherwise-idle core should spend itself discovering. The
    // reactor parks only after such a full probe still found nothing.
    let mut probe_all = true;
    let mut last_activity = Instant::now();

    while !shared.stop.load(Ordering::Acquire) {
        let mut progress = false;
        scan_seq = scan_seq.wrapping_add(1);

        // Control plane: endpoint registrations and teardowns.
        for command in shared.commands.lock().drain(..) {
            match command {
                Command::AddEndpoint {
                    id,
                    listener,
                    handler,
                    conn_count,
                } => {
                    if listener.set_nonblocking(true).is_ok() {
                        endpoints.insert(
                            id,
                            EndpointState {
                                listener,
                                handler,
                                conn_count,
                            },
                        );
                    }
                    progress = true;
                }
                Command::RemoveEndpoint { id } => {
                    // Close connections while the endpoint (and its gauge)
                    // is still registered, then drop the listener.
                    for conn in conns.iter().filter(|c| c.endpoint_id == id) {
                        close_conn(conn, &endpoints);
                    }
                    conns.retain(|c| c.endpoint_id != id);
                    endpoints.remove(&id);
                    progress = true;
                }
            }
        }

        // Accept readiness: drain every listener's backlog (strided —
        // accepts are rare after startup; a fresh endpoint's first accept
        // waits a few scans at most).
        let accept_pass = scan_seq % ACCEPT_STRIDE == 0;
        for (&id, endpoint) in endpoints.iter().filter(|_| accept_pass) {
            loop {
                match endpoint.listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        stream.set_nodelay(true).ok();
                        // The outbound side gets its own handle on the
                        // socket so workers can flush responses directly.
                        let Ok(write_half) = stream.try_clone() else {
                            continue;
                        };
                        endpoint.conn_count.fetch_add(1, Ordering::Relaxed);
                        conns.push(ConnState {
                            endpoint_id: id,
                            stream,
                            read: ReadState::new(),
                            outbound: Arc::new(OutboundShared {
                                attention: AtomicBool::new(false),
                                rearm: AtomicBool::new(false),
                                inner: Mutex::new(Outbound {
                                    stream: write_half,
                                    queue: VecDeque::new(),
                                    offset: 0,
                                    closed: false,
                                }),
                            }),
                            last_progress: Instant::now(),
                            idle_scans: 0,
                            expect_large: false,
                        });
                        progress = true;
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // Read/write readiness per connection: hot connections are probed
        // every scan, cold ones by the rotating sweep window.
        let now = Instant::now();
        let sweep_start = if conns.is_empty() {
            0
        } else {
            sweep % conns.len()
        };
        let mut index = 0;
        while index < conns.len() {
            let len = conns.len();
            let conn = &mut conns[index];
            let handler = endpoints.get(&conn.endpoint_id).map(|e| &e.handler);
            let mut dead = handler.is_none();

            if let Some(handler) = handler {
                // A fresh response usually means the peer's next request is
                // imminent: pull the connection back into the hot set.
                if conn.outbound.rearm.load(Ordering::Acquire) {
                    conn.outbound.rearm.store(false, Ordering::Release);
                    conn.idle_scans = 0;
                }
                // `sweep_start` was fixed before the loop; dead-connection
                // removal can shrink the table below it, so reduce it again
                // (`index + len` then always dominates — no underflow).
                let in_sweep = (index + len - sweep_start % len) % len < COLD_SWEEP_PER_SCAN;
                let probe = probe_all || conn.idle_scans < HOT_IDLE_SCANS || in_sweep;
                let mut read_moved = false;
                if probe {
                    match pump_reads(conn, handler, pool) {
                        Ok(moved) => read_moved = moved,
                        Err(()) => dead = true,
                    }
                    progress |= read_moved;
                }
                conn.idle_scans = if read_moved {
                    0
                } else {
                    conn.idle_scans.saturating_add(1)
                };
                // The write side is worker-driven; the reactor steps in
                // only when a flush left bytes behind (one atomic load on
                // the quiet path).
                if !dead && conn.outbound.attention.load(Ordering::Acquire) {
                    match pump_writes(conn) {
                        Ok(moved) => progress |= moved,
                        Err(()) => dead = true,
                    }
                }
            }

            // Slow-loris pruning: a peer stuck mid-frame, or one that will
            // not drain its responses, is cut off after the timeout. Idle
            // connections *between* frames are legitimate and stay.
            if let (false, Some(timeout)) = (dead, prune_timeout) {
                let stuck =
                    conn.read.mid_frame() || conn.outbound.attention.load(Ordering::Acquire);
                if stuck && now.duration_since(conn.last_progress) > timeout {
                    dead = true;
                }
            }

            if dead {
                close_conn(&conns[index], &endpoints);
                conns.swap_remove(index);
                progress = true;
            } else {
                index += 1;
            }
        }
        sweep = sweep.wrapping_add(COLD_SWEEP_PER_SCAN);

        if progress {
            probe_all = false;
            last_activity = Instant::now();
        } else if probe_all {
            // Even a full probe found nothing. Fresh off real traffic the
            // peers are likely just catching up — give them the core and
            // come straight back; only a genuinely quiet server parks.
            if last_activity.elapsed() < ACTIVE_SPIN_WINDOW {
                std::thread::yield_now();
            } else {
                std::thread::park_timeout(IDLE_PARK);
            }
        } else {
            // Stall: sweep everything once before concluding idle.
            probe_all = true;
        }
    }

    for conn in &conns {
        close_conn(conn, &endpoints);
    }
}

fn close_conn(conn: &ConnState, endpoints: &HashMap<u64, EndpointState>) {
    conn.outbound.inner.lock().closed = true;
    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    if let Some(endpoint) = endpoints.get(&conn.endpoint_id) {
        endpoint.conn_count.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Validates a decoded length prefix: the body must at least hold the rest
/// of the fixed frame prefix and must not exceed the frame ceiling.
fn plausible_body_len(prefix: [u8; 4]) -> std::result::Result<usize, ()> {
    let body_len = u32::from_le_bytes(prefix) as usize;
    if (FRAME_PREFIX_BYTES - 4..=MAX_FRAME_BYTES).contains(&body_len) {
        Ok(body_len)
    } else {
        Err(()) // corrupted stream
    }
}

/// Reads whatever the socket has ready (bounded per scan), handing every
/// completed frame to the pool as **one batch per pump**. `Ok(true)` =
/// bytes moved; `Err(())` = the connection is gone or the stream is
/// corrupt.
///
/// Between frames the socket is probed with one [`BURST_READ`]-sized read;
/// every frame that lands whole in the burst buffer is sliced out of it
/// refcounted (no copy) and harvested, so a pipelined run of small frames
/// costs one syscall total. A frame that spans the burst gets its own
/// exact-size `BytesMut` (the staged head fragment is copied over, at most
/// `BURST_READ` bytes) and assembles there across readiness events — large
/// chunk payloads therefore still stream directly into a single buffer.
///
/// Harvested requests are batched even when the pump ends in an error: the
/// requests were fully received, handlers are idempotent, and the closed
/// outbound silently drops their responses.
fn pump_reads(
    conn: &mut ConnState,
    handler: &Arc<dyn RpcHandler>,
    pool: &WorkerPool,
) -> std::result::Result<bool, ()> {
    let mut harvested = Vec::new();
    let result = pump_reads_inner(conn, &mut harvested);
    if !harvested.is_empty() {
        dispatch_batch(harvested, handler, &conn.outbound, pool);
    }
    result
}

fn pump_reads_inner(
    conn: &mut ConnState,
    harvested: &mut Vec<Frame>,
) -> std::result::Result<bool, ()> {
    let mut moved = false;
    let mut budget = READ_BUDGET_PER_SCAN;
    loop {
        if budget == 0 {
            return Ok(moved); // budget exhausted; resume next scan
        }
        let burst_mode = !conn.expect_large;
        match &mut conn.read {
            ReadState::Prefix { buf: _, filled } if *filled == 0 && burst_mode => {
                // Between frames: burst-read and harvest whole frames.
                let mut burst = BytesMut::zeroed(BURST_READ.min(budget.max(4)));
                match conn.stream.read(&mut burst[..]) {
                    Ok(0) => return Err(()), // orderly close
                    Ok(n) => {
                        burst.resize(n, 0);
                        budget = budget.saturating_sub(n);
                        moved = true;
                        conn.last_progress = Instant::now();
                        let chunk = burst.freeze();
                        let mut off = 0;
                        while off < chunk.len() {
                            let rem = chunk.len() - off;
                            if rem < 4 {
                                // Partial length prefix: stage its bytes.
                                let mut prefix = [0u8; 4];
                                prefix[..rem].copy_from_slice(&chunk[off..]);
                                conn.read = ReadState::Prefix {
                                    buf: prefix,
                                    filled: rem,
                                };
                                break;
                            }
                            let body_len = plausible_body_len(
                                chunk[off..off + 4].try_into().expect("4-byte prefix"),
                            )?;
                            conn.expect_large = body_len > BURST_READ;
                            if rem - 4 >= body_len {
                                // Whole frame in the burst: refcounted slice.
                                let body = chunk.slice(off + 4..off + 4 + body_len);
                                let Ok(request) = Frame::decode_body(body) else {
                                    return Err(());
                                };
                                harvested.push(request);
                                off += 4 + body_len;
                            } else {
                                // Spanning frame: its own exact-size buffer.
                                let mut body = BytesMut::zeroed(body_len);
                                let have = rem - 4;
                                body[..have].copy_from_slice(&chunk[off + 4..]);
                                conn.read = ReadState::Body {
                                    buf: body,
                                    filled: have,
                                };
                                break;
                            }
                        }
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(moved),
                    Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Err(()),
                }
            }
            ReadState::Prefix { buf, filled } => {
                // Precise prefix read: either resuming a split prefix or a
                // connection in large-frame mode.
                match conn.stream.read(&mut buf[*filled..]) {
                    Ok(0) => return Err(()),
                    Ok(n) => {
                        *filled += n;
                        moved = true;
                        conn.last_progress = Instant::now();
                        if *filled == 4 {
                            let body_len = plausible_body_len(*buf)?;
                            conn.expect_large = body_len > BURST_READ;
                            conn.read = ReadState::Body {
                                buf: BytesMut::zeroed(body_len),
                                filled: 0,
                            };
                        }
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(moved),
                    Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Err(()),
                }
            }
            ReadState::Body { buf, filled } => {
                let want = (buf.len() - *filled).min(budget);
                if want == 0 {
                    return Ok(moved); // budget exhausted; resume next scan
                }
                match conn.stream.read(&mut buf[*filled..*filled + want]) {
                    Ok(0) => return Err(()),
                    Ok(n) => {
                        *filled += n;
                        budget = budget.saturating_sub(n);
                        moved = true;
                        conn.last_progress = Instant::now();
                        if *filled == buf.len() {
                            let body = std::mem::replace(&mut conn.read, ReadState::new());
                            let ReadState::Body { buf, .. } = body else {
                                unreachable!()
                            };
                            let Ok(request) = Frame::decode_body(buf.freeze()) else {
                                return Err(()); // undecodable body: cut the stream
                            };
                            harvested.push(request);
                        }
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(moved),
                    Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Err(()),
                }
            }
        }
    }
}

/// Requests up to this many wire bytes per batch qualify for the inline
/// fast path: at most one burst's worth of small control-plane frames
/// (placement, version, metadata lookups). Anything bigger carries chunk
/// payloads and belongs on a worker.
const INLINE_BATCH_BYTES: usize = BURST_READ;

/// Hands one pump's worth of decoded requests to the worker pool as a
/// single job. Batching is what keeps the handoff cost per *frame* low: a
/// pipelined run of N requests harvested in one pump costs one queue push
/// and one worker wake-up, not N of each. The job computes every response,
/// then queues and flushes them through the connection's outbound in one
/// locked pass — one vectored write carries the whole batch of responses
/// out (server-side response coalescing), and in the common case the
/// socket is writable so no response ever waits for a reactor scan. A
/// pushback leaves the tail for the reactor's writability drain.
///
/// Small batches skip the pool when it has no backlog: a control-plane
/// request that fits in one read burst costs less to answer than to hand
/// off (two context switches on a loaded core), so the reactor runs it to
/// completion itself — the classic event-loop fast path. The moment a
/// backlog exists, everything is handed off, preserving rough arrival
/// order and keeping the reactor scanning; payload-carrying batches always
/// go to a worker so a large store can never stall the event loop.
fn dispatch_batch(
    requests: Vec<Frame>,
    handler: &Arc<dyn RpcHandler>,
    outbound: &OutboundHandle,
    pool: &WorkerPool,
) {
    let wire_bytes: u64 = requests.iter().map(Frame::wire_len).sum();
    let handler = Arc::clone(handler);
    let outbound = Arc::clone(outbound);
    let job = move || {
        let responses: Vec<OutFrame> = requests
            .into_iter()
            .map(|request| OutFrame::new(&respond(handler.as_ref(), request)))
            .collect();
        let mut out = outbound.inner.lock();
        if !out.closed {
            out.queue.extend(responses);
            // A write error marks the outbound closed; either way the
            // attention flag tells the reactor whether to step in.
            let _ = out.drain();
            outbound
                .attention
                .store(!out.queue.is_empty() || out.closed, Ordering::Release);
            outbound.rearm.store(true, Ordering::Release);
        }
    };
    if wire_bytes <= INLINE_BATCH_BYTES as u64 && !pool.has_backlog() {
        job();
    } else {
        pool.execute(job);
    }
}

/// Drains whatever the workers could not flush themselves (called only
/// when the attention flag is up). `Ok(true)` = bytes moved; `Err(())` =
/// peer gone (here or in a worker's flush).
fn pump_writes(conn: &mut ConnState) -> std::result::Result<bool, ()> {
    let mut out = conn.outbound.inner.lock();
    if out.closed {
        return Err(());
    }
    if out.queue.is_empty() {
        conn.outbound.attention.store(false, Ordering::Release);
        return Ok(false);
    }
    let moved = out.drain()?;
    if moved {
        conn.last_progress = Instant::now();
    }
    conn.outbound
        .attention
        .store(!out.queue.is_empty(), Ordering::Release);
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    #[test]
    fn worker_pool_runs_jobs_on_named_threads() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.worker_count(), 3);
        let hits = Arc::new(TestCounter::new(0));
        let named = Arc::new(TestCounter::new(0));
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..32 {
            let hits = Arc::clone(&hits);
            let named = Arc::clone(&named);
            let tx = tx.clone();
            pool.execute(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                if std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with("net-worker-"))
                {
                    named.fetch_add(1, Ordering::Relaxed);
                }
                tx.send(()).unwrap();
            });
        }
        for _ in 0..32 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 32);
        assert_eq!(named.load(Ordering::Relaxed), 32);
        pool.shutdown();
    }

    #[test]
    fn a_panicking_job_does_not_cost_the_pool_its_worker() {
        // The automatic size never drops below four, whatever the host; an
        // explicit size is taken as given.
        assert!(default_rpc_workers() >= 4);
        let pool = WorkerPool::with_configured(1);
        assert_eq!(pool.worker_count(), 1);
        pool.execute(|| panic!("job bug"));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.execute(move || tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(5))
            .expect("the only worker survived the panic");
        pool.shutdown();
    }

    #[test]
    fn shutdown_pools_discard_new_jobs_instead_of_wedging() {
        let pool = WorkerPool::new(1);
        pool.shutdown();
        pool.shutdown(); // idempotent
        let ran = Arc::new(TestCounter::new(0));
        let hits = Arc::clone(&ran);
        pool.execute(move || {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn thread_census_sees_reactor_and_workers() {
        let pool = WorkerPool::new(2);
        let reactor = Reactor::new(pool.clone(), None);
        // Give the OS a beat to surface the names.
        let deadline = Instant::now() + Duration::from_secs(5);
        while (count_threads_with_prefix("net-reactor") < 1
            || count_threads_with_prefix("net-worker-") < 2)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(count_threads_with_prefix("net-reactor") >= 1);
        assert!(count_threads_with_prefix("net-worker-") >= 2);
        reactor.stop();
        pool.shutdown();
    }
}
