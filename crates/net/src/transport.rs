//! The frame transport: TCP sockets, plus a decorator that injects
//! faults into the connections it dials.
//!
//! Both halves of a connection speak in [`Frame`]s through two traits —
//! [`FrameSink`] (send) and [`FrameSource`] (receive) — so the RPC layer
//! above never touches a socket. Frames cross real `std::net` sockets, sent
//! as vectored writes (prefix, header, payload — the chunk payload is never
//! flattened into another buffer) and received into a single `BytesMut` per
//! frame.
//!
//! [`FaultyConnector`] wraps the connector of a client and applies a seeded
//! [`FaultPlan`] to each connection it dials: its sink drops, delays,
//! duplicates, truncates, stalls or disconnects requests, and its source
//! does the same to responses. The server at the other end is the reactor
//! the daemon runs, so every fault test exercises the production serving
//! path.

use crate::frame::{Frame, FRAME_PREFIX_BYTES, MAX_FRAME_BYTES};
use blobseer_types::{BlobError, FaultPlan, Result};
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sending half of one frame connection.
pub trait FrameSink: Send {
    /// Delivers one frame (or injects a fault pretending to).
    fn send(&mut self, frame: &Frame) -> Result<()>;

    /// Delivers a batch of frames, coalescing them into as few syscalls as
    /// the transport allows. The default sends one by one; the TCP sink
    /// overrides it with a single vectored write across every frame, which
    /// is what makes client-side small-frame coalescing one syscall per
    /// batch instead of one per frame.
    fn send_batch(&mut self, frames: &[Frame]) -> Result<()> {
        for frame in frames {
            self.send(frame)?;
        }
        Ok(())
    }
}

/// Receiving half of one frame connection.
pub trait FrameSource: Send {
    /// Blocks for the next frame; `Ok(None)` is a clean end of stream.
    fn recv(&mut self) -> Result<Option<Frame>>;
}

/// A kill switch tearing one connection down from outside (idempotent).
pub type KillHandle = Arc<dyn Fn() + Send + Sync>;

/// One established bidirectional frame connection.
pub struct Connection {
    /// Send half.
    pub sink: Box<dyn FrameSink>,
    /// Receive half.
    pub source: Box<dyn FrameSource>,
    /// Tears the connection down (unblocks both halves).
    pub kill: KillHandle,
}

/// Dials new connections to one endpoint.
pub trait Connect: Send + Sync {
    /// Establishes a fresh connection.
    fn connect(&self) -> Result<Connection>;

    /// The socket address this connector dials. Lets stress tests and
    /// operational tooling reach an endpoint outside the framed protocol.
    fn addr(&self) -> SocketAddr;
}

fn io_err(context: &str, err: &std::io::Error) -> BlobError {
    BlobError::Transport(format!("{context}: {err}"))
}

// ---------------------------------------------------------------------------
// TCP loopback
// ---------------------------------------------------------------------------

struct TcpSink {
    stream: TcpStream,
}

impl TcpSink {
    /// Writes every byte of `parts` with as few syscalls as the socket
    /// allows, advancing across partial vectored writes. This is the
    /// zero-copy send path: the chunk payload slice goes straight from the
    /// caller's `Bytes` to the kernel.
    fn write_all_vectored(stream: &mut TcpStream, parts: &[&[u8]]) -> std::io::Result<()> {
        let mut parts: Vec<&[u8]> = parts.iter().copied().filter(|p| !p.is_empty()).collect();
        while !parts.is_empty() {
            let slices: Vec<IoSlice<'_>> = parts.iter().map(|p| IoSlice::new(p)).collect();
            let mut advanced = stream.write_vectored(&slices)?;
            if advanced == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ));
            }
            while advanced > 0 {
                if parts[0].len() <= advanced {
                    advanced -= parts[0].len();
                    parts.remove(0);
                } else {
                    parts[0] = &parts[0][advanced..];
                    advanced = 0;
                }
            }
        }
        Ok(())
    }
}

impl FrameSink for TcpSink {
    fn send(&mut self, frame: &Frame) -> Result<()> {
        let prefix = frame.prefix();
        Self::write_all_vectored(
            &mut self.stream,
            &[&prefix, frame.header.as_slice(), frame.payload.as_slice()],
        )
        .map_err(|e| io_err("tcp send", &e))
    }

    fn send_batch(&mut self, frames: &[Frame]) -> Result<()> {
        // One vectored write for the whole batch: n frames, one syscall
        // (modulo partial writes). Still zero-copy — every part is either a
        // stack prefix or a refcounted slice of a caller buffer.
        let prefixes: Vec<[u8; FRAME_PREFIX_BYTES]> = frames.iter().map(Frame::prefix).collect();
        let mut parts: Vec<&[u8]> = Vec::with_capacity(frames.len() * 3);
        for (frame, prefix) in frames.iter().zip(&prefixes) {
            parts.push(prefix);
            parts.push(frame.header.as_slice());
            parts.push(frame.payload.as_slice());
        }
        Self::write_all_vectored(&mut self.stream, &parts).map_err(|e| io_err("tcp send", &e))
    }
}

/// Receive-side burst size: one read harvests up to this many bytes of
/// back-to-back small frames (a batch of pipelined responses costs one
/// syscall to collect instead of two per frame).
const RECV_BURST: usize = 4096;

struct TcpSource {
    stream: TcpStream,
    /// Unparsed tail of the last burst read. Frames that land wholly
    /// inside one burst are handed out as refcounted slices of it.
    tail: Bytes,
}

impl TcpSource {
    /// Blocking read of the next burst. `Ok(None)` = orderly close.
    fn read_burst(&mut self) -> Result<Option<Bytes>> {
        let mut buf = BytesMut::zeroed(RECV_BURST);
        loop {
            match self.stream.read(&mut buf[..]) {
                Ok(0) => return Ok(None),
                Ok(n) => {
                    buf.resize(n, 0);
                    return Ok(Some(buf.freeze()));
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err("tcp recv", &e)),
            }
        }
    }
}

impl FrameSource for TcpSource {
    fn recv(&mut self) -> Result<Option<Frame>> {
        // Ensure a whole length prefix is buffered, tolerating a clean
        // close only at a frame boundary.
        while self.tail.len() < 4 {
            match self.read_burst()? {
                None if self.tail.is_empty() => return Ok(None),
                None => {
                    return Err(BlobError::Transport(
                        "tcp recv: stream closed mid-frame".into(),
                    ))
                }
                Some(chunk) if self.tail.is_empty() => self.tail = chunk,
                Some(chunk) => {
                    // A prefix split across bursts: splice the (at most 3)
                    // staged bytes onto the new burst.
                    let mut joined = BytesMut::with_capacity(self.tail.len() + chunk.len());
                    joined.extend_from_slice(&self.tail);
                    joined.extend_from_slice(&chunk);
                    self.tail = joined.freeze();
                }
            }
        }
        let body_len =
            u32::from_le_bytes(self.tail[..4].try_into().expect("4-byte prefix")) as usize;
        if !(FRAME_PREFIX_BYTES - 4..=MAX_FRAME_BYTES).contains(&body_len) {
            return Err(BlobError::Transport(format!(
                "tcp recv: implausible frame length {body_len}"
            )));
        }
        if self.tail.len() >= 4 + body_len {
            // Whole frame already buffered: refcounted slices, no copy.
            let body = self.tail.slice(4..4 + body_len);
            self.tail = self.tail.slice(4 + body_len..);
            return Frame::decode_body(body).map(Some);
        }
        // Spanning frame (typically a chunk payload): the rest streams with
        // `read_exact` into one exact-size buffer — the single receive-side
        // copy, since `freeze` keeps that buffer — and `decode_body` hands
        // header/payload out as slices of it.
        let mut body = BytesMut::zeroed(body_len);
        let have = self.tail.len() - 4;
        body[..have].copy_from_slice(&self.tail[4..]);
        self.tail = Bytes::new();
        self.stream
            .read_exact(&mut body[have..])
            .map_err(|e| io_err("tcp recv", &e))?;
        Frame::decode_body(body.freeze()).map(Some)
    }
}

fn tcp_connection(stream: TcpStream) -> Result<Connection> {
    stream.set_nodelay(true).ok();
    let reader = stream.try_clone().map_err(|e| io_err("tcp clone", &e))?;
    let killer = stream.try_clone().map_err(|e| io_err("tcp clone", &e))?;
    Ok(Connection {
        sink: Box::new(TcpSink { stream }),
        source: Box::new(TcpSource {
            stream: reader,
            tail: Bytes::new(),
        }),
        kill: Arc::new(move || {
            let _ = killer.shutdown(Shutdown::Both);
        }),
    })
}

/// Dials one TCP endpoint.
pub struct TcpConnector {
    addr: SocketAddr,
}

impl TcpConnector {
    /// A connector for a known remote address — the client side of a
    /// deployment whose endpoints were discovered out of band (the server
    /// daemon's endpoints file).
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        TcpConnector { addr }
    }
}

impl Connect for TcpConnector {
    fn connect(&self) -> Result<Connection> {
        let stream = TcpStream::connect(self.addr).map_err(|e| io_err("tcp connect", &e))?;
        tcp_connection(stream)
    }

    fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Binds one TCP endpoint: returns the connector clients dial plus the raw
/// listener, which the caller hands to a [`crate::reactor::Reactor`] (the
/// reactor owns readiness, accept and teardown itself).
pub fn tcp_listener(listen: &str) -> Result<(Arc<dyn Connect>, TcpListener)> {
    let listener = TcpListener::bind(listen).map_err(|e| io_err("tcp bind", &e))?;
    let addr = listener.local_addr().map_err(|e| io_err("tcp addr", &e))?;
    Ok((Arc::new(TcpConnector { addr }), listener))
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// What the fault state decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultAction {
    /// Deliver normally (possibly delayed / truncated / duplicated).
    Deliver {
        delay_us: u64,
        truncate: bool,
        duplicate: bool,
    },
    /// Swallow the frame; the link stays up.
    Drop,
    /// Swallow the frame *and* pretend nothing happened — the canonical
    /// "hung endpoint". Indistinguishable from `Drop` on the wire; kept
    /// separate so plans can express "stalls only".
    Stall,
    /// Tear the link down while carrying the frame.
    Disconnect,
}

/// Shared, seeded fault decision source. Every connection dialled through
/// the [`FaultyConnector`]s of one [`crate::cluster::NetCluster`] draws from
/// the same generator, so one `(plan, seed)` pair drives the whole network.
pub struct FaultState {
    plan: Mutex<FaultPlan>,
    rng: Mutex<StdRng>,
    truncated: AtomicU64,
}

impl FaultState {
    /// Builds the decision source for `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultState {
            rng: Mutex::new(StdRng::seed_from_u64(plan.seed)),
            plan: Mutex::new(plan),
            truncated: AtomicU64::new(0),
        }
    }

    /// The plan driving the decisions.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        *self.plan.lock()
    }

    /// Swaps the plan mid-run (the seeded generator keeps its state):
    /// tests stage healthy setup traffic, then degrade the network under
    /// the operation they are actually about.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = plan;
    }

    /// How many frames the plan has cut short so far.
    #[must_use]
    pub fn truncated_frames(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    fn decide(&self) -> FaultAction {
        let plan = self.plan();
        if plan.is_clean() {
            return FaultAction::Deliver {
                delay_us: 0,
                truncate: false,
                duplicate: false,
            };
        }
        let mut rng = self.rng.lock();
        if rng.gen_bool(plan.disconnect) {
            return FaultAction::Disconnect;
        }
        if rng.gen_bool(plan.stall) {
            return FaultAction::Stall;
        }
        if rng.gen_bool(plan.drop) {
            return FaultAction::Drop;
        }
        let delay_us = if rng.gen_bool(plan.delay) {
            plan.delay_us
        } else {
            0
        };
        let truncate = rng.gen_bool(plan.truncate);
        if truncate {
            self.truncated.fetch_add(1, Ordering::Relaxed);
        }
        FaultAction::Deliver {
            delay_us,
            truncate,
            duplicate: rng.gen_bool(plan.duplicate),
        }
    }
}

/// Cuts a frame short the way a torn TCP segment would: half the payload
/// disappears (or half the header, for payload-less frames). Zero-copy —
/// truncation is just a shorter refcounted slice.
fn truncate_frame(frame: &Frame) -> Frame {
    let mut out = frame.clone();
    if !out.payload.is_empty() {
        out.payload = out.payload.slice(..out.payload.len() / 2);
    } else if !out.header.is_empty() {
        out.header = out.header.slice(..out.header.len() / 2);
    }
    out
}

/// What `faults` lets through of one frame: nothing (dropped or stalled),
/// the frame (possibly delayed, possibly cut short), or two copies of it.
/// An injected disconnect kills the link and fails the frame.
fn inject(faults: &FaultState, kill: &KillHandle, frame: &Frame) -> Result<Vec<Frame>> {
    match faults.decide() {
        FaultAction::Disconnect => {
            kill();
            Err(BlobError::Transport("injected disconnect".into()))
        }
        // Dropped and stalled frames vanish without an error — like a lost
        // datagram, only the peer's silence gives them away.
        FaultAction::Drop | FaultAction::Stall => Ok(Vec::new()),
        FaultAction::Deliver {
            delay_us,
            truncate,
            duplicate,
        } => {
            if delay_us > 0 {
                std::thread::sleep(Duration::from_micros(delay_us));
            }
            let out = if truncate {
                truncate_frame(frame)
            } else {
                frame.clone()
            };
            Ok(if duplicate {
                vec![out.clone(), out]
            } else {
                vec![out]
            })
        }
    }
}

/// Sends the requests that [`inject`] lets through, still as one batch.
struct FaultySink {
    inner: Box<dyn FrameSink>,
    faults: Arc<FaultState>,
    kill: KillHandle,
}

impl FrameSink for FaultySink {
    fn send(&mut self, frame: &Frame) -> Result<()> {
        self.send_batch(std::slice::from_ref(frame))
    }

    fn send_batch(&mut self, frames: &[Frame]) -> Result<()> {
        let mut out = Vec::with_capacity(frames.len());
        for frame in frames {
            out.extend(inject(&self.faults, &self.kill, frame)?);
        }
        self.inner.send_batch(&out)
    }
}

/// Receives the responses that [`inject`] lets through.
struct FaultySource {
    inner: Box<dyn FrameSource>,
    faults: Arc<FaultState>,
    kill: KillHandle,
    /// Frames let through but not yet handed out (a duplicate's copy).
    ready: VecDeque<Frame>,
}

impl FrameSource for FaultySource {
    fn recv(&mut self) -> Result<Option<Frame>> {
        while self.ready.is_empty() {
            let Some(frame) = self.inner.recv()? else {
                return Ok(None);
            };
            self.ready.extend(inject(&self.faults, &self.kill, &frame)?);
        }
        Ok(self.ready.pop_front())
    }
}

/// Dials through `inner` and injects `faults` into every connection it
/// opens: requests on their way out, responses on their way in. Both
/// directions draw from the same [`FaultState`] at the plan's per-frame
/// rates.
pub struct FaultyConnector {
    inner: Arc<dyn Connect>,
    faults: Arc<FaultState>,
}

impl FaultyConnector {
    /// Wraps `inner`, drawing fault decisions from `faults`.
    #[must_use]
    pub fn new(inner: Arc<dyn Connect>, faults: Arc<FaultState>) -> Self {
        FaultyConnector { inner, faults }
    }
}

impl Connect for FaultyConnector {
    fn connect(&self) -> Result<Connection> {
        let Connection { sink, source, kill } = self.inner.connect()?;
        Ok(Connection {
            sink: Box::new(FaultySink {
                inner: sink,
                faults: Arc::clone(&self.faults),
                kill: Arc::clone(&kill),
            }),
            source: Box::new(FaultySource {
                inner: source,
                faults: Arc::clone(&self.faults),
                kill: Arc::clone(&kill),
                ready: VecDeque::new(),
            }),
            kill,
        })
    }

    fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn frame(id: u64) -> Frame {
        Frame::new(
            id,
            1,
            Bytes::from_static(b"hd"),
            Bytes::from(vec![id as u8; 64]),
        )
    }

    /// A connected TCP pair: the client dials through [`TcpConnector`], the
    /// server side is a plainly accepted socket.
    fn tcp_pair() -> (Connection, Connection) {
        pair_through(|addr| Arc::new(TcpConnector::new(addr)))
    }

    /// A TCP pair whose client end injects faults drawn from `faults`.
    fn faulty_pair(faults: &Arc<FaultState>) -> (Connection, Connection) {
        pair_through(|addr| {
            Arc::new(FaultyConnector::new(
                Arc::new(TcpConnector::new(addr)),
                Arc::clone(faults),
            ))
        })
    }

    fn pair_through(dial: impl FnOnce(SocketAddr) -> Arc<dyn Connect>) -> (Connection, Connection) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = dial(listener.local_addr().unwrap()).connect().unwrap();
        let (stream, _) = listener.accept().unwrap();
        (client, tcp_connection(stream).unwrap())
    }

    fn faults(plan: FaultPlan) -> Arc<FaultState> {
        Arc::new(FaultState::new(plan))
    }

    #[test]
    fn tcp_frames_roundtrip_over_a_real_socket() {
        let (mut client, mut server) = tcp_pair();
        let server_thread = std::thread::spawn(move || {
            let got = server.source.recv().unwrap().unwrap();
            server.sink.send(&got).unwrap();
            // Clean EOF once the client closes.
            assert!(server.source.recv().unwrap().is_none());
        });
        let sent = frame(9);
        client.sink.send(&sent).unwrap();
        let echoed = client.source.recv().unwrap().unwrap();
        assert_eq!(echoed, sent);
        drop(client);
        server_thread.join().unwrap();
    }

    #[test]
    fn tcp_kill_unblocks_a_waiting_reader() {
        let (client, server) = tcp_pair();
        let server_thread = std::thread::spawn(move || {
            // Hold the connection open until the client kills its side.
            let mut source = server.source;
            let _ = source.recv();
        });
        let mut source = client.source;
        let kill = client.kill;
        let reader = std::thread::spawn(move || source.recv());
        std::thread::sleep(Duration::from_millis(20));
        kill();
        // A shutdown socket yields EOF or an error — either way the reader
        // returns instead of blocking forever.
        let _ = reader.join().unwrap();
        server_thread.join().unwrap();
    }

    #[test]
    fn fault_decisions_are_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 42,
            drop: 0.3,
            duplicate: 0.2,
            truncate: 0.2,
            delay: 0.1,
            delay_us: 1,
            stall: 0.1,
            disconnect: 0.05,
        };
        let a: Vec<FaultAction> = {
            let s = FaultState::new(plan);
            (0..64).map(|_| s.decide()).collect()
        };
        let b: Vec<FaultAction> = {
            let s = FaultState::new(plan);
            (0..64).map(|_| s.decide()).collect()
        };
        assert_eq!(a, b, "same seed must replay the same fault sequence");
        assert!(a.iter().any(|d| !matches!(
            d,
            FaultAction::Deliver {
                delay_us: 0,
                truncate: false,
                duplicate: false
            }
        )));
    }

    #[test]
    fn dropped_frames_vanish_and_later_frames_still_flow() {
        let faults = faults(FaultPlan {
            seed: 7,
            drop: 1.0,
            ..FaultPlan::none()
        });
        let (mut client, mut server) = faulty_pair(&faults);
        client.sink.send(&frame(1)).unwrap();
        faults.set_plan(FaultPlan::none());
        client.sink.send(&frame(2)).unwrap();
        // Frame 1 never reached the socket: the server's first frame is 2.
        assert_eq!(server.source.recv().unwrap().unwrap().request_id, 2);
    }

    #[test]
    fn truncated_frames_arrive_short_and_shared() {
        let faults = faults(FaultPlan {
            seed: 3,
            truncate: 1.0,
            ..FaultPlan::none()
        });
        let (mut client, mut server) = faulty_pair(&faults);
        let sent = frame(1);
        client.sink.send(&sent).unwrap();
        let got = server.source.recv().unwrap().unwrap();
        assert_eq!(got.payload.len(), sent.payload.len() / 2);
        server.sink.send(&sent).unwrap();
        let got = client.source.recv().unwrap().unwrap();
        assert_eq!(got.payload.len(), sent.payload.len() / 2);
        assert_eq!(faults.truncated_frames(), 2);
    }

    #[test]
    fn duplicated_frames_arrive_twice() {
        let faults = faults(FaultPlan {
            seed: 5,
            duplicate: 1.0,
            ..FaultPlan::none()
        });
        let (mut client, mut server) = faulty_pair(&faults);
        client.sink.send(&frame(4)).unwrap();
        assert_eq!(server.source.recv().unwrap().unwrap().request_id, 4);
        assert_eq!(server.source.recv().unwrap().unwrap().request_id, 4);
        server.sink.send(&frame(6)).unwrap();
        assert_eq!(client.source.recv().unwrap().unwrap().request_id, 6);
        assert_eq!(client.source.recv().unwrap().unwrap().request_id, 6);
    }

    #[test]
    fn injected_disconnects_poison_the_link() {
        let faults = faults(FaultPlan {
            seed: 11,
            disconnect: 1.0,
            ..FaultPlan::none()
        });
        let (mut client, mut server) = faulty_pair(&faults);
        assert!(client.sink.send(&frame(1)).is_err());
        faults.set_plan(FaultPlan::none());
        assert!(client.sink.send(&frame(2)).is_err(), "link stays down");
        assert!(server.source.recv().unwrap().is_none());
    }
}
