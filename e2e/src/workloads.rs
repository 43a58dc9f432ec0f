//! The four workloads. Each runs against one fresh daemon in three phases:
//!
//! 1. **set-up** (timed as `setup_s`, repeated [`SETUPS`] times, the last
//!    daemon kept): spawn → `/health` ok → connect two clients → preload;
//! 2. **window** (`--seconds` long): the workload's own load, from two
//!    threads that each own one client;
//! 3. **check**: on a durable daemon, drain → restart on the same directory
//!    → read back and verify every append acknowledged in the window.
//!
//! Every end-to-end metric is reported on every workload. Where a
//! workload's window does not perform an operation type, the metric comes
//! from the phase that does: `cold_scan` appends only while preloading, so
//! its append metrics are those of the (RAM-resident) preload, and
//! `bulk_append` reads only in its check phase, so its read metrics are
//! those of the post-restart scan. `README.md` tabulates the sources.

use crate::daemon::{dir_bytes, Daemon, Launcher, RunDir};
use crate::layers;
use crate::openloop::{run_schedule, WallClock};
use crate::payload::{Flavour, Layout, Payload, Rng, CHUNK};
use crate::stats::{group_rates, mean, median, quantile, tail};
use crate::trace::{attribute, connect_traced, Breakdown, Recorder, Span};
use blobseer_core::{BlobClient, ClientStats};
use blobseer_net::connect_remote;
use blobseer_types::{BlobConfig, BlobId, ChunkCodec, ClusterConfig, Version};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: u64 = 1 << 20;
/// Size of every bulk operation: 2 MiB, 32 chunks.
const BIG_OP: u64 = 2 * MIB;
const BIG_OP_CHUNKS: usize = (BIG_OP / CHUNK as u64) as usize;
/// Size of a small read.
const SMALL_READ: u64 = 4096;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `read_under_append` reads half its ranges from this newest part of the blob.
const HOT_TAIL: u64 = 32 * MIB;
/// Operations per closed-loop throughput observation (64 MiB of bulk
/// operations).
const RATE_GROUP: usize = 32;
/// One read in this many is compared byte for byte (small reads always are).
const FULL_COMPARE_EVERY: u64 = 32;
/// Operations per second of the sparse phase: arrivals 12.5 ms apart, past
/// the reactor's 5 ms spin window, so each finds it parked. Its latencies
/// are the cost of that wake-up — and of the host's timer latency, which on
/// a virtual machine moves between runs by more than any bound allows, so
/// they are reported per layer and not gated.
const SPARSE_RATE: u32 = 80;
/// An open-loop run whose achieved rate is further than this from its
/// target did not offer the load it claims to have offered.
const RATE_TOLERANCE: f64 = 0.01;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkAppend,
    ColdScan,
    ReadUnderAppend,
    SmallOps,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BulkAppend,
        Workload::ColdScan,
        Workload::ReadUnderAppend,
        Workload::SmallOps,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkAppend => "bulk_append",
            Workload::ColdScan => "cold_scan",
            Workload::ReadUnderAppend => "read_under_append",
            Workload::SmallOps => "small_ops",
        }
    }

    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark, in one line.
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::BulkAppend => "two clients append 2 MiB to one shared blob on a durable daemon: persist, version manager and weave do the work, caches and codec none; then restart and scan",
            Workload::ColdScan => "two clients scan a 512 MiB blob, 8x both caches, on a RAM-resident daemon: net, provider get and tree descent only; bypasses every write-path and durability change",
            Workload::ReadUnderAppend => "one client reads 2 MiB ranges of the latest version while another appends, durable with codec on: the versioning claim, and every layer at once",
            Workload::SmallOps => "open loop, 500 ops/s of 4 KiB reads, latest_version and 64 KiB durable appends: bytes are negligible, so fixed per-operation cost and queueing are everything",
        }
    }

    fn durable(self) -> bool {
        self != Workload::ColdScan
    }

    fn codec(self) -> ChunkCodec {
        match self {
            Workload::ReadUnderAppend => ChunkCodec::Fast,
            _ => ChunkCodec::Off,
        }
    }

    pub(crate) fn flavour(self) -> Flavour {
        match self {
            Workload::ReadUnderAppend => Flavour::Text,
            _ => Flavour::Incompressible,
        }
    }

    /// Bytes preloaded into the main blob during set-up.
    pub(crate) fn preload_bytes(self, smoke: bool) -> u64 {
        let full = match self {
            Workload::BulkAppend => 0,
            // 8x the client's and the server's 64 MiB chunk caches.
            Workload::ColdScan => 512 * MIB,
            Workload::ReadUnderAppend => 256 * MIB,
            // Fits the server's shared cache.
            Workload::SmallOps => 32 * MIB,
        };
        if smoke && full > 0 {
            (full / 32).max(BIG_OP)
        } else {
            full
        }
    }

    /// Whether the window's clients keep the default 64 MiB chunk cache.
    fn client_cache(self) -> bool {
        self == Workload::ReadUnderAppend
    }

    /// Offered operations per second, for the open-loop workload: arrivals
    /// 2 ms apart, well inside the reactor's 5 ms spin window.
    fn open_loop_rate(self) -> Option<u32> {
        (self == Workload::SmallOps).then_some(500)
    }
}

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub launcher: Launcher,
    /// Directory the run's files go under (one subdirectory per workload).
    pub run_root: PathBuf,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced pass: half the operations carry spans, and the layer probes run.
    pub trace: bool,
    /// Sizes divided by 32 and a single set-up: a functional check, not a
    /// measurement.
    pub smoke: bool,
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct: a failed operation or unverified read, an
    /// offered load that was not offered, a trace that does not add up.
    pub problems: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Filled in a traced pass only.
    pub per_layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Append,
    Read,
    Version,
}

/// Samples and counts of one phase (merged over its threads).
#[derive(Debug, Default)]
struct Tally {
    append_ms: Vec<f64>,
    read_ms: Vec<f64>,
    version_ms: Vec<f64>,
    /// Acknowledged appends and verified reads as `(end_s, MiB)` since the
    /// phase began.
    append_moves: Vec<(f64, f64)>,
    read_moves: Vec<(f64, f64)>,
    /// Throughput observations: per group of operations for a closed loop,
    /// one for an open loop (see [`Tally::close_phase`]).
    append_mibps: Vec<f64>,
    read_mibps: Vec<f64>,
    appended_bytes: u64,
    read_bytes: u64,
    /// Wall time of the phase (summed over set-ups).
    phase_s: f64,
    attempted: u64,
    failed: u64,
    /// Open loop: how late the generator started each operation.
    late_ms: Vec<f64>,
    /// Acknowledged appends to the shared blob: `(version, stream, first
    /// chunk index)`.
    acked: Vec<(u64, u32, u64)>,
    ops: Vec<OpRecord>,
    /// The counters of the clients that ran the phase, read at its end.
    clients: Vec<ClientStats>,
}

impl Tally {
    fn latencies(&mut self, kind: Kind) -> &mut Vec<f64> {
        match kind {
            Kind::Append => &mut self.append_ms,
            Kind::Read => &mut self.read_ms,
            Kind::Version => &mut self.version_ms,
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.append_ms.extend(other.append_ms);
        self.read_ms.extend(other.read_ms);
        self.version_ms.extend(other.version_ms);
        self.append_moves.extend(other.append_moves);
        self.read_moves.extend(other.read_moves);
        self.append_mibps.extend(other.append_mibps);
        self.read_mibps.extend(other.read_mibps);
        self.appended_bytes += other.appended_bytes;
        self.read_bytes += other.read_bytes;
        self.phase_s += other.phase_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.late_ms.extend(other.late_ms);
        self.acked.extend(other.acked);
        self.ops.extend(other.ops);
        self.clients.extend(other.clients);
    }

    /// Records the throughput of a phase that took `seconds`. A closed
    /// loop's rate is whatever the system sustains, so it is observed per
    /// [`RATE_GROUP`] consecutive operations and reported as the median
    /// group; an open loop's rate is set by its schedule, so it is the
    /// total over the time.
    fn close_phase(mut self, seconds: f64, closed_loop: bool) -> Tally {
        self.phase_s = seconds;
        if closed_loop {
            self.append_mibps = group_rates(&self.append_moves, RATE_GROUP);
            self.read_mibps = group_rates(&self.read_moves, RATE_GROUP);
        }
        // An open loop, or a phase too short for one full group.
        if self.append_mibps.is_empty() {
            self.append_mibps = vec![mibps(self.appended_bytes, seconds)];
        }
        if self.read_mibps.is_empty() {
            self.read_mibps = vec![mibps(self.read_bytes, seconds)];
        }
        self
    }
}

/// One operation of a traced pass.
#[derive(Debug, Clone, Copy)]
struct OpRecord {
    kind: Kind,
    /// Latency by the benchmark's own stopwatch, independent of the spans.
    service_ms: f64,
    /// `None` for the operations of the pass that ran with recording off.
    parts: Option<Breakdown>,
}

/// One benchmark thread's client.
struct Actor {
    client: BlobClient,
    recorder: Option<Arc<Recorder>>,
    payload: Arc<Payload>,
    /// When the actor's current phase began.
    origin: Instant,
    /// This actor's write stream (1 or 2) and chunks written to it so far.
    stream: u32,
    next_chunk: u64,
    op_count: u64,
    /// Decides which operations of a traced pass carry spans.
    coin: Rng,
    reads: u64,
    errors_shown: u32,
    /// Operation windows of the traced operations, by operation id.
    windows: Vec<(u64, Kind, f64, (u64, u64))>,
    tally: Tally,
}

impl Actor {
    fn connect(
        daemon: &Daemon,
        config: &ClusterConfig,
        trace: bool,
        payload: &Arc<Payload>,
        stream: u32,
    ) -> Result<Actor, String> {
        let recorder = trace.then(Recorder::new);
        let client = match &recorder {
            Some(recorder) => {
                connect_traced(config, daemon.endpoints(), u64::from(stream), recorder)
            }
            None => connect_remote(config, daemon.endpoints())
                .map_err(|e| format!("connect_remote: {e}"))?,
        };
        Ok(Actor {
            client,
            recorder,
            payload: Arc::clone(payload),
            origin: Instant::now(),
            stream,
            next_chunk: 0,
            op_count: 0,
            coin: Rng::new(0xC015 + u64::from(stream)),
            reads: 0,
            errors_shown: 0,
            windows: Vec::new(),
            tally: Tally::default(),
        })
    }

    /// Runs one operation: counts it, times it, records its spans when this
    /// is a traced pass (for a random half of the operations, so that the
    /// same pass holds its own untraced control and neither half can fall
    /// into step with anything periodic), and counts a failure on `Err`.
    fn op<T>(
        &mut self,
        kind: Kind,
        call: impl FnOnce(&BlobClient) -> Result<T, String>,
    ) -> (Option<T>, f64) {
        self.op_count += 1;
        self.tally.attempted += 1;
        let heads = self.coin.below(2) == 0;
        let traced = self.recorder.as_ref().filter(|_| heads);
        let span_start = traced.map(|r| {
            r.begin_op(self.op_count);
            r.now_ns()
        });
        let started = Instant::now();
        let result = call(&self.client);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if let (Some(recorder), Some(start_ns)) = (traced, span_start) {
            let end_ns = recorder.now_ns();
            recorder.end_op();
            self.windows
                .push((self.op_count, kind, ms, (start_ns, end_ns)));
        } else if self.recorder.is_some() {
            self.tally.ops.push(OpRecord {
                kind,
                service_ms: ms,
                parts: None,
            });
        }
        match result {
            Ok(value) => (Some(value), ms),
            Err(e) => {
                self.tally.failed += 1;
                if self.errors_shown < 5 {
                    self.errors_shown += 1;
                    eprintln!("e2e: {kind:?} failed: {e}");
                }
                (None, ms)
            }
        }
    }

    /// Appends the stream's next `chunks` chunks to `blob`.
    fn append(&mut self, blob: BlobId, chunks: usize) -> (Option<Version>, f64) {
        let first = self.next_chunk;
        self.next_chunk += chunks as u64;
        let data = self.payload.make(self.stream, first, chunks);
        let bytes = data.len() as u64;
        let (version, ms) = self.op(Kind::Append, |c| {
            c.append(blob, data).map_err(|e| e.to_string())
        });
        if let Some(version) = version {
            self.tally.appended_bytes += bytes;
            self.tally.acked.push((version.0, self.stream, first));
            let end = self.origin.elapsed().as_secs_f64();
            self.tally
                .append_moves
                .push((end, bytes as f64 / MIB as f64));
        }
        (version, ms)
    }

    fn latest(&mut self, blob: BlobId) -> (Option<Version>, f64) {
        self.op(Kind::Version, |c| {
            c.latest_version(blob).map_err(|e| e.to_string())
        })
    }

    /// Reads and verifies `len` bytes at `offset` of `version`.
    fn read(
        &mut self,
        blob: BlobId,
        version: Version,
        offset: u64,
        len: u64,
        layout: &Layout,
    ) -> (bool, f64) {
        self.reads += 1;
        let full = len <= CHUNK as u64 || self.reads % FULL_COMPARE_EVERY == 0;
        let payload = Arc::clone(&self.payload);
        let (ok, ms) = self.op(Kind::Read, |c| {
            let data = c
                .read_bytes(blob, Some(version), offset, len)
                .map_err(|e| e.to_string())?;
            if payload.verify(layout, offset, len, &data, full) {
                Ok(())
            } else {
                Err(format!(
                    "read of {len} bytes at {offset} of {version} does not verify"
                ))
            }
        });
        if ok.is_some() {
            self.tally.read_bytes += len;
            let end = self.origin.elapsed().as_secs_f64();
            self.tally.read_moves.push((end, len as f64 / MIB as f64));
        }
        (ok.is_some(), ms)
    }

    /// Ends the actor's phase: folds the recorded spans into per-operation
    /// breakdowns and hands the phase's tally over.
    fn take_tally(&mut self) -> Tally {
        if let Some(recorder) = &self.recorder {
            let mut by_op: HashMap<u64, Vec<Span>> = HashMap::new();
            for span in recorder.drain() {
                by_op.entry(span.op).or_default().push(span);
            }
            for (op, kind, service_ms, window) in self.windows.drain(..) {
                let spans = by_op.remove(&op).unwrap_or_default();
                self.tally.ops.push(OpRecord {
                    kind,
                    service_ms,
                    parts: Some(attribute(&spans, window)),
                });
            }
        }
        self.tally.clients.push(self.client.stats());
        std::mem::take(&mut self.tally)
    }
}

fn mibps(bytes: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        bytes as f64 / MIB as f64 / seconds
    } else {
        0.0
    }
}

/// The daemon of one set-up with its two connected clients and blobs.
struct Stage {
    actors: Vec<Actor>,
    daemon: Daemon,
    /// The blob the workload reads and (except `small_ops`) appends to.
    main: BlobId,
    /// `small_ops` appends to this second blob.
    side: Option<BlobId>,
    preload_bytes: u64,
    preload_versions: u64,
}

fn daemon_config(workload: Workload, data_dir: &std::path::Path) -> String {
    let mut config = String::from("data_providers = 4\nmetadata_providers = 2\n");
    if workload.durable() {
        config.push_str(&format!(
            "durable_dir = {}\ndurability = commit\n",
            data_dir.display()
        ));
    }
    if workload.codec() == ChunkCodec::Fast {
        config.push_str("chunk_codec = fast\n");
    }
    config
}

fn client_config(workload: Workload, cache: bool) -> ClusterConfig {
    let defaults = ClusterConfig::default();
    ClusterConfig {
        metadata_providers: 2,
        chunk_codec: workload.codec(),
        chunk_cache_bytes: if cache { defaults.chunk_cache_bytes } else { 0 },
        ..defaults
    }
}

impl Stage {
    /// Spawn → healthy → two clients connected → blobs created and
    /// preloaded. Preload appends are tallied into `setup`.
    fn set_up(
        workload: Workload,
        opts: &RunOptions,
        run_dir: &RunDir,
        payload: &Arc<Payload>,
        setup: &mut Tally,
    ) -> Result<Stage, String> {
        let data_dir = run_dir.path().join("data");
        let _ = std::fs::remove_dir_all(&data_dir);
        let daemon = Daemon::launch(
            &opts.launcher,
            run_dir.path(),
            &daemon_config(workload, &data_dir),
        )?;
        let config = client_config(workload, workload.client_cache());
        let actors = (1..=2)
            .map(|stream| Actor::connect(&daemon, &config, opts.trace, payload, stream))
            .collect::<Result<Vec<_>, _>>()?;
        let blob_config = BlobConfig::new(CHUNK as u64, 1).map_err(|e| e.to_string())?;
        let create = |actor: &Actor| {
            actor
                .client
                .create_blob(blob_config)
                .map_err(|e| format!("create_blob: {e}\n{}", daemon.log_tail()))
        };
        let main = create(&actors[0])?;
        let side = match workload.open_loop_rate() {
            Some(_) => Some(create(&actors[0])?),
            None => None,
        };

        // The preload is stream 0, written by a client of its own so the
        // window's clients start with cold caches and zeroed counters.
        let preload_bytes = workload.preload_bytes(opts.smoke);
        let mut loader =
            Actor::connect(&daemon, &client_config(workload, false), false, payload, 0)?;
        let started = Instant::now();
        loader.origin = started;
        while loader.tally.appended_bytes < preload_bytes && loader.tally.failed == 0 {
            let (_, ms) = loader.append(main, BIG_OP_CHUNKS);
            loader.tally.append_ms.push(ms);
        }
        if loader.tally.failed > 0 {
            return Err(format!("preload failed\n{}", daemon.log_tail()));
        }
        let preload_versions = loader.tally.acked.len() as u64;
        loader.tally.acked.clear();
        setup.absorb(
            loader
                .take_tally()
                .close_phase(started.elapsed().as_secs_f64(), true),
        );
        Ok(Stage {
            actors,
            daemon,
            main,
            side,
            preload_bytes,
            preload_versions,
        })
    }
}

/// Runs one phase: `body` once per actor, each on its own thread, timed
/// from `origin`; returns the phase's merged tally.
fn on_two_threads(
    actors: &mut [Actor],
    origin: Instant,
    body: impl Fn(usize, &mut Actor) + Sync,
) -> Tally {
    let mut merged = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = actors
            .iter_mut()
            .enumerate()
            .map(|(i, actor)| {
                let body = &body;
                actor.origin = origin;
                scope.spawn(move || {
                    body(i, actor);
                    actor.take_tally()
                })
            })
            .collect();
        for handle in handles {
            merged.absorb(handle.join().expect("benchmark thread panicked"));
        }
    });
    merged
}

/// The layout of the preloaded part of the main blob.
fn preload_layout(preload_bytes: u64) -> Layout {
    let mut layout = Layout::default();
    if preload_bytes > 0 {
        layout.push(0, preload_bytes, 0, 0);
    }
    layout
}

/// Where the acknowledged appends of a phase landed: every append has the
/// same size and versions are dense, so version `v` starts at
/// `base + (v - base_versions - 1) * append_bytes`.
fn acked_layout(
    mut layout: Layout,
    base: u64,
    base_versions: u64,
    append_bytes: u64,
    acked: &[(u64, u32, u64)],
) -> Layout {
    let mut acked = acked.to_vec();
    acked.sort_unstable();
    for (version, stream, first) in acked {
        let offset = base + (version - base_versions - 1) * append_bytes;
        layout.push(offset, append_bytes, stream, first);
    }
    layout
}

fn closed_loop_window(workload: Workload, stage: &mut Stage, seconds: f64) -> Tally {
    let window = Duration::from_secs_f64(seconds);
    let main = stage.main;
    let (preload_bytes, preload_versions) = (stage.preload_bytes, stage.preload_versions);
    let preloaded = preload_layout(preload_bytes);
    let actors = &mut stage.actors[..];
    let started = Instant::now();
    let tally = match workload {
        Workload::BulkAppend => on_two_threads(actors, started, |_, actor| {
            while started.elapsed() < window {
                let (_, ms) = actor.append(main, BIG_OP_CHUNKS);
                actor.tally.append_ms.push(ms);
            }
        }),
        Workload::ColdScan => {
            let layout = preloaded;
            on_two_threads(actors, started, |i, actor| {
                // Disjoint phases: the two scanners never want the same chunk.
                let mut at = i as u64 * (preload_bytes / 2);
                while started.elapsed() < window {
                    let (version, ms) = actor.latest(main);
                    actor.tally.version_ms.push(ms);
                    if let Some(version) = version {
                        let (_, ms) = actor.read(main, version, at, BIG_OP, &layout);
                        actor.tally.read_ms.push(ms);
                    }
                    at = (at + BIG_OP) % preload_bytes;
                }
            })
        }
        Workload::ReadUnderAppend => {
            // The appender is the only writer, so its k-th chunk lands at
            // `preload + k * CHUNK`: one open-ended extent.
            let mut layout = preloaded;
            layout.push(
                preload_bytes,
                u64::MAX / 2 / CHUNK as u64 * CHUNK as u64,
                1,
                0,
            );
            let appender_done = AtomicBool::new(false);
            on_two_threads(actors, started, |i, actor| {
                if i == 0 {
                    while started.elapsed() < window {
                        let (_, ms) = actor.append(main, BIG_OP_CHUNKS);
                        actor.tally.append_ms.push(ms);
                    }
                    appender_done.store(true, Ordering::SeqCst);
                    return;
                }
                let mut rng = Rng::new(0xB0B ^ preload_versions);
                while !appender_done.load(Ordering::SeqCst) {
                    let (version, ms) = actor.latest(main);
                    actor.tally.version_ms.push(ms);
                    let Some(version) = version else { continue };
                    let size = preload_bytes + (version.0 - preload_versions) * BIG_OP;
                    // Half the reads anywhere in the blob, half in its newest part.
                    let floor = if rng.below(2) == 0 {
                        0
                    } else {
                        size.saturating_sub(HOT_TAIL)
                    };
                    let slots = (size - BIG_OP - floor) / CHUNK as u64 + 1;
                    let offset = floor + rng.below(slots) * CHUNK as u64;
                    let (_, ms) = actor.read(main, version, offset, BIG_OP, &layout);
                    actor.tally.read_ms.push(ms);
                }
            })
        }
        Workload::SmallOps => unreachable!("open loop"),
    };
    tally.close_phase(started.elapsed().as_secs_f64(), true)
}

/// The operation kinds of one open-loop thread: 70 % small reads, 15 %
/// `latest_version`, 15 % small appends, dealt from shuffled decks of
/// twenty so that every seed offers the same mix in a different order.
fn op_deck(rng: &mut Rng, count: usize) -> Vec<Kind> {
    let mut kinds = Vec::with_capacity(count + 20);
    while kinds.len() < count {
        let mut deck = [Kind::Read; 20];
        deck[..3].fill(Kind::Version);
        deck[3..6].fill(Kind::Append);
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.below(i as u64 + 1) as usize);
        }
        kinds.extend(deck);
    }
    kinds.truncate(count);
    kinds
}

/// Offers `rate` operations per second for `seconds`; returns the tally and
/// the rate achieved.
fn open_loop_window(rate: u32, stage: &mut Stage, seed: u64, seconds: f64) -> (Tally, f64) {
    let main = stage.main;
    let side = stage.side.expect("small_ops has a second blob");
    let preload_versions = stage.preload_versions;
    let layout = preload_layout(stage.preload_bytes);
    let small_slots = stage.preload_bytes / SMALL_READ;
    let actors = &mut stage.actors[..];
    let threads = actors.len() as u32;
    let interval = Duration::from_secs_f64(f64::from(threads) / f64::from(rate));
    let per_thread = (seconds * f64::from(rate) / f64::from(threads))
        .round()
        .max(1.0) as usize;
    // A common origin a little in the future, so both threads are in place
    // before the first operation is due.
    let origin = Instant::now() + Duration::from_millis(20);
    let tally = on_two_threads(actors, origin, |i, actor| {
        let mut rng = Rng::new(seed ^ (0x5A11 + i as u64));
        let kinds = op_deck(&mut rng, per_thread);
        // Thread i is staggered by i/threads of an interval, and every due
        // time carries a little seeded jitter: a strictly periodic arrival
        // locks phase with the daemon's own periodic parking and samples
        // one point of its wake-up delay instead of all of it.
        let due: Vec<Duration> = (0..per_thread as u32)
            .map(|n| {
                let jitter = interval.mul_f64(rng.below(1000) as f64 / 4000.0);
                interval * n + interval * i as u32 / threads + jitter
            })
            .collect();
        let clock = WallClock::at(origin);
        let samples = run_schedule(&clock, &due, |n| match kinds[n] {
            Kind::Read => {
                let offset = rng.below(small_slots) * SMALL_READ;
                let version = Version(preload_versions);
                actor.read(main, version, offset, SMALL_READ, &layout);
            }
            Kind::Version => {
                // Nothing appends to the main blob during the window, so
                // the answer is known.
                let (version, _) = actor.latest(main);
                if version.is_some_and(|v| v != Version(preload_versions)) {
                    actor.tally.failed += 1;
                    eprintln!("e2e: latest_version answered {version:?}");
                }
            }
            Kind::Append => {
                actor.append(side, 1);
            }
        });
        for (sample, &kind) in samples.iter().zip(&kinds) {
            actor
                .tally
                .latencies(kind)
                .push(sample.latency.as_secs_f64() * 1e3);
            actor.tally.late_ms.push(sample.late.as_secs_f64() * 1e3);
        }
    });
    let elapsed = origin.elapsed().as_secs_f64();
    let tally = tally.close_phase(elapsed, false);
    let achieved = (per_thread * threads as usize) as f64 / elapsed;
    (tally, achieved)
}

/// The check phase of a durable workload: restart the daemon on its
/// directory and read back every append acknowledged in the window. For
/// `bulk_append` this scan is also where the read metrics come from.
struct Check {
    tally: Tally,
    recovery_s: f64,
    stored_bytes: u64,
}

fn check_after_restart(
    workload: Workload,
    opts: &RunOptions,
    run_dir: &RunDir,
    payload: &Arc<Payload>,
    blob: BlobId,
    layout: &Layout,
    from: u64,
) -> Result<Check, String> {
    let data_dir = run_dir.path().join("data");
    let stored_bytes = dir_bytes(&data_dir);
    let started = Instant::now();
    let daemon = Daemon::launch(
        &opts.launcher,
        run_dir.path(),
        &daemon_config(workload, &data_dir),
    )?;
    let recovery_s = started.elapsed().as_secs_f64();
    let config = client_config(workload, false);
    let mut actors = (1..=2)
        .map(|stream| Actor::connect(&daemon, &config, false, payload, stream))
        .collect::<Result<Vec<_>, _>>()?;
    let end = layout.contiguous_bytes();
    // Each client scans one contiguous half, in pieces of up to 2 MiB.
    let pieces = (end - from).div_ceil(BIG_OP);
    let started = Instant::now();
    let tally = on_two_threads(&mut actors, started, |i, actor| {
        let (first, last) = match i {
            0 => (0, pieces / 2),
            _ => (pieces / 2, pieces),
        };
        for piece in first..last {
            let (version, ms) = actor.latest(blob);
            actor.tally.version_ms.push(ms);
            let Some(version) = version else { continue };
            let offset = from + piece * BIG_OP;
            let len = BIG_OP.min(end - offset);
            let (_, ms) = actor.read(blob, version, offset, len, layout);
            actor.tally.read_ms.push(ms);
        }
    });
    let tally = tally.close_phase(started.elapsed().as_secs_f64(), true);
    daemon.shutdown()?;
    Ok(Check {
        tally,
        recovery_s,
        stored_bytes,
    })
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>, name: &str) -> u64 {
    let get = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before))
}

/// Where the traced half of the window's operations spent their time, and
/// what tracing them cost.
fn trace_metrics(
    window: &Tally,
    layer: &mut BTreeMap<&'static str, f64>,
    problems: &mut Vec<String>,
) {
    let mut error_ns = 0.0;
    let mut total_ns = 0.0;
    for (kind, names) in [
        (
            Kind::Append,
            [
                "trace.append_version_ms",
                "trace.append_meta_ms",
                "trace.append_chunk_ms",
                "trace.append_self_ms",
                "trace.append_op_ms",
            ],
        ),
        (
            Kind::Read,
            [
                "trace.read_version_ms",
                "trace.read_meta_ms",
                "trace.read_chunk_ms",
                "trace.read_self_ms",
                "trace.read_op_ms",
            ],
        ),
    ] {
        let traced: Vec<(&OpRecord, Breakdown)> = window
            .ops
            .iter()
            .filter(|op| op.kind == kind)
            .filter_map(|op| Some((op, op.parts?)))
            .collect();
        let part = |pick: fn(&Breakdown) -> u64| {
            mean(
                &traced
                    .iter()
                    .map(|(_, b)| pick(b) as f64 / 1e6)
                    .collect::<Vec<_>>(),
            )
        };
        layer.insert(names[0], part(|b| b.version_ns));
        layer.insert(names[1], part(|b| b.meta_ns));
        layer.insert(names[2], part(|b| b.chunk_ns));
        layer.insert(names[3], part(|b| b.client_self_ns));
        layer.insert(names[4], part(Breakdown::total_ns));
        for (op, parts) in &traced {
            error_ns += (parts.total_ns() as f64 - op.service_ms * 1e6).abs();
            total_ns += op.service_ms * 1e6;
        }
    }
    let sum_error_pct = if total_ns > 0.0 {
        100.0 * error_ns / total_ns
    } else {
        0.0
    };
    layer.insert("trace.sum_error_pct", sum_error_pct);
    if sum_error_pct > 1.0 {
        problems.push(format!(
            "the trace's parts miss the measured latency by {sum_error_pct:.2} %"
        ));
    }
    // Tracing overhead: the median traced operation against the median
    // untraced one of the same pass, kind by kind, weighted by count.
    let (mut with, mut without) = (0.0, 0.0);
    for kind in [Kind::Append, Kind::Read, Kind::Version] {
        let of = |traced: bool| -> Vec<f64> {
            window
                .ops
                .iter()
                .filter(|op| op.kind == kind && op.parts.is_some() == traced)
                .map(|op| op.service_ms)
                .collect()
        };
        let (traced, untraced) = (of(true), of(false));
        if !traced.is_empty() && !untraced.is_empty() {
            with += median(&traced) * traced.len() as f64;
            without += median(&untraced) * traced.len() as f64;
        }
    }
    layer.insert(
        "trace.overhead_pct",
        if without > 0.0 {
            100.0 * (with / without - 1.0)
        } else {
            0.0
        },
    );
}

/// Runs one workload from a fresh daemon to the last check.
pub fn run(workload: Workload, opts: &RunOptions) -> Result<Outcome, String> {
    let payload = Arc::new(Payload::new(opts.seed, workload.flavour()));
    let run_dir = RunDir::create(opts.run_root.join(workload.name()))?;
    let seconds = if opts.smoke {
        (opts.seconds / 32.0).max(0.25)
    } else {
        opts.seconds
    };

    // ---- set-up, several times; the last daemon is the one measured ----
    let mut setup = Tally::default();
    let mut setup_s = Vec::new();
    let mut stage = None;
    for _ in 0..if opts.smoke { 1 } else { SETUPS } {
        if let Some(Stage { actors, daemon, .. }) = stage.take() {
            drop(actors);
            daemon.shutdown()?;
        }
        let started = Instant::now();
        stage = Some(Stage::set_up(
            workload, opts, &run_dir, &payload, &mut setup,
        )?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut stage = stage.expect("at least one set-up");

    // ---- the window ----
    let scrape_before = stage.daemon.scrape()?;
    let cpu_before = stage.daemon.cpu_seconds()?;
    // `offered` is an open loop's target and achieved rate.
    let (window, offered) = match workload.open_loop_rate() {
        Some(rate) => {
            let (tally, achieved) = open_loop_window(rate, &mut stage, opts.seed, seconds);
            (tally, Some((f64::from(rate), achieved)))
        }
        None => (closed_loop_window(workload, &mut stage, seconds), None),
    };
    let cpu_s = stage.daemon.cpu_seconds()? - cpu_before;
    let scrape_after = stage.daemon.scrape()?;
    let peak_rss = stage.daemon.peak_rss_bytes()?;
    // A traced pass of `small_ops` goes on to offer the same mix sparsely,
    // for the per-layer `client.sparse_*` metrics (see `SPARSE_RATE`).
    let sparse = match (offered, opts.trace) {
        (Some(_), true) => open_loop_window(SPARSE_RATE, &mut stage, !opts.seed, seconds * 0.4).0,
        _ => Tally::default(),
    };
    let Stage {
        daemon,
        main,
        side,
        preload_bytes,
        preload_versions,
        ..
    } = stage;
    daemon.shutdown()?;

    // ---- the check ----
    let acked: Vec<_> = window.acked.iter().chain(&sparse.acked).copied().collect();
    let appended_bytes = window.appended_bytes + sparse.appended_bytes;
    let user_bytes = preload_bytes + appended_bytes;
    let mut problems = Vec::new();
    let (check, stored_bytes) = if workload.durable() {
        let (blob, layout, from) = match side {
            Some(side) => (
                side,
                acked_layout(Layout::default(), 0, 0, CHUNK as u64, &acked),
                0,
            ),
            None => {
                let base = preload_layout(preload_bytes);
                (
                    main,
                    acked_layout(base, preload_bytes, preload_versions, BIG_OP, &acked),
                    preload_bytes,
                )
            }
        };
        let acked_bytes = layout.contiguous_bytes() - from;
        if acked_bytes != appended_bytes {
            problems.push(format!(
                "only {acked_bytes} of {appended_bytes} acknowledged bytes are contiguous"
            ));
        }
        let check = check_after_restart(workload, opts, &run_dir, &payload, blob, &layout, from)?;
        let stored = check.stored_bytes;
        (Some(check), stored)
    } else {
        (None, scrape_after.get("stored_bytes").copied().unwrap_or(0))
    };

    // ---- the metrics ----
    // Each operation type is measured in the phase of this workload that
    // performs it (see the module comment).
    let empty = Tally::default();
    let scan = check.as_ref().map_or(&empty, |c| &c.tally);
    let (appends, reads, versions) = match workload {
        Workload::BulkAppend => (&window, scan, scan),
        Workload::ColdScan => (&setup, &window, &window),
        _ => (&window, &window, &window),
    };
    let mut outcome = Outcome {
        attempted: setup.attempted + window.attempted + sparse.attempted + scan.attempted,
        failed: setup.failed + window.failed + sparse.failed + scan.failed,
        ..Outcome::default()
    };
    let e2e = &mut outcome.end_to_end;
    e2e.insert("append_mibps", median(&appends.append_mibps));
    e2e.insert("read_mibps", median(&reads.read_mibps));
    e2e.insert("append_p50_ms", median(&appends.append_ms));
    e2e.insert("read_p50_ms", median(&reads.read_ms));
    e2e.insert(
        "stored_bytes_per_user_byte",
        ratio(stored_bytes, user_bytes),
    );
    e2e.insert("server_rss_per_user_byte", ratio(peak_rss, user_bytes));
    e2e.insert("setup_s", median(&setup_s));

    if opts.trace {
        let layer = &mut outcome.per_layer;
        let (append_pct, append_tail) = tail(&appends.append_ms).unwrap_or((0.0, 0.0));
        let (read_pct, read_tail) = tail(&reads.read_ms).unwrap_or((0.0, 0.0));
        layer.insert("client.version_p50_ms", median(&versions.version_ms));
        layer.insert("client.append_tail_ms", append_tail);
        layer.insert("client.append_tail_pct", append_pct);
        layer.insert("client.read_tail_ms", read_tail);
        layer.insert("client.read_tail_pct", read_pct);
        layer.insert("client.sparse_read_p50_ms", median(&sparse.read_ms));
        layer.insert("client.sparse_version_p50_ms", median(&sparse.version_ms));
        layer.insert("client.sparse_append_p50_ms", median(&sparse.append_ms));
        let mut late = window.late_ms.clone();
        late.sort_by(f64::total_cmp);
        layer.insert("client.late_p99_ms", quantile(&late, 0.99));
        layer.insert(
            "client.append_mean_mibps",
            mibps(appends.appended_bytes, appends.phase_s),
        );
        layer.insert(
            "client.read_mean_mibps",
            mibps(reads.read_bytes, reads.phase_s),
        );
        layer.insert(
            "client.achieved_ops_per_s",
            offered.map_or(window.attempted as f64 / seconds, |(_, achieved)| achieved),
        );

        // What the window's two clients counted.
        let sum = |field: fn(&ClientStats) -> u64| window.clients.iter().map(field).sum::<u64>();
        let moved = window.appended_bytes + window.read_bytes;
        layer.insert(
            "net.frames_per_op",
            ratio(sum(|c| c.frames_sent), window.attempted),
        );
        layer.insert(
            "net.coalesced_ratio",
            ratio(sum(|c| c.frames_coalesced), sum(|c| c.frames_sent)),
        );
        layer.insert(
            "net.wire_bytes_per_user_byte",
            ratio(sum(|c| c.bytes_on_wire), moved),
        );
        layer.insert(
            "net.payload_bytes_copied",
            sum(|c| c.payload_bytes_copied) as f64,
        );
        layer.insert(
            "core.cache_hit_ratio",
            ratio(
                sum(|c| c.cache_hits),
                sum(|c| c.cache_hits + c.cache_misses),
            ),
        );

        // What the daemon counted over the window.
        let d = |name: &str| delta(&scrape_after, &scrape_before, name);
        layer.insert(
            "server.cpu_s_per_gib",
            cpu_s / (moved as f64 / (1u64 << 30) as f64),
        );
        layer.insert(
            "server.cache_hit_ratio",
            ratio(d("cache_hits"), d("cache_hits") + d("cache_misses")),
        );
        layer.insert(
            "server.meta_round_trips_per_op",
            ratio(d("meta_round_trips"), window.attempted),
        );
        layer.insert(
            "server.bytes_on_wire_physical_per_logical",
            ratio(d("bytes_on_wire_physical"), d("bytes_on_wire_logical")),
        );
        layer.insert("server.peak_rss_mib", peak_rss as f64 / MIB as f64);
        layer.insert(
            "persist.recovery_s",
            check.as_ref().map_or(0.0, |c| c.recovery_s),
        );

        trace_metrics(&window, layer, &mut problems);
        layers::probe(workload, opts.seed, opts.smoke, &run_dir, &payload, layer)?;
    }

    if let Some((target, achieved)) = offered {
        if (achieved / target - 1.0).abs() > RATE_TOLERANCE && !opts.smoke {
            problems.push(format!(
                "open loop achieved {achieved:.1} ops/s of {target:.0}"
            ));
        }
    }
    if outcome.failed > 0 {
        problems.push(format!(
            "{} of {} operations failed",
            outcome.failed, outcome.attempted
        ));
    }
    outcome.problems = problems;
    Ok(outcome)
}
