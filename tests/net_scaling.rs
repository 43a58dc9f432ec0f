//! Scaling and robustness stress tests of the event-driven TCP server.
//!
//! The reactor + bounded worker pool exist to make serving scale with
//! *cores* instead of *clients*; these tests pin the three properties that
//! contract rests on:
//!
//! * **thread census** — however many clients connect and operate
//!   concurrently, the serving side stays at `default_rpc_workers()` pool
//!   threads plus one reactor thread;
//! * **slow-loris immunity** — a connection that stalls mid-frame occupies
//!   no worker thread, does not starve other connections, and is pruned
//!   once it exceeds `io_timeout`;
//! * **reconnect storms** — waves of short-lived clients (each with its
//!   own `connections_per_endpoint` pool) connect, operate and vanish
//!   without leaking serving threads or wedging the reactor;
//! * **panic containment** — a handler that panics fails that one request
//!   with a typed error and leaves the worker pool at full strength.
//!
//! The tests serialise on a process-local lock: the census counts threads
//! by name across the whole process, so two deployments at once would
//! double-count. CI additionally runs this binary with
//! `--test-threads=1`.

use blobseer::core::Cluster;
use blobseer::net::{
    count_threads_with_prefix, default_rpc_workers, tcp_listener, NetCluster, Reactor, RpcEndpoint,
    RpcHandler, RpcServer, WorkerPool,
};
use blobseer::types::{BlobConfig, BlobError, ClusterConfig, ProviderId, Result, TransportMetrics};
use bytes::Bytes;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CS: u64 = 256;

/// Census-bearing tests must not overlap inside this process.
static SERIAL: Mutex<()> = Mutex::new(());

fn config() -> ClusterConfig {
    ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        connections_per_endpoint: 2,
        ..ClusterConfig::default()
    }
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

fn serving_threads() -> usize {
    count_threads_with_prefix("net-reactor") + count_threads_with_prefix("net-worker-")
}

/// Waits for the serving threads of earlier deployments to exit. Pools
/// shut down without joining their workers, so a census taken right after
/// another test's deployment went away could count its stragglers.
fn quiesce_serving_threads() {
    let deadline = Instant::now() + Duration::from_secs(10);
    while serving_threads() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        serving_threads(),
        0,
        "a shut-down deployment's serving threads must exit"
    );
}

/// Samples the serving-thread census until told to stop; returns the peak.
fn spawn_census(stop: Arc<AtomicBool>) -> std::thread::JoinHandle<usize> {
    std::thread::spawn(move || {
        let mut peak = 0;
        while !stop.load(Ordering::Relaxed) {
            peak = peak.max(serving_threads());
            std::thread::sleep(Duration::from_millis(5));
        }
        peak.max(serving_threads())
    })
}

#[test]
fn serving_threads_stay_bounded_under_concurrent_clients() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    quiesce_serving_threads();
    let cfg = config();
    let bound = default_rpc_workers();
    let cluster = NetCluster::tcp(Cluster::new(cfg).unwrap()).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let census = spawn_census(Arc::clone(&stop));

    // 32 clients — each its own connection pool — operating at once. A
    // thread-per-connection server would sit at ≥ 32 serving threads here
    // (the pre-reactor shape); the reactor must not grow at all.
    std::thread::scope(|scope| {
        for n in 0..32u8 {
            let cluster = &cluster;
            scope.spawn(move || {
                let client = cluster.client();
                let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
                let data = pattern(3 * CS as usize + 11, n);
                client.append(blob, &data).unwrap();
                assert_eq!(client.read_all(blob, None).unwrap(), data);
            });
        }
    });

    stop.store(true, Ordering::Relaxed);
    let peak = census.join().unwrap();
    assert!(
        peak <= bound + 1,
        "serving threads must stay O(workers): peak {peak} with 32 clients (bound {bound} + reactor)"
    );
    assert!(peak >= 1, "the census must have seen the serving threads");
}

#[test]
fn stalled_connection_cannot_starve_pool_or_peers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = config();
    cfg.io_timeout_ms = 300; // prune quickly in the test
    let bound = default_rpc_workers();
    let cluster = NetCluster::tcp(Cluster::new(cfg).unwrap()).unwrap();
    let addr = cluster
        .provider_endpoint_addr(ProviderId(0))
        .expect("tcp deployments expose endpoint addresses");

    // More slow-loris connections than worker threads, each stalling
    // mid-frame: a correct length prefix promising a body that never
    // arrives in full. On a thread-per-request server this holds
    // `bound + 1` threads hostage; the reactor must not blink.
    let mut loris = Vec::new();
    for _ in 0..bound + 1 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&64u32.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 3]).unwrap(); // 3 of the promised 64 bytes
        stream.flush().unwrap();
        loris.push(stream);
    }

    // While the stalled connections sit there, real clients are served.
    let client = cluster.client();
    let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
    let data = pattern(4 * CS as usize, 7);
    client.append(blob, &data).unwrap();
    assert_eq!(client.read_all(blob, None).unwrap(), data);

    // Past io_timeout the reactor prunes the stalled connections: the
    // sockets get reset/closed instead of being held open forever.
    let deadline = Instant::now() + Duration::from_secs(10);
    for mut stream in loris {
        stream
            .set_read_timeout(Some(
                deadline
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(10)),
            ))
            .unwrap();
        let mut buf = [0u8; 16];
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => {} // pruned: EOF or reset
            Ok(n) => panic!("a pruned connection must not produce data, got {n} bytes"),
        }
    }

    // And the surviving client still works afterwards.
    assert_eq!(client.read_all(blob, None).unwrap(), data);
}

#[test]
fn reconnect_storm_leaks_no_serving_threads() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    quiesce_serving_threads();
    let cfg = config();
    let bound = default_rpc_workers();
    let cluster = NetCluster::tcp(Cluster::new(cfg).unwrap()).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let census = spawn_census(Arc::clone(&stop));
    let completed = AtomicUsize::new(0);

    // Waves of short-lived clients: every client dials a fresh connection
    // pool to every endpoint, runs one round trip and disconnects. 8 lanes
    // × 6 clients = 48 connect/disconnect cycles racing the reactor's
    // accept and teardown paths.
    std::thread::scope(|scope| {
        for lane in 0..8u8 {
            let cluster = &cluster;
            let completed = &completed;
            scope.spawn(move || {
                for round in 0..6u8 {
                    let client = cluster.client();
                    let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
                    let data = pattern(2 * CS as usize + 5, lane.wrapping_add(round));
                    client.append(blob, &data).unwrap();
                    assert_eq!(client.read_all(blob, None).unwrap(), data);
                    drop(client);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    stop.store(true, Ordering::Relaxed);
    let peak = census.join().unwrap();
    assert_eq!(completed.load(Ordering::Relaxed), 48);
    assert!(
        peak <= bound + 1,
        "a reconnect storm must not grow the serving side: peak {peak} (bound {bound} + reactor)"
    );

    // After the storm the deployment is still healthy for a fresh client.
    let client = cluster.client();
    let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
    let data = pattern(CS as usize, 42);
    client.append(blob, &data).unwrap();
    assert_eq!(client.read_all(blob, None).unwrap(), data);
}

/// Echoes every request; opcode 0x7f hits a handler bug.
struct PanickyHandler;

impl RpcHandler for PanickyHandler {
    fn handle(&self, opcode: u8, header: &[u8], payload: Bytes) -> Result<(Bytes, Bytes)> {
        assert_ne!(opcode, 0x7f, "handler bug");
        Ok((Bytes::copy_from_slice(header), payload))
    }
}

#[test]
fn panicking_handler_fails_one_request_and_keeps_every_worker() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The exact census below counts only this test's pool.
    quiesce_serving_threads();
    let workers = 3;
    let pool = WorkerPool::new(workers);
    let io_timeout = Duration::from_secs(20);
    let reactor = Reactor::new(pool.clone(), Some(io_timeout));
    let (connector, listener) = tcp_listener("127.0.0.1:0").unwrap();
    let mut server = RpcServer::spawn_reactor(&reactor, listener, Arc::new(PanickyHandler));
    let endpoint = RpcEndpoint::new(
        connector,
        Some(io_timeout),
        Arc::new(TransportMetrics::new()),
    );
    endpoint
        .call(0x20, Bytes::from_static(b"warm"), Bytes::new())
        .unwrap();
    assert_eq!(count_threads_with_prefix("net-worker"), workers);

    // One more panic than there are workers: without containment the pool
    // would be empty by now. The 64 KiB payload keeps these requests off
    // the reactor's inline fast path, so they really run on pool workers.
    let started = Instant::now();
    for _ in 0..workers + 1 {
        let err = endpoint
            .call(0x7f, Bytes::new(), Bytes::from(vec![0u8; 64 << 10]))
            .unwrap_err();
        assert!(matches!(err, BlobError::Internal(_)), "{err:?}");
    }
    // A payload-less request is served inline on the reactor thread itself,
    // which must survive the same bug.
    let err = endpoint.call(0x7f, Bytes::new(), Bytes::new()).unwrap_err();
    assert!(matches!(err, BlobError::Internal(_)), "{err:?}");
    assert!(
        started.elapsed() < io_timeout / 2,
        "a panic must answer with a typed error, not wait out io_timeout"
    );

    assert_eq!(count_threads_with_prefix("net-worker"), workers);
    assert_eq!(count_threads_with_prefix("net-reactor"), 1);
    let payload = Bytes::from(pattern(64 << 10, 3));
    let reply = endpoint
        .call(0x20, Bytes::from_static(b"after"), payload.clone())
        .unwrap();
    assert_eq!(reply.header.as_ref(), b"after");
    assert_eq!(reply.payload, payload);

    server.stop();
    reactor.stop();
    pool.shutdown();
}
