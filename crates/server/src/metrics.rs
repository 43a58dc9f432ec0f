//! The daemon's plaintext metrics/health endpoint.
//!
//! A deliberately tiny HTTP/1.0 responder on a dedicated thread — no HTTP
//! dependency, no keep-alive, one request per connection, which is all a
//! scrape or a health probe needs:
//!
//! * `GET /health` → `ok` once the deployment serves;
//! * `GET /metrics` → one `name value` line per counter (the serving-side
//!   traffic accounting, the shared chunk cache, lifecycle/GC, recovery and
//!   metadata round-trip counters already kept by the cluster);
//! * `POST /shutdown` → acknowledges, then wakes [`MetricsServer::wait_for_shutdown`]
//!   — the daemon's SIGTERM equivalent (the process holds no signal-handling
//!   dependency).
//!
//! The endpoint stays up through the cluster drain so operators can watch a
//! shutdown complete; it goes down last, in [`MetricsServer::stop`].

use blobseer_net::NetCluster;
use blobseer_types::{BlobError, Result};
use parking_lot::{Condvar, Mutex};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Renders every deployment counter as plaintext `name value` lines —
/// stable names, one metric per line, grep-friendly.
#[must_use]
pub fn render_metrics(cluster: &NetCluster) -> String {
    let mut out = String::new();
    let mut put = |name: &str, value: u64| {
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    };

    // Serving-side traffic: chunk bytes this deployment moved for its
    // clients, at logical (decompressed) and physical (shipped) size.
    let wire = cluster.server_metrics().snapshot();
    put("bytes_on_wire_logical", wire.bytes_on_wire_logical);
    put("bytes_on_wire_physical", wire.bytes_on_wire_physical);

    // The shared serving-side chunk cache (zeros when not configured).
    let inner = cluster.inner();
    let cache = inner
        .shared_chunk_cache()
        .map(|c| c.stats())
        .unwrap_or_default();
    put("cache_hits", cache.hits);
    put("cache_misses", cache.misses);
    put("cache_evictions", cache.evictions);
    put("cache_bytes", cache.bytes);
    put("cache_entries", cache.entries);

    put("meta_round_trips", inner.metadata_round_trips());
    put("stored_bytes", inner.total_stored_bytes());
    put("vm_pin_leases", cluster.vm_lease_count() as u64);

    // Version lifecycle: flattening and garbage collection.
    let life = inner.lifecycle().stats();
    put("flattens", life.flattens);
    put("flatten_failures", life.flatten_failures);
    put("reclaimed_bytes", life.reclaimed_bytes);
    put("reclaimed_chunks", life.reclaimed_chunks);
    put("reclaimed_nodes", life.reclaimed_nodes);
    put("sweep_errors", life.sweep_errors);
    put("requeued_entries", life.requeued_entries);

    // What recovery found when the durable tier was opened (all zeros for
    // RAM-resident deployments and fresh directories).
    let rec = inner.recovery_stats();
    put("wal_replayed_records", rec.wal_replayed_records);
    put("wal_truncated_bytes", rec.wal_truncated_bytes);
    put("recovered_blobs", rec.recovered_blobs);
    put("recovered_nodes", rec.recovered_nodes);
    put("recovered_chunks", rec.recovered_chunks);
    put("segment_truncated_bytes", rec.segment_truncated_bytes);
    put("corrupt_chunk_records", rec.corrupt_chunk_records);

    out
}

/// The metrics/health endpoint: a listener thread answering one request per
/// connection, plus the shutdown-request latch `POST /shutdown` trips.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shutdown_requested: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `listen` (port 0 picks an ephemeral port) and starts serving.
    pub fn start(listen: &str, cluster: Arc<NetCluster>) -> Result<Self> {
        let listener = TcpListener::bind(listen)
            .map_err(|e| BlobError::InvalidConfig(format!("metrics_listen {listen:?}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| BlobError::Storage(format!("metrics local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| BlobError::Storage(format!("metrics nonblocking: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let shutdown_requested = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let thread_latch = Arc::clone(&shutdown_requested);
        let thread = std::thread::Builder::new()
            .name("blobseer-metrics".to_string())
            .spawn(move || {
                while !thread_stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => serve_one(stream, &cluster, &thread_latch),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })
            .map_err(|e| BlobError::Storage(format!("spawning metrics thread: {e}")))?;
        Ok(MetricsServer {
            addr,
            stop,
            shutdown_requested,
            thread: Some(thread),
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `POST /shutdown` request has been acknowledged.
    pub fn wait_for_shutdown(&self) {
        let (lock, condvar) = &*self.shutdown_requested;
        let mut requested = lock.lock();
        while !*requested {
            condvar.wait(&mut requested);
        }
    }

    /// Stops the listener thread (idempotent; requests already accepted
    /// finish first).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Answers exactly one request on `stream`. Request parsing is minimal on
/// purpose: method and path from the first line, headers and body ignored
/// (none of the three routes takes input).
fn serve_one(
    mut stream: TcpStream,
    cluster: &Arc<NetCluster>,
    latch: &Arc<(Mutex<bool>, Condvar)>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 1024];
    let mut filled = 0;
    // Read until the request line is complete (or the buffer is full —
    // longer request lines than this are not worth supporting).
    while filled < buf.len() && !buf[..filled].contains(&b'\n') {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(_) => break,
        }
    }
    let first_line = match std::str::from_utf8(&buf[..filled]) {
        Ok(text) => text.lines().next().unwrap_or("").to_string(),
        Err(_) => String::new(),
    };
    let mut parts = first_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));

    let (status, body) = match (method, path) {
        ("GET", "/health") => ("200 OK", "ok\n".to_string()),
        ("GET", "/metrics") => ("200 OK", render_metrics(cluster)),
        ("POST", "/shutdown") => ("200 OK", "draining\n".to_string()),
        _ => ("404 Not Found", "unknown route\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();

    // Trip the latch only after the acknowledgement is on the wire, so the
    // requester always gets its response even though the drain starts
    // immediately afterwards.
    if (method, path) == ("POST", "/shutdown") {
        let (lock, condvar) = &**latch;
        *lock.lock() = true;
        condvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_core::Cluster;
    use blobseer_types::ClusterConfig;

    fn served() -> Arc<NetCluster> {
        let cluster = Cluster::new(ClusterConfig {
            data_providers: 2,
            metadata_providers: 1,
            shared_chunk_cache: true,
            ..ClusterConfig::default()
        })
        .unwrap();
        Arc::new(NetCluster::tcp(cluster).unwrap())
    }

    fn http_get(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn health_metrics_and_shutdown_routes_respond() {
        let server = MetricsServer::start("127.0.0.1:0", served()).unwrap();
        let addr = server.addr();

        let health = http_get(addr, "GET /health HTTP/1.0\r\n\r\n");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");
        assert!(health.ends_with("ok\n"));

        let metrics = http_get(addr, "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(metrics.contains("\nbytes_on_wire_physical "), "{metrics}");
        assert!(metrics.contains("\ncache_hits "), "{metrics}");
        assert!(metrics.contains("\nreclaimed_bytes "), "{metrics}");
        assert!(metrics.contains("\nwal_replayed_records "), "{metrics}");

        let missing = http_get(addr, "GET /nope HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        let ack = http_get(addr, "POST /shutdown HTTP/1.0\r\n\r\n");
        assert!(ack.contains("draining"), "{ack}");
        server.wait_for_shutdown(); // must already be tripped — no hang
        server.stop();
    }

    /// Scrapers (the benchmark harness among them) key on these names, in
    /// this order; a rename or reorder must be a deliberate change here.
    #[test]
    fn metric_names_are_stable() {
        let rendered = render_metrics(&served());
        let names: Vec<&str> = rendered
            .lines()
            .map(|line| line.split_once(' ').expect("name value").0)
            .collect();
        assert_eq!(
            names,
            [
                "bytes_on_wire_logical",
                "bytes_on_wire_physical",
                "cache_hits",
                "cache_misses",
                "cache_evictions",
                "cache_bytes",
                "cache_entries",
                "meta_round_trips",
                "stored_bytes",
                "vm_pin_leases",
                "flattens",
                "flatten_failures",
                "reclaimed_bytes",
                "reclaimed_chunks",
                "reclaimed_nodes",
                "sweep_errors",
                "requeued_entries",
                "wal_replayed_records",
                "wal_truncated_bytes",
                "recovered_blobs",
                "recovered_nodes",
                "recovered_chunks",
                "segment_truncated_bytes",
                "corrupt_chunk_records",
            ]
        );
    }
}
