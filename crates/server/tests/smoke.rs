//! End-to-end smoke test of the `blobseer-server` binary: spawn the daemon
//! as a real child process, discover its endpoints through the endpoints
//! file, talk to it over TCP with `connect_remote`, scrape its metrics,
//! drain it through `POST /shutdown`, and prove the durable state survives
//! a restart.

use blobseer_server::{metrics_addr_of, Daemon, ServerOptions};
use blobseer_types::{BlobConfig, ClusterConfig, Durability, Version};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const STARTUP_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blobseer-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn http(addr: SocketAddr, request: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

/// Extracts a metric's value from the plaintext `/metrics` body.
fn metric(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{body}"))
}

fn spawn_daemon(config_path: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_blobseer-server"))
        .arg(config_path)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawning blobseer-server")
}

/// Polls until the daemon has written its endpoints file and answers
/// `GET /health`, returning the parsed endpoints and the metrics address.
fn await_ready(
    child: &mut Child,
    endpoints_path: &Path,
) -> (blobseer_net::RemoteEndpoints, SocketAddr) {
    let deadline = Instant::now() + STARTUP_TIMEOUT;
    loop {
        assert!(Instant::now() < deadline, "daemon never became ready");
        if let Some(status) = child.try_wait().unwrap() {
            panic!("daemon exited during startup: {status}");
        }
        if let Ok(text) = std::fs::read_to_string(endpoints_path) {
            if let (Ok(endpoints), Some(metrics)) = (
                blobseer_net::RemoteEndpoints::parse(&text),
                metrics_addr_of(&text),
            ) {
                if let Ok(health) = http(metrics, "GET /health HTTP/1.0\r\n\r\n") {
                    if health.ends_with("ok\n") {
                        return (endpoints, metrics);
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Requests the drain and waits for a clean exit.
fn drain(mut child: Child, metrics: SocketAddr) {
    let ack = http(metrics, "POST /shutdown HTTP/1.0\r\n\r\n").unwrap();
    assert!(ack.contains("draining"), "{ack}");
    let deadline = Instant::now() + EXIT_TIMEOUT;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            assert!(status.success(), "daemon exited uncleanly: {status}");
            return;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("daemon did not exit within {EXIT_TIMEOUT:?} of POST /shutdown");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn client_config() -> ClusterConfig {
    ClusterConfig {
        metadata_providers: 2,
        // No client-side chunk cache: re-reads must cross the wire so the
        // serving-side cache counters below are exercised.
        chunk_cache_bytes: 0,
        io_timeout_ms: 10_000,
        ..ClusterConfig::default()
    }
}

#[test]
fn daemon_serves_tcp_clients_drains_cleanly_and_survives_restart() {
    let dir = temp_dir("daemon");
    let endpoints_path = dir.join("endpoints");
    let config_path = dir.join("server.conf");
    std::fs::write(
        &config_path,
        format!(
            "data_providers = 3\n\
             metadata_providers = 2\n\
             durable_dir = {data}\n\
             endpoints_file = {endpoints}\n\
             metrics_listen = 127.0.0.1:0\n\
             maintenance_interval_ms = 100\n\
             io_timeout_ms = 10000\n",
            data = dir.join("data").display(),
            endpoints = endpoints_path.display(),
        ),
    )
    .unwrap();

    // ---- first daemon run: write, read, scrape, drain ----
    let mut child = spawn_daemon(&config_path);
    let (endpoints, metrics_addr) = await_ready(&mut child, &endpoints_path);
    assert_eq!(endpoints.providers.len(), 3);

    let client = blobseer_net::connect_remote(&client_config(), &endpoints).unwrap();
    let blob = client
        .create_blob(BlobConfig::new(256, 1).unwrap())
        .unwrap();
    let data: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(client.append(blob, &data).unwrap(), Version(1));
    // The serving cache was filled write-through by the PUTs, so even the
    // first uncached read hits it; so does the second.
    assert_eq!(client.read_all(blob, None).unwrap(), data);
    assert_eq!(client.read_all(blob, None).unwrap(), data);

    let body = http(metrics_addr, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    // Printed so CI can grep the scraped counters out of the test log.
    println!("{body}");
    assert!(
        metric(&body, "bytes_on_wire_physical ") >= data.len() as u64,
        "server must account the chunk traffic it served:\n{body}"
    );
    assert!(
        metric(&body, "cache_hits ") > 0,
        "the re-read must hit the serving-side cache:\n{body}"
    );
    assert!(metric(&body, "stored_bytes ") >= data.len() as u64);

    drain(child, metrics_addr);

    // ---- second daemon run: recovery serves the same bytes ----
    let mut child = spawn_daemon(&config_path);
    let (endpoints, metrics_addr) = await_ready(&mut child, &endpoints_path);
    let client = blobseer_net::connect_remote(&client_config(), &endpoints).unwrap();
    assert_eq!(
        client.read_all(blob, Some(Version(1))).unwrap(),
        data,
        "published data must survive a drain-and-restart cycle"
    );
    let body = http(metrics_addr, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    assert!(
        metric(&body, "recovered_blobs ") >= 1,
        "restart must report recovery:\n{body}"
    );
    drain(child, metrics_addr);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Peak resident set size (`VmHWM`) of a live process, in bytes.
fn peak_rss_bytes(child: &Child) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{}/status", child.id())).unwrap();
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmHWM in:\n{status}"));
    kib << 10
}

/// A durable daemon serves chunks from its segment files, so neither the
/// bytes it is sent nor the bytes it recovers stay in its memory: only the
/// bounded serving cache sits above the log.
#[test]
fn durable_daemon_memory_stays_flat_while_stored_bytes_grow() {
    const MIB: u64 = 1 << 20;
    const STORED: u64 = 128 * MIB;
    const APPEND: u64 = 2 * MIB;
    const BOUND: u64 = 48 * MIB;
    let dir = temp_dir("flat");
    let endpoints_path = dir.join("endpoints");
    let config_path = dir.join("server.conf");
    std::fs::write(
        &config_path,
        format!(
            "data_providers = 2\n\
             metadata_providers = 1\n\
             durable_dir = {data}\n\
             chunk_cache_bytes = {cache}\n\
             segment_bytes = {segment}\n\
             endpoints_file = {endpoints}\n\
             metrics_listen = 127.0.0.1:0\n\
             io_timeout_ms = 30000\n",
            data = dir.join("data").display(),
            cache = 8 * MIB,
            segment = 16 * MIB,
            endpoints = endpoints_path.display(),
        ),
    )
    .unwrap();

    let mut child = spawn_daemon(&config_path);
    let (endpoints, metrics_addr) = await_ready(&mut child, &endpoints_path);
    let client = blobseer_net::connect_remote(&client_config(), &endpoints).unwrap();
    let blob = client
        .create_blob(BlobConfig::new(64 << 10, 1).unwrap())
        .unwrap();
    let fresh = peak_rss_bytes(&child);
    let data: Vec<u8> = (0..APPEND).map(|i| (i % 253) as u8).collect();
    for _ in 0..STORED / APPEND {
        client.append(blob, &data).unwrap();
    }
    let appended = peak_rss_bytes(&child) - fresh;
    drain(child, metrics_addr);

    let mut child = spawn_daemon(&config_path);
    let (endpoints, metrics_addr) = await_ready(&mut child, &endpoints_path);
    let recovered = peak_rss_bytes(&child).saturating_sub(fresh);
    let client = blobseer_net::connect_remote(&client_config(), &endpoints).unwrap();
    let tail = client.read(blob, None, STORED - APPEND, APPEND).unwrap();
    assert_eq!(tail, data, "the last append reads back after restart");
    drain(child, metrics_addr);
    println!(
        "daemon VmHWM growth: {} MiB over {} MiB of appends, {} MiB at recovery",
        appended / MIB,
        STORED / MIB,
        recovered / MIB
    );
    assert!(
        appended < BOUND,
        "appends grew the daemon's peak by {appended} bytes"
    );
    assert!(
        recovered < BOUND,
        "recovery peaked {recovered} bytes above a fresh daemon"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_rejects_a_bad_config_file_with_a_diagnostic() {
    let dir = temp_dir("badconf");
    let config_path = dir.join("server.conf");
    std::fs::write(&config_path, "data_provders = 8\n").unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_blobseer-server"))
        .arg(&config_path)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("data_provders"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon's maintenance loop is the only thing that checkpoints a
/// running durable deployment: with both lifecycle knobs off it must still
/// keep the WAL bounded on the record trigger alone.
#[test]
fn the_maintenance_loop_bounds_the_wal_with_the_lifecycle_off() {
    let dir = temp_dir("walloop");
    let daemon = Daemon::start(ServerOptions {
        cluster: ClusterConfig {
            data_providers: 2,
            metadata_providers: 2,
            retained_versions: 0,
            flatten_threshold: 0,
            checkpoint_records: 16,
            durability: Durability::Commit,
            ..ServerOptions::default().cluster
        },
        durable_dir: Some(dir.join("data")),
        maintenance_interval_ms: 20,
        ..ServerOptions::default()
    })
    .unwrap();
    let client = daemon.cluster().client();
    let blob = client
        .create_blob(BlobConfig::new(1024, 1).unwrap())
        .unwrap();
    for i in 0..64u8 {
        client.append(blob, vec![i; 1024]).unwrap();
    }
    let wal = daemon
        .cluster()
        .inner()
        .durable_tier()
        .unwrap()
        .wal()
        .clone();
    let deadline = Instant::now() + Duration::from_secs(5);
    while wal.checkpoints() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        wal.checkpoints() > 0,
        "the maintenance loop must checkpoint a WAL past its record trigger"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
