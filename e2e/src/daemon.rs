//! Running the daemon under test: one fresh `blobseer-server` per set-up,
//! discovered through its endpoints file, observed through `/proc` and its
//! own `/metrics`, and always drained through `POST /shutdown`.

use blobseer_net::RemoteEndpoints;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const STARTUP_TIMEOUT: Duration = Duration::from_secs(60);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
const POLL: Duration = Duration::from_millis(2);

/// How a daemon is brought up.
#[derive(Debug, Clone)]
pub enum Launcher {
    /// Spawn this `blobseer-server` binary as a child process — what every
    /// measured run does.
    Binary(PathBuf),
    /// Host `blobseer_server::Daemon` in this process (the smoke test,
    /// which has no binary to spawn). Process-level readings then describe
    /// the benchmark process itself.
    InProcess,
}

impl Launcher {
    /// The binary named by `BLOBSEER_SERVER_BIN`, else `blobseer-server`
    /// beside the running executable.
    pub fn find_binary() -> Result<Launcher, String> {
        let path = match std::env::var_os("BLOBSEER_SERVER_BIN") {
            Some(path) => PathBuf::from(path),
            None => std::env::current_exe()
                .map_err(|e| format!("current_exe: {e}"))?
                .with_file_name("blobseer-server"),
        };
        if path.is_file() {
            Ok(Launcher::Binary(path))
        } else {
            Err(format!(
                "no blobseer-server binary at {} (build it, or set BLOBSEER_SERVER_BIN)",
                path.display()
            ))
        }
    }
}

/// A directory that is removed when the guard drops — on success, on error
/// and on panic alike.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `path` afresh. Refuses if a previous run's daemon still
    /// answers there: two daemons sharing the machine would measure each
    /// other.
    pub fn create(path: PathBuf) -> Result<RunDir, String> {
        if let Ok(text) = std::fs::read_to_string(path.join("endpoints")) {
            if let Some(addr) = blobseer_server::metrics_addr_of(&text) {
                if http(addr, "GET /health HTTP/1.0\r\n\r\n").is_ok_and(|r| r.ends_with("ok\n")) {
                    return Err(format!(
                        "a daemon from a previous run still answers at {addr} ({}); \
                         stop it (POST /shutdown) before measuring",
                        path.display()
                    ));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(RunDir(path))
    }

    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One HTTP/1.0 exchange with the daemon's metrics endpoint.
pub fn http(addr: SocketAddr, request: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

fn log_tail(log: &Path) -> String {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    let tail = lines[lines.len().saturating_sub(20)..].join("\n");
    format!("--- daemon log tail ({}) ---\n{tail}", log.display())
}

/// Polls until the daemon has written its endpoints file and answers
/// `GET /health`.
fn await_ready(
    process: &mut Process,
    endpoints_path: &Path,
) -> Result<(RemoteEndpoints, SocketAddr), String> {
    let deadline = Instant::now() + STARTUP_TIMEOUT;
    loop {
        if let Process::Child(child) = process {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon exited during startup: {status}"));
            }
        }
        if let Ok(text) = std::fs::read_to_string(endpoints_path) {
            if let (Ok(endpoints), Some(metrics)) = (
                RemoteEndpoints::parse(&text),
                blobseer_server::metrics_addr_of(&text),
            ) {
                if http(metrics, "GET /health HTTP/1.0\r\n\r\n").is_ok_and(|r| r.ends_with("ok\n"))
                {
                    return Ok((endpoints, metrics));
                }
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("daemon not healthy after {STARTUP_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL);
    }
}

enum Process {
    Child(Child),
    Hosted(Box<blobseer_server::Daemon>),
}

/// A serving daemon. Dropping it drains it.
pub struct Daemon {
    process: Option<Process>,
    endpoints: RemoteEndpoints,
    metrics: SocketAddr,
    log: PathBuf,
}

impl Daemon {
    /// Starts a daemon on the `key = value` lines of `config` (to which the
    /// endpoints file and an ephemeral metrics port are added), with its
    /// files under `dir`, and waits until `/health` answers.
    pub fn launch(launcher: &Launcher, dir: &Path, config: &str) -> Result<Daemon, String> {
        let endpoints_path = dir.join("endpoints");
        let _ = std::fs::remove_file(&endpoints_path);
        let log = dir.join("daemon.log");
        let config = format!(
            "{config}endpoints_file = {}\nmetrics_listen = 127.0.0.1:0\n",
            endpoints_path.display()
        );
        let mut process = match launcher {
            Launcher::Binary(binary) => {
                let config_path = dir.join("server.conf");
                std::fs::write(&config_path, &config)
                    .map_err(|e| format!("writing config: {e}"))?;
                let log_file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&log)
                    .map_err(|e| format!("opening {}: {e}", log.display()))?;
                let stderr = log_file
                    .try_clone()
                    .map_err(|e| format!("log handle: {e}"))?;
                let child = Command::new(binary)
                    .arg(&config_path)
                    .stdin(Stdio::null())
                    .stdout(log_file)
                    .stderr(stderr)
                    .spawn()
                    .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
                Process::Child(child)
            }
            Launcher::InProcess => {
                let opts = blobseer_server::ServerOptions::parse(&config)
                    .map_err(|e| format!("daemon config: {e}"))?;
                let daemon = blobseer_server::Daemon::start(opts)
                    .map_err(|e| format!("starting in-process daemon: {e}"))?;
                Process::Hosted(Box::new(daemon))
            }
        };
        match await_ready(&mut process, &endpoints_path) {
            Ok((endpoints, metrics)) => Ok(Daemon {
                process: Some(process),
                endpoints,
                metrics,
                log,
            }),
            Err(e) => {
                if let Process::Child(child) = &mut process {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                Err(format!("{e}\n{}", log_tail(&log)))
            }
        }
    }

    #[must_use]
    pub fn endpoints(&self) -> &RemoteEndpoints {
        &self.endpoints
    }

    /// The last lines the daemon wrote to stdout/stderr.
    #[must_use]
    pub fn log_tail(&self) -> String {
        log_tail(&self.log)
    }

    /// The daemon's counters, scraped from `GET /metrics`.
    pub fn scrape(&self) -> Result<BTreeMap<String, u64>, String> {
        let response = http(self.metrics, "GET /metrics HTTP/1.0\r\n\r\n")
            .map_err(|e| format!("scraping /metrics: {e}"))?;
        let body = response.split_once("\r\n\r\n").map_or("", |(_, body)| body);
        Ok(body
            .lines()
            .filter_map(|line| {
                let (name, value) = line.split_once(' ')?;
                Some((name.to_string(), value.trim().parse().ok()?))
            })
            .collect())
    }

    fn pid(&self) -> u32 {
        match &self.process {
            Some(Process::Child(child)) => child.id(),
            _ => std::process::id(),
        }
    }

    /// Peak resident set size (`VmHWM`) of the daemon's process, in bytes.
    pub fn peak_rss_bytes(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok())
            .map(|kib| kib * 1024)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// CPU seconds (`utime + stime`) the daemon's process has used.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        // Linux reports these in clock ticks of 1/100 s (`USER_HZ`), fixed
        // across architectures; reading sysconf would need libc.
        const TICKS_PER_SECOND: f64 = 100.0;
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name, which may hold spaces.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or("", |(_, rest)| rest)
            .split_whitespace()
            .collect();
        // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
        match (
            fields.get(11).and_then(|f| f.parse::<u64>().ok()),
            fields.get(12).and_then(|f| f.parse::<u64>().ok()),
        ) {
            (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / TICKS_PER_SECOND),
            _ => Err(format!("cannot parse {path}")),
        }
    }

    /// Drains the daemon through `POST /shutdown` and waits for it to exit;
    /// kills it after a timeout. Reports an unclean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        match self.process.take() {
            None => Ok(()),
            Some(Process::Hosted(daemon)) => {
                daemon.shutdown();
                Ok(())
            }
            Some(Process::Child(mut child)) => {
                let asked = http(self.metrics, "POST /shutdown HTTP/1.0\r\n\r\n");
                let deadline = Instant::now() + DRAIN_TIMEOUT;
                loop {
                    match child.try_wait() {
                        Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                        Ok(Some(status)) => {
                            return Err(format!(
                                "daemon exited uncleanly: {status}\n{}",
                                self.log_tail()
                            ))
                        }
                        Ok(None) if Instant::now() < deadline => std::thread::sleep(POLL),
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            return Err(format!(
                                "daemon did not exit within {DRAIN_TIMEOUT:?} of POST /shutdown; \
                                 killed\n{}",
                                self.log_tail()
                            ));
                        }
                    }
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // The error path and panics end here; the daemon is still drained
        // (or killed) and reaped, its complaint printed.
        if let Err(e) = self.stop() {
            eprintln!("e2e: {e}");
        }
    }
}

/// Bytes the files under `dir` occupy (their lengths, recursively).
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("blobseer-e2e-{}-{tag}", std::process::id()))
    }

    #[test]
    fn run_dir_is_removed_on_drop_even_when_unwinding() {
        let path = scratch("rundir");
        let result = std::panic::catch_unwind(|| {
            let dir = RunDir::create(path.clone()).unwrap();
            std::fs::write(dir.path().join("f"), b"x").unwrap();
            assert_eq!(dir_bytes(dir.path()), 1);
            panic!("boom");
        });
        assert!(result.is_err());
        assert!(!path.exists());
    }

    #[test]
    fn a_live_daemon_in_the_run_dir_blocks_a_new_run_and_a_drained_one_does_not() {
        let path = scratch("live");
        let dir = RunDir::create(path.clone()).unwrap();
        let daemon = Daemon::launch(
            &Launcher::InProcess,
            dir.path(),
            "data_providers = 2\nmetadata_providers = 1\n",
        )
        .unwrap();
        assert_eq!(daemon.endpoints().providers.len(), 2);
        assert!(daemon.scrape().unwrap().contains_key("stored_bytes"));
        assert!(daemon.peak_rss_bytes().unwrap() > 0);
        assert!(daemon.cpu_seconds().unwrap() >= 0.0);
        let refused = RunDir::create(path.clone()).err().expect("must refuse");
        assert!(refused.contains("still answers"), "{refused}");
        daemon.shutdown().unwrap();
        // The stale endpoints file no longer leads to a live daemon.
        std::mem::forget(dir);
        let dir = RunDir::create(path.clone()).unwrap();
        assert!(!dir.path().join("endpoints").exists());
    }
}
