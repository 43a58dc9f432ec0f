//! The shared chunk-transfer scheduler.
//!
//! The first prototype spawned up to eight fresh OS threads per read/write
//! operation (`std::thread::scope` inside the client), which put thread
//! creation and teardown on every hot path and let N concurrent clients
//! burst into `8·N` threads. A [`TransferPool`] replaces that: a fixed set
//! of worker threads owned by the cluster, fed through a channel, shared by
//! every client of the deployment.
//!
//! The pool is a *submission/completion* scheduler, not a batch barrier:
//! [`TransferPool::submit`] enqueues one task and immediately returns a
//! [`Completion`] handle, so a client can keep producing work — assembling
//! the next payload, descending the next metadata tree level, weaving
//! metadata — while earlier transfers are still in flight, and join the
//! completions only where the protocol actually requires the data to have
//! moved (before publication, before assembling the read buffer). The
//! barrier-style [`TransferPool::execute`] survives as a thin convenience
//! built on top of submission.
//!
//! Tasks may be tagged with the data provider they talk to
//! ([`TransferPool::submit_for`]); the pool keeps a live per-provider
//! in-flight gauge that the cluster heartbeat folds into
//! `ProviderManager::report_load`, so placement decisions see the transfer
//! load that is on the wire *right now*, not just what the last completed
//! heartbeat stored.

use blobseer_types::{BlobError, ProviderId, Result};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counters of the pool's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferPoolStats {
    /// Tasks executed on a pool worker.
    pub tasks_run: u64,
    /// Tasks executed inline on the caller thread (single-task batches and
    /// zero-worker pools skip the queue entirely).
    pub tasks_inline: u64,
    /// Submitted tasks that panicked.
    pub tasks_panicked: u64,
}

struct PoolShared {
    tasks_run: AtomicU64,
    tasks_inline: AtomicU64,
    tasks_panicked: AtomicU64,
    /// Live per-provider in-flight transfer counts (tagged submissions
    /// only). Entries are removed when they reach zero so the map stays as
    /// small as the set of providers with traffic on the wire.
    in_flight: Mutex<HashMap<ProviderId, u64>>,
}

impl PoolShared {
    fn transfer_started(&self, provider: ProviderId) {
        *self
            .in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(provider)
            .or_insert(0) += 1;
    }

    fn transfer_finished(&self, provider: ProviderId) {
        let mut map = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(count) = map.get_mut(&provider) {
            *count -= 1;
            if *count == 0 {
                map.remove(&provider);
            }
        }
    }
}

/// Decrements the in-flight gauge when dropped, so a panicking task still
/// releases its slot.
struct InFlightGuard {
    shared: Arc<PoolShared>,
    provider: ProviderId,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.shared.transfer_finished(self.provider);
    }
}

/// Completion handle of one submitted transfer task.
///
/// [`Completion::join`] blocks until the task has run and yields its result.
/// Dropping the handle without joining is allowed: the task still runs (and
/// still updates the in-flight gauge), its result is discarded.
#[must_use = "a dropped completion silently discards the task's result"]
pub struct Completion<T> {
    rx: Receiver<T>,
}

impl<T> Completion<T> {
    /// Waits for the task to finish and returns its result.
    ///
    /// # Panics
    ///
    /// If the task panicked on a worker (mirroring the `join().expect(...)`
    /// of the old per-operation scoped threads).
    pub fn join(self) -> T {
        self.rx.recv().expect("a transfer task panicked")
    }

    /// Waits at most `timeout` (forever when `None`) for the task to finish.
    /// Returns `None` on timeout — the task itself keeps running on its
    /// worker (threads cannot be cancelled); only the *waiter* gives up, so
    /// a hung endpoint fails the waiting operation instead of wedging it.
    ///
    /// # Panics
    ///
    /// If the task panicked on a worker, exactly like [`Completion::join`].
    pub fn join_for(self, timeout: Option<Duration>) -> Option<T> {
        match timeout {
            None => Some(self.join()),
            Some(timeout) => match self.rx.recv_timeout(timeout) {
                Ok(value) => Some(value),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => panic!("a transfer task panicked"),
            },
        }
    }
}

/// A fixed-size worker pool for parallel chunk pushes and fetches.
pub struct TransferPool {
    /// `None` when the pool was built with zero workers (fully inline mode).
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<PoolShared>,
    /// Bound on how long [`TransferPool::join_within`] waits for one
    /// completion (`None` = forever). Threaded from the deployment's
    /// `io_timeout` so a transfer stuck on a hung endpoint fails the waiting
    /// operation instead of blocking the scheduler forever.
    join_timeout: Option<Duration>,
}

impl TransferPool {
    /// Starts a pool with `workers` threads. A pool of zero workers is
    /// valid: every task then runs inline at submission time (useful for
    /// debugging and deterministic tests).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            tasks_run: AtomicU64::new(0),
            tasks_inline: AtomicU64::new(0),
            tasks_panicked: AtomicU64::new(0),
            in_flight: Mutex::new(HashMap::new()),
        });
        if workers == 0 {
            return TransferPool {
                sender: None,
                workers: Vec::new(),
                shared,
                join_timeout: None,
            };
        }
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("blobseer-transfer-{i}"))
                    .spawn(move || Self::worker_loop(&receiver, &shared))
                    .expect("cannot spawn transfer worker")
            })
            .collect();
        TransferPool {
            sender: Some(sender),
            workers: handles,
            shared,
            join_timeout: None,
        }
    }

    /// Sets the bound [`TransferPool::join_within`] waits for one completion
    /// (`None` = wait forever, the default).
    #[must_use]
    pub fn with_join_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.join_timeout = timeout;
        self
    }

    /// The configured join timeout, if any.
    #[must_use]
    pub fn join_timeout(&self) -> Option<Duration> {
        self.join_timeout
    }

    /// Joins one completion under the pool's configured timeout. A task that
    /// does not complete in time yields [`BlobError::Transport`] — the
    /// retryable error class — while the task itself keeps running on its
    /// worker (its eventual result is discarded). Zero-worker pools run
    /// every task inline, so their completions are always ready and never
    /// time out.
    ///
    /// # Panics
    ///
    /// If the task panicked on a worker, exactly like [`Completion::join`].
    pub fn join_within<T>(&self, completion: Completion<T>) -> Result<T> {
        completion.join_for(self.join_timeout).ok_or_else(|| {
            BlobError::Transport(format!(
                "transfer did not complete within {:?} (hung endpoint?)",
                self.join_timeout.unwrap_or_default()
            ))
        })
    }

    fn worker_loop(receiver: &Mutex<Receiver<Job>>, shared: &PoolShared) {
        loop {
            // Take the next job while holding the receiver lock, then run it
            // with the lock released so workers actually execute in parallel.
            let job = {
                let rx = receiver.lock().unwrap_or_else(|e| e.into_inner());
                rx.recv()
            };
            let Ok(job) = job else {
                return; // every sender dropped: the pool is shutting down
            };
            shared.tasks_run.fetch_add(1, Ordering::Relaxed);
            // A panicking task must not kill the worker: the panic is
            // reported to the submitting client (its completion channel
            // closes unfulfilled), not to unrelated clients sharing the pool.
            if std::panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                shared.tasks_panicked.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Lifetime activity counters.
    #[must_use]
    pub fn stats(&self) -> TransferPoolStats {
        TransferPoolStats {
            tasks_run: self.shared.tasks_run.load(Ordering::Relaxed),
            tasks_inline: self.shared.tasks_inline.load(Ordering::Relaxed),
            tasks_panicked: self.shared.tasks_panicked.load(Ordering::Relaxed),
        }
    }

    /// Transfers currently in flight for one provider (tagged submissions).
    #[must_use]
    pub fn in_flight(&self, provider: ProviderId) -> u64 {
        self.shared
            .in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&provider)
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of every provider with transfers currently on the wire.
    #[must_use]
    pub fn in_flight_counts(&self) -> HashMap<ProviderId, u64> {
        self.shared
            .in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Submits one task and returns its completion handle immediately.
    ///
    /// Zero-worker pools run the task inline before returning (the handle is
    /// then already fulfilled), so submission-site code works identically in
    /// deterministic inline mode.
    pub fn submit<T, F>(&self, task: F) -> Completion<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.submit_for(None, task)
    }

    /// Submits one task tagged with the data provider it primarily talks
    /// to. The per-provider in-flight gauge is incremented now and released
    /// when the task finishes (or panics).
    pub fn submit_for<T, F>(&self, provider: Option<ProviderId>, task: F) -> Completion<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let guard = provider.map(|provider| {
            self.shared.transfer_started(provider);
            InFlightGuard {
                shared: Arc::clone(&self.shared),
                provider,
            }
        });
        let (tx, rx) = channel::<T>();
        match &self.sender {
            Some(sender) => {
                let job: Job = Box::new(move || {
                    let result = task();
                    // Release the in-flight slot before the waiter can see
                    // the result: a joined transfer is never still counted.
                    drop(guard);
                    // The receiver only disappears if the submitter dropped
                    // the handle (or panicked); discarding is the fallback.
                    let _ = tx.send(result);
                });
                sender.send(job).expect("transfer pool workers are gone");
            }
            None => {
                self.shared.tasks_inline.fetch_add(1, Ordering::Relaxed);
                let result = task();
                drop(guard);
                let _ = tx.send(result);
            }
        }
        Completion { rx }
    }

    /// Runs every task (in parallel on the pool workers) and returns their
    /// results in task order. Blocks until the whole batch is done.
    ///
    /// This is the explicit batch join over [`TransferPool::submit`]:
    /// single-task batches and zero-worker pools run inline on the calling
    /// thread, everything else is submitted up front and joined in order.
    ///
    /// # Panics
    ///
    /// If a task panics on a worker, the batch panics here (mirroring the
    /// `join().expect(...)` of the old per-operation scoped threads).
    pub fn execute<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        if self.sender.is_none() || tasks.len() <= 1 {
            return self.run_inline(tasks);
        }
        let completions: Vec<Completion<T>> = tasks.into_iter().map(|t| self.submit(t)).collect();
        completions.into_iter().map(Completion::join).collect()
    }

    /// Waits until every task submitted *before* this call has finished.
    ///
    /// Implemented as a worker rendezvous: one sentinel per worker is
    /// enqueued, and the sentinels block on a shared barrier until all of
    /// them are running at once. The queue is FIFO, so a worker can only be
    /// parked in its sentinel after completing every earlier job it picked
    /// up — when the rendezvous resolves, the pre-quiesce backlog is done.
    /// Tasks submitted concurrently with the call may or may not be covered.
    /// Zero-worker pools run everything inline and are always quiescent.
    pub fn quiesce(&self) {
        let workers = self.workers.len();
        if workers == 0 {
            return;
        }
        let barrier = Arc::new(std::sync::Barrier::new(workers));
        let sentinels: Vec<Completion<()>> = (0..workers)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                self.submit(move || {
                    barrier.wait();
                })
            })
            .collect();
        for sentinel in sentinels {
            sentinel.join();
        }
    }

    fn run_inline<T, F: FnOnce() -> T>(&self, tasks: Vec<F>) -> Vec<T> {
        self.shared
            .tasks_inline
            .fetch_add(tasks.len() as u64, Ordering::Relaxed);
        tasks.into_iter().map(|task| task()).collect()
    }
}

impl Drop for TransferPool {
    fn drop(&mut self) {
        // Closing the channel makes every worker's recv fail and exit.
        self.sender = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for TransferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransferPool")
            .field("workers", &self.workers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_task_order() {
        let pool = TransferPool::new(4);
        let tasks: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    // Stagger finish times so completion order differs from
                    // submission order.
                    std::thread::sleep(std::time::Duration::from_micros((32 - i) * 50));
                    i * 2
                }
            })
            .collect();
        let results = pool.execute(tasks);
        assert_eq!(results, (0..32u64).map(|i| i * 2).collect::<Vec<_>>());
        assert!(pool.stats().tasks_run >= 32);
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = TransferPool::new(0);
        assert_eq!(pool.worker_count(), 0);
        let results = pool.execute((0..8).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(results, (0..8).collect::<Vec<_>>());
        assert_eq!(pool.stats().tasks_inline, 8);
        assert_eq!(pool.stats().tasks_run, 0);
    }

    #[test]
    fn single_task_batches_skip_the_queue() {
        let pool = TransferPool::new(2);
        assert_eq!(pool.execute(vec![|| 41 + 1]), vec![42]);
        assert_eq!(pool.stats().tasks_inline, 1);
        assert_eq!(pool.stats().tasks_run, 0);
    }

    #[test]
    fn submitted_tasks_complete_out_of_band() {
        let pool = TransferPool::new(2);
        // Submit slow work first, fast work second; both handles resolve
        // with their own result regardless of completion order.
        let slow = pool.submit(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            "slow"
        });
        let fast = pool.submit(|| "fast");
        assert_eq!(fast.join(), "fast");
        assert_eq!(slow.join(), "slow");
    }

    #[test]
    fn submission_overlaps_with_caller_work() {
        // The defining property of the scheduler: the caller keeps running
        // while a submitted task is in flight.
        let pool = TransferPool::new(1);
        let (gate_tx, gate_rx) = channel::<()>();
        let pending = pool.submit(move || {
            gate_rx.recv().unwrap();
            7
        });
        // Caller-side work happens while the task is parked on the gate.
        let local = 35;
        gate_tx.send(()).unwrap();
        assert_eq!(pending.join() + local, 42);
    }

    #[test]
    fn tagged_submissions_track_per_provider_in_flight() {
        let pool = TransferPool::new(2);
        let p = ProviderId(3);
        let (gate_tx, gate_rx) = channel::<()>();
        let pending = pool.submit_for(Some(p), move || {
            gate_rx.recv().unwrap();
        });
        // The gauge counts the task while it is queued/running...
        assert_eq!(pool.in_flight(p), 1);
        assert_eq!(pool.in_flight_counts().get(&p), Some(&1));
        gate_tx.send(()).unwrap();
        pending.join();
        // ...and releases it on completion.
        assert_eq!(pool.in_flight(p), 0);
        assert!(pool.in_flight_counts().is_empty());
    }

    #[test]
    fn panicking_tagged_tasks_release_their_in_flight_slot() {
        let pool = TransferPool::new(1);
        let p = ProviderId(0);
        let boom = pool.submit_for(Some(p), || panic!("transfer died"));
        assert!(std::panic::catch_unwind(AssertUnwindSafe(move || boom.join())).is_err());
        // The guard drops during the unwind and the worker records the panic
        // after it; both race with this thread observing the failed join.
        for _ in 0..500 {
            if pool.in_flight(p) == 0 && pool.stats().tasks_panicked == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(pool.in_flight(p), 0);
        assert_eq!(pool.stats().tasks_panicked, 1);
    }

    #[test]
    fn concurrent_batches_share_the_workers() {
        let pool = Arc::new(TransferPool::new(4));
        let mut clients = Vec::new();
        for c in 0..8u64 {
            let pool = Arc::clone(&pool);
            clients.push(std::thread::spawn(move || {
                for round in 0..10u64 {
                    let tasks: Vec<_> = (0..4u64)
                        .map(|i| move || c * 1000 + round * 10 + i)
                        .collect();
                    let expected: Vec<u64> = (0..4u64).map(|i| c * 1000 + round * 10 + i).collect();
                    assert_eq!(pool.execute(tasks), expected);
                }
            }));
        }
        for client in clients {
            client.join().unwrap();
        }
    }

    #[test]
    fn a_panicking_task_fails_the_batch_but_not_the_pool() {
        let pool = TransferPool::new(2);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.execute(
                (0..4)
                    .map(|i| {
                        move || {
                            assert!(i != 2, "task 2 blows up");
                            i
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        assert!(
            outcome.is_err(),
            "the submitting batch must observe the panic"
        );
        // The pool survives and keeps serving.
        assert_eq!(pool.execute(vec![|| 1, || 2]), vec![1, 2]);
        // The worker's bookkeeping races with the caller observing the
        // failed batch; give it a moment.
        for _ in 0..100 {
            if pool.stats().tasks_panicked == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(pool.stats().tasks_panicked, 1);
    }

    #[test]
    fn join_within_times_out_on_a_stalled_task_without_wedging_the_pool() {
        let pool =
            TransferPool::new(1).with_join_timeout(Some(std::time::Duration::from_millis(30)));
        assert_eq!(
            pool.join_timeout(),
            Some(std::time::Duration::from_millis(30))
        );
        let (gate_tx, gate_rx) = channel::<()>();
        // The task stalls until released — a stand-in for a hung endpoint.
        let hung = pool.submit(move || {
            gate_rx.recv().ok();
            1u32
        });
        let err = pool.join_within(hung).unwrap_err();
        assert!(matches!(err, blobseer_types::BlobError::Transport(_)));
        // Release the stalled task: the pool worker survives the abandoned
        // completion and keeps serving.
        gate_tx.send(()).unwrap();
        let next = pool.submit(|| 2u32);
        assert_eq!(pool.join_within(next).unwrap(), 2);
    }

    #[test]
    fn join_within_without_timeout_waits_and_ready_completions_never_time_out() {
        let pool = TransferPool::new(1);
        assert_eq!(pool.join_timeout(), None);
        let slow = pool.submit(|| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            7u32
        });
        assert_eq!(pool.join_within(slow).unwrap(), 7);
        // A ready completion (run inline by a zero-worker pool) is immune
        // even to a tiny timeout.
        let strict =
            TransferPool::new(0).with_join_timeout(Some(std::time::Duration::from_nanos(1)));
        assert_eq!(strict.join_within(strict.submit(|| 9u32)).unwrap(), 9);
    }

    #[test]
    fn quiesce_waits_for_the_submitted_backlog() {
        let pool = TransferPool::new(3);
        static DONE: AtomicUsize = AtomicUsize::new(0);
        for i in 0..12u64 {
            // Dropped completions: quiesce must not depend on joining them.
            let _ = pool.submit(move || {
                std::thread::sleep(std::time::Duration::from_micros(200 * (i % 4)));
                DONE.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.quiesce();
        assert_eq!(DONE.load(Ordering::SeqCst), 12);
        // A quiescent pool keeps serving afterwards.
        assert_eq!(pool.execute(vec![|| 5, || 6]), vec![5, 6]);
        // Zero-worker pools are trivially quiescent.
        TransferPool::new(0).quiesce();
    }

    #[test]
    fn drop_joins_all_workers() {
        static RUNNING: AtomicUsize = AtomicUsize::new(0);
        let pool = TransferPool::new(3);
        pool.execute(
            (0..6)
                .map(|_| {
                    || {
                        RUNNING.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .collect::<Vec<_>>(),
        );
        drop(pool);
        assert_eq!(RUNNING.load(Ordering::SeqCst), 6);
    }
}
