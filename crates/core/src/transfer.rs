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
//! moved (before publication, before assembling the read buffer).

use blobseer_types::{BlobError, Result};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Completion handle of one submitted transfer task.
///
/// [`Completion::join`] blocks until the task has run and yields its result.
/// Dropping the handle without joining is allowed: the task still runs, its
/// result is discarded.
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
    /// Taken on drop, which closes the channel and stops the workers.
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Bound on how long [`TransferPool::join_within`] waits for one
    /// completion (`None` = forever). Threaded from the deployment's
    /// `io_timeout` so a transfer stuck on a hung endpoint fails the waiting
    /// operation instead of blocking the scheduler forever.
    join_timeout: Option<Duration>,
}

impl TransferPool {
    /// Starts a pool with `workers` threads.
    ///
    /// # Panics
    ///
    /// If `workers` is zero (`ClusterConfig::validate` rejects
    /// `transfer_workers = 0`), or if a worker thread cannot be spawned.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a transfer pool needs at least one worker");
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("blobseer-transfer-{i}"))
                    .spawn(move || Self::worker_loop(&receiver))
                    .expect("cannot spawn transfer worker")
            })
            .collect();
        TransferPool {
            sender: Some(sender),
            workers: handles,
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

    /// Joins one completion under the pool's configured timeout. A task that
    /// does not complete in time yields [`BlobError::Transport`] — the
    /// retryable error class — while the task itself keeps running on its
    /// worker (its eventual result is discarded). A completion whose task
    /// has already finished never times out.
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

    fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
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
            // A panicking task must not kill the worker: the panic is
            // reported to the submitting client (its completion channel
            // closes unfulfilled), not to unrelated clients sharing the pool.
            let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Submits one task and returns its completion handle immediately.
    pub fn submit<T, F>(&self, task: F) -> Completion<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (tx, rx) = channel::<T>();
        let job: Job = Box::new(move || {
            // The receiver only disappears if the submitter dropped the
            // handle (or panicked); discarding is the fallback.
            let _ = tx.send(task());
        });
        self.sender
            .as_ref()
            .expect("the sender lives until drop")
            .send(job)
            .expect("transfer pool workers are gone");
        Completion { rx }
    }

    /// Waits until every task submitted *before* this call has finished.
    ///
    /// Implemented as a worker rendezvous: one sentinel per worker is
    /// enqueued, and the sentinels block on a shared barrier until all of
    /// them are running at once. The queue is FIFO, so a worker can only be
    /// parked in its sentinel after completing every earlier job it picked
    /// up — when the rendezvous resolves, the pre-quiesce backlog is done.
    /// Tasks submitted concurrently with the call may or may not be covered.
    pub fn quiesce(&self) {
        let barrier = Arc::new(std::sync::Barrier::new(self.workers.len()));
        let sentinels: Vec<Completion<()>> = (0..self.workers.len())
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
            .field("join_timeout", &self.join_timeout)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Submits every task, then joins the completions in submission order.
    fn submit_all<T: Send + 'static>(
        pool: &TransferPool,
        tasks: impl IntoIterator<Item = impl FnOnce() -> T + Send + 'static>,
    ) -> Vec<T> {
        let completions: Vec<_> = tasks.into_iter().map(|t| pool.submit(t)).collect();
        completions.into_iter().map(Completion::join).collect()
    }

    #[test]
    fn results_come_back_in_task_order() {
        let pool = TransferPool::new(4);
        let results = submit_all(
            &pool,
            (0..32u64).map(|i| {
                move || {
                    // Stagger finish times so completion order differs from
                    // submission order.
                    std::thread::sleep(Duration::from_micros((32 - i) * 50));
                    i * 2
                }
            }),
        );
        assert_eq!(results, (0..32u64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn submitted_tasks_complete_out_of_band() {
        let pool = TransferPool::new(2);
        // Submit slow work first, fast work second; both handles resolve
        // with their own result regardless of completion order.
        let slow = pool.submit(|| {
            std::thread::sleep(Duration::from_millis(5));
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
    fn concurrent_batches_share_the_workers() {
        let pool = Arc::new(TransferPool::new(4));
        let clients: Vec<_> = (0..8u64)
            .map(|c| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for round in 0..10u64 {
                        let base = c * 1000 + round * 10;
                        let results = submit_all(&pool, (0..4u64).map(|i| move || base + i));
                        assert_eq!(results, (0..4u64).map(|i| base + i).collect::<Vec<_>>());
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
    }

    #[test]
    fn a_panicking_task_fails_the_batch_but_not_the_pool() {
        // One worker: the tasks after the panicking one run on the very
        // worker that caught the panic.
        let pool = TransferPool::new(1);
        let batch: Vec<_> = (0..3)
            .map(|i| {
                pool.submit(move || {
                    assert!(i != 1, "task 1 blows up");
                    i
                })
            })
            .collect();
        let outcomes: Vec<_> = batch
            .into_iter()
            .map(|c| std::panic::catch_unwind(AssertUnwindSafe(move || c.join())).ok())
            .collect();
        // Only the panicking task's completion fails; its neighbours in the
        // batch and the next submission are served.
        assert_eq!(outcomes, vec![Some(0), None, Some(2)]);
        assert_eq!(pool.submit(|| 42).join(), 42);
    }

    #[test]
    fn join_within_times_out_on_a_stalled_task_without_wedging_the_pool() {
        let pool = TransferPool::new(1).with_join_timeout(Some(Duration::from_millis(30)));
        let (gate_tx, gate_rx) = channel::<()>();
        // The task stalls until released — a stand-in for a hung endpoint.
        let hung = pool.submit(move || {
            gate_rx.recv().ok();
            1u32
        });
        let err = pool.join_within(hung).unwrap_err();
        assert!(matches!(err, BlobError::Transport(_)));
        // Release the stalled task: the pool worker survives the abandoned
        // completion and keeps serving.
        gate_tx.send(()).unwrap();
        let next = pool.submit(|| 2u32);
        assert_eq!(pool.join_within(next).unwrap(), 2);
    }

    #[test]
    fn join_within_without_timeout_waits_and_ready_completions_never_time_out() {
        let pool = TransferPool::new(1);
        let slow = pool.submit(|| {
            std::thread::sleep(Duration::from_millis(10));
            7u32
        });
        assert_eq!(pool.join_within(slow).unwrap(), 7);
        // A completion whose task has already run is immune even to a tiny
        // timeout.
        let strict = TransferPool::new(1).with_join_timeout(Some(Duration::from_nanos(1)));
        let done = strict.submit(|| 9u32);
        strict.quiesce();
        assert_eq!(strict.join_within(done).unwrap(), 9);
    }

    #[test]
    fn quiesce_waits_for_the_submitted_backlog() {
        let pool = TransferPool::new(3);
        static DONE: AtomicUsize = AtomicUsize::new(0);
        for i in 0..12u64 {
            // Dropped completions: quiesce must not depend on joining them.
            let _ = pool.submit(move || {
                std::thread::sleep(Duration::from_micros(200 * (i % 4)));
                DONE.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.quiesce();
        assert_eq!(DONE.load(Ordering::SeqCst), 12);
        // A quiescent pool keeps serving afterwards.
        assert_eq!(submit_all(&pool, [|| 5, || 6]), vec![5, 6]);
    }

    #[test]
    fn drop_joins_all_workers() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let pool = TransferPool::new(3);
        for _ in 0..6 {
            // Never joined: dropping the pool must still let every queued
            // task run before the workers exit.
            let _ = pool.submit(|| {
                std::thread::sleep(Duration::from_millis(1));
                RAN.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(RAN.load(Ordering::SeqCst), 6);
    }
}
