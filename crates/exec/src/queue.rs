//! A bounded, persistent work queue for long-running services.
//!
//! [`Pool`](crate::Pool) is scoped and stateless — perfect for one
//! compile, wrong for a server that accepts work over hours. The
//! [`WorkQueue`] keeps a fixed set of worker threads alive and feeds them
//! jobs through a *bounded* FIFO: when the queue is full,
//! [`WorkQueue::try_submit`] refuses immediately ([`QueueFull`]) so the
//! caller can push back on its own clients instead of buffering without
//! limit.
//!
//! [`WorkQueue::shutdown`] drains: queued and running jobs complete
//! (compiles are not preemptible), then the workers are joined.
//!
//! Determinism note: the queue schedules *whole jobs*; it makes no
//! ordering promises between jobs and offers no result collection. Jobs
//! communicate through their own channels/latches. The bit-identical
//! guarantee of this crate lives in [`Pool::par_map`](crate::Pool::par_map),
//! which a job is free to use internally.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Error returned by [`WorkQueue::try_submit`] when the bounded queue is
/// at capacity — the service's backpressure signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The queue capacity that was exhausted.
    pub capacity: usize,
}

impl fmt::Display for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "work queue full ({} queued jobs)", self.capacity)
    }
}

impl std::error::Error for QueueFull {}

#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    /// Jobs currently executing on a worker.
    active: usize,
    /// `false` once shutdown begins: no further submissions.
    open: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signaled when a job is queued or the queue closes.
    work: Condvar,
    /// Signaled when the queue might have gone idle (for `drain`).
    idle: Condvar,
}

/// A bounded multi-producer work queue over a fixed set of persistent
/// worker threads.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let q = ppet_exec::WorkQueue::new(2, 16);
/// let done = Arc::new(AtomicU64::new(0));
/// for _ in 0..8 {
///     let done = Arc::clone(&done);
///     q.try_submit(move || {
///         done.fetch_add(1, Ordering::SeqCst);
///     })
///     .unwrap();
/// }
/// q.shutdown(); // drains: every accepted job runs
/// assert_eq!(done.load(Ordering::SeqCst), 8);
/// ```
pub struct WorkQueue {
    shared: Arc<Shared>,
    capacity: usize,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for WorkQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkQueue")
            .field("workers", &self.workers.len())
            .field("capacity", &self.capacity)
            .field("depth", &self.depth())
            .finish()
    }
}

impl WorkQueue {
    /// Starts `workers` worker threads over a queue holding at most
    /// `capacity` not-yet-started jobs.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `capacity == 0`.
    #[must_use]
    pub fn new(workers: usize, capacity: usize) -> Self {
        assert!(workers > 0, "a work queue needs at least one worker");
        assert!(
            capacity > 0,
            "a work queue needs capacity for at least one job"
        );
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                open: true,
                ..State::default()
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ppet-queue-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn queue worker")
            })
            .collect();
        Self {
            shared,
            capacity,
            workers,
        }
    }

    /// Enqueues `job` unless the queue is at capacity or shut down.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when `capacity` jobs are already waiting (or shutdown
    /// has begun — a closing service refuses new work the same way).
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), QueueFull> {
        let mut state = self.shared.state.lock().unwrap();
        if !state.open || state.queue.len() >= self.capacity {
            return Err(QueueFull {
                capacity: self.capacity,
            });
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Number of jobs waiting to start (excludes running jobs).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Number of jobs accepted but not yet finished (waiting + running).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        let state = self.shared.state.lock().unwrap();
        state.queue.len() + state.active
    }

    /// Blocks until no job is queued or running. New submissions remain
    /// possible; for a final drain use [`WorkQueue::shutdown`].
    pub fn drain(&self) {
        let mut state = self.shared.state.lock().unwrap();
        while !state.queue.is_empty() || state.active > 0 {
            state = self.shared.idle.wait(state).unwrap();
        }
    }

    /// Graceful shutdown: refuses new submissions, runs every already
    /// accepted job to completion, then joins the workers.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.open = false;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkQueue {
    /// Dropping without an explicit shutdown drains gracefully, matching
    /// [`WorkQueue::shutdown`].
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.close_and_join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.active += 1;
                    break job;
                }
                if !state.open {
                    return;
                }
                state = shared.work.wait(state).unwrap();
            }
        };
        // A panicking job must not kill the worker (the service converts
        // panics into structured errors through its own wrapper; this is
        // the backstop that keeps the pool alive regardless).
        let _ = catch_unwind(AssertUnwindSafe(job));
        let mut state = shared.state.lock().unwrap();
        state.active -= 1;
        let idle = state.queue.is_empty() && state.active == 0;
        drop(state);
        if idle {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_all_submitted_jobs() {
        let q = WorkQueue::new(4, 64);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            q.try_submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        q.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn bounded_queue_pushes_back() {
        let q = WorkQueue::new(1, 2);
        // Park the single worker so queued jobs pile up deterministically.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        q.try_submit(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv().unwrap(); // worker is now busy, queue empty
        q.try_submit(|| {}).unwrap();
        q.try_submit(|| {}).unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.in_flight(), 3);
        let err = q.try_submit(|| {}).unwrap_err();
        assert_eq!(err, QueueFull { capacity: 2 });
        assert!(err.to_string().contains("full"));
        release_tx.send(()).unwrap();
        q.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let q = WorkQueue::new(2, 16);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            q.try_submit(move || {
                std::thread::sleep(Duration::from_millis(5));
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        q.shutdown(); // must not drop any accepted job
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn drain_waits_for_idle_without_closing() {
        let q = WorkQueue::new(2, 16);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..4 {
            let done = Arc::clone(&done);
            q.try_submit(move || {
                std::thread::sleep(Duration::from_millis(2));
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        q.drain();
        assert_eq!(done.load(Ordering::SeqCst), 4);
        // Still open for business after a drain.
        let done2 = Arc::clone(&done);
        q.try_submit(move || {
            done2.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        q.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let q = WorkQueue::new(1, 16);
        q.try_submit(|| panic!("job exploded")).unwrap();
        let done = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&done);
        q.try_submit(move || {
            d.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        q.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn submissions_refused_after_shutdown_begins() {
        let q = WorkQueue::new(1, 4);
        // Drop triggers graceful shutdown; here exercise the closed-path
        // explicitly through a second handle into the shared state.
        let shared = Arc::clone(&q.shared);
        q.shutdown();
        let state = shared.state.lock().unwrap();
        assert!(!state.open);
    }
}
