//! A spawn-or-reuse thread cache for short jobs.
//!
//! The front end answers each connection on its own thread, and the
//! router runs each proxy attempt and replication push on one. A thread
//! that finishes its job waits, idle, for the next one instead of
//! exiting, so a steady request stream stops paying a `thread::spawn`
//! per job. [`ThreadCache::spawn`] hands a job to an idle thread when one
//! is waiting and spawns a new thread only when none is: a job never
//! queues behind busy threads (a handler parked on a kept-alive
//! connection stays busy for as long as the connection lives), so this
//! is not a fixed pool. At most `MAX_IDLE` threads wait at once, and an
//! idle thread exits after `IDLE_TIMEOUT` without work.
//! [`ThreadCache::join`] wakes the idle threads and joins every thread.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ppet_trace::Counter;

/// Most threads waiting for a job at once; a thread finishing its job
/// while this many wait exits instead.
const MAX_IDLE: usize = 16;

/// How long an idle thread waits for a job before it exits.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Thread handles kept before finished ones are reaped.
const REAP_AT: usize = 32;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A clonable handle on one cache of threads; clones share it.
#[derive(Clone, Default)]
pub struct ThreadCache {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ThreadCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCache")
            .field("spawned", &self.shared.spawned.get())
            .finish_non_exhaustive()
    }
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is handed over or the cache stops.
    wake: Condvar,
    /// Threads spawned over the cache's life.
    spawned: Counter,
}

#[derive(Default)]
struct State {
    /// Jobs handed to idle threads and not yet picked up. Every waiting
    /// thread is either counted in `idle` or owed one of these.
    handed: VecDeque<Job>,
    /// Waiting threads no job has been handed to.
    idle: usize,
    stopping: bool,
    threads: Vec<JoinHandle<()>>,
}

impl ThreadCache {
    /// An empty cache counting the threads it spawns in `spawned`.
    #[must_use]
    pub fn new(spawned: Counter) -> Self {
        Self {
            shared: Arc::new(Shared {
                spawned,
                ..Shared::default()
            }),
        }
    }

    /// Runs `job` on an idle thread, or on a new one when none waits.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let job: Job = Box::new(job);
        let mut state = self.shared.lock();
        if state.idle > 0 && !state.stopping {
            state.idle -= 1;
            state.handed.push_back(job);
            drop(state);
            self.shared.wake.notify_one();
            return;
        }
        if state.threads.len() >= REAP_AT {
            state.threads.retain(|t| !t.is_finished());
        }
        let shared = Arc::clone(&self.shared);
        state.threads.push(thread::spawn(move || shared.work(job)));
        self.shared.spawned.inc();
    }

    /// Stops the cache: idle threads exit, busy ones exit after their
    /// job, and this returns once every thread spawned so far has.
    pub fn join(&self) {
        let threads = {
            let mut state = self.shared.lock();
            state.stopping = true;
            std::mem::take(&mut state.threads)
        };
        self.shared.wake.notify_all();
        for thread in threads {
            let _ = thread.join();
        }
    }

    /// Threads spawned so far.
    #[cfg(test)]
    pub(crate) fn spawned(&self) -> u64 {
        self.shared.spawned.get()
    }

    /// Threads waiting for a job.
    #[cfg(test)]
    pub(crate) fn idle(&self) -> usize {
        self.shared.lock().idle
    }

    /// Handles on the cache: its clones, and one per live thread.
    #[cfg(test)]
    pub(crate) fn holders(&self) -> usize {
        Arc::strong_count(&self.shared)
    }
}

impl Shared {
    /// Locks the state, even after a panic under the lock (only
    /// `thread::spawn` can panic there): every update leaves it valid.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A cached thread's life: run a job, then wait for the next.
    fn work(&self, mut job: Job) {
        loop {
            job();
            match self.next_job() {
                Some(next) => job = next,
                None => return,
            }
        }
    }

    /// Waits idle for a handed job; `None` when the thread should exit.
    fn next_job(&self) -> Option<Job> {
        let mut state = self.lock();
        if state.stopping || state.idle >= MAX_IDLE {
            return None;
        }
        state.idle += 1;
        let deadline = Instant::now() + IDLE_TIMEOUT;
        loop {
            if let Some(job) = state.handed.pop_front() {
                return Some(job);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if state.stopping || left.is_zero() {
                state.idle -= 1;
                return None;
            }
            state = self
                .wake
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn sequential_jobs_reuse_one_thread() {
        let cache = ThreadCache::default();
        let (tx, rx) = channel();
        for i in 0..20 {
            let tx = tx.clone();
            cache.spawn(move || tx.send(i).unwrap());
            assert_eq!(rx.recv().unwrap(), i);
            // Let the thread get back to waiting before the next job.
            while cache.idle() == 0 {
                thread::yield_now();
            }
        }
        assert_eq!(cache.spawned(), 1);
        cache.join();
    }

    #[test]
    fn a_job_never_waits_behind_a_busy_thread() {
        let cache = ThreadCache::default();
        let (release, blocked) = channel::<()>();
        cache.spawn(move || blocked.recv().unwrap());
        let (tx, rx) = channel();
        cache.spawn(move || tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(5))
            .expect("second job ran beside the blocked one");
        assert_eq!(cache.spawned(), 2);
        release.send(()).unwrap();
        cache.join();
    }

    #[test]
    fn join_wakes_idle_threads_and_waits_for_busy_ones() {
        let cache = ThreadCache::default();
        let (tx, rx) = channel();
        for _ in 0..3 {
            let tx = tx.clone();
            cache.spawn(move || {
                thread::sleep(Duration::from_millis(50));
                tx.send(()).unwrap();
            });
        }
        drop(tx);
        let started = Instant::now();
        cache.join();
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(
            rx.iter().count(),
            3,
            "every job finished before join returned"
        );
    }
}
