//! The scoped worker pool and its order-stable primitives.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// A deterministic parallel executor over borrowed data.
///
/// `Pool` carries only a worker count; every call runs on
/// [`std::thread::scope`] threads that may borrow from the caller's stack
/// and are joined before the call returns. There is no task queue to
/// drain, no detached state, and nothing to shut down.
///
/// # Determinism contract
///
/// [`Pool::par_map`] returns results **in item order**, regardless of which
/// worker computed which item and in what order tasks finished. As long
/// as the task function is a pure function of `(index, item)` — in
/// particular, stochastic tasks must derive their randomness from a
/// per-task generator forked up front (see `ppet_prng::Rng::fork`)
/// rather than a shared generator — the output is bit-identical to
/// sequential execution at *any* worker count.
///
/// # Examples
///
/// ```
/// use ppet_exec::Pool;
///
/// let squares = Pool::new(4).par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// // Worker count never changes the result:
/// assert_eq!(squares, Pool::sequential().par_map(&[1u64, 2, 3, 4], |_, &x| x * x));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with `workers` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`; command-line layers validate user input
    /// through [`crate::resolve_jobs`] before constructing a pool.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        Self { workers }
    }

    /// The single-worker pool: [`Pool::par_map`] runs inline on the calling
    /// thread, with zero thread overhead.
    #[must_use]
    pub fn sequential() -> Self {
        Self { workers: 1 }
    }

    /// The worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f(index, &item)` to every item and returns the results in
    /// item order.
    ///
    /// Work is distributed dynamically (an atomic cursor), so uneven task
    /// sizes balance across workers; the dynamic schedule is invisible in
    /// the output because results are reassembled by index. A panic in
    /// any task propagates to the caller after the scope joins.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let n = items.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }

        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, U)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(local) => {
                        for (i, value) in local {
                            slots[i] = Some(value);
                        }
                    }
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every index is claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppet_prng::{Rng, Xoshiro256PlusPlus};

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Pool::new(0);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 3, 8, 64] {
            let out = Pool::new(workers).par_map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            assert_eq!(out, (0..100).map(|x| x * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty_and_tiny() {
        let empty: [u8; 0] = [];
        assert!(Pool::new(8).par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(Pool::new(8).par_map(&[7u8], |_, &x| x), vec![7]);
    }

    #[test]
    fn stochastic_tasks_are_worker_count_invariant() {
        // Each task draws from its own forked generator; the aggregate
        // must be identical no matter how many workers race over the tasks.
        let mut base = Xoshiro256PlusPlus::seed_from(42);
        let streams: Vec<_> = (0..16).map(|_| base.fork()).collect();
        let run = |workers: usize| -> Vec<u64> {
            Pool::new(workers).par_map(&streams, |_, stream| {
                let mut rng = stream.clone();
                (0..1000).map(|_| rng.next_u64() % 97).sum()
            })
        };
        let sequential = run(1);
        for workers in [2, 4, 8, 16] {
            assert_eq!(run(workers), sequential, "workers = {workers}");
        }
    }

    #[test]
    fn float_sums_are_bit_identical_across_worker_counts() {
        // Results come back in item order, so a left fold over them adds
        // the floats in the same order at every worker count.
        let mut base = Xoshiro256PlusPlus::seed_from(7);
        let streams: Vec<_> = (0..24).map(|_| base.fork()).collect();
        let sum = |workers: usize| -> f64 {
            Pool::new(workers)
                .par_map(&streams, |_, stream| {
                    let mut rng = stream.clone();
                    (0..100).map(|_| rng.gen_f64()).sum::<f64>()
                })
                .into_iter()
                .fold(0.0f64, |acc, x| acc + x)
        };
        let bits = sum(1).to_bits();
        for workers in [2, 3, 8] {
            assert_eq!(sum(workers).to_bits(), bits, "workers = {workers}");
        }
    }

    #[test]
    fn task_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).par_map(&[0, 1, 2, 3, 4], |i, _| {
                assert!(i != 3, "task three exploded");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn uneven_tasks_still_assemble_in_order() {
        // Early tasks sleep so later tasks finish first; order must hold.
        let items: Vec<u64> = (0..12).collect();
        let out = Pool::new(4).par_map(&items, |_, &x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            x
        });
        assert_eq!(out, items);
    }
}
