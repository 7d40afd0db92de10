//! `ppet-exec`: the deterministic parallel execution engine of the `ppet`
//! workspace.
//!
//! A batch of compiles (`merced batch`, a Table-9 sweep) is
//! embarrassingly parallel, but the workspace's reason for existing is
//! *reproducible* experiments: a given seed must produce the exact same
//! report on every machine, at every `--jobs` setting. This crate
//! reconciles the two with a scoped thread pool whose one primitive,
//! [`Pool::par_map`], is **bit-identical to sequential execution at any
//! worker count**: scheduling is dynamic, but results are reassembled in
//! item order, so a fold over them is as stable as a sequential loop.
//!
//! For long-running services the crate adds [`WorkQueue`]: a bounded,
//! persistent worker pool with backpressure ([`WorkQueue::try_submit`] /
//! [`QueueFull`]) and graceful drain — the scheduling substrate of
//! `merced serve`.
//!
//! The other half of the contract lives with callers: tasks must be pure
//! functions of `(index, item)`. Stochastic tasks get there by forking one
//! generator per task up front (`ppet_prng::Rng::fork`) instead of sharing
//! one mutable generator.
//!
//! Worker counts resolve through [`resolve_jobs`]: explicit request, then
//! the [`JOBS_ENV`] (`PPET_JOBS`) environment variable (`N` or `max`),
//! then 1 — always capped at [`available_workers`]. Because results never
//! depend on the worker count, the cap is a pure resource decision.
//!
//! ```
//! use ppet_exec::Pool;
//!
//! let inputs: Vec<u64> = (0..64).collect();
//! let a = Pool::new(8).par_map(&inputs, |_, &x| x.wrapping_mul(x));
//! let b = Pool::sequential().par_map(&inputs, |_, &x| x.wrapping_mul(x));
//! assert_eq!(a, b); // any worker count, same bits
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod jobs;
mod pool;
mod queue;

pub use jobs::{available_workers, parse_jobs, resolve_jobs, JobsError, JOBS_ENV};
pub use pool::Pool;
pub use queue::{QueueFull, WorkQueue};
