//! Process-signal plumbing for graceful shutdown.
//!
//! On Unix the server installs handlers for `SIGINT` and `SIGTERM` that
//! set a process-wide flag; the accept loop polls the flag and drains.
//! The handler does nothing but store into an `AtomicBool` — the only
//! async-signal-safe thing worth doing — so the actual shutdown logic
//! runs on a normal thread.
//!
//! This is the one place in the workspace that needs `unsafe`: the C
//! `signal(2)` entry point itself. Everything else in the crate is
//! `#![deny(unsafe_code)]`.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a termination signal has been observed.
static SHUTDOWN_SIGNALED: AtomicBool = AtomicBool::new(false);

/// Whether a `SIGINT`/`SIGTERM` has arrived since [`install`] ran.
#[must_use]
pub fn signaled() -> bool {
    SHUTDOWN_SIGNALED.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod imp {
    use super::SHUTDOWN_SIGNALED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a single atomic store.
        SHUTDOWN_SIGNALED.store(true, Ordering::SeqCst);
    }

    #[allow(unsafe_code)]
    pub fn install() {
        // The platform libc is already linked into every Rust binary;
        // declare just the one entry point we need.
        unsafe extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: `signal` is only handed an `extern "C"` function that
        // performs one atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the `SIGINT`/`SIGTERM` handlers (no-op off Unix). Idempotent.
pub fn install() {
    imp::install();
}
