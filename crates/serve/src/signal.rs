//! Minimal std-only POSIX signal handling for graceful shutdown.
//!
//! The workspace forbids dependencies, so SIGINT/SIGTERM are hooked with
//! one `signal(2)` FFI call each, and the handler does the only
//! async-signal-safe thing it needs to: set an `AtomicBool`. The handler
//! cannot interrupt the daemon's blocking `accept()` (std retries it on
//! `EINTR`), so the daemon's drain watcher polls the flag and wakes the
//! accept loop with a connection to its own listener; connection threads
//! poll it on short read timeouts. Within one poll interval of the
//! signal the daemon drains, flushes journals, and exits 0 — the
//! graceful-shutdown contract `crates/serve/tests/process.rs` pins from
//! outside the process.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

#[allow(unsafe_code)]
mod ffi {
    extern "C" {
        /// POSIX `signal(2)`: the handler is passed by address, the
        /// previous disposition returned likewise.
        pub fn signal(signum: i32, handler: usize) -> usize;
    }
}

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe operation in here: a relaxed-or-stronger
    // atomic store.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install SIGINT/SIGTERM handlers that request a graceful shutdown.
/// Idempotent; call once from `main` before serving.
#[allow(unsafe_code)]
pub fn install_handlers() {
    // SAFETY: `signal` is the POSIX entry point; `on_signal` is a valid
    // `extern "C" fn(i32)` for the life of the process, and the handler
    // body is async-signal-safe (one atomic store).
    unsafe {
        ffi::signal(SIGINT, on_signal as *const () as usize);
        ffi::signal(SIGTERM, on_signal as *const () as usize);
    }
}

/// Has a shutdown been requested (by signal or by the `shutdown`
/// protocol command)?
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Request a graceful shutdown of every daemon in the process, as a
/// signal would (seen within one poll interval).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Reset the flag — for tests that start several daemons in one process.
pub fn reset_for_tests() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}
