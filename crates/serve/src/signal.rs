//! Graceful-shutdown signals without a libc crate dependency.
//!
//! `SIGTERM`/`SIGINT` set a process-wide atomic flag, the one the binary
//! hands to [`Server::run`](crate::Server::run) as its shutdown flag; the
//! handler does nothing else (an atomic store is on the short list of
//! async-signal-safe operations). The server's watcher thread polls the
//! flag and wakes the accept loop; the server then drains in-flight
//! connections and exits 0 — `kill -TERM` is the supported way to stop
//! the service, and CI asserts the clean exit code.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

type Handler = extern "C" fn(i32);

#[allow(unsafe_code)]
extern "C" {
    // POSIX `signal(2)`. Declared directly (the container bakes no libc
    // crate); the return value — the previous handler — is opaque here.
    fn signal(signum: i32, handler: Handler) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the handlers. Call once at startup, before accepting.
pub fn install() {
    #[allow(unsafe_code)]
    // SAFETY: `on_signal` only performs an atomic store, which is
    // async-signal-safe; the handler type matches the C prototype.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

/// The flag the handlers set: the server's shutdown flag.
pub fn flag() -> &'static AtomicBool {
    &SHUTDOWN
}
