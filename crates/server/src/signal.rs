//! SIGINT → graceful drain, with no external crates: a single raw
//! `signal(2)` registration whose handler flips one atomic flag.
//!
//! The handler does the only thing that is async-signal-safe here: a
//! relaxed store into a process-global [`AtomicBool`]. The acceptor and
//! core loop poll the flag (they already run on short poll ticks) and
//! turn it into the ordinary drain sequence — stop accepting, flush,
//! checkpoint, exit 0.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler on the first SIGINT.
// dcart_lint::allow(G1) -- a signal handler has no channel but a global; the one sanctioned latch
static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;

extern "C" {
    // POSIX `signal(2)`. The handler-pointer arguments are passed as
    // `usize` so no function-pointer transmutes are needed on our side;
    // the ABI is identical on the 64-bit Linux targets this binary
    // supports.
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_sigint(_signum: i32) {
    // dcart_lint::atomic(async-signal-safe latch; the poll loop needs only eventual visibility)
    SIGINT_SEEN.store(true, Ordering::Relaxed);
}

/// Installs the SIGINT handler. Call once at binary startup, before the
/// acceptor begins.
pub fn install_sigint_handler() {
    // SAFETY: `signal` is the POSIX libc symbol; registering a handler
    // that only performs an atomic store is async-signal-safe. The
    // handler pointer round-trips through `usize` losslessly on the
    // supported 64-bit targets.
    #[allow(unsafe_code)]
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

/// Whether SIGINT has been received since startup.
pub fn sigint_received() -> bool {
    // dcart_lint::atomic(single boolean latch polled by the acceptor; no data guarded)
    SIGINT_SEEN.load(Ordering::Relaxed)
}
