//! SIGINT/SIGTERM → graceful drain.
//!
//! The campaign engine polls [`drain_requested`] before dispatching each
//! queued cell: on the first signal, in-flight cells run to completion
//! (their checkpoints flush to the manifest as usual), queued cells are
//! recorded as skipped, and the process exits `130` with a resume hint.
//! A second signal during the drain still does nothing violent — the
//! manifest makes even a `kill -9` recoverable, so the handler stays a
//! one-bit flag and the drain stays cooperative.
//!
//! No `libc`-style dependency is available (the workspace is
//! stdlib-only), so the handler is installed through a minimal
//! `extern "C"` declaration of POSIX `signal(2)`. The handler body only
//! stores to an [`AtomicBool`] — async-signal-safe by construction.

use std::sync::atomic::{AtomicBool, Ordering};

static DRAIN: AtomicBool = AtomicBool::new(false);

/// Whether a drain has been requested (signal received, or
/// [`request_drain`] called programmatically).
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

/// Requests a drain programmatically — the serve loop's shutdown path
/// and the tests use this in place of delivering a real signal.
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Clears the drain flag. Test-only: production processes exit after a
/// drain rather than rearm.
pub fn reset_for_test() {
    DRAIN.store(false, Ordering::SeqCst);
}

#[cfg(unix)]
mod imp {
    use super::DRAIN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // POSIX signal(2). The return value (the previous handler) is a
        // pointer-sized integer we never inspect.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        DRAIN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` is declared with POSIX signal(2)'s C signature,
        // and `on_signal` only stores to an `AtomicBool`, which is
        // async-signal-safe.
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

/// Installs the SIGINT/SIGTERM drain handlers (no-op off Unix).
pub fn install() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_flag_round_trips() {
        reset_for_test();
        assert!(!drain_requested());
        request_drain();
        assert!(drain_requested());
        reset_for_test();
        assert!(!drain_requested());
    }
}
