//! Monotonic time sources for the online serving layer.
//!
//! The functional layer is a pure function of `(workload, seed, config)`
//! — xtask rule D2 bans wall-clock reads outside the bench harness and
//! the CLI front-ends. A *server*, however, genuinely needs "now" for
//! request deadlines and the stall and sync timings it reports. The
//! [`Clock`] trait is the seam that keeps both properties: library code
//! is written against the trait, tests and the determinism suite drive a
//! [`TestClock`] by hand, and the only implementation backed by the real
//! clock lives in the `dcart-server` *binary* (inside the D2 whitelist),
//! injected at the very top of `main`.
//!
//! This is deliberately distinct from [`crate::Clock`], the cycle/time
//! *conversion* struct of the accelerator timing model — that one turns
//! cycle counts into nanoseconds, this one answers "what time is it".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonic nanosecond clock.
///
/// Implementations must be monotone non-decreasing; the origin is
/// arbitrary (deadlines are computed as `now + budget`, never compared
/// across processes).
pub trait Clock: Send + Sync {
    /// Nanoseconds since the clock's (arbitrary) origin.
    fn now_ns(&self) -> u64;
}

/// A hand-driven clock for tests and deterministic harnesses: time stands
/// perfectly still until [`advance`](TestClock::advance) is called.
///
/// Clones share the same underlying instant, so a test can hold one handle
/// while a server core holds another.
///
/// # Examples
///
/// ```
/// use dcart_engine::time::{Clock, TestClock};
///
/// let clk = TestClock::new();
/// assert_eq!(clk.now_ns(), 0);
/// clk.advance(1_500);
/// assert_eq!(clk.now_ns(), 1_500);
/// ```
#[derive(Clone, Debug, Default)]
// dcart_lint::allow(U1) -- the Clock seam's test double: tests move deadlines with it
pub struct TestClock {
    now: Arc<AtomicU64>,
}

impl TestClock {
    /// A clock at instant 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at `start_ns`.
    pub fn at(start_ns: u64) -> Self {
        TestClock { now: Arc::new(AtomicU64::new(start_ns)) }
    }

    /// Moves time forward by `delta_ns`.
    // dcart_lint::allow(U1) -- the Clock seam's test double: tests move deadlines with it
    pub fn advance(&self, delta_ns: u64) {
        // dcart_lint::atomic(test clock: SeqCst totally orders advances so time never runs backwards)
        self.now.fetch_add(delta_ns, Ordering::SeqCst);
    }

    /// Jumps to `now_ns` (monotonicity is the caller's contract; tests
    /// that jump backwards are testing their own bugs).
    pub fn set(&self, now_ns: u64) {
        // dcart_lint::atomic(test clock: same total-order contract as advance())
        self.now.store(now_ns, Ordering::SeqCst);
    }
}

impl Clock for TestClock {
    fn now_ns(&self) -> u64 {
        // dcart_lint::atomic(test clock: reads join the advance/set total order)
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_is_frozen_until_advanced() {
        let clk = TestClock::new();
        assert_eq!(clk.now_ns(), 0);
        assert_eq!(clk.now_ns(), 0, "no hidden progression");
        clk.advance(10);
        clk.advance(32);
        assert_eq!(clk.now_ns(), 42);
        clk.set(1_000_000);
        assert_eq!(clk.now_ns(), 1_000_000);
    }

    #[test]
    fn clones_share_the_instant() {
        let a = TestClock::at(5);
        let b = a.clone();
        a.advance(5);
        assert_eq!(b.now_ns(), 10);
        let dyn_clock: Arc<dyn Clock> = Arc::new(b);
        assert_eq!(dyn_clock.now_ns(), 10);
    }
}
