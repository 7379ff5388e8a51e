//! Admission control: deadlines, a bounded queue, and load shedding by
//! queue depth — the decision every request passes through *before* it can
//! touch the batch executor.
//!
//! # Shedding by depth
//!
//! ```text
//!   queue depth   0 ──────────── ½ ──────────── ¾ ──────────── full
//!   scans           admitted     │ shed
//!   point reads     admitted                    │ shed
//!   writes          admitted                                   │ Overloaded
//! ```
//!
//! The rule reads nothing but the queue's depth at the moment a request
//! arrives, so shedding starts as the queue fills and ends by itself as it
//! drains. Scans go first — they are the widest operations — at half the
//! capacity, point reads at three quarters. Writes are never shed — once a
//! write is acknowledged it is durable, and admission is where that promise
//! starts: a write either gets a queue slot or, with the queue full, an
//! honest `Overloaded` with a retry hint, never a silent drop. The quarter
//! of the queue above the read threshold is kept for writes.
//!
//! Decision order (first match wins):
//! 1. draining → [`RejectReason::Draining`] (no retry — find another node)
//! 2. deadline already expired → [`RejectReason::DeadlineExceeded`]
//! 3. scan, queue at least half full → [`RejectReason::ShedScan`]
//! 4. read, queue at least three quarters full → [`RejectReason::ShedRead`]
//! 5. queue full → [`RejectReason::Overloaded`]
//! 6. otherwise → admitted, queue depth grows by one
//!
//! The server keeps its `Admission` under the inbox's mutex: one hold
//! decides a group and queues what it admits, and the core loop releases
//! the slots of the batch it takes under the same hold, so the depth is
//! the inbox's length.

use dcart_engine::RejectReason;
use serde::Serialize;

use crate::wire::RequestKind;

/// Deadline budget applied when a request carries none: 50 ms.
const DEFAULT_BUDGET_NS: u64 = 50_000_000;

/// Base retry hint returned with `Overloaded`: 1 ms. A shed request is
/// told to wait four times as long.
const RETRY_HINT_NS: u64 = 1_000_000;

/// Tunables for the admission layer.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Queue slots (admitted requests the core loop has not taken yet)
    /// before writes are answered `Overloaded`; scans and reads are shed
    /// at fixed shares of it.
    pub queue_capacity: u64,
    /// Upper bound on client-supplied budgets (a client cannot opt out of
    /// deadline enforcement by asking for an hour).
    pub max_budget_ns: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 1024,
            max_budget_ns: 1_000_000_000, // 1 s
        }
    }
}

/// Admission counters, serialized into the `stats` wire response so
/// overload behavior is observable, not inferred.
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct AdmissionCounters {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// `Overloaded` rejections (queue full).
    pub overloaded: u64,
    /// Requests rejected because their deadline had already expired at
    /// admission (the server's `stats` adds those that expired waiting in
    /// the queue).
    pub deadline_exceeded: u64,
    /// Scans shed by a queue at least half full.
    pub shed_scans: u64,
    /// Reads shed by a queue at least three quarters full.
    pub shed_reads: u64,
    /// Requests bounced during drain.
    pub draining: u64,
}

/// The admission controller: one per server, under the inbox's mutex (the
/// decision is a few integer ops).
#[derive(Debug)]
pub struct Admission {
    config: AdmissionConfig,
    /// Slots taken: admitted and not yet released.
    depth: u64,
    draining: bool,
    counters: AdmissionCounters,
}

impl Admission {
    /// A controller with an empty queue.
    pub fn new(config: AdmissionConfig) -> Self {
        Admission { config, depth: 0, draining: false, counters: AdmissionCounters::default() }
    }

    /// Clamps a client budget into `[1, max_budget_ns]`, substituting the
    /// default for 0.
    pub fn effective_budget_ns(&self, requested: u64) -> u64 {
        let b = if requested == 0 { DEFAULT_BUDGET_NS } else { requested };
        b.min(self.config.max_budget_ns).max(1)
    }

    /// Runs the admission decision for a request arriving at `now_ns` with
    /// absolute deadline `deadline_ns`. On rejection, returns the reason
    /// and a bounded retry hint in nanoseconds (0 = do not retry).
    pub fn admit(
        &mut self,
        kind: RequestKind,
        now_ns: u64,
        deadline_ns: u64,
    ) -> Result<(), (RejectReason, u64)> {
        let (depth, capacity) = (self.depth, self.config.queue_capacity);
        if self.draining {
            self.counters.draining += 1;
            return Err((RejectReason::Draining, 0));
        }
        if now_ns >= deadline_ns {
            self.counters.deadline_exceeded += 1;
            return Err((RejectReason::DeadlineExceeded, 0));
        }
        // Scans at half the capacity, reads at three quarters, each share
        // rounded up (so one slot still takes a scan); neither overflows.
        if kind == RequestKind::Scan && depth >= capacity - capacity / 2 {
            self.counters.shed_scans += 1;
            return Err((RejectReason::ShedScan, 4 * RETRY_HINT_NS));
        }
        if kind == RequestKind::Get && depth >= capacity - capacity / 4 {
            self.counters.shed_reads += 1;
            return Err((RejectReason::ShedRead, 4 * RETRY_HINT_NS));
        }
        if depth >= capacity {
            self.counters.overloaded += 1;
            return Err((RejectReason::Overloaded, RETRY_HINT_NS));
        }
        self.depth += 1;
        self.counters.accepted += 1;
        Ok(())
    }

    /// Releases `n` queue slots (requests taken out of the queue).
    pub fn release(&mut self, n: u64) {
        self.depth = self.depth.saturating_sub(n);
    }

    /// Enters drain mode: every subsequent request is bounced with
    /// [`RejectReason::Draining`].
    pub fn start_drain(&mut self) {
        self.draining = true;
    }

    /// Whether drain mode is active.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> u64 {
        self.depth
    }

    /// Queue capacity.
    pub fn queue_capacity(&self) -> u64 {
        self.config.queue_capacity
    }

    /// Counter snapshot.
    pub fn counters(&self) -> AdmissionCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_capacity(queue_capacity: u64) -> Admission {
        Admission::new(AdmissionConfig { queue_capacity, ..AdmissionConfig::default() })
    }

    /// Admits one `kind` request at t = 0 with a deadline far off.
    fn admit(a: &mut Admission, kind: RequestKind) -> Result<(), RejectReason> {
        a.admit(kind, 0, 100).map_err(|(reason, _)| reason)
    }

    #[test]
    fn admits_until_full_then_overloads_with_hint() {
        let mut a = with_capacity(2);
        assert!(a.admit(RequestKind::Insert, 0, 100).is_ok());
        assert!(a.admit(RequestKind::Insert, 0, 100).is_ok());
        let (reason, hint) = a.admit(RequestKind::Insert, 0, 100).expect_err("queue full");
        assert_eq!(reason, RejectReason::Overloaded);
        assert!(hint > 0, "overload carries a retry hint");
        a.release(2);
        assert!(a.admit(RequestKind::Insert, 0, 100).is_ok(), "slots freed");
    }

    #[test]
    fn expired_deadline_is_rejected_before_queueing() {
        let mut a = with_capacity(2);
        let (reason, _) = a.admit(RequestKind::Get, 100, 100).expect_err("already expired");
        assert_eq!(reason, RejectReason::DeadlineExceeded);
        assert_eq!(a.queue_depth(), 0);
    }

    #[test]
    fn sustained_overload_sheds_scans_first_then_reads_never_writes() {
        use RequestKind::{Get, Insert, Remove, Scan};
        let mut a = with_capacity(8);
        // Below half the capacity every kind is admitted.
        for kind in [Scan, Get, Insert, Remove] {
            assert_eq!(admit(&mut a, kind), Ok(()), "{kind:?} at depth < 4");
        }
        // From half on, scans are shed first; reads still get slots.
        assert_eq!(admit(&mut a, Scan), Err(RejectReason::ShedScan));
        assert_eq!(admit(&mut a, Get), Ok(()), "reads are shed after scans");
        assert_eq!(admit(&mut a, Insert), Ok(()));
        // From three quarters on, reads are shed too.
        assert_eq!(admit(&mut a, Get), Err(RejectReason::ShedRead));
        assert_eq!(admit(&mut a, Scan), Err(RejectReason::ShedScan));
        // Writes are never shed: they take the last quarter of the slots,
        // and only a full queue refuses them, with `Overloaded`.
        assert_eq!(admit(&mut a, Insert), Ok(()));
        assert_eq!(admit(&mut a, Remove), Ok(()));
        assert_eq!(a.queue_depth(), 8);
        for _ in 0..4 {
            assert_eq!(admit(&mut a, Insert), Err(RejectReason::Overloaded));
        }
        let c = a.counters();
        assert_eq!((c.shed_scans, c.shed_reads, c.overloaded, c.accepted), (2, 1, 4, 8));
    }

    #[test]
    fn an_emptied_queue_admits_reads_and_scans_again() {
        let mut a = with_capacity(8);
        for _ in 0..8 {
            assert_eq!(admit(&mut a, RequestKind::Insert), Ok(()));
        }
        // A long overload: everything bounces off the full queue.
        for kind in [RequestKind::Insert, RequestKind::Get, RequestKind::Scan].repeat(100) {
            assert!(admit(&mut a, kind).is_err());
        }
        assert_eq!(a.counters().overloaded, 100);
        // Shedding ends with the pressure: the loop drains the queue, and
        // the next read and scan are admitted.
        a.release(8);
        assert_eq!(admit(&mut a, RequestKind::Get), Ok(()));
        assert_eq!(admit(&mut a, RequestKind::Scan), Ok(()));
    }

    #[test]
    fn draining_bounces_everything_with_no_retry() {
        let mut a = with_capacity(2);
        a.start_drain();
        let (r, hint) = a.admit(RequestKind::Insert, 0, 100).expect_err("draining");
        assert_eq!(r, RejectReason::Draining);
        assert_eq!(hint, 0, "do not retry against a draining server");
    }

    #[test]
    fn budget_clamping() {
        let a = Admission::new(AdmissionConfig::default());
        assert_eq!(a.effective_budget_ns(0), 50_000_000, "default budget");
        assert_eq!(a.effective_budget_ns(u64::MAX), 1_000_000_000, "capped");
        assert_eq!(a.effective_budget_ns(5), 5);
    }
}
