//! Admission control: deadlines, a bounded queue, and latched load
//! shedding — the decision every request passes through *before* it can
//! touch the batch executor.
//!
//! # State machine
//!
//! ```text
//!            ┌────────────┐  queue full (sustained)  ┌────────────┐
//!   Normal ──┤ shed scans ├─────────────────────────►│ shed reads │
//!            └────────────┘   (scan latch tripped)   └────────────┘
//!                 ▲  queue full over a window             ▲
//!                 └── overload pressure feeds the scan    │ further
//!                     latch first; only once it has       │ pressure
//!                     tripped does pressure reach the     │ feeds the
//!                     read latch ──────────────────────── ┘ read latch
//! ```
//!
//! The latches are the PR-2 [`DegradationController`]s: windowed error
//! rates with a *sticky* trip, so a server that has been overloaded long
//! enough to shed does not flap. Writes are never shed — once a write is
//! acknowledged it is durable, and admission is where that promise starts:
//! a write either gets a queue slot or an honest `Overloaded` with a retry
//! hint, never a silent drop.
//!
//! Decision order (first match wins):
//! 1. draining → [`RejectReason::Draining`] (no retry — find another node)
//! 2. deadline already expired → [`RejectReason::DeadlineExceeded`]
//! 3. scan + scan latch tripped → [`RejectReason::ShedScan`]
//! 4. read + read latch tripped → [`RejectReason::ShedRead`]
//! 5. queue full → [`RejectReason::Overloaded`] (+ pressure into latches)
//! 6. otherwise → admitted, queue depth grows by one

use dcart_engine::{BoundedQueue, DegradationController, RejectReason};
use serde::Serialize;

use crate::wire::RequestKind;

/// Tunables for the admission layer.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Queue slots (in-flight + waiting requests) before `Overloaded`.
    pub queue_capacity: u64,
    /// Deadline budget applied when a request carries none.
    pub default_budget_ns: u64,
    /// Upper bound on client-supplied budgets (a client cannot opt out of
    /// deadline enforcement by asking for an hour).
    pub max_budget_ns: u64,
    /// Base retry hint returned with `Overloaded`.
    pub retry_hint_ns: u64,
    /// Queue-full rate over this window that trips the scan-shedding
    /// latch (0 window disables shedding).
    pub shed_window: u32,
    /// Trip threshold for both latches (fraction of window events that
    /// were queue-full rejections).
    pub shed_threshold: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 1024,
            default_budget_ns: 50_000_000, // 50 ms
            max_budget_ns: 1_000_000_000,  // 1 s
            retry_hint_ns: 1_000_000,      // 1 ms
            shed_window: 64,
            shed_threshold: 0.5,
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
    /// admission (or expired waiting in the queue).
    pub deadline_exceeded: u64,
    /// Scans shed by the tripped scan latch.
    pub shed_scans: u64,
    /// Reads shed by the tripped read latch.
    pub shed_reads: u64,
    /// Requests bounced during drain.
    pub draining: u64,
}

/// The admission controller: one per server, shared by every connection
/// thread (behind a mutex — the decision is a few integer ops).
#[derive(Debug)]
pub struct Admission {
    config: AdmissionConfig,
    queue: BoundedQueue,
    scan_latch: DegradationController,
    read_latch: DegradationController,
    draining: bool,
    counters: AdmissionCounters,
}

impl Admission {
    /// A controller with fresh latches and an empty queue.
    pub fn new(config: AdmissionConfig) -> Self {
        Admission {
            queue: BoundedQueue::new(config.queue_capacity),
            scan_latch: DegradationController::new(config.shed_threshold, config.shed_window),
            read_latch: DegradationController::new(config.shed_threshold, config.shed_window),
            config,
            draining: false,
            counters: AdmissionCounters::default(),
        }
    }

    /// Clamps a client budget into `[1, max_budget_ns]`, substituting the
    /// default for 0.
    pub fn effective_budget_ns(&self, requested: u64) -> u64 {
        let b = if requested == 0 { self.config.default_budget_ns } else { requested };
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
        if self.draining {
            self.counters.draining += 1;
            return Err((RejectReason::Draining, 0));
        }
        if now_ns >= deadline_ns {
            self.counters.deadline_exceeded += 1;
            return Err((RejectReason::DeadlineExceeded, 0));
        }
        if kind == RequestKind::Scan && self.scan_latch.is_disabled() {
            self.counters.shed_scans += 1;
            return Err((RejectReason::ShedScan, 4 * self.config.retry_hint_ns));
        }
        if kind == RequestKind::Get && self.read_latch.is_disabled() {
            self.counters.shed_reads += 1;
            return Err((RejectReason::ShedRead, 4 * self.config.retry_hint_ns));
        }
        match self.queue.admit_one() {
            Ok(()) => {
                // Calm evidence: a successful admit is a non-error event
                // for whichever latch is still armed.
                if self.scan_latch.is_disabled() {
                    self.read_latch.record(false);
                } else {
                    self.scan_latch.record(false);
                }
                self.counters.accepted += 1;
                Ok(())
            }
            Err(_) => {
                // Overload pressure sheds scans first; only once the scan
                // latch has tripped does pressure reach the read latch.
                // Writes keep bouncing off the full queue — shed never
                // touches them.
                if self.scan_latch.is_disabled() {
                    self.read_latch.record(true);
                } else {
                    self.scan_latch.record(true);
                }
                self.counters.overloaded += 1;
                Err((RejectReason::Overloaded, self.config.retry_hint_ns))
            }
        }
    }

    /// Releases `n` queue slots (requests answered or dropped).
    pub fn release(&mut self, n: u64) {
        self.queue.drain(n);
    }

    /// Records a request that expired *inside* the queue (counted under
    /// `deadline_exceeded`; its slot is released separately).
    pub fn note_expired_in_queue(&mut self) {
        self.counters.deadline_exceeded += 1;
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
        self.queue.depth()
    }

    /// Queue capacity.
    pub fn queue_capacity(&self) -> u64 {
        self.queue.capacity()
    }

    /// Whether the scan-shedding latch has tripped.
    pub fn scan_latch_tripped(&self) -> bool {
        self.scan_latch.is_disabled()
    }

    /// Whether the read-shedding latch has tripped.
    pub fn read_latch_tripped(&self) -> bool {
        self.read_latch.is_disabled()
    }

    /// Counter snapshot.
    pub fn counters(&self) -> AdmissionCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig { queue_capacity: 2, shed_window: 4, ..AdmissionConfig::default() }
    }

    #[test]
    fn admits_until_full_then_overloads_with_hint() {
        let mut a = Admission::new(cfg());
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
        let mut a = Admission::new(cfg());
        let (reason, _) = a.admit(RequestKind::Get, 100, 100).expect_err("already expired");
        assert_eq!(reason, RejectReason::DeadlineExceeded);
        assert_eq!(a.queue_depth(), 0);
    }

    #[test]
    fn sustained_overload_sheds_scans_first_then_reads_never_writes() {
        let mut a = Admission::new(cfg());
        // Fill the queue, then hammer it: 4 rejections trip the scan latch.
        assert!(a.admit(RequestKind::Insert, 0, 100).is_ok());
        assert!(a.admit(RequestKind::Insert, 0, 100).is_ok());
        for _ in 0..4 {
            let _ = a.admit(RequestKind::Insert, 0, 100);
        }
        assert!(a.scan_latch_tripped(), "scan latch trips first");
        assert!(!a.read_latch_tripped());
        let (r, _) = a.admit(RequestKind::Scan, 0, 100).expect_err("scans shed");
        assert_eq!(r, RejectReason::ShedScan);
        // Continued pressure now feeds the read latch.
        for _ in 0..4 {
            let _ = a.admit(RequestKind::Insert, 0, 100);
        }
        assert!(a.read_latch_tripped(), "read latch trips under continued pressure");
        let (r, _) = a.admit(RequestKind::Get, 0, 100).expect_err("reads shed");
        assert_eq!(r, RejectReason::ShedRead);
        // Writes are never shed: with slots free they are admitted even
        // with both latches tripped.
        a.release(2);
        assert!(a.admit(RequestKind::Insert, 0, 100).is_ok(), "writes never shed");
        let c = a.counters();
        assert!(c.shed_scans >= 1 && c.shed_reads >= 1 && c.overloaded >= 8);
    }

    #[test]
    fn draining_bounces_everything_with_no_retry() {
        let mut a = Admission::new(cfg());
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
