//! Latency percentiles, for the throughput–latency curves of the paper's
//! Fig. 10 — plus the lock-free work queue the SOU
//! pool's stealing workers drain ([`StealQueue`]).

// Under `--features loom` the queue runs on the vendored loom model
// checker's primitives (see vendor/loom and tests/loom.rs); outside a
// loom::model call they are passthroughs to std.
#[cfg(feature = "loom")]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "loom"))]
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// A fixed-population work queue with owner-pop and steal-half ends, the
/// per-worker deque of the stealing SOU pool
/// (`dcart_engine::par_for_each_mut_balanced`).
///
/// The item population is fixed at construction (a batch's work list is
/// known up front), so the whole queue state is one live window
/// `items[head..tail]` packed into a single `AtomicU64` (`head` in the
/// high 32 bits, `tail` in the low 32). The owner claims one item from the
/// tail, a thief claims the *front half* in one shot; either claim is a
/// single compare-exchange on the packed window, so no item can ever be
/// lost or handed out twice, and there is no ABA hazard because `head`
/// only grows and `tail` only shrinks. Everything here is safe code — the
/// items vector is immutable and claims return disjoint index ranges.
///
/// This is the chase-lev shape specialized to a fixed population: no
/// owner-side push, which is exactly what removes the classic top/bottom
/// race the original algorithm needs fences for.
///
/// # Examples
///
/// ```
/// use dcart_engine::StealQueue;
///
/// let q = StealQueue::new(vec![7, 8, 9]);
/// assert_eq!(q.steal_half(), Some(&[7, 8][..]), "thief takes the front half (rounded up)");
/// assert_eq!(q.pop(), Some(9), "owner pops from the tail");
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct StealQueue {
    items: Vec<u32>,
    /// `head` (high 32 bits) and `tail` (low 32): the unclaimed window is
    /// `items[head..tail]`.
    state: AtomicU64,
}

impl StealQueue {
    /// Creates a queue owning `items`; every item is initially unclaimed.
    ///
    /// # Panics
    ///
    /// Panics if `items` exceeds the 32-bit window (the pool hands a queue
    /// at most one work item per shard).
    pub fn new(items: Vec<u32>) -> Self {
        assert!(items.len() <= u32::MAX as usize, "queue population exceeds the 32-bit window");
        let tail = items.len() as u64;
        StealQueue { items, state: AtomicU64::new(tail) }
    }

    fn window(state: u64) -> (u64, u64) {
        (state >> 32, state & u64::from(u32::MAX))
    }

    /// Unclaimed items remaining (racy by nature: a concurrent claim can
    /// shrink it immediately; used only to pick steal victims, where a
    /// stale answer costs one wasted retry, never correctness).
    pub fn len(&self) -> usize {
        let (head, tail) = Self::window(self.state.load(Ordering::Acquire));
        tail.saturating_sub(head) as usize
    }

    /// Whether no unclaimed items remain (racy; see [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner end: claims the item at the tail of the window, or `None`
    /// once the queue is drained.
    pub fn pop(&self) -> Option<u32> {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            let (head, tail) = Self::window(cur);
            if head >= tail {
                return None;
            }
            match self.state.compare_exchange(
                cur,
                (head << 32) | (tail - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(self.items[(tail - 1) as usize]),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Thief end: claims the front *half* of the window (rounded up, so a
    /// single remaining item is still stealable) in one compare-exchange.
    /// Returns the claimed items, or `None` if the queue was empty.
    ///
    /// The returned slice borrows the queue's immutable item store; the
    /// successful claim guarantees no other caller will ever receive these
    /// indices again.
    pub fn steal_half(&self) -> Option<&[u32]> {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            let (head, tail) = Self::window(cur);
            if head >= tail {
                return None;
            }
            let take = (tail - head).div_ceil(2);
            match self.state.compare_exchange(
                cur,
                ((head + take) << 32) | tail,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(&self.items[head as usize..(head + take) as usize]),
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Records per-operation latencies and reports percentiles.
///
/// # Examples
///
/// ```
/// use dcart_engine::LatencyRecorder;
///
/// let mut rec = LatencyRecorder::new();
/// for l in 1..=100u64 {
///     rec.record(l as f64);
/// }
/// assert_eq!(rec.percentile(0.99), 99.0);
/// assert_eq!(rec.percentile(0.50), 50.0);
/// ```
#[derive(Clone, Default, Debug, Serialize, Deserialize)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
    sorted: bool,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample (any consistent unit).
    pub fn record(&mut self, latency: f64) {
        self.samples.push(latency);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `p`-th percentile (`p` in `(0, 1]`), by nearest-rank.
    ///
    /// Returns `0.0` for an empty recorder.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 1.0, "percentile must be in (0, 1]");
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = ((p * self.samples.len() as f64).ceil() as usize).max(1);
        self.samples[rank - 1]
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

/// Why an admission controller turned a request away. The serving layer
/// returns these to clients verbatim (with a bounded retry hint), so the
/// set is a wire-visible contract: variants are appended, never reordered.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RejectReason {
    /// The admission queue was full; retry after the hinted backoff.
    Overloaded,
    /// The request's deadline expired (or its budget could not survive
    /// the configured queueing delay) — executing it would only produce
    /// an answer nobody is waiting for.
    DeadlineExceeded,
    /// Graceful degradation under sustained overload sheds scans first:
    /// they are the widest operations and no client has been promised one.
    ShedScan,
    /// The second degradation stage sheds point reads too. Writes are
    /// never shed once admitted — an acknowledged write is durable.
    ShedRead,
    /// The server is draining (SIGINT or a shutdown frame): in-flight
    /// batches flush, new work is turned away.
    Draining,
}

impl RejectReason {
    /// Stable wire code (`u8`), appended-only.
    pub fn code(self) -> u8 {
        match self {
            RejectReason::Overloaded => 0,
            RejectReason::DeadlineExceeded => 1,
            RejectReason::ShedScan => 2,
            RejectReason::ShedRead => 3,
            RejectReason::Draining => 4,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(RejectReason::Overloaded),
            1 => Some(RejectReason::DeadlineExceeded),
            2 => Some(RejectReason::ShedScan),
            3 => Some(RejectReason::ShedRead),
            4 => Some(RejectReason::Draining),
            _ => None,
        }
    }

    /// Human-readable label (report JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::Overloaded => "overloaded",
            RejectReason::DeadlineExceeded => "deadline_exceeded",
            RejectReason::ShedScan => "shed_scan",
            RejectReason::ShedRead => "shed_read",
            RejectReason::Draining => "draining",
        }
    }
}

/// A bounded FIFO occupancy model with overflow accounting, used to model
/// queue-overflow backpressure: arrivals beyond the free space are rejected
/// and must be re-offered after the queue drains, costing stall cycles.
///
/// This is an occupancy counter, not an element store — items are
/// indistinguishable, only depth matters for timing.
#[derive(Clone, Debug)]
pub struct BoundedQueue {
    capacity: u64,
    depth: u64,
    rejected: u64,
}

impl BoundedQueue {
    /// Creates an empty queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "a queue needs nonzero capacity");
        BoundedQueue { capacity, depth: 0, rejected: 0 }
    }

    /// Offers `items` arrivals at once; accepts up to the free space and
    /// returns the number rejected (the overflow).
    pub fn offer(&mut self, items: u64) -> u64 {
        let free = self.capacity - self.depth;
        let accepted = items.min(free);
        self.depth += accepted;
        let over = items - accepted;
        self.rejected += over;
        over
    }

    /// Drains up to `items` from the queue, returning how many were removed.
    pub fn drain(&mut self, items: u64) -> u64 {
        let removed = items.min(self.depth);
        self.depth -= removed;
        removed
    }

    /// Current occupancy.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Total items rejected across all offers.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Admits exactly one arrival, or reports why it cannot: the typed
    /// single-request front door the serving layer's admission control is
    /// built on. Equivalent to `offer(1)` with a [`RejectReason`] instead
    /// of an overflow count.
    pub fn admit_one(&mut self) -> Result<(), RejectReason> {
        if self.offer(1) == 0 {
            Ok(())
        } else {
            Err(RejectReason::Overloaded)
        }
    }

    /// Capacity the queue was created with.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_accepts_until_full_then_overflows() {
        let mut q = BoundedQueue::new(10);
        assert_eq!(q.offer(6), 0);
        assert_eq!(q.offer(6), 2, "only 4 slots free");
        assert_eq!(q.depth(), 10);
        assert_eq!(q.rejected(), 2);
        assert_eq!(q.drain(7), 7);
        assert_eq!(q.depth(), 3);
        assert_eq!(q.offer(3), 0);
        assert_eq!(q.rejected(), 2, "no new overflow");
    }

    #[test]
    fn bounded_queue_drain_caps_at_depth() {
        let mut q = BoundedQueue::new(4);
        q.offer(2);
        assert_eq!(q.drain(100), 2);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut r = LatencyRecorder::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            r.record(v);
        }
        assert_eq!(r.percentile(0.2), 1.0);
        assert_eq!(r.percentile(0.5), 3.0);
        assert_eq!(r.percentile(1.0), 5.0);
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn empty_is_zero() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.percentile(0.99), 0.0);
        assert_eq!(r.mean(), 0.0);
    }

    #[test]
    fn mean_is_arithmetic() {
        let mut r = LatencyRecorder::new();
        r.record(2.0);
        r.record(4.0);
        assert_eq!(r.mean(), 3.0);
    }

    #[test]
    fn recording_after_percentile_stays_correct() {
        let mut r = LatencyRecorder::new();
        r.record(10.0);
        assert_eq!(r.percentile(1.0), 10.0);
        r.record(1.0);
        assert_eq!(r.percentile(0.5), 1.0);
    }

    #[test]
    fn steal_queue_pop_drains_back_to_front() {
        let q = StealQueue::new(vec![1, 2, 3]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn steal_queue_steal_takes_front_half_rounded_up() {
        let q = StealQueue::new(vec![10, 11, 12, 13, 14]);
        assert_eq!(q.steal_half(), Some(&[10, 11, 12][..]), "5 items: thief takes 3");
        assert_eq!(q.steal_half(), Some(&[13][..]), "2 left: thief takes 1");
        assert_eq!(q.pop(), Some(14));
        assert_eq!(q.steal_half(), None);
    }

    #[test]
    fn steal_queue_single_item_goes_to_whoever_claims_first() {
        let q = StealQueue::new(vec![42]);
        assert_eq!(q.steal_half(), Some(&[42][..]), "a lone item is stealable");
        assert_eq!(q.pop(), None);

        let q = StealQueue::new(vec![42]);
        assert_eq!(q.pop(), Some(42));
        assert_eq!(q.steal_half(), None);
    }

    #[test]
    fn steal_queue_empty_population() {
        let q = StealQueue::new(Vec::new());
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.steal_half(), None);
    }

    #[test]
    fn steal_queue_claims_are_disjoint_and_complete_under_contention() {
        // Real threads (not loom — that model lives in tests/loom.rs):
        // one owner popping, two thieves stealing halves, every item
        // claimed exactly once.
        let q = std::sync::Arc::new(StealQueue::new((0..1000).collect()));
        let claimed = std::sync::Mutex::new(Vec::<u32>::new());
        std::thread::scope(|s| {
            for worker in 0..3 {
                let q = std::sync::Arc::clone(&q);
                let claimed = &claimed;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    if worker == 0 {
                        while let Some(i) = q.pop() {
                            mine.push(i);
                        }
                    } else {
                        while let Some(batch) = q.steal_half() {
                            mine.extend_from_slice(batch);
                        }
                    }
                    claimed.lock().unwrap().extend(mine);
                });
            }
        });
        let mut all = claimed.into_inner().unwrap();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<u32>>());
    }
}
