//! Window-based concurrency analysis.
//!
//! The paper's concurrency axis is the number of *in-flight* operations
//! (Fig. 2(d), Fig. 12(a) sweep it). We model a batch of `window`
//! consecutive operations as concurrent: two operations in the same window
//! that touch the same node collide. From that single notion both
//! headline inefficiencies fall out:
//!
//! * **redundant traversals** (Fig. 2(b)) — a node visit is redundant if a
//!   concurrent operation already fetched the node;
//! * **lock contention** (Fig. 7) — `k` concurrent write-locks of one node
//!   mean `k − 1` contended acquisitions and a serialization chain of
//!   length `k`.

use std::collections::BTreeMap;

use dcart_art::NodeId;

/// Counts redundant node visits within windows of concurrent operations.
///
/// # Examples
///
/// ```
/// use dcart_art::NodeId;
/// use dcart_baselines::RedundancyWindow;
///
/// let mut w = RedundancyWindow::new(8);
/// let hot = NodeId::from_index(1);
/// w.record_op([hot]);
/// w.record_op([hot]); // same node, same window: redundant
/// assert_eq!((w.redundant_visits, w.total_visits), (1, 2));
/// ```
#[derive(Debug)]
pub struct RedundancyWindow {
    window: usize,
    ops_in_window: usize,
    seen: BTreeMap<NodeId, ()>,
    /// Total node visits observed.
    pub total_visits: u64,
    /// Visits to a node already fetched within the current window.
    pub redundant_visits: u64,
}

impl RedundancyWindow {
    /// Creates an analyzer with `window` concurrent operations.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        RedundancyWindow {
            window,
            ops_in_window: 0,
            seen: BTreeMap::new(),
            total_visits: 0,
            redundant_visits: 0,
        }
    }

    /// Feeds one operation's visited nodes.
    pub fn record_op(&mut self, visits: impl IntoIterator<Item = NodeId>) {
        for node in visits {
            self.total_visits += 1;
            if self.seen.insert(node, ()).is_some() {
                self.redundant_visits += 1;
            }
        }
        self.ops_in_window += 1;
        if self.ops_in_window >= self.window {
            self.seen.clear();
            self.ops_in_window = 0;
        }
    }
}

/// Per-window lock-collision statistics.
#[derive(Clone, Copy, Default, Debug)]
pub struct ContentionTotals {
    /// Lock acquisitions requested.
    pub acquisitions: u64,
    /// Acquisitions that collided with a concurrent holder.
    pub contentions: u64,
    /// Sum over windows of the longest per-node lock queue — a lower bound
    /// on the serialized critical path, in lock-hold units.
    pub critical_chain: u64,
    /// Number of windows flushed.
    pub windows: u64,
}

/// Counts lock contention within windows of concurrent operations.
///
/// For DCART the same analyzer is fed *coalesced groups* instead of single
/// operations: all operations of a bucket targeting one node acquire a
/// single lock (paper §III-B), so the unit of locking is the group.
///
/// # Examples
///
/// ```
/// use dcart_art::NodeId;
/// use dcart_baselines::ContentionWindow;
///
/// let mut w = ContentionWindow::new(16);
/// let hot = NodeId::from_index(7);
/// w.record_unit([hot]);
/// w.record_unit([hot]); // concurrent write to the same node
/// let (totals, _) = w.finish();
/// assert_eq!(totals.acquisitions, 2);
/// assert_eq!(totals.contentions, 1);
/// ```
#[derive(Debug)]
pub struct ContentionWindow {
    window: usize,
    ops_in_window: usize,
    holders: BTreeMap<NodeId, u64>,
    totals: ContentionTotals,
    /// Longest per-node queue of each flushed window (for P99 latency).
    max_queue_history: Vec<u64>,
}

impl ContentionWindow {
    /// Creates an analyzer with `window` concurrent lock-acquiring units.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        ContentionWindow {
            window,
            ops_in_window: 0,
            holders: BTreeMap::new(),
            totals: ContentionTotals::default(),
            max_queue_history: Vec::new(),
        }
    }

    /// Feeds the lock set of one concurrent unit (an operation, or for
    /// DCART a coalesced group).
    pub fn record_unit(&mut self, locks: impl IntoIterator<Item = NodeId>) {
        for node in locks {
            self.totals.acquisitions += 1;
            let count = self.holders.entry(node).or_insert(0);
            if *count > 0 {
                self.totals.contentions += 1;
            }
            *count += 1;
        }
        self.ops_in_window += 1;
        if self.ops_in_window >= self.window {
            self.flush();
        }
    }

    /// Ends the current window early (e.g. at a batch boundary, for
    /// engines whose concurrency unit is the batch). No-op when empty.
    pub fn end_window(&mut self) {
        if self.ops_in_window > 0 || !self.holders.is_empty() {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let max_queue = self.holders.values().copied().max().unwrap_or(0);
        self.totals.critical_chain += max_queue;
        self.max_queue_history.push(max_queue);
        self.totals.windows += 1;
        self.holders.clear();
        self.ops_in_window = 0;
    }

    /// Flushes any partial window and returns the totals.
    pub fn finish(mut self) -> (ContentionTotals, Vec<u64>) {
        if self.ops_in_window > 0 {
            self.flush();
        }
        (self.totals, self.max_queue_history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn redundancy_within_window_only() {
        let mut r = RedundancyWindow::new(2);
        r.record_op([n(1), n(2)]); // first op: fresh
        r.record_op([n(1), n(3)]); // n1 redundant; window flushes after
        r.record_op([n(1)]); // new window: fresh again
        assert_eq!(r.total_visits, 5);
        assert_eq!(r.redundant_visits, 1);
    }

    #[test]
    fn hot_node_redundancy_grows_with_window() {
        let visits: Vec<[NodeId; 1]> = (0..100).map(|_| [n(7)]).collect();
        let mut small = RedundancyWindow::new(2);
        let mut large = RedundancyWindow::new(50);
        for v in &visits {
            small.record_op(v.iter().copied());
            large.record_op(v.iter().copied());
        }
        assert!(large.redundant_visits > small.redundant_visits);
        assert_eq!((small.redundant_visits, small.total_visits), (50, 100));
        assert_eq!((large.redundant_visits, large.total_visits), (98, 100));
    }

    #[test]
    fn contention_counts_collisions() {
        let mut c = ContentionWindow::new(4);
        c.record_unit([n(1)]);
        c.record_unit([n(1)]); // collision
        c.record_unit([n(2)]);
        c.record_unit([n(1)]); // collision; flush (max queue = 3)
        let (totals, history) = c.finish();
        assert_eq!(totals.acquisitions, 4);
        assert_eq!(totals.contentions, 2);
        assert_eq!(totals.critical_chain, 3);
        assert_eq!(history, vec![3]);
    }

    #[test]
    fn grouping_reduces_contention() {
        // 8 ops all locking node 1: operation-centric sees 7 contentions;
        // coalesced into one group (DCART), zero.
        let mut per_op = ContentionWindow::new(8);
        for _ in 0..8 {
            per_op.record_unit([n(1)]);
        }
        let (op_totals, _) = per_op.finish();
        assert_eq!(op_totals.contentions, 7);

        let mut grouped = ContentionWindow::new(8);
        grouped.record_unit([n(1)]); // the single coalesced group
        let (group_totals, _) = grouped.finish();
        assert_eq!(group_totals.contentions, 0);
    }

    #[test]
    fn partial_window_flushes_on_finish() {
        let mut c = ContentionWindow::new(100);
        c.record_unit([n(1)]);
        c.record_unit([n(1)]);
        let (totals, history) = c.finish();
        assert_eq!(totals.windows, 1);
        assert_eq!(history, vec![2]);
    }
}
