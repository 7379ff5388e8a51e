//! On-chip scratchpad buffers holding variable-size objects (ART nodes,
//! shortcut entries, bucket slots).
//!
//! DCART's memory subsystem (paper §III-E, Table I) consists of four BRAM
//! buffers: Scan (512 KB), Bucket (2 MB), Shortcut (128 KB), and Tree
//! (4 MB). The Tree buffer uses a **value-aware** replacement strategy: a
//! node's value is the number of pending operations in its bucket, and a
//! miss only displaces resident nodes when the incoming node's value exceeds
//! the lowest resident value — preventing cache thrashing of high-value
//! (frequently traversed) nodes. The other buffers use LRU.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

/// Replacement policy of an [`ObjectBuffer`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum BufferPolicy {
    /// Least-recently-used: hits refresh recency; misses always fill.
    Lru,
    /// First-in-first-out: insertion order decides victims; misses always
    /// fill. Included as an ablation point.
    Fifo,
    /// DCART's value-aware policy (paper §III-E): every object carries a
    /// value; a fill may only evict objects of *strictly lower* value, and
    /// is bypassed (not cached) otherwise.
    ValueAware,
}

/// Outcome of [`ObjectBuffer::request`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BufferOutcome {
    /// Object was resident on chip.
    Hit,
    /// Object was fetched from off-chip memory and cached.
    MissFilled,
    /// Object was fetched from off-chip memory but not cached (value-aware
    /// admission rejected it).
    MissBypassed,
}

/// Counters for a buffer instance.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BufferStats {
    /// Total object requests.
    pub requests: u64,
    /// Requests served on chip.
    pub hits: u64,
    /// Requests that fetched from off-chip memory.
    pub misses: u64,
    /// Objects displaced to make room.
    pub evictions: u64,
    /// Misses not admitted by the value-aware policy.
    pub bypasses: u64,
    /// Bytes fetched from off-chip memory (all misses).
    pub bytes_fetched: u64,
}

impl BufferStats {
    /// Hit ratio in `[0, 1]`; `0` when no requests happened.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    size: u32,
    /// Eviction priority currently registered in `order`.
    priority: (u64, u64),
}

/// A byte-capacity scratchpad holding variable-size objects keyed by id.
///
/// # Examples
///
/// ```
/// use dcart_mem::{BufferOutcome, BufferPolicy, ObjectBuffer};
///
/// let mut buf = ObjectBuffer::new(1024, BufferPolicy::Lru);
/// assert_eq!(buf.request(1, 400, 0), BufferOutcome::MissFilled);
/// assert_eq!(buf.request(1, 400, 0), BufferOutcome::Hit);
/// ```
#[derive(Clone, Debug)]
pub struct ObjectBuffer {
    capacity: u64,
    used: u64,
    policy: BufferPolicy,
    entries: BTreeMap<u64, Entry>,
    /// Eviction order: smallest `(priority, id)` is the next victim.
    order: BTreeSet<(u64, u64)>,
    tick: u64,
    stats: BufferStats,
}

impl ObjectBuffer {
    /// Creates a buffer of `capacity` bytes with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64, policy: BufferPolicy) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        ObjectBuffer {
            capacity,
            used: 0,
            policy,
            entries: BTreeMap::new(),
            order: BTreeSet::new(),
            tick: 0,
            stats: BufferStats::default(),
        }
    }

    /// Requests object `id` of `size` bytes with the given `value`
    /// (ignored except under [`BufferPolicy::ValueAware`]).
    ///
    /// Returns whether the object was resident, filled, or bypassed.
    pub fn request(&mut self, id: u64, size: u32, value: u64) -> BufferOutcome {
        self.tick += 1;
        self.stats.requests += 1;
        if let Some(entry) = self.entries.get_mut(&id) {
            self.stats.hits += 1;
            if self.policy == BufferPolicy::Lru {
                let old = entry.priority;
                entry.priority = (self.tick, id);
                self.order.remove(&old);
                self.order.insert(entry.priority);
            }
            return BufferOutcome::Hit;
        }

        self.stats.misses += 1;
        self.stats.bytes_fetched += u64::from(size);
        if u64::from(size) > self.capacity {
            self.stats.bypasses += 1;
            return BufferOutcome::MissBypassed;
        }

        // Make room, if the policy admits this object.
        while self.used + u64::from(size) > self.capacity {
            let &victim = self.order.iter().next().expect("used > 0 implies entries");
            if self.policy == BufferPolicy::ValueAware && victim.0 >= value {
                // The least valuable resident object is at least as valuable
                // as the newcomer: bypass instead of thrashing (paper §III-E).
                self.stats.bypasses += 1;
                return BufferOutcome::MissBypassed;
            }
            self.evict(victim);
        }

        let priority = match self.policy {
            BufferPolicy::Lru | BufferPolicy::Fifo => (self.tick, id),
            BufferPolicy::ValueAware => (value, id),
        };
        self.entries.insert(id, Entry { size, priority });
        self.order.insert(priority);
        self.used += u64::from(size);
        BufferOutcome::MissFilled
    }

    fn evict(&mut self, victim: (u64, u64)) {
        self.order.remove(&victim);
        let entry = self.entries.remove(&victim.1).expect("order entry without map entry");
        self.used -= u64::from(entry.size);
        self.stats.evictions += 1;
    }

    /// Removes an object (e.g. a freed tree node), if resident.
    pub fn invalidate(&mut self, id: u64) {
        if let Some(entry) = self.entries.remove(&id) {
            self.order.remove(&entry.priority);
            self.used -= u64::from(entry.size);
        }
    }

    /// Returns `true` if the object is currently resident.
    pub fn contains(&self, id: u64) -> bool {
        self.entries.contains_key(&id)
    }

    /// Bytes currently occupied.
    // dcart_lint::allow(U1) -- occupancy probe the property tests bound against capacity
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Clears contents but keeps statistics.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.used = 0;
    }

    /// An eviction storm (fault injection): every resident object is
    /// displaced at once, as if a conflict burst or SEU scrubbing pass wiped
    /// the BRAM. Unlike [`ObjectBuffer::clear`], the displaced objects are
    /// counted as evictions. Returns how many objects were dropped.
    pub fn storm(&mut self) -> u64 {
        let dropped = self.entries.len() as u64;
        self.stats.evictions += dropped;
        self.entries.clear();
        self.order.clear();
        self.used = 0;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_hits_and_eviction_order() {
        let mut buf = ObjectBuffer::new(300, BufferPolicy::Lru);
        assert_eq!(buf.request(1, 100, 0), BufferOutcome::MissFilled);
        assert_eq!(buf.request(2, 100, 0), BufferOutcome::MissFilled);
        assert_eq!(buf.request(3, 100, 0), BufferOutcome::MissFilled);
        assert_eq!(buf.request(1, 100, 0), BufferOutcome::Hit); // refresh 1
        assert_eq!(buf.request(4, 100, 0), BufferOutcome::MissFilled); // evicts 2
        assert!(buf.contains(1));
        assert!(!buf.contains(2));
        assert_eq!(buf.stats().evictions, 1);
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut buf = ObjectBuffer::new(200, BufferPolicy::Fifo);
        buf.request(1, 100, 0);
        buf.request(2, 100, 0);
        buf.request(1, 100, 0); // hit, but FIFO does not refresh
        buf.request(3, 100, 0); // evicts 1 (oldest insertion)
        assert!(!buf.contains(1));
        assert!(buf.contains(2));
        assert!(buf.contains(3));
    }

    #[test]
    fn value_aware_protects_high_value_objects() {
        let mut buf = ObjectBuffer::new(200, BufferPolicy::ValueAware);
        assert_eq!(buf.request(1, 100, 50), BufferOutcome::MissFilled);
        assert_eq!(buf.request(2, 100, 40), BufferOutcome::MissFilled);
        // Value 30 < lowest resident (40): bypassed, nothing evicted.
        assert_eq!(buf.request(3, 100, 30), BufferOutcome::MissBypassed);
        assert!(buf.contains(1) && buf.contains(2));
        // Value 60 > lowest resident (40): evicts object 2.
        assert_eq!(buf.request(4, 100, 60), BufferOutcome::MissFilled);
        assert!(!buf.contains(2));
        assert!(buf.contains(1) && buf.contains(4));
        assert_eq!(buf.stats().bypasses, 1);
        assert_eq!(buf.stats().evictions, 1);
    }

    #[test]
    fn value_aware_ties_bypass() {
        let mut buf = ObjectBuffer::new(100, BufferPolicy::ValueAware);
        buf.request(1, 100, 10);
        // Equal value must not thrash (strictly-greater admission).
        assert_eq!(buf.request(2, 100, 10), BufferOutcome::MissBypassed);
        assert!(buf.contains(1));
    }

    #[test]
    fn oversized_object_always_bypasses() {
        let mut buf = ObjectBuffer::new(100, BufferPolicy::Lru);
        assert_eq!(buf.request(1, 200, 0), BufferOutcome::MissBypassed);
        assert_eq!(buf.used_bytes(), 0);
    }

    #[test]
    fn invalidate_frees_space() {
        let mut buf = ObjectBuffer::new(100, BufferPolicy::Lru);
        buf.request(1, 100, 0);
        buf.invalidate(1);
        assert_eq!(buf.used_bytes(), 0);
        assert_eq!(buf.request(2, 100, 0), BufferOutcome::MissFilled);
    }

    #[test]
    fn storm_drops_everything_and_counts_evictions() {
        let mut buf = ObjectBuffer::new(300, BufferPolicy::ValueAware);
        buf.request(1, 100, 10);
        buf.request(2, 100, 20);
        assert_eq!(buf.storm(), 2);
        assert_eq!(buf.used_bytes(), 0);
        assert!(!buf.contains(1) && !buf.contains(2));
        assert_eq!(buf.stats().evictions, 2);
        // The buffer keeps working after the storm.
        assert_eq!(buf.request(1, 100, 10), BufferOutcome::MissFilled);
        assert_eq!(buf.request(1, 100, 10), BufferOutcome::Hit);
    }

    #[test]
    fn bytes_fetched_counts_all_misses() {
        let mut buf = ObjectBuffer::new(100, BufferPolicy::Lru);
        buf.request(1, 60, 0);
        buf.request(1, 60, 0); // hit: no fetch
        buf.request(2, 60, 0); // miss with eviction
        buf.request(3, 200, 0); // bypass: still fetched from off-chip
        assert_eq!(buf.stats().bytes_fetched, 60 + 60 + 200);
    }

    #[test]
    fn value_aware_survives_scan_floods_where_lru_thrashes() {
        // The §III-E scenario: a hot working set (high value) interleaved
        // with long one-shot scans (low value). LRU evicts the hot set on
        // every flood; value-aware bypasses the flood entirely.
        let run = |policy: BufferPolicy| {
            let mut buf = ObjectBuffer::new(1_000, policy);
            let mut hot_hits = 0u64;
            let mut cold = 10_000u64;
            for round in 0..200 {
                for hot in 0..10u64 {
                    if buf.request(hot, 100, 500) == BufferOutcome::Hit {
                        hot_hits += 1;
                    }
                }
                if round % 4 == 3 {
                    // A burst of one-shot nodes (an irregular traversal).
                    for _ in 0..50 {
                        cold += 1;
                        buf.request(cold, 100, 1);
                    }
                }
            }
            hot_hits
        };
        let lru = run(BufferPolicy::Lru);
        let va = run(BufferPolicy::ValueAware);
        assert!(va > lru, "value-aware {va} must beat LRU {lru} under floods");
        assert!(va > 1900, "hot set stays resident under value-aware: {va}");
    }

    #[test]
    fn hit_ratio_reflects_skew() {
        // A hot object requested many times amid cold one-shot objects.
        let mut buf = ObjectBuffer::new(500, BufferPolicy::Lru);
        for i in 0..100 {
            buf.request(0, 100, 0); // hot
            buf.request(1000 + i, 100, 0); // cold, unique
        }
        assert!(buf.stats().hit_ratio() > 0.45);
    }
}
