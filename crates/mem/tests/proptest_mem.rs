//! Property-based tests for the memory-hierarchy models against reference
//! implementations.

use std::collections::HashMap;

use dcart_mem::{Access, BufferOutcome, BufferPolicy, ObjectBuffer, SetAssocCache};
use proptest::prelude::*;

/// A straightforward reference LRU buffer: a vector kept in recency order.
struct RefLru {
    capacity: u64,
    used: u64,
    /// (id, size), most recent last.
    entries: Vec<(u64, u32)>,
}

impl RefLru {
    fn request(&mut self, id: u64, size: u32) -> bool {
        if let Some(pos) = self.entries.iter().position(|&(e, _)| e == id) {
            let e = self.entries.remove(pos);
            self.entries.push(e);
            return true;
        }
        if u64::from(size) > self.capacity {
            return false;
        }
        while self.used + u64::from(size) > self.capacity {
            let (_, s) = self.entries.remove(0);
            self.used -= u64::from(s);
        }
        self.entries.push((id, size));
        self.used += u64::from(size);
        false
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The LRU ObjectBuffer agrees hit-for-hit with the reference LRU.
    #[test]
    fn lru_buffer_matches_reference(
        requests in proptest::collection::vec((0u64..40, 1u32..200), 1..400),
        capacity in 200u64..1200,
    ) {
        let mut buf = ObjectBuffer::new(capacity, BufferPolicy::Lru);
        let mut reference = RefLru { capacity, used: 0, entries: Vec::new() };
        for (id, size) in requests {
            let got = buf.request(id, size, 0) == BufferOutcome::Hit;
            let want = reference.request(id, size);
            prop_assert_eq!(got, want, "id {} size {}", id, size);
            prop_assert!(buf.used_bytes() <= capacity);
        }
    }

    /// Value-aware never evicts an object for a strictly less valuable one,
    /// and capacity is never exceeded.
    #[test]
    fn value_aware_admission_is_monotone(
        requests in proptest::collection::vec((0u64..60, 1u64..100), 1..300),
        capacity in 200u64..1000,
    ) {
        let mut buf = ObjectBuffer::new(capacity, BufferPolicy::ValueAware);
        let mut values: HashMap<u64, u64> = HashMap::new();
        for (id, value) in requests {
            let before_min = values.values().copied().min();
            let outcome = buf.request(id, 50, value);
            match outcome {
                BufferOutcome::Hit => {
                    prop_assert!(values.contains_key(&id));
                }
                BufferOutcome::MissFilled => {
                    values.insert(id, value);
                }
                BufferOutcome::MissBypassed => {
                    // Bypass only happens when the buffer is full of
                    // at-least-as-valuable objects.
                    if let Some(min) = before_min {
                        prop_assert!(
                            buf.used_bytes() + 50 > capacity,
                            "bypass with free space"
                        );
                        prop_assert!(min >= value, "evictable min {min} vs {value}");
                    }
                }
            }
            // Mirror evictions back into the model.
            values.retain(|&k, _| buf.contains(k));
            prop_assert!(buf.used_bytes() <= capacity);
        }
    }

    /// The set-associative cache never reports more hits than a
    /// fully-associative cache of the same capacity could (Belady-ish sanity:
    /// same-line re-references within associativity distance must hit).
    #[test]
    fn cache_hits_immediate_rereference(addrs in proptest::collection::vec(0u64..1 << 16, 1..200)) {
        let mut c = SetAssocCache::new(64 * 1024, 8);
        for addr in addrs {
            c.access(addr);
            prop_assert_eq!(c.access(addr), Access::Hit, "immediate re-reference");
        }
    }

    /// Cache stats always balance: hits + misses = accesses.
    #[test]
    fn cache_stats_balance(addrs in proptest::collection::vec(0u64..1 << 20, 1..500)) {
        let mut c = SetAssocCache::new(4 * 1024, 4);
        for addr in &addrs {
            c.access(*addr);
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert!(s.evictions <= s.misses);
    }
}
