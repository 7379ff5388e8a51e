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
        // The resident objects, all of 50 bytes, by id: a full buffer makes
        // room by evicting exactly one, the least valuable by `(value, id)`.
        let mut values: HashMap<u64, u64> = HashMap::new();
        for (id, value) in requests {
            let least = values.iter().map(|(&id, &v)| (v, id)).min();
            let full = (values.len() as u64 + 1) * 50 > capacity;
            let outcome = buf.request(id, 50, value);
            prop_assert_eq!(outcome == BufferOutcome::Hit, values.contains_key(&id));
            match outcome {
                BufferOutcome::Hit => {}
                BufferOutcome::MissFilled => {
                    if full {
                        let (min, victim) = least.expect("a full buffer holds objects");
                        prop_assert!(min < value, "evicted {min} for {value}");
                        values.remove(&victim);
                    }
                    values.insert(id, value);
                }
                BufferOutcome::MissBypassed => {
                    // Bypass only happens when the buffer is full of
                    // at-least-as-valuable objects.
                    prop_assert!(full, "bypass with free space");
                    if let Some((min, _)) = least {
                        prop_assert!(min >= value, "evictable min {min} vs {value}");
                    }
                }
            }
            prop_assert_eq!(buf.used_bytes(), values.len() as u64 * 50);
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

    /// The cache answers every access as a reference per-set LRU does:
    /// each set a recency-ordered list of at most `ways` lines.
    #[test]
    fn cache_matches_reference_lru(addrs in proptest::collection::vec(0u64..1 << 13, 1..500)) {
        let (capacity, ways) = (4 * 1024, 4);
        let sets = capacity / 64 / ways;
        let mut c = SetAssocCache::new(capacity, ways);
        let mut reference = vec![Vec::new(); sets];
        for addr in addrs {
            let line = addr / 64;
            let set: &mut Vec<u64> = &mut reference[(line % sets as u64) as usize];
            let want = match set.iter().position(|&l| l == line) {
                Some(pos) => {
                    set.remove(pos);
                    Access::Hit
                }
                None => {
                    if set.len() == ways {
                        set.remove(0);
                    }
                    Access::Miss
                }
            };
            set.push(line);
            prop_assert_eq!(c.access(addr), want);
        }
    }
}
