//! SMART-style path cache.
//!
//! SMART (Luo et al., OSDI'23) avoids repeated upper-level traversals by
//! caching search paths keyed by key prefix; in its disaggregated setting
//! the cache lives on the compute side. In the paper's shared-memory port
//! (and ours) the same mechanism caches the node reached after the first
//! levels of the tree for recently seen key prefixes, letting hot
//! operations skip those levels — which is why SMART performs fewer node
//! visits and partial-key matches than plain ART (Fig. 2(b), Fig. 8).

use std::collections::BTreeMap;

use dcart_art::Key;

/// An LRU cache from key prefix to traversal resume depth.
#[derive(Debug)]
pub struct PathCache {
    /// Prefix bytes used as the cache key.
    prefix_len: usize,
    /// How many leading node visits a hit skips.
    skip_depth: usize,
    capacity: usize,
    entries: BTreeMap<Vec<u8>, u64>,
    tick: u64,
}

impl PathCache {
    /// Creates a path cache over `prefix_len`-byte prefixes that skips
    /// `skip_depth` node visits on a hit, holding up to `capacity` paths.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(prefix_len: usize, skip_depth: usize, capacity: usize) -> Self {
        assert!(prefix_len > 0 && skip_depth > 0 && capacity > 0);
        PathCache { prefix_len, skip_depth, capacity, entries: BTreeMap::new(), tick: 0 }
    }

    /// Looks up `key`'s prefix; returns how many leading visits of a
    /// `depth`-node traversal can be skipped (0 on a miss), and records the
    /// path for future operations.
    pub fn lookup(&mut self, key: &Key, depth: usize) -> usize {
        self.tick += 1;
        let bytes = key.as_bytes();
        let plen = self.prefix_len.min(bytes.len());
        let prefix = bytes[..plen].to_vec();
        let hit = self.entries.contains_key(&prefix);
        if hit {
            self.entries.insert(prefix, self.tick);
            // Never skip the leaf itself: the final node must be fetched.
            self.skip_depth.min(depth.saturating_sub(1))
        } else {
            if self.entries.len() >= self.capacity {
                // Evict the least recently used prefix.
                if let Some(victim) =
                    self.entries.iter().min_by_key(|(_, &t)| t).map(|(k, _)| k.clone())
                {
                    self.entries.remove(&victim);
                }
            }
            self.entries.insert(prefix, self.tick);
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_hits() {
        let mut pc = PathCache::new(2, 2, 16);
        let k = Key::from_u64(0xAABB_0000_0000_0001);
        assert_eq!(pc.lookup(&k, 6), 0);
        let k2 = Key::from_u64(0xAABB_0000_0000_0002); // same 2-byte prefix
        assert_eq!(pc.lookup(&k2, 6), 2);
    }

    #[test]
    fn never_skips_the_leaf() {
        let mut pc = PathCache::new(1, 4, 16);
        let k = Key::from_u64(1);
        pc.lookup(&k, 5);
        assert_eq!(pc.lookup(&k, 2), 1, "a 2-node path keeps its leaf visit");
        assert_eq!(pc.lookup(&k, 1), 0);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut pc = PathCache::new(8, 2, 2);
        let a = Key::from_u64(0x0100_0000_0000_0000);
        let b = Key::from_u64(0x0200_0000_0000_0000);
        let c = Key::from_u64(0x0300_0000_0000_0000);
        pc.lookup(&a, 5);
        pc.lookup(&b, 5);
        pc.lookup(&a, 5); // refresh a
        pc.lookup(&c, 5); // evicts b (LRU)
        assert_eq!(pc.lookup(&b, 5), 0, "b was evicted"); // re-inserts b, evicts a
        assert!(pc.lookup(&c, 5) > 0, "c survived");
        assert_eq!(pc.lookup(&a, 5), 0, "a was displaced by b's reinsertion");
    }
}
