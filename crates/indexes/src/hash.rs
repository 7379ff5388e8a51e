//! A chained hash index — the paper's other related-work family (§V):
//! "flat data structures that support fast point access within constant
//! lookup time complexity, i.e., O(1). However, because hash tables
//! scatter the keys randomly, they are unable to support range queries
//! efficiently."
//!
//! The type deliberately exposes **no range method**: the absence is the
//! §V point, made at the API level. What it does expose is the same
//! instrumentation as [`BPlusTree`](crate::BPlusTree), so point-op costs
//! and rehashing write amplification are comparable.

use dcart_art::Key;

use crate::WriteStats;

/// An instrumented chained hash index over [`Key`]s.
///
/// # Examples
///
/// ```
/// use dcart_art::Key;
/// use dcart_indexes::HashIndex;
///
/// let mut h = HashIndex::new();
/// h.insert(Key::from_u64(7), "seven");
/// assert_eq!(h.get(&Key::from_u64(7)), Some(&"seven"));
/// assert_eq!(h.get(&Key::from_u64(8)), None);
/// ```
#[derive(Debug)]
pub struct HashIndex<V> {
    buckets: Vec<Vec<(Key, V)>>,
    len: usize,
    stats: WriteStats,
}

/// The hash of the hardware's Key_ID path (`dcart::key_id`, which is
/// `dcart_engine::wal::checksum` over the key bytes): FNV-1a-shaped, but
/// multiplying by 2^44 + 0x1b3, not FNV-64's prime 2^40 + 0x1b3. A copy,
/// because this crate does not depend on `dcart-engine`.
fn hash(key: &Key) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn entry_bytes(key: &Key) -> u64 {
    key.len() as u64 + 8
}

impl<V> Default for HashIndex<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> HashIndex<V> {
    /// Creates an empty index.
    pub fn new() -> Self {
        HashIndex {
            buckets: (0..16).map(|_| Vec::new()).collect(),
            len: 0,
            stats: WriteStats::default(),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The accumulated instrumentation counters.
    pub fn stats(&self) -> WriteStats {
        self.stats
    }

    /// Total modelled memory footprint in bytes.
    pub fn memory_footprint(&self) -> u64 {
        self.buckets.len() as u64 * 8
            + self.buckets.iter().flatten().map(|(k, _)| entry_bytes(k)).sum::<u64>()
    }

    fn bucket_of(&self, key: &Key) -> usize {
        (hash(key) % self.buckets.len() as u64) as usize
    }

    /// Looks up `key`.
    pub fn get(&mut self, key: &Key) -> Option<&V> {
        self.stats.node_accesses += 1;
        let b = self.bucket_of(key);
        let bucket = &self.buckets[b];
        let pos = bucket.iter().position(|(k, _)| k == key)?;
        self.stats.comparisons += pos as u64 + 1;
        Some(&self.buckets[b][pos].1)
    }

    /// Inserts `key` → `value`, returning the previous value if present.
    pub fn insert(&mut self, key: Key, value: V) -> Option<V> {
        self.stats.bytes_logical += entry_bytes(&key);
        self.stats.node_accesses += 1;
        let b = self.bucket_of(&key);
        if let Some(slot) = self.buckets[b].iter_mut().find(|(k, _)| *k == key) {
            self.stats.bytes_written += 8;
            return Some(std::mem::replace(&mut slot.1, value));
        }
        self.stats.bytes_written += entry_bytes(&key);
        self.buckets[b].push((key, value));
        self.len += 1;
        if self.len > self.buckets.len() * 2 {
            self.grow();
        }
        None
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &Key) -> Option<V> {
        self.stats.node_accesses += 1;
        let b = self.bucket_of(key);
        let pos = self.buckets[b].iter().position(|(k, _)| k == key)?;
        self.len -= 1;
        Some(self.buckets[b].swap_remove(pos).1)
    }

    /// Doubles the bucket array and rehashes everything — the hash index's
    /// write-amplification event.
    fn grow(&mut self) {
        let new_size = self.buckets.len() * 2;
        let fresh: Vec<Vec<(Key, V)>> = (0..new_size).map(|_| Vec::new()).collect();
        let old: Vec<Vec<(Key, V)>> = std::mem::replace(&mut self.buckets, fresh);
        for bucket in old {
            for (key, value) in bucket {
                self.stats.bytes_written += entry_bytes(&key);
                let b = (hash(&key) % new_size as u64) as usize;
                self.buckets[b].push((key, value));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: u64) -> Key {
        Key::from_u64(v)
    }

    #[test]
    fn roundtrip_with_growth() {
        let mut h = HashIndex::new();
        for v in 0..10_000u64 {
            assert_eq!(h.insert(k(v), v), None);
        }
        assert_eq!(h.len(), 10_000);
        // 16 bytes per entry plus 8 per bucket: the table grew past 5,000.
        let buckets = (h.memory_footprint() - 10_000 * 16) / 8;
        assert!(buckets >= 5_000, "table grew: {buckets}");
        for v in (0..10_000u64).step_by(17) {
            assert_eq!(h.get(&k(v)), Some(&v));
        }
        assert_eq!(h.get(&k(10_001)), None);
    }

    #[test]
    fn insert_replaces_and_remove_works() {
        let mut h = HashIndex::new();
        assert_eq!(h.insert(k(5), 1), None);
        assert_eq!(h.insert(k(5), 2), Some(1));
        assert_eq!(h.remove(&k(5)), Some(2));
        assert_eq!(h.remove(&k(5)), None);
        assert!(h.is_empty());
    }

    #[test]
    fn rehashing_amplifies_writes() {
        let mut h = HashIndex::new();
        for v in 0..50_000u64 {
            h.insert(k(v), v);
        }
        // Each doubling rewrites the whole table: amplification > 1.
        let amp = h.stats().amplification();
        assert!(amp > 1.5, "hash rehash amplification {amp}");
    }

    #[test]
    fn point_lookups_are_constant_accesses() {
        let mut h = HashIndex::new();
        for v in 0..20_000u64 {
            h.insert(k(v), v);
        }
        let before = h.stats().node_accesses;
        for v in 0..1_000u64 {
            h.get(&k(v));
        }
        let per_lookup = (h.stats().node_accesses - before) as f64 / 1_000.0;
        assert!((per_lookup - 1.0).abs() < 1e-9, "O(1) accesses: {per_lookup}");
    }
}
