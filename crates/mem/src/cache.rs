//! A set-associative cache model with LRU replacement.
//!
//! Used by the CPU platform model: the instrumented ART reports the exact
//! byte ranges each traversal touches, and replaying those accesses through
//! this cache yields the hit/miss behaviour behind the paper's Fig. 2(c)
//! observation (fragmented accesses waste most of each 64-byte line).

/// Outcome of a single cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// The line was resident.
    Hit,
    /// The line was fetched from the next level (and possibly evicted one).
    Miss,
}

/// A set-associative cache over 64-byte lines with per-set LRU replacement.
///
/// # Examples
///
/// ```
/// use dcart_mem::{Access, SetAssocCache};
///
/// // 32 KiB, 8-way: a typical L1D.
/// let mut l1 = SetAssocCache::new(32 * 1024, 8);
/// assert_eq!(l1.access(0x1000), Access::Miss);
/// assert_eq!(l1.access(0x1000), Access::Hit);
/// assert_eq!(l1.access(0x1040), Access::Miss); // next line
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]`; `None` = invalid.
    tags: Vec<Option<u64>>,
    /// LRU timestamps, parallel to `tags`.
    stamps: Vec<u64>,
    tick: u64,
}

/// Cache line size in bytes, fixed at 64 as in the paper's analysis.
pub const LINE_BYTES: u64 = 64;

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` total with `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of
    /// `ways * 64` bytes.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let lines = capacity_bytes / LINE_BYTES as usize;
        assert!(
            lines > 0 && lines.is_multiple_of(ways),
            "capacity must be a positive multiple of ways * 64 bytes"
        );
        let sets = lines / ways;
        SetAssocCache { sets, ways, tags: vec![None; lines], stamps: vec![0; lines], tick: 0 }
    }

    /// Accesses the line containing byte address `addr`.
    pub fn access(&mut self, addr: u64) -> Access {
        let line = addr / LINE_BYTES;
        let set = (line % self.sets as u64) as usize;
        let tag = line / self.sets as u64;
        self.tick += 1;
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(way) = slots.iter().position(|t| *t == Some(tag)) {
            self.stamps[base + way] = self.tick;
            return Access::Hit;
        }
        // Fill an invalid way, or evict the LRU way.
        let way = match slots.iter().position(Option::is_none) {
            Some(way) => way,
            None => {
                let (way, _) = self.stamps[base..base + self.ways]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| **s)
                    .expect("ways > 0");
                way
            }
        };
        self.tags[base + way] = Some(tag);
        self.stamps[base + way] = self.tick;
        Access::Miss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(4096, 4);
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.access(8), Access::Hit, "same line");
        assert_eq!(c.access(64), Access::Miss, "next line");
        assert_eq!(c.access(72), Access::Hit, "both lines stay resident");
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set of 2 ways: capacity 128 B.
        let mut c = SetAssocCache::new(128, 2);
        c.access(0); // A
        c.access(64); // B — same set (only one set)
        c.access(0); // A hit, refreshes A
        assert_eq!(c.access(128), Access::Miss); // C evicts B (LRU)
        assert_eq!(c.access(0), Access::Hit, "A survived");
        assert_eq!(c.access(64), Access::Miss, "B was evicted");
        assert_eq!(c.access(128), Access::Miss, "B's refill evicted C");
    }

    #[test]
    fn sets_isolate_conflicts() {
        // 2 sets × 1 way.
        let mut c = SetAssocCache::new(128, 1);
        c.access(0); // set 0
        c.access(64); // set 1
        assert_eq!(c.access(0), Access::Hit);
        assert_eq!(c.access(64), Access::Hit);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = SetAssocCache::new(1024, 4); // 16 lines
        for round in 0..4 {
            for line in 0..64u64 {
                let miss = c.access(line * 64) == Access::Miss;
                if round > 0 {
                    assert!(miss, "64-line working set cannot fit 16 lines");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bad_geometry_rejected() {
        let _ = SetAssocCache::new(100, 3);
    }
}
