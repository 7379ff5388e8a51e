//! The shortcut table (paper §III-C).
//!
//! A hash table mapping a key to the addresses of its target node and the
//! target's parent: `<Key_ID, Address_Target_Node, Address_Parent_Node>`.
//! Frequently traversed keys resolve through the table in one probe,
//! skipping the top-down traversal entirely.
//!
//! Entries are validated against the live tree on use: our arena keeps node
//! ids stable across in-place layout changes (N4 → N16), so — exactly as
//! the paper requires — an entry only becomes stale when the target node is
//! *replaced* (path split, merge, removal), which validation detects by
//! checking that the cached address still holds a leaf with the expected
//! key.

use crate::ctt::key_id;
use crate::fxhash::FxHashSet;

use dcart_art::{Art, Key, NodeId};
use serde::{Deserialize, Serialize};

/// One shortcut entry: the resolved target and its parent.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ShortcutEntry {
    /// Address (arena id) of the target node — the leaf for point ops.
    pub target: NodeId,
    /// Address of the target's parent inner node, if any.
    pub parent: Option<NodeId>,
}

/// Approximate size of one entry in the off-chip table, for buffer and
/// bandwidth modelling: key id + two 8-byte addresses.
pub const ENTRY_BYTES: u32 = 24;

/// Hash buckets of the off-chip Shortcut_Table. Two SOUs generating
/// entries into the same bucket within a batch must synchronize — the
/// executor counts those cross-SOU collisions as DCART's residual
/// contention source (Fig. 7).
pub(crate) const HASH_BUCKETS: u64 = 1 << 16;

/// The off-chip table's hash bucket for a Key_ID (used by the executor's
/// collision accounting; sub-shards of one combining bucket share the SOU
/// and therefore never collide with each other).
pub(crate) fn hash_bucket(key_id: u64) -> u32 {
    (key_id % HASH_BUCKETS) as u32
}

/// Hit/miss statistics of a [`ShortcutTable`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ShortcutStats {
    /// Probes that returned a valid entry.
    pub hits: u64,
    /// Probes that found nothing (or a stale entry).
    pub misses: u64,
    /// Entries invalidated because validation found them stale.
    pub stale_invalidations: u64,
    /// Entries written (generated after traversals).
    pub generated: u64,
    /// Entries updated in place after a node change.
    pub updated: u64,
    /// Entries corrupted by fault injection ([`ShortcutTable::corrupt`]).
    pub corruptions_injected: u64,
    /// Probes that caught a corrupted entry during validation and fell
    /// back to a full root-to-leaf traversal.
    pub corruption_fallbacks: u64,
    /// Node loads the Traverse stage actually performed. Under level-wise
    /// traversal each `(node, wave)` group is loaded once, so this falls
    /// below [`ops_advanced`](Self::ops_advanced) in proportion to wave
    /// sharing; under per-op traversal the two are equal.
    pub nodes_visited: u64,
    /// Op-level advancement steps of the Traverse stage: the sum of every
    /// traversing operation's path length, independent of traversal mode.
    /// `ops_advanced / nodes_visited` is the level-wise reuse factor.
    pub ops_advanced: u64,
}

impl ShortcutStats {
    /// Adds `other`'s counters into `self`.
    ///
    /// The parallel executor shards the shortcut table per combining bucket
    /// (each SOU owns its prefix-disjoint key range, so probes never cross
    /// shards); run-level statistics are the shard sums, accumulated in
    /// bucket order.
    pub fn accumulate(&mut self, other: &ShortcutStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.stale_invalidations += other.stale_invalidations;
        self.generated += other.generated;
        self.updated += other.updated;
        self.corruptions_injected += other.corruptions_injected;
        self.corruption_fallbacks += other.corruption_fallbacks;
        self.nodes_visited += other.nodes_visited;
        self.ops_advanced += other.ops_advanced;
    }
}

/// One slot of the host-side table: half a cache line, aligned so that no
/// slot straddles two. The key is stored inline (`dcart_art::Key` is 24
/// bytes), the parent as a [`NodeId`] whose null sentinel means "none".
#[derive(Clone, Debug)]
#[repr(align(32))]
struct Slot {
    key: Key,
    target: NodeId,
    parent: NodeId,
}

impl Slot {
    fn entry(&self) -> ShortcutEntry {
        let parent = (self.parent != NodeId::default()).then_some(self.parent);
        ShortcutEntry { target: self.target, parent }
    }
}

/// Smallest slot array; always a power of two.
const MIN_SLOTS: usize = 16;

/// Fibonacci multiplier (2^64 / φ): spreads the FNV Key_ID so that the
/// *high* bits of the product, which index the slot array, depend on every
/// bit of the id.
const SPREAD: u64 = 0x9e37_79b9_7f4a_7c15;

/// The shortcut hash table.
///
/// Lives in off-chip memory in the hardware design (with hot entries cached
/// in the 128 KB Shortcut buffer); this structure is the functional table,
/// while the accelerator model charges the buffer/memory costs
/// ([`ENTRY_BYTES`], `HASH_BUCKETS`) independently of how the host lays its
/// own copy out.
///
/// On the host it is one open-addressed array of 32-byte slots: linear
/// probing from a multiplicative spread of the key's Key_ID
/// ([`key_id`](crate::key_id)), backward-shift deletion (no tombstones),
/// load factor at most ¾, power-of-two growth. A probe reads one cache
/// line unless its run crosses into the next.
///
/// # Examples
///
/// ```
/// use dcart::ShortcutTable;
/// use dcart_art::{Art, Key, NoopTracer};
///
/// let mut art = Art::new();
/// art.insert(Key::from_u64(7), "seven")?;
/// let (leaf, parent) = art.locate_leaf(&Key::from_u64(7), &mut NoopTracer).unwrap();
///
/// let mut table = ShortcutTable::new();
/// table.generate(Key::from_u64(7), leaf, parent);
/// let entry = table.probe(&Key::from_u64(7), &art).expect("valid shortcut");
/// assert_eq!(art.read_leaf(entry.target, &Key::from_u64(7)), Some(&"seven"));
/// # Ok::<(), dcart_art::ArtError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ShortcutTable {
    /// Power-of-two length, never full: every probe run ends at a `None`.
    slots: Vec<Option<Slot>>,
    len: usize,
    /// Entries poisoned by fault injection: validation must fail on their
    /// next probe regardless of what the tree says.
    poisoned: FxHashSet<Key>,
    stats: ShortcutStats,
}

impl Default for ShortcutTable {
    fn default() -> Self {
        ShortcutTable {
            slots: vec![None; MIN_SLOTS],
            len: 0,
            poisoned: FxHashSet::default(),
            stats: ShortcutStats::default(),
        }
    }
}

impl ShortcutTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> ShortcutStats {
        self.stats
    }

    /// The slot a Key_ID's probe run starts at.
    fn home(&self, key_id: u64) -> usize {
        (key_id.wrapping_mul(SPREAD) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Walks `key`'s probe run to the slot holding it, or to the empty slot
    /// that ends the run.
    fn find(&self, key_id: u64, key: &Key) -> Option<(usize, &Slot)> {
        let mask = self.slots.len() - 1;
        let mut at = self.home(key_id);
        loop {
            match &self.slots[at] {
                None => return None,
                Some(slot) if slot.key == *key => return Some((at, slot)),
                Some(_) => at = (at + 1) & mask,
            }
        }
    }

    /// Empties slot `hole` and closes the gap: every later entry of the
    /// run whose home lies at or before the hole shifts back into it, so
    /// no probe run is ever cut short and no tombstone is left behind.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        self.slots[hole] = None;
        self.len -= 1;
        let mut at = (hole + 1) & mask;
        while let Some(slot) = &self.slots[at] {
            let from_home = at.wrapping_sub(self.home(key_id(&slot.key))) & mask;
            if from_home >= (at.wrapping_sub(hole) & mask) {
                self.slots.swap(hole, at);
                hole = at;
            }
            at = (at + 1) & mask;
        }
    }

    /// Stores an entry whose key the table does not hold, doubling the
    /// slot array first if it would pass ¾ full.
    fn insert_new(&mut self, slot: Slot) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let doubled = vec![None; self.slots.len() * 2];
            let old = std::mem::replace(&mut self.slots, doubled);
            self.len = 0;
            old.into_iter().flatten().for_each(|slot| self.insert_new(slot));
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(key_id(&slot.key));
        while self.slots[at].is_some() {
            at = (at + 1) & mask;
        }
        self.slots[at] = Some(slot);
        self.len += 1;
    }

    /// Hints that `key_id`'s home slot will be probed soon. Changes no
    /// state; a no-op where the target has no prefetch instruction.
    #[inline]
    pub fn prefetch(&self, key_id: u64) {
        dcart_art::simd::prefetch(&self.slots[self.home(key_id)]);
    }

    /// The cached target for `key`, unvalidated: reads no tree, counts
    /// nothing, removes nothing. For lookahead — prefetch the target ahead
    /// of the [`probe`](Self::probe) that will validate it.
    #[inline]
    pub fn peek(&self, key_id: u64, key: &Key) -> Option<NodeId> {
        self.find(key_id, key).map(|(_, slot)| slot.target)
    }

    /// Probes for `key`, validating the cached target against `tree`.
    ///
    /// A stale entry (the target address no longer holds a leaf with this
    /// key) is removed and reported as a miss — exactly what the hardware's
    /// validation step does.
    pub fn probe<V>(&mut self, key: &Key, tree: &Art<V>) -> Option<ShortcutEntry> {
        let Some((at, slot)) = self.find(key_id(key), key) else {
            self.stats.misses += 1;
            return None;
        };
        let entry = slot.entry();
        if !self.poisoned.is_empty() && self.poisoned.remove(key) {
            // A corrupted entry never validates: drop it and fall back to
            // the root traversal (the same slow-but-correct path a
            // naturally stale entry takes).
            self.remove_at(at);
            self.stats.corruption_fallbacks += 1;
            self.stats.stale_invalidations += 1;
            self.stats.misses += 1;
            None
        } else if tree.read_leaf(entry.target, key).is_some() {
            self.stats.hits += 1;
            Some(entry)
        } else {
            self.remove_at(at);
            self.stats.stale_invalidations += 1;
            self.stats.misses += 1;
            None
        }
    }

    /// Fault injection: corrupts the entry for `key` (models a bit flip in
    /// the off-chip table or forced staleness). The entry stays present but
    /// its next probe fails validation and falls back to a full traversal.
    /// Returns `true` if an entry existed to corrupt.
    pub fn corrupt(&mut self, key: &Key) -> bool {
        if self.find(key_id(key), key).is_some() && self.poisoned.insert(key.clone()) {
            self.stats.corruptions_injected += 1;
            true
        } else {
            false
        }
    }

    /// Records the result of a traversal as a new shortcut
    /// (the Generate_Shortcut stage).
    pub fn generate(&mut self, key: Key, target: NodeId, parent: Option<NodeId>) {
        let slot = Slot { key, target, parent: parent.unwrap_or_default() };
        if let Some((at, _)) = self.find(key_id(&slot.key), &slot.key) {
            self.slots[at] = Some(slot);
            self.stats.updated += 1;
        } else {
            self.insert_new(slot);
            self.stats.generated += 1;
        }
    }

    /// Drops the entry for `key`, if any (e.g. after a remove).
    pub fn invalidate(&mut self, key: &Key) {
        if let Some((at, _)) = self.find(key_id(key), key) {
            self.remove_at(at);
        }
        if !self.poisoned.is_empty() {
            self.poisoned.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(keys: &[u64]) -> Art<u64> {
        let mut art = Art::new();
        for &k in keys {
            art.insert(Key::from_u64(k), k).unwrap();
        }
        art
    }

    #[test]
    fn probe_miss_then_hit() {
        let art = tree_with(&[1, 2, 3]);
        let key = Key::from_u64(2);
        let mut table = ShortcutTable::new();
        assert_eq!(table.probe(&key, &art), None);
        let (leaf, parent) = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        table.generate(key.clone(), leaf, parent);
        let entry = table.probe(&key, &art).expect("hit after generate");
        assert_eq!(entry.target, leaf);
        assert_eq!(table.stats().hits, 1);
        assert_eq!(table.stats().misses, 1);
    }

    #[test]
    fn stale_entry_detected_after_removal() {
        let mut art = tree_with(&[10, 11]);
        let key = Key::from_u64(10);
        let (leaf, parent) = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key.clone(), leaf, parent);
        art.remove(&key);
        assert_eq!(table.probe(&key, &art), None, "stale shortcut must miss");
        assert_eq!(table.stats().stale_invalidations, 1);
        assert!(table.is_empty());
    }

    #[test]
    fn reused_arena_slot_fails_validation() {
        let mut art = tree_with(&[20, 21]);
        let key = Key::from_u64(20);
        let (leaf, parent) = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key.clone(), leaf, parent);
        art.remove(&key);
        // The freed slot is reused by a different key's leaf.
        art.insert(Key::from_u64(999), 999).unwrap();
        assert_eq!(table.probe(&key, &art), None, "reused slot holds the wrong key");
    }

    #[test]
    fn entry_survives_parent_type_change() {
        // Growing the parent N4 → N16 keeps ids stable in the arena, so
        // the shortcut stays valid — the paper's update-on-type-change is
        // structurally unnecessary here (documented behaviour).
        let mut art = Art::new();
        for b in 0..4u64 {
            art.insert(Key::from_u64(b << 8 | 1), b).unwrap();
        }
        let key = Key::from_u64(1 << 8 | 1);
        let (leaf, parent) = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key.clone(), leaf, parent);
        for b in 4..20u64 {
            art.insert(Key::from_u64(b << 8 | 1), b).unwrap(); // grows the node
        }
        assert!(table.probe(&key, &art).is_some());
    }

    #[test]
    fn corrupted_entry_fails_validation_and_falls_back() {
        let art = tree_with(&[30, 31]);
        let key = Key::from_u64(30);
        let (leaf, parent) = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key.clone(), leaf, parent);
        assert!(table.corrupt(&key));
        // The poisoned probe must NOT return the (still structurally valid)
        // entry — it must force the fallback traversal.
        assert_eq!(table.probe(&key, &art), None);
        let s = table.stats();
        assert_eq!(s.corruptions_injected, 1);
        assert_eq!(s.corruption_fallbacks, 1);
        assert_eq!(s.stale_invalidations, 1);
        // Regenerating afterwards works and probes cleanly again.
        table.generate(key.clone(), leaf, parent);
        assert!(table.probe(&key, &art).is_some());
    }

    #[test]
    fn corrupt_without_entry_is_a_noop() {
        let mut table = ShortcutTable::new();
        assert!(!table.corrupt(&Key::from_u64(1)));
        assert_eq!(table.stats().corruptions_injected, 0);
    }

    #[test]
    fn invalidate_clears_poison() {
        let art = tree_with(&[40]);
        let key = Key::from_u64(40);
        let (leaf, parent) = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key.clone(), leaf, parent);
        table.corrupt(&key);
        table.invalidate(&key);
        // A fresh entry for the same key is not tainted by old poison.
        table.generate(key.clone(), leaf, parent);
        assert!(table.probe(&key, &art).is_some());
        assert_eq!(table.stats().corruption_fallbacks, 0);
    }

    #[test]
    fn a_slot_is_half_an_aligned_cache_line() {
        assert_eq!(std::mem::size_of::<Option<Slot>>(), 32);
        assert_eq!(std::mem::align_of::<Option<Slot>>(), 32);
    }

    /// `count` distinct keys whose probe runs start at `home` in `table`.
    fn keys_homed_at(table: &ShortcutTable, home: usize, count: usize) -> Vec<Key> {
        (0u64..).map(Key::from_u64).filter(|k| table.home(key_id(k)) == home).take(count).collect()
    }

    /// Every entry must be reachable from its own home slot.
    fn assert_all_reachable(table: &ShortcutTable) {
        let live: Vec<(usize, &Slot)> =
            table.slots.iter().enumerate().filter_map(|(at, s)| Some((at, s.as_ref()?))).collect();
        assert_eq!(live.len(), table.len());
        for (at, slot) in live {
            let found = table.find(key_id(&slot.key), &slot.key).map(|(found_at, _)| found_at);
            assert_eq!(found, Some(at), "{:?} is cut off from its home slot", slot.key);
        }
    }

    #[test]
    fn a_probe_run_wraps_around_and_closes_up_after_removal() {
        let mut table = ShortcutTable::new();
        let last = MIN_SLOTS - 1;
        // Three keys homed at the last slot occupy `last`, 0 and 1; one
        // homed at slot 0 is pushed on to slot 2.
        let mut keys = keys_homed_at(&table, last, 3);
        keys.extend(keys_homed_at(&table, 0, 1));
        for (i, key) in keys.iter().enumerate() {
            table.generate(key.clone(), NodeId::from_index(i as u32), None);
        }
        let occupied = |t: &ShortcutTable| -> Vec<usize> {
            (0..MIN_SLOTS).filter(|&at| t.slots[at].is_some()).collect()
        };
        assert_eq!(occupied(&table), vec![0, 1, 2, last]);

        // Removing the head of the run shifts every follower back by one,
        // across the wrap, including the key homed at 0.
        table.invalidate(&keys[0]);
        assert_eq!(occupied(&table), vec![0, 1, last]);
        assert_eq!(table.len(), 3);
        assert_eq!(table.peek(key_id(&keys[0]), &keys[0]), None);
        for (i, key) in keys.iter().enumerate().skip(1) {
            assert_eq!(table.peek(key_id(key), key), Some(NodeId::from_index(i as u32)));
        }
        assert_all_reachable(&table);

        // An entry sitting at its home slot is never pulled in front of
        // it: once the run has shrunk to `last` (homed there) and 0 (homed
        // at 0), emptying `last` leaves slot 0 alone.
        table.invalidate(&keys[1]);
        assert_eq!(occupied(&table), vec![0, last]);
        table.invalidate(&keys[2]);
        assert_eq!(occupied(&table), vec![0]);
        assert_eq!(table.peek(key_id(&keys[3]), &keys[3]), Some(NodeId::from_index(3)));
    }

    #[test]
    fn growth_keeps_every_entry_and_the_load_bound() {
        let mut table = ShortcutTable::new();
        for i in 0..1000u64 {
            table.generate(Key::from_u64(i), NodeId::from_index(i as u32), None);
            assert!(table.slots.len().is_power_of_two());
            assert!(table.len() * 4 <= table.slots.len() * 3, "load factor above 3/4");
        }
        assert_eq!(table.len(), 1000);
        assert_eq!(table.stats().generated, 1000);
        assert_all_reachable(&table);
        // Interleaved removals keep every survivor reachable.
        for i in (0..1000u64).step_by(3) {
            table.invalidate(&Key::from_u64(i));
        }
        assert_all_reachable(&table);
        for i in 0..1000u64 {
            let key = Key::from_u64(i);
            let want = (i % 3 != 0).then(|| NodeId::from_index(i as u32));
            assert_eq!(table.peek(key_id(&key), &key), want);
        }
    }

    #[test]
    fn peek_and_prefetch_change_nothing() {
        let art = tree_with(&[50, 51]);
        let key = Key::from_u64(50);
        let (leaf, parent) = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key.clone(), leaf, parent);
        table.corrupt(&key);
        let before = table.stats();
        table.prefetch(key_id(&key));
        // Unvalidated: even a poisoned entry is still reported.
        assert_eq!(table.peek(key_id(&key), &key), Some(leaf));
        assert_eq!(table.peek(key_id(&Key::from_u64(51)), &Key::from_u64(51)), None);
        assert_eq!(table.stats(), before);
        assert_eq!(table.len(), 1);
        assert_eq!(table.probe(&key, &art), None, "the poison is still in place");
    }

    #[test]
    fn a_parentless_entry_round_trips() {
        let mut art = Art::new();
        art.insert(Key::from_u64(9), 9u64).unwrap();
        let key = Key::from_u64(9);
        let (leaf, parent) = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        assert_eq!(parent, None, "a single-key tree is a root leaf");
        let mut table = ShortcutTable::new();
        table.generate(key.clone(), leaf, parent);
        assert_eq!(table.probe(&key, &art), Some(ShortcutEntry { target: leaf, parent: None }));
    }

    #[test]
    fn accumulate_sums_every_counter() {
        let a = ShortcutStats {
            hits: 1,
            misses: 2,
            stale_invalidations: 3,
            generated: 4,
            updated: 5,
            corruptions_injected: 6,
            corruption_fallbacks: 7,
            nodes_visited: 8,
            ops_advanced: 9,
        };
        let mut total = a;
        total.accumulate(&a);
        assert_eq!(
            total,
            ShortcutStats {
                hits: 2,
                misses: 4,
                stale_invalidations: 6,
                generated: 8,
                updated: 10,
                corruptions_injected: 12,
                corruption_fallbacks: 14,
                nodes_visited: 16,
                ops_advanced: 18,
            }
        );
    }

    #[test]
    fn generate_twice_counts_update() {
        let art = tree_with(&[5]);
        let key = Key::from_u64(5);
        let (leaf, parent) = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key.clone(), leaf, parent);
        table.generate(key.clone(), leaf, parent);
        assert_eq!(table.stats().generated, 1);
        assert_eq!(table.stats().updated, 1);
        assert_eq!(table.len(), 1);
    }
}
