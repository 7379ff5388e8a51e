//! The shortcut table (paper §III-C).
//!
//! The paper's table maps a Key_ID to the addresses of its target node and
//! the target's parent: `<Key_ID, Address_Target_Node, Address_Parent_Node>`.
//! Frequently traversed keys resolve through the table in one probe,
//! skipping the top-down traversal entirely.
//!
//! The hardware needs the parent to patch an entry when the parent changes
//! node type. Our arena keeps node ids stable across in-place layout
//! changes (N4 → N16), so the host table keeps only `<Key_ID, target>`,
//! while the accelerator model still charges the paper's full entry
//! ([`ENTRY_BYTES`]). An entry only becomes stale when the target node is
//! *replaced* (path split, merge, removal), which validation on use
//! detects by checking that the cached address still holds a leaf with the
//! expected key. The same check keeps two keys that share a Key_ID, and so
//! share an entry, from answering for each other.

use std::num::NonZeroU32;

use dcart_art::{Art, Key, NodeId};
use serde::Serialize;

/// Approximate size of one entry in the off-chip table, for buffer and
/// bandwidth modelling: the paper's `<Key_ID, target, parent>`, a key id
/// and two 8-byte addresses.
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
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize)]
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
    /// Node loads the Traverse stage performed. Every traversal loads
    /// each node on its own path, so this equals
    /// [`ops_advanced`](Self::ops_advanced) in either traversal mode.
    pub nodes_visited: u64,
    /// Op-level advancement steps of the Traverse stage: the sum of every
    /// traversing operation's path length, independent of traversal mode.
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

/// One slot of the host-side table, `<Key_ID, target>` in 16 bytes: four
/// to a cache line, aligned so that no slot straddles two. The target is
/// stored as its arena index plus one, whose zero is the niche that marks
/// an empty `Option<Slot>`. `poisoned` marks an entry that fault injection
/// corrupted ([`ShortcutTable::corrupt`]): its next probe must fail
/// validation whatever the tree says.
#[derive(Clone, Debug)]
#[repr(align(16))]
struct Slot {
    kid: u64,
    target: NonZeroU32,
    poisoned: bool,
}

impl Slot {
    fn target(&self) -> NodeId {
        NodeId::from_index(self.target.get() - 1)
    }
}

/// Smallest slot array; always a power of two.
const MIN_SLOTS: usize = 16;

/// Fibonacci multiplier (2^64 / φ): spreads the Key_ID so that the
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
/// On the host it is one open-addressed array of 16-byte
/// `<Key_ID, target>` slots: linear probing from a multiplicative
/// spread of the Key_ID ([`key_id`](crate::key_id)), backward-shift
/// deletion (no tombstones), load factor at most ¾, power-of-two growth.
/// A probe reads one cache line unless its run crosses into the next.
///
/// Entries are keyed by Key_ID alone, as in the hardware's table: two keys
/// with one Key_ID share an entry. Only [`probe`](Self::probe) takes the
/// key, to validate the entry against the tree, so neither key is ever
/// answered through the other's target; its Key_ID must be
/// [`key_id`](crate::key_id) of that key (debug builds assert it).
///
/// # Examples
///
/// ```
/// use dcart::{key_id, ShortcutTable};
/// use dcart_art::{Art, Key, NoopTracer};
///
/// let mut art = Art::new();
/// let key = Key::from_u64(7);
/// art.insert(key.clone(), "seven")?;
/// let leaf = art.locate_leaf(&key, &mut NoopTracer).unwrap();
///
/// let mut table = ShortcutTable::new();
/// let id = key_id(&key);
/// table.generate(id, leaf);
/// let target = table.probe(id, &key, &art).0.expect("valid shortcut");
/// assert_eq!(art.read_leaf(target, &key), Some(&"seven"));
/// # Ok::<(), dcart_art::ArtError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ShortcutTable {
    /// Power-of-two length, never full: every probe run ends at a `None`.
    slots: Vec<Option<Slot>>,
    len: usize,
    stats: ShortcutStats,
}

impl Default for ShortcutTable {
    fn default() -> Self {
        ShortcutTable { slots: vec![None; MIN_SLOTS], len: 0, stats: ShortcutStats::default() }
    }
}

impl ShortcutTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> ShortcutStats {
        self.stats
    }

    /// The slot a Key_ID's probe run starts at.
    fn home(&self, key_id: u64) -> usize {
        (key_id.wrapping_mul(SPREAD) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Walks `key_id`'s probe run to the slot holding it, or to the empty
    /// slot that ends the run.
    fn find(&self, key_id: u64) -> Option<(usize, &Slot)> {
        let mask = self.slots.len() - 1;
        let mut at = self.home(key_id);
        loop {
            match &self.slots[at] {
                None => return None,
                Some(slot) if slot.kid == key_id => return Some((at, slot)),
                Some(_) => at = (at + 1) & mask,
            }
        }
    }

    /// The slot holding `key_id`, for an update in place.
    fn find_mut(&mut self, key_id: u64) -> Option<&mut Slot> {
        let (at, _) = self.find(key_id)?;
        self.slots[at].as_mut()
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
            let from_home = at.wrapping_sub(self.home(slot.kid)) & mask;
            if from_home >= (at.wrapping_sub(hole) & mask) {
                self.slots.swap(hole, at);
                hole = at;
            }
            at = (at + 1) & mask;
        }
    }

    /// Stores an entry for a Key_ID the table does not hold, doubling the
    /// slot array first if it would pass ¾ full.
    fn insert_new(&mut self, slot: Slot) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let doubled = vec![None; self.slots.len() * 2];
            let old = std::mem::replace(&mut self.slots, doubled);
            self.len = 0;
            old.into_iter().flatten().for_each(|slot| self.insert_new(slot));
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(slot.kid);
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

    /// The cached target for `key_id`, unvalidated: reads no tree, counts
    /// nothing, removes nothing. For lookahead — prefetch the target ahead
    /// of the [`probe`](Self::probe) that will validate it.
    #[inline]
    pub fn peek(&self, key_id: u64) -> Option<NodeId> {
        self.find(key_id).map(|(_, slot)| slot.target())
    }

    /// Probes for `key` (whose Key_ID is `key_id`), validating the cached
    /// target against `tree`. Returns the target if it validates, and
    /// whether the probe dropped a stale or corrupted entry.
    ///
    /// A stale entry (the target address no longer holds a leaf with this
    /// key) is removed and reported as a miss — exactly what the hardware's
    /// validation step does.
    pub fn probe<V>(&mut self, key_id: u64, key: &Key, tree: &Art<V>) -> (Option<NodeId>, bool) {
        debug_assert_eq!(key_id, crate::key_id(key), "a Key_ID that is not the key's");
        self.probe_as(key_id, key, tree)
    }

    /// [`probe`](Self::probe) without the check that `key_id` is the key's
    /// own, so that a test can put two keys under one Key_ID.
    fn probe_as<V>(&mut self, key_id: u64, key: &Key, tree: &Art<V>) -> (Option<NodeId>, bool) {
        let Some((at, slot)) = self.find(key_id) else {
            self.stats.misses += 1;
            return (None, false);
        };
        let target = slot.target();
        if slot.poisoned {
            // A corrupted entry never validates: drop it and fall back to
            // the root traversal (the same slow-but-correct path a
            // naturally stale entry takes).
            self.stats.corruption_fallbacks += 1;
        } else if tree.read_leaf(target, key).is_some() {
            self.stats.hits += 1;
            return (Some(target), false);
        }
        self.remove_at(at);
        self.stats.stale_invalidations += 1;
        self.stats.misses += 1;
        (None, true)
    }

    /// Fault injection: corrupts the entry for `key_id` (models a bit flip
    /// in the off-chip table or forced staleness). The entry stays present
    /// but its next probe fails validation and falls back to a full
    /// traversal. Returns `true` if an entry existed to corrupt and was
    /// not corrupted already.
    pub fn corrupt(&mut self, key_id: u64) -> bool {
        match self.find_mut(key_id) {
            Some(slot) if !slot.poisoned => {
                slot.poisoned = true;
                self.stats.corruptions_injected += 1;
                true
            }
            _ => false,
        }
    }

    /// Records the result of a traversal of the key whose Key_ID is
    /// `key_id` as a new shortcut (the Generate_Shortcut stage). Replacing
    /// a corrupted entry keeps it corrupted: the fault is in the table's
    /// slot, not in the traversal that refills it.
    pub fn generate(&mut self, key_id: u64, target: NodeId) {
        let target = NonZeroU32::MIN
            .checked_add(target.index())
            .expect("a shortcut targets a node, never the null id");
        if let Some(slot) = self.find_mut(key_id) {
            slot.target = target;
            self.stats.updated += 1;
        } else {
            self.insert_new(Slot { kid: key_id, target, poisoned: false });
            self.stats.generated += 1;
        }
    }

    /// Drops the entry for `key_id`, if any (e.g. after a remove), and
    /// with it any corruption.
    pub fn invalidate(&mut self, key_id: u64) {
        if let Some((at, _)) = self.find(key_id) {
            self.remove_at(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key_id;

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
        assert_eq!(table.probe(key_id(&key), &key, &art), (None, false), "nothing to drop");
        let leaf = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        table.generate(key_id(&key), leaf);
        let target = table.probe(key_id(&key), &key, &art).0.expect("hit after generate");
        assert_eq!(target, leaf);
        assert_eq!(table.stats().hits, 1);
        assert_eq!(table.stats().misses, 1);
    }

    #[test]
    fn stale_entry_detected_after_removal() {
        let mut art = tree_with(&[10, 11]);
        let key = Key::from_u64(10);
        let leaf = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key_id(&key), leaf);
        art.remove(&key);
        assert_eq!(table.probe(key_id(&key), &key, &art), (None, true), "stale shortcut must miss");
        assert_eq!(table.stats().stale_invalidations, 1);
        assert!(table.len == 0);
    }

    #[test]
    fn reused_arena_slot_fails_validation() {
        let mut art = tree_with(&[20, 21]);
        let key = Key::from_u64(20);
        let leaf = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key_id(&key), leaf);
        art.remove(&key);
        // The freed slot is reused by a different key's leaf.
        art.insert(Key::from_u64(999), 999).unwrap();
        assert_eq!(
            table.probe(key_id(&key), &key, &art),
            (None, true),
            "reused slot holds the wrong key"
        );
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
        let leaf = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key_id(&key), leaf);
        for b in 4..20u64 {
            art.insert(Key::from_u64(b << 8 | 1), b).unwrap(); // grows the node
        }
        assert!(table.probe(key_id(&key), &key, &art).0.is_some());
    }

    #[test]
    fn corrupted_entry_fails_validation_and_falls_back() {
        let art = tree_with(&[30, 31]);
        let key = Key::from_u64(30);
        let leaf = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key_id(&key), leaf);
        assert!(table.corrupt(key_id(&key)));
        // The poisoned probe must NOT return the (still structurally valid)
        // entry — it must force the fallback traversal.
        assert_eq!(table.probe(key_id(&key), &key, &art), (None, true));
        let s = table.stats();
        assert_eq!(s.corruptions_injected, 1);
        assert_eq!(s.corruption_fallbacks, 1);
        assert_eq!(s.stale_invalidations, 1);
        // Regenerating afterwards works and probes cleanly again.
        table.generate(key_id(&key), leaf);
        assert!(table.probe(key_id(&key), &key, &art).0.is_some());
    }

    #[test]
    fn corrupt_without_entry_is_a_noop() {
        let mut table = ShortcutTable::new();
        let key = Key::from_u64(1);
        assert!(!table.corrupt(key_id(&key)));
        assert_eq!(table.stats().corruptions_injected, 0);
    }

    #[test]
    fn invalidate_clears_poison() {
        let art = tree_with(&[40]);
        let key = Key::from_u64(40);
        let leaf = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key_id(&key), leaf);
        table.corrupt(key_id(&key));
        table.invalidate(key_id(&key));
        // A fresh entry for the same key is not tainted by old poison.
        table.generate(key_id(&key), leaf);
        assert!(table.probe(key_id(&key), &key, &art).0.is_some());
        assert_eq!(table.stats().corruption_fallbacks, 0);
    }

    #[test]
    fn poison_survives_a_regenerate_and_a_doubling_until_invalidated() {
        let art = tree_with(&[70]);
        let key = Key::from_u64(70);
        let (kid, leaf) =
            (key_id(&key), art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap());
        let mut table = ShortcutTable::new();
        table.generate(kid, leaf);
        assert!(table.corrupt(kid));
        assert!(!table.corrupt(kid), "an entry is corrupted once");
        // A regenerate rewrites the target, not the fault.
        table.generate(kid, leaf);
        let slots = table.slots.len();
        for i in 0..MIN_SLOTS as u32 {
            table.generate(key_id(&Key::from_u64(1000 + u64::from(i))), NodeId::from_index(i));
        }
        assert!(table.slots.len() > slots, "the slot array doubled");
        assert_eq!(table.probe(kid, &key, &art), (None, true), "still poisoned");
        assert_eq!(table.stats().corruptions_injected, 1);
        assert_eq!(table.stats().corruption_fallbacks, 1);

        // Invalidating drops the flag with the entry.
        table.generate(kid, leaf);
        assert!(table.corrupt(kid));
        table.invalidate(kid);
        table.generate(kid, leaf);
        assert_eq!(table.probe(kid, &key, &art), (Some(leaf), false));
        assert_eq!(table.stats().corruption_fallbacks, 1);
    }

    #[test]
    fn a_slot_is_a_quarter_of_an_aligned_cache_line() {
        assert_eq!(std::mem::size_of::<Option<Slot>>(), 16);
        assert_eq!(std::mem::align_of::<Option<Slot>>(), 16);
    }

    #[test]
    fn two_keys_under_one_key_id_share_an_entry_and_never_answer_for_each_other() {
        let art = tree_with(&[60, 61]);
        let (a, b) = (Key::from_u64(60), Key::from_u64(61));
        let leaf_a = art.locate_leaf(&a, &mut dcart_art::NoopTracer).unwrap();
        let leaf_b = art.locate_leaf(&b, &mut dcart_art::NoopTracer).unwrap();
        // Both keys are filed under `a`'s Key_ID, as two keys whose ids
        // collide would be; `probe_as` skips the check that the id is the
        // probed key's own.
        let kid = key_id(&a);
        let mut table = ShortcutTable::new();
        let probe = |table: &mut ShortcutTable, key: &Key| {
            let (target, stale) = table.probe_as(kid, key, &art);
            if let Some(target) = target {
                assert!(art.read_leaf(target, key).is_some(), "{key:?} answered via another key");
            }
            (target, stale)
        };

        table.generate(kid, leaf_a);
        table.generate(kid, leaf_b);
        assert_eq!((table.stats().generated, table.stats().updated), (1, 1));
        assert_eq!(table.len, 1, "one Key_ID, one entry");
        assert_eq!(table.peek(kid), Some(leaf_b), "the second generate replaced the first");

        // `a`'s probe finds `b`'s target, fails validation and drops it.
        assert_eq!(probe(&mut table, &a), (None, true));
        assert_eq!((table.stats().misses, table.stats().stale_invalidations), (1, 1));
        assert_eq!(probe(&mut table, &b), (None, false), "the entry is gone");

        // The other way round, then each key's own entry answers it.
        table.generate(kid, leaf_a);
        assert_eq!(probe(&mut table, &b), (None, true));
        table.generate(kid, leaf_b);
        assert_eq!(probe(&mut table, &b).0, Some(leaf_b));
        assert_eq!(table.stats().hits, 1);
        assert_eq!(table.stats().stale_invalidations, 2);
    }

    /// `count` distinct keys whose probe runs start at `home` in `table`.
    fn keys_homed_at(table: &ShortcutTable, home: usize, count: usize) -> Vec<Key> {
        (0u64..).map(Key::from_u64).filter(|k| table.home(key_id(k)) == home).take(count).collect()
    }

    /// Every entry must be reachable from its own home slot.
    fn assert_all_reachable(table: &ShortcutTable) {
        let live: Vec<(usize, &Slot)> =
            table.slots.iter().enumerate().filter_map(|(at, s)| Some((at, s.as_ref()?))).collect();
        assert_eq!(live.len(), table.len);
        for (at, slot) in live {
            let found = table.find(slot.kid).map(|(found_at, _)| found_at);
            assert_eq!(found, Some(at), "Key_ID {:#x} is cut off from its home slot", slot.kid);
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
            table.generate(key_id(key), NodeId::from_index(i as u32));
        }
        let occupied = |t: &ShortcutTable| -> Vec<usize> {
            (0..MIN_SLOTS).filter(|&at| t.slots[at].is_some()).collect()
        };
        assert_eq!(occupied(&table), vec![0, 1, 2, last]);

        // Removing the head of the run shifts every follower back by one,
        // across the wrap, including the key homed at 0.
        table.invalidate(key_id(&keys[0]));
        assert_eq!(occupied(&table), vec![0, 1, last]);
        assert_eq!(table.len, 3);
        assert_eq!(table.peek(key_id(&keys[0])), None);
        for (i, key) in keys.iter().enumerate().skip(1) {
            assert_eq!(table.peek(key_id(key)), Some(NodeId::from_index(i as u32)));
        }
        assert_all_reachable(&table);

        // An entry sitting at its home slot is never pulled in front of
        // it: once the run has shrunk to `last` (homed there) and 0 (homed
        // at 0), emptying `last` leaves slot 0 alone.
        table.invalidate(key_id(&keys[1]));
        assert_eq!(occupied(&table), vec![0, last]);
        table.invalidate(key_id(&keys[2]));
        assert_eq!(occupied(&table), vec![0]);
        assert_eq!(table.peek(key_id(&keys[3])), Some(NodeId::from_index(3)));
    }

    #[test]
    fn growth_keeps_every_entry_and_the_load_bound() {
        let mut table = ShortcutTable::new();
        for i in 0..1000u64 {
            let key = Key::from_u64(i);
            table.generate(key_id(&key), NodeId::from_index(i as u32));
            assert!(table.slots.len().is_power_of_two());
            assert!(table.len * 4 <= table.slots.len() * 3, "load factor above 3/4");
        }
        assert_eq!(table.len, 1000);
        assert_eq!(table.stats().generated, 1000);
        assert_all_reachable(&table);
        // Interleaved removals keep every survivor reachable.
        for i in (0..1000u64).step_by(3) {
            let key = Key::from_u64(i);
            table.invalidate(key_id(&key));
        }
        assert_all_reachable(&table);
        for i in 0..1000u64 {
            let key = Key::from_u64(i);
            let want = (i % 3 != 0).then(|| NodeId::from_index(i as u32));
            assert_eq!(table.peek(key_id(&key)), want);
        }
    }

    #[test]
    fn peek_and_prefetch_change_nothing() {
        let art = tree_with(&[50, 51]);
        let key = Key::from_u64(50);
        let leaf = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key_id(&key), leaf);
        table.corrupt(key_id(&key));
        let before = table.stats();
        table.prefetch(key_id(&key));
        // Unvalidated: even a poisoned entry is still reported.
        assert_eq!(table.peek(key_id(&key)), Some(leaf));
        assert_eq!(table.peek(key_id(&Key::from_u64(51))), None);
        assert_eq!(table.stats(), before);
        assert_eq!(table.len, 1);
        assert_eq!(table.probe(key_id(&key), &key, &art).0, None, "the poison is still in place");
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
        let leaf = art.locate_leaf(&key, &mut dcart_art::NoopTracer).unwrap();
        let mut table = ShortcutTable::new();
        table.generate(key_id(&key), leaf);
        table.generate(key_id(&key), leaf);
        assert_eq!(table.stats().generated, 1);
        assert_eq!(table.stats().updated, 1);
        assert_eq!(table.len, 1);
    }
}
