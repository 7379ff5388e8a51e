//! Property-based test of the shortcut table's safety contract: under any
//! interleaving of inserts, removes, corruptions, and probes — including
//! sequences that drive nodes through every adaptive layout
//! (N4 → N16 → N48 → N256), split paths, and remove nodes — a probe either
//! returns a target that holds the key's current value, or returns
//! `None` (miss / stale invalidation / corruption fallback). It must never
//! be *silently wrong*, and a corrupted entry must never be returned.
//!
//! A second property pins the table itself, independent of what the tree
//! does to its targets: against a `HashMap` model, every probe result,
//! `len()` and every statistic must agree, whatever the open-addressed
//! layout had to do underneath (grow, wrap around, shift back).

use std::collections::{HashMap, HashSet};

use dcart::{key_id, ShortcutStats, ShortcutTable};
use dcart_art::{Art, Key, NodeId, NoopTracer};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One scripted step: `action` selects the operation, `b` the key's first
/// byte (spanning all 256 values forces the root through every layout),
/// `t` the key's tail byte (shared first bytes force path splits).
fn step_strategy() -> impl Strategy<Value = (u8, u8, u8)> {
    (0u8..10, any::<u8>(), 0u8..4)
}

fn key_of(b: u8, t: u8) -> Key {
    Key::from_raw(vec![b, t, 1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shortcut_probes_are_never_silently_wrong(
        steps in proptest::collection::vec(step_strategy(), 1..400),
    ) {
        let mut art: Art<u64> = Art::new();
        let mut truth: HashMap<Vec<u8>, u64> = HashMap::new();
        let mut table = ShortcutTable::new();
        // Keys whose entry is corrupted (a regenerate keeps the fault):
        // their next probe must fall back, never return the entry.
        let mut poisoned: HashSet<Vec<u8>> = HashSet::new();
        let mut touched: HashSet<(u8, u8)> = HashSet::new();

        let check_probe = |table: &mut ShortcutTable,
                           art: &Art<u64>,
                           truth: &HashMap<Vec<u8>, u64>,
                           poisoned: &mut HashSet<Vec<u8>>,
                           key: &Key|
         -> Result<(), TestCaseError> {
            let was_poisoned = poisoned.remove(key.as_bytes());
            // A `None` probe (absent, stale, or corrupted) sends the op
            // down the slow-but-correct traversal: always safe.
            if let (Some(target), _) = table.probe(key_id(key), key, art) {
                prop_assert!(
                    !was_poisoned,
                    "a corrupted entry was returned instead of falling back"
                );
                let via_shortcut = art.read_leaf(target, key).copied();
                prop_assert!(
                    via_shortcut.is_some(),
                    "probe returned a target that does not validate"
                );
                prop_assert_eq!(
                    via_shortcut,
                    truth.get(key.as_bytes()).copied(),
                    "shortcut answered with a wrong value"
                );
            }
            Ok(())
        };

        for (i, &(action, b, t)) in steps.iter().enumerate() {
            let key = key_of(b, t);
            touched.insert((b, t));
            match action {
                // Insert/update, then publish a shortcut for the key.
                0..=4 => {
                    let v = i as u64;
                    prop_assert!(art.insert(key.clone(), v).is_ok());
                    truth.insert(key.as_bytes().to_vec(), v);
                    if let Some(leaf) = art.locate_leaf(&key, &mut NoopTracer) {
                        table.generate(key_id(&key), leaf);
                    }
                }
                // Remove WITHOUT invalidating the table: the stale entry
                // must be caught by validation on its next probe.
                5..=6 => {
                    art.remove(&key);
                    truth.remove(key.as_bytes());
                }
                // Remove with explicit invalidation (the executor's path).
                7 => {
                    art.remove(&key);
                    truth.remove(key.as_bytes());
                    table.invalidate(key_id(&key));
                    poisoned.remove(key.as_bytes());
                }
                // Inject corruption: the entry stays present but its next
                // probe must fall back.
                8 => {
                    if table.corrupt(key_id(&key)) {
                        poisoned.insert(key.as_bytes().to_vec());
                    }
                }
                // Probe.
                _ => check_probe(&mut table, &art, &truth, &mut poisoned, &key)?,
            }
        }

        // Final sweep: probe every key ever touched, then re-check stats.
        for &(b, t) in &touched {
            let key = key_of(b, t);
            check_probe(&mut table, &art, &truth, &mut poisoned, &key)?;
        }
        prop_assert!(art.check_invariants().is_empty());
        let s = table.stats();
        prop_assert!(s.corruption_fallbacks <= s.corruptions_injected);
        prop_assert!(s.corruption_fallbacks <= s.stale_invalidations);
    }

    /// The table against a `HashMap` model. 160 keys against a 16-slot
    /// start force several doublings; half of all generates cache a wrong
    /// target, so probes keep removing entries from the middle of probe
    /// runs (backward shift) while neighbours with the same or a wrapped
    /// home slot must stay reachable.
    #[test]
    fn table_agrees_with_a_hash_map_model(
        steps in proptest::collection::vec((0u8..12, 0u16..160, any::<bool>()), 1..600),
    ) {
        let mut art: Art<u64> = Art::new();
        let mut leaves: Vec<NodeId> = Vec::new();
        for i in 0..160u16 {
            art.insert(model_key(i), u64::from(i)).unwrap();
        }
        for i in 0..160u16 {
            leaves.push(art.locate_leaf(&model_key(i), &mut NoopTracer).unwrap());
        }

        let mut table = ShortcutTable::new();
        let mut model: HashMap<Vec<u8>, NodeId> = HashMap::new();
        let mut poisoned: HashSet<Vec<u8>> = HashSet::new();
        let mut expect = ShortcutStats::default();

        for &(action, i, truthful) in &steps {
            let key = model_key(i);
            let bytes = key.as_bytes().to_vec();
            match action {
                // Generate: the key's own leaf, or a neighbour's (an entry
                // that is present but will not validate).
                0..=4 => {
                    let j = if truthful { i } else { (i + 1) % 160 };
                    let target = leaves[usize::from(j)];
                    table.generate(key_id(&key), target);
                    if model.insert(bytes, target).is_some() {
                        expect.updated += 1;
                    } else {
                        expect.generated += 1;
                    }
                }
                5 => {
                    table.invalidate(key_id(&key));
                    model.remove(&bytes);
                    poisoned.remove(&bytes);
                }
                6 => {
                    let fresh = model.contains_key(&bytes) && poisoned.insert(bytes);
                    prop_assert_eq!(table.corrupt(key_id(&key)), fresh);
                    expect.corruptions_injected += u64::from(fresh);
                }
                7..=8 => {
                    let before = table.stats();
                    let want = model.get(&bytes).copied();
                    prop_assert_eq!(table.peek(key_id(&key)), want);
                    table.prefetch(key_id(&key));
                    prop_assert_eq!(table.stats(), before, "peek and prefetch count nothing");
                }
                _ => {
                    let (want, dropped) = match model.get(&bytes).copied() {
                        None => (None, false),
                        Some(_) if poisoned.remove(&bytes) => {
                            model.remove(&bytes);
                            expect.corruption_fallbacks += 1;
                            expect.stale_invalidations += 1;
                            (None, true)
                        }
                        Some(t) if art.read_leaf(t, &key).is_some() => (Some(t), false),
                        Some(_) => {
                            model.remove(&bytes);
                            expect.stale_invalidations += 1;
                            (None, true)
                        }
                    };
                    expect.hits += u64::from(want.is_some());
                    expect.misses += u64::from(want.is_none());
                    prop_assert_eq!(table.probe(key_id(&key), &key, &art), (want, dropped));
                }
            }
            prop_assert_eq!(table.stats(), expect);
        }

        // Nothing was lost or duplicated along the way.
        for i in 0..160u16 {
            let key = model_key(i);
            let want = model.get(key.as_bytes()).copied();
            prop_assert_eq!(table.peek(key_id(&key)), want);
        }
    }
}

/// Keys of the model test: two bytes of rank, then a constant, so that
/// the Key_IDs differ in few input bits.
fn model_key(i: u16) -> Key {
    let [hi, lo] = i.to_be_bytes();
    Key::from_raw(vec![hi, lo, 1])
}
