//! Property-based tests: B+-tree and hash index against a BTreeMap model.

use std::collections::BTreeMap;

use dcart_art::Key;
use dcart_indexes::{BPlusTree, HashIndex};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Insert(u64, u32),
    Remove(u64),
    Get(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 0u64..300;
    prop_oneof![
        (key.clone(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key.clone().prop_map(Op::Remove),
        key.prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The B+-tree agrees with BTreeMap under arbitrary op interleavings,
    /// at several orders (rebalancing paths differ by order).
    #[test]
    fn bptree_matches_btreemap(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        order in 4usize..24,
    ) {
        let mut t = BPlusTree::new(order);
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(t.insert(Key::from_u64(k), v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(t.remove(&Key::from_u64(k)), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(t.get(&Key::from_u64(k)), model.get(&k));
                }
            }
            prop_assert_eq!(t.len(), model.len());
        }
        // Ordered iteration equals the model's.
        let got: Vec<u32> = t.range(&[], usize::MAX).into_iter().copied().collect();
        let want: Vec<u32> = model.values().copied().collect();
        prop_assert_eq!(got, want);
    }

    /// B+-tree range queries agree with the model.
    #[test]
    fn bptree_range_matches(
        keys in proptest::collection::btree_set(0u64..5_000, 1..150),
        start in 0u64..5_000,
        limit in 1usize..50,
    ) {
        let mut t = BPlusTree::new(8);
        for &k in &keys {
            t.insert(Key::from_u64(k), k);
        }
        let got: Vec<u64> = t
            .range(Key::from_u64(start).as_bytes(), limit)
            .into_iter()
            .copied()
            .collect();
        let want: Vec<u64> = keys.range(start..).take(limit).copied().collect();
        prop_assert_eq!(got, want);
    }

    /// The hash index agrees with the model (point ops only — it has no
    /// range API, by design).
    #[test]
    fn hash_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut h = HashIndex::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(h.insert(Key::from_u64(k), v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(h.remove(&Key::from_u64(k)), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(h.get(&Key::from_u64(k)), model.get(&k));
                }
            }
            prop_assert_eq!(h.len(), model.len());
        }
    }
}
