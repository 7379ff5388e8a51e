//! Property-based tests: `Art` against a `BTreeMap` model.

use std::collections::BTreeMap;

use dcart_art::{Art, Key};
use proptest::prelude::*;

/// A randomized sequence of map operations.
#[derive(Clone, Debug)]
enum Op {
    Insert(u64, u32),
    Remove(u64),
    Get(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Draw keys from a small domain so operations collide often.
    let key = 0u64..512;
    prop_oneof![
        (key.clone(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key.clone().prop_map(Op::Remove),
        key.prop_map(Op::Get),
    ]
}

/// Decodes a [`Key::from_u64`] key.
fn int(k: &Key) -> u64 {
    u64::from_be_bytes(k.as_bytes().try_into().expect("8-byte integer key"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary interleavings of insert/remove/get agree with BTreeMap.
    #[test]
    fn art_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut art = Art::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let got = art.insert(Key::from_u64(k), v).unwrap();
                    let want = model.insert(k, v);
                    prop_assert_eq!(got, want);
                }
                Op::Remove(k) => {
                    let got = art.remove(&Key::from_u64(k));
                    let want = model.remove(&k);
                    prop_assert_eq!(got, want);
                }
                Op::Get(k) => {
                    prop_assert_eq!(art.get(&Key::from_u64(k)).copied(), model.get(&k).copied());
                }
            }
            prop_assert_eq!(art.len(), model.len());
        }
        // Final full-content equality, in order.
        let got: Vec<(u64, u32)> = art.iter().map(|(k, v)| (int(k), *v)).collect();
        let want: Vec<(u64, u32)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// Every structural invariant (path compression, single parents,
    /// reachable = allocated, leaf paths) holds after any op sequence.
    #[test]
    fn invariants_hold_under_churn(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut art = Art::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => { art.insert(Key::from_u64(k), v).unwrap(); }
                Op::Remove(k) => { art.remove(&Key::from_u64(k)); }
                Op::Get(_) => {}
            }
            let violations = art.check_invariants();
            prop_assert!(violations.is_empty(), "{violations:?}");
        }
    }

    /// Range queries return exactly the model's range, in order.
    #[test]
    fn range_matches_btreemap(
        keys in proptest::collection::btree_set(0u64..10_000, 0..200),
        lo in 0u64..10_000,
        width in 0u64..5_000,
    ) {
        let mut art = Art::new();
        let mut model = BTreeMap::new();
        for &k in &keys {
            art.insert(Key::from_u64(k), k).unwrap();
            model.insert(k, k);
        }
        let hi = lo.saturating_add(width);
        let start = Key::from_u64(lo);
        let end = Key::from_u64(hi);
        let got: Vec<u64> = art
            .range(start.as_bytes(), Some(end.as_bytes()))
            .map(|(_, v)| *v)
            .collect();
        let want: Vec<u64> = model.range(lo..hi).map(|(_, v)| *v).collect();
        prop_assert_eq!(got, want);
    }

    /// Variable-length string keys (with shared prefixes) round-trip.
    #[test]
    fn string_keys_roundtrip(words in proptest::collection::btree_set("[a-d]{1,6}", 1..60)) {
        let mut art = Art::new();
        for (i, w) in words.iter().enumerate() {
            art.insert(Key::from_str_bytes(w), i).unwrap();
        }
        for (i, w) in words.iter().enumerate() {
            prop_assert_eq!(art.get(&Key::from_str_bytes(w)), Some(&i));
        }
        // Iteration order equals lexicographic order of the words.
        let got: Vec<String> = art
            .iter()
            .map(|(k, _)| {
                let b = k.as_bytes();
                String::from_utf8(b[..b.len() - 1].to_vec()).unwrap()
            })
            .collect();
        let want: Vec<String> = words.iter().cloned().collect();
        prop_assert_eq!(got, want);
    }

    /// scan_traced returns exactly what range() yields, truncated to the
    /// limit, and reports at least one visit per returned leaf.
    #[test]
    fn scan_traced_matches_range(
        keys in proptest::collection::btree_set(0u64..20_000, 1..150),
        start in 0u64..20_000,
        limit in 1usize..60,
    ) {
        use dcart_art::RecordingTracer;
        let mut art = Art::new();
        for &k in &keys {
            art.insert(Key::from_u64(k), k).unwrap();
        }
        let start_key = Key::from_u64(start);
        let mut tracer = RecordingTracer::new();
        let got: Vec<u64> = art
            .scan_traced(start_key.as_bytes(), limit, &mut tracer)
            .into_iter()
            .map(|(_, v)| *v)
            .collect();
        let want: Vec<u64> = art
            .range(start_key.as_bytes(), None)
            .take(limit)
            .map(|(_, v)| *v)
            .collect();
        prop_assert_eq!(&got, &want);
        prop_assert!(tracer.trace.visits.len() >= got.len(),
            "each returned leaf was fetched");
    }

    /// Bulk loading yields exactly the insert-built structure.
    #[test]
    fn bulk_load_matches_incremental(keys in proptest::collection::btree_set(any::<u64>(), 1..200)) {
        let pairs: Vec<(Key, u64)> = keys.iter().map(|&k| (Key::from_u64(k), k)).collect();
        let bulk = Art::from_sorted(pairs).unwrap();
        let mut incremental = Art::new();
        for &k in keys.iter().rev() {
            incremental.insert(Key::from_u64(k), k).unwrap();
        }
        prop_assert!(bulk.check_invariants().is_empty());
        prop_assert_eq!(bulk.node_count(), incremental.node_count());
        prop_assert_eq!(bulk.type_histogram(), incremental.type_histogram());
        let a: Vec<u64> = bulk.iter().map(|(_, v)| *v).collect();
        let b: Vec<u64> = incremental.iter().map(|(_, v)| *v).collect();
        prop_assert_eq!(a, b);
    }

    /// min equals the model's first key while the keys are removed in
    /// ascending order.
    #[test]
    fn min_matches_model_under_ascending_removal(keys in proptest::collection::btree_set(any::<u64>(), 1..100)) {
        let mut art = Art::new();
        for &k in &keys {
            art.insert(Key::from_u64(k), ()).unwrap();
        }
        for &k in &keys {
            prop_assert_eq!(art.min().map(|(k, _)| int(k)), Some(k));
            prop_assert_eq!(art.remove(&Key::from_u64(k)), Some(()));
        }
        prop_assert!(art.min().is_none());
    }
}
