//! Property tests for the snapshot round-trip: encoding an `Art` into the
//! binary snapshot container and loading it back must be the identity on
//! contents *and* structure, across every node layout (N4 → N256),
//! compressed prefixes, and the shapes left behind by removals.

use std::collections::BTreeMap;

use dcart_art::{Art, Key, SnapshotEntries, SnapshotWriter};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A randomized insert/remove sequence over a colliding key domain.
#[derive(Clone, Debug)]
enum Churn {
    Insert(u64, u64),
    Remove(u64),
}

fn churn_strategy() -> impl Strategy<Value = Churn> {
    // Dense low keys force long shared prefixes and wide fan-out at the
    // last byte; removals against the same domain leave shrunken and
    // collapsed node shapes behind.
    let key = 0u64..2_048;
    prop_oneof![
        (key.clone(), any::<u64>()).prop_map(|(k, v)| Churn::Insert(k, v)),
        key.prop_map(Churn::Remove),
    ]
}

/// Round-trips `art` through the snapshot container, asserting identity
/// on contents, layout histogram, and structural invariants.
fn assert_roundtrip_identity(art: &Art<u64>) -> Result<(), TestCaseError> {
    let entries: Vec<(Key, u64)> = art.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let back = load(&encode(art.iter().map(|(k, v)| (k, *v))));
    prop_assert_eq!(back.len(), art.len());
    prop_assert_eq!(back.type_histogram(), art.type_histogram());
    prop_assert_eq!(back.node_count(), art.node_count());
    let got: Vec<(Key, u64)> = back.iter().map(|(k, v)| (k.clone(), *v)).collect();
    prop_assert_eq!(&got, &entries);
    let violations = back.check_invariants();
    prop_assert!(violations.is_empty(), "{violations:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Identity after arbitrary insert/remove churn (post-remove shapes:
    /// collapsed paths, shrunken nodes, re-expanded prefixes).
    #[test]
    fn roundtrip_identity_under_churn(ops in proptest::collection::vec(churn_strategy(), 1..500)) {
        let mut art = Art::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Churn::Insert(k, v) => {
                    art.insert(Key::from_u64(k), v).unwrap();
                    model.insert(k, v);
                }
                Churn::Remove(k) => {
                    art.remove(&Key::from_u64(k));
                    model.remove(&k);
                }
            }
        }
        prop_assert_eq!(art.len(), model.len());
        assert_roundtrip_identity(&art)?;
    }

    /// Identity across fan-outs: key-set sizes from 1 (a lone leaf) to
    /// wide dense blocks that grow nodes through N4 → N16 → N48 → N256.
    #[test]
    fn roundtrip_identity_across_fanouts(
        keys in proptest::collection::btree_set(0u64..4_096, 1..700),
        stride in 1u64..9,
    ) {
        let mut art = Art::new();
        for (i, k) in keys.iter().enumerate() {
            // The stride spreads keys over different byte positions so the
            // wide nodes appear at different depths across cases.
            art.insert(Key::from_u64(k * stride), i as u64).unwrap();
        }
        assert_roundtrip_identity(&art)?;
    }

    /// Identity for long-string keys exercising compressed prefixes (the
    /// path-compression byte runs must survive the entry-list encoding).
    #[test]
    fn roundtrip_identity_with_compressed_prefixes(
        suffixes in proptest::collection::btree_set(0u32..10_000, 1..200),
        depth in 1usize..5,
    ) {
        let mut art = Art::new();
        let prefix = "shared/compressed/prefix/".repeat(depth);
        for (i, s) in suffixes.iter().enumerate() {
            let key = Key::from_str_bytes(&format!("{prefix}{s:08}"));
            art.insert(key, i as u64).unwrap();
        }
        assert_roundtrip_identity(&art)?;
    }
}

/// Loads a tree from a snapshot container, the way recovery does.
fn load(bytes: &[u8]) -> Art<u64> {
    let (entries, _) = SnapshotEntries::open(bytes).expect("well-formed container");
    Art::from_sorted(entries.collect_pairs().expect("valid entries")).expect("sorted, prefix-free")
}

fn encode<'a>(entries: impl Iterator<Item = (&'a Key, u64)>) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = SnapshotWriter::begin(&mut bytes);
    for (key, value) in entries {
        writer.push(key.as_bytes(), value).expect("short keys encode");
    }
    writer.finish();
    bytes
}

/// Deterministic backstop: one tree that provably contains every inner
/// layout at once, round-tripped through the snapshot container.
#[test]
fn roundtrip_covers_every_node_layout() {
    let mut art = Art::new();
    // 0..=299 under one byte block: a 256-fanout node plus a 44-child N48
    // sibling; sparse high keys add N4/N16 nodes elsewhere.
    for k in 0u64..300 {
        art.insert(Key::from_u64(k), k).unwrap();
    }
    for k in [1u64 << 40, (1 << 40) + 7, (1 << 41), (1 << 41) + 3, (1 << 41) + 9, (1 << 41) + 200] {
        art.insert(Key::from_u64(k), k).unwrap();
    }
    for k in 0u64..24 {
        art.insert(Key::from_u64((1 << 50) | (k * 2)), k).unwrap();
    }
    // An 8-wide sibling block lands in the N16 layout (fanout 5..=16).
    for k in 0u64..8 {
        art.insert(Key::from_u64((1 << 42) | (k * 3)), k).unwrap();
    }
    let h = art.type_histogram();
    assert!(h.n4 > 0, "{h:?}");
    assert!(h.n16 > 0, "{h:?}");
    assert!(h.n48 > 0, "{h:?}");
    assert!(h.n256 > 0, "{h:?}");

    // Remove a band to leave post-remove shapes, then round-trip.
    for k in 120u64..200 {
        art.remove(&Key::from_u64(k));
    }
    let back = load(&encode(art.iter().map(|(k, v)| (k, *v))));
    assert_eq!(back.type_histogram(), art.type_histogram());
    assert_eq!(back.len(), art.len());
    let a: Vec<(Key, u64)> = art.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let b: Vec<(Key, u64)> = back.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(a, b);
    back.assert_invariants();
}
