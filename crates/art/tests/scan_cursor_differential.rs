//! Differential tests of the lazy [`ScanCursor`] behind `scan_traced`,
//! `range` and `iter`, against the walk it replaced: a DFS that pushes
//! every child of every node it expands, carrying the path bytes of each.
//! That walk is kept here, on the public node API, as the reference — the
//! simulators' costs are defined by its visit stream, so the cursor must
//! reproduce it visit for visit, not merely return the same keys.

use dcart_art::node::Node;
use dcart_art::{Art, Key, NodeId, NodeVisit, RecordingTracer, ScanCursor};
use proptest::prelude::*;

/// `true` if every key beginning with `path` is `< start`.
fn subtree_below_start(path: &[u8], start: &[u8]) -> bool {
    let m = path.len().min(start.len());
    path[..m] < start[..m]
}

/// The pre-cursor `scan_traced`: items, visits and partial-key matches.
fn reference_scan(
    art: &Art<u32>,
    start: &[u8],
    limit: usize,
) -> (Vec<(Key, u32)>, Vec<NodeVisit>, u64) {
    let (mut items, mut visits, mut matches) = (Vec::new(), Vec::new(), 0u64);
    if limit == 0 {
        return (items, visits, matches);
    }
    let mut stack: Vec<(NodeId, Vec<u8>)> =
        art.root().map(|r| (r, Vec::new())).into_iter().collect();
    while let Some((id, path)) = stack.pop() {
        let visit = art.visit_for(id).expect("reachable nodes are live");
        match art.node(id).expect("reachable nodes are live") {
            Node::Leaf { key, value } => {
                visits.push(visit);
                if key.as_bytes() >= start {
                    items.push((key.clone(), *value));
                    if items.len() >= limit {
                        break;
                    }
                }
            }
            Node::Inner(inner) => {
                let mut base = path;
                base.extend_from_slice(&inner.prefix);
                if subtree_below_start(&base, start) {
                    continue;
                }
                let compared = inner.prefix.len() as u32;
                visits.push(NodeVisit { useful_bytes: compared + 1 + 8, ..visit });
                matches += u64::from(compared) + 1;
                let children: Vec<(u8, NodeId)> = inner.children.iter().collect();
                for &(edge, child) in children.iter().rev() {
                    let mut child_path = base.clone();
                    child_path.push(edge);
                    if !subtree_below_start(&child_path, start) {
                        stack.push((child, child_path));
                    }
                }
            }
        }
    }
    (items, visits, matches)
}

/// `scan_traced` as shipped (a loop over the cursor), in the same shape.
fn cursor_scan(
    art: &Art<u32>,
    start: &[u8],
    limit: usize,
) -> (Vec<(Key, u32)>, Vec<NodeVisit>, u64) {
    let mut tracer = RecordingTracer::new();
    let items = art.scan_traced(start, limit, &mut tracer);
    let items = items.into_iter().map(|(k, &v)| (k.clone(), v)).collect();
    (items, tracer.trace.visits, tracer.trace.partial_key_matches)
}

/// Child fan-out of the six key groups: two stay N4/N16, two reach N48,
/// two reach N256 once enough keys land in them.
const FAN: [u16; 6] = [3, 12, 40, 48, 256, 256];

/// Fixed-width (hence prefix-free) 8-byte keys: a top byte, two bytes that
/// tell the groups under it apart, a two-byte run every key of the group
/// shares (a compressed prefix), the fan-out byte and a two-way tail.
fn key_of(group: usize, fan: u8, tail: u8) -> Key {
    let top = 0x10 + (group as u8 / 3) * 0xe0;
    let [s0, s1] = [[0x00, 0x00], [0x00, 0x01], [0x7f, 0xff]][group % 3];
    let fan = (u16::from(fan) % FAN[group]) as u8;
    Key::from_raw(vec![top, s0, s1, 0xaa, 0xbb, fan, tail % 2, 0x55])
}

/// A tree grown by inserts and then thinned by removes, with its keys.
fn build(inserts: &[(usize, u8, u8)], removes: &[usize]) -> (Art<u32>, Vec<Key>) {
    let mut art = Art::new();
    let mut keys = Vec::new();
    for (i, &(group, fan, tail)) in inserts.iter().enumerate() {
        let key = key_of(group, fan, tail);
        if art.insert(key.clone(), i as u32).expect("fixed-width keys are prefix-free").is_none() {
            keys.push(key);
        }
    }
    for &r in removes {
        if !keys.is_empty() {
            let key = keys.swap_remove(r % keys.len());
            assert!(art.remove(&key).is_some());
        }
    }
    keys.sort();
    (art, keys)
}

/// Start keys below, inside, between and above the key range, shorter and
/// longer than the keys themselves.
fn starts(keys: &[Key], probe: &[u8]) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new(), vec![0x00], vec![0xff; 9], vec![0x10], probe.to_vec()];
    if let (Some(first), Some(last)) = (keys.first(), keys.last()) {
        let mid = &keys[keys.len() / 2];
        for key in [first, mid, last] {
            let bytes = key.as_bytes();
            out.push(bytes.to_vec());
            // Just above the key, a strict prefix of it, and an extension.
            let mut above = bytes.to_vec();
            *above.last_mut().expect("non-empty key") += 1;
            out.push(above);
            out.push(bytes[..3].to_vec());
            out.push([bytes, &[0x00]].concat());
        }
    }
    out
}

#[test]
fn reference_trees_reach_every_layout() {
    let inserts: Vec<(usize, u8, u8)> =
        (0..2_000u32).map(|i| ((i % 6) as usize, (i * 37 % 251) as u8, (i / 7) as u8)).collect();
    let removes: Vec<usize> = (0..300).map(|i| i * 13).collect();
    let (art, keys) = build(&inserts, &removes);
    let h = art.type_histogram();
    assert!(h.n4 > 0 && h.n16 > 0 && h.n48 > 0 && h.n256 > 0, "{h:?}");
    assert!(art.check_invariants().is_empty());
    for start in starts(&keys, &[0x10, 0x00, 0x01, 0x20]) {
        for limit in [1, 50, usize::MAX] {
            assert_eq!(cursor_scan(&art, &start, limit), reference_scan(&art, &start, limit));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Same items, same `NodeVisit` sequence, same partial-key matches.
    #[test]
    fn cursor_reproduces_the_reference_walk(
        inserts in proptest::collection::vec((0usize..6, any::<u8>(), any::<u8>()), 1..600),
        removes in proptest::collection::vec(any::<usize>(), 0..200),
        probe in proptest::collection::vec(any::<u8>(), 0..10),
        some in 2usize..40,
    ) {
        let (art, keys) = build(&inserts, &removes);
        for start in starts(&keys, &probe) {
            for limit in [0, 1, some, keys.len(), usize::MAX] {
                let got = cursor_scan(&art, &start, limit);
                let want = reference_scan(&art, &start, limit);
                prop_assert_eq!(&got.0, &want.0, "items: start {:?} limit {}", &start, limit);
                prop_assert_eq!(&got.1, &want.1, "visits: start {:?} limit {}", &start, limit);
                prop_assert_eq!(got.2, want.2, "matches: start {:?} limit {}", &start, limit);
            }
            // The untraced iterator is the same walk.
            let ranged: Vec<Key> = art.range(&start, None).map(|(k, _)| k.clone()).collect();
            let model: Vec<Key> =
                keys.iter().filter(|k| k.as_bytes() >= start.as_slice()).cloned().collect();
            prop_assert_eq!(ranged, model);
        }
    }

    /// A longer scan's visits, truncated at the watermark of its `c`-th
    /// item, are exactly the visits of `scan_traced(start, c)`: reading
    /// ahead and charging only for what was consumed loses nothing.
    #[test]
    fn watermarks_truncate_to_the_shorter_scan(
        inserts in proptest::collection::vec((0usize..6, any::<u8>(), any::<u8>()), 1..400),
        removes in proptest::collection::vec(any::<usize>(), 0..100),
        probe in proptest::collection::vec(any::<u8>(), 0..10),
    ) {
        let (art, keys) = build(&inserts, &removes);
        for start in starts(&keys, &probe) {
            let mut cursor = ScanCursor::new();
            let mut tracer = RecordingTracer::new();
            cursor.reset(&art);
            let mut marks = Vec::new();
            while cursor.next(&art, &start, &mut tracer).is_some() {
                marks.push(cursor.watermark());
            }
            let all = &tracer.trace.visits;
            prop_assert_eq!(cursor.watermark(), (all.len(), tracer.trace.partial_key_matches));
            for c in [1, 2, marks.len() / 2, marks.len()] {
                if c == 0 || c > marks.len() {
                    continue;
                }
                let (visits, matches) = marks[c - 1];
                let (items, want_visits, want_matches) = reference_scan(&art, &start, c);
                prop_assert_eq!(items.len(), c);
                prop_assert_eq!(&all[..visits], &want_visits[..], "start {:?} c {}", &start, c);
                prop_assert_eq!(matches, want_matches);
            }
        }
    }
}
