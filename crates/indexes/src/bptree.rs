//! An in-memory B+-tree, the classic range index (paper §V: "most previous
//! databases typically apply the variants of B+tree to build range
//! indexes. However, B+tree suffers from write amplification.").
//!
//! Standard design: sorted separator arrays in internal nodes, linked
//! leaves holding the entries, split on overflow, borrow-or-merge on
//! underflow. Instrumented with [`WriteStats`] so the write-amplification
//! comparison against ART is a measurement, not a citation: every byte the
//! structure shifts, splits, or merges is charged.

use dcart_art::Key;

use crate::WriteStats;

/// Arena index of a B+-tree node.
type NodeRef = usize;

#[derive(Debug)]
enum BNode<V> {
    Leaf {
        entries: Vec<(Key, V)>,
        next: Option<NodeRef>,
    },
    Internal {
        /// `separators[i]` is the smallest key of `children[i + 1]`'s
        /// subtree; `children.len() == separators.len() + 1`.
        separators: Vec<Key>,
        children: Vec<NodeRef>,
    },
}

/// An instrumented in-memory B+-tree.
///
/// # Examples
///
/// ```
/// use dcart_art::Key;
/// use dcart_indexes::BPlusTree;
///
/// let mut t = BPlusTree::new(16);
/// for v in 0..100u64 {
///     t.insert(Key::from_u64(v), v);
/// }
/// assert_eq!(t.get(&Key::from_u64(42)), Some(&42));
/// let range: Vec<u64> = t.range(Key::from_u64(10).as_bytes(), 5).into_iter().copied().collect();
/// assert_eq!(range, vec![10, 11, 12, 13, 14]);
/// ```
#[derive(Debug)]
pub struct BPlusTree<V> {
    nodes: Vec<Option<BNode<V>>>,
    free: Vec<NodeRef>,
    root: NodeRef,
    order: usize,
    len: usize,
    stats: WriteStats,
}

/// Modelled bytes of one stored entry (key bytes + 8-byte value/pointer).
fn entry_bytes(key: &Key) -> u64 {
    key.len() as u64 + 8
}

impl<V> BPlusTree<V> {
    /// Creates an empty tree with at most `order` entries per leaf and
    /// `order` separators per internal node.
    ///
    /// # Panics
    ///
    /// Panics if `order < 4` (splits need room on both sides).
    pub fn new(order: usize) -> Self {
        assert!(order >= 4, "order must be at least 4");
        let root = BNode::Leaf { entries: Vec::new(), next: None };
        BPlusTree {
            nodes: vec![Some(root)],
            free: Vec::new(),
            root: 0,
            order,
            len: 0,
            stats: WriteStats::default(),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The accumulated instrumentation counters.
    pub fn stats(&self) -> WriteStats {
        self.stats
    }

    /// Total modelled memory footprint in bytes.
    pub fn memory_footprint(&self) -> u64 {
        self.nodes
            .iter()
            .flatten()
            .map(|n| match n {
                BNode::Leaf { entries, .. } => {
                    16 + entries.iter().map(|(k, _)| entry_bytes(k)).sum::<u64>()
                }
                BNode::Internal { separators, children } => {
                    16 + separators.iter().map(|k| k.len() as u64).sum::<u64>()
                        + children.len() as u64 * 8
                }
            })
            .sum()
    }

    /// Arena access. Every `NodeRef` stored in the tree points at a live
    /// slot — `dealloc` is only called on nodes that have already been
    /// unlinked — so a dead slot here is a programming error, not a data
    /// condition; read-only entry points (`get`, `range`) additionally
    /// degrade to "absent" instead of asserting.
    fn node(&self, id: NodeRef) -> &BNode<V> {
        self.nodes[id].as_ref().expect("arena invariant: linked node is live")
    }

    fn alloc(&mut self, node: BNode<V>) -> NodeRef {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = Some(node);
            id
        } else {
            self.nodes.push(Some(node));
            self.nodes.len() - 1
        }
    }

    fn dealloc(&mut self, id: NodeRef) -> BNode<V> {
        self.free.push(id);
        self.nodes[id].take().expect("arena invariant: dealloc target is live (double free)")
    }

    /// Index of the child to descend into for `key`.
    fn child_index(&mut self, separators: &[Key], key: &[u8]) -> usize {
        // Binary search over separators; charge the comparisons.
        self.stats.comparisons += (separators.len().max(1)).ilog2() as u64 + 1;
        separators.partition_point(|s| s.as_bytes() <= key)
    }

    /// Looks up `key`.
    pub fn get(&mut self, key: &Key) -> Option<&V> {
        let mut cur = self.root;
        loop {
            self.stats.node_accesses += 1;
            // Work around borrowck: decide descent immutably, then move on.
            let next = match self.node(cur) {
                BNode::Internal { separators, .. } => {
                    let seps: Vec<Key> = separators.clone();
                    Some(self.child_index(&seps, key.as_bytes()))
                }
                BNode::Leaf { .. } => None,
            };
            match next {
                Some(i) => {
                    cur = match self.node(cur) {
                        BNode::Internal { children, .. } => children[i],
                        BNode::Leaf { .. } => {
                            unreachable!("descent to a leaf passes internal nodes only")
                        }
                    };
                }
                None => {
                    self.stats.comparisons += 4; // binary search in the leaf
                    return match self.nodes[cur].as_ref() {
                        Some(BNode::Leaf { entries, .. }) => entries
                            .binary_search_by(|(k, _)| k.as_bytes().cmp(key.as_bytes()))
                            .ok()
                            .map(|i| &entries[i].1),
                        // A lookup must never abort on a broken arena slot;
                        // report the key as absent (and flag it in debug).
                        _ => {
                            debug_assert!(false, "get descended to a dead or non-leaf slot");
                            None
                        }
                    };
                }
            }
        }
    }

    /// Inserts `key` → `value`, returning the previous value if present.
    pub fn insert(&mut self, key: Key, value: V) -> Option<V> {
        self.stats.bytes_logical += entry_bytes(&key);
        let root = self.root;
        let (old, split) = self.insert_rec(root, key, value);
        if let Some((sep, right)) = split {
            // Grow a new root.
            let old_root = self.root;
            self.stats.bytes_written += sep.len() as u64 + 16;
            let new_root = self
                .alloc(BNode::Internal { separators: vec![sep], children: vec![old_root, right] });
            self.root = new_root;
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Recursive insert; returns `(old value, Some((separator, new right
    /// sibling)))` when the child split.
    fn insert_rec(
        &mut self,
        node: NodeRef,
        key: Key,
        value: V,
    ) -> (Option<V>, Option<(Key, NodeRef)>) {
        self.stats.node_accesses += 1;
        match self.nodes[node].as_mut().expect("arena invariant: insert target is live") {
            BNode::Leaf { entries, .. } => {
                match entries.binary_search_by(|(k, _)| k.as_bytes().cmp(key.as_bytes())) {
                    Ok(i) => {
                        self.stats.bytes_written += 8;
                        let old = std::mem::replace(&mut entries[i].1, value);
                        (Some(old), None)
                    }
                    Err(i) => {
                        // Shifting the tail is the B+-tree's intra-node
                        // write amplification.
                        let shifted: u64 = entries[i..].iter().map(|(k, _)| entry_bytes(k)).sum();
                        self.stats.bytes_written += shifted + entry_bytes(&key);
                        entries.insert(i, (key, value));
                        let split = self.maybe_split_leaf(node);
                        (None, split)
                    }
                }
            }
            BNode::Internal { separators, children } => {
                let seps: Vec<Key> = separators.clone();
                let child = children[self_child_index(&seps, key.as_bytes())];
                self.stats.comparisons += (seps.len().max(1)).ilog2() as u64 + 1;
                let (old, split) = self.insert_rec(child, key, value);
                if let Some((sep, right)) = split {
                    self.stats.bytes_written += sep.len() as u64 + 8;
                    match self.nodes[node]
                        .as_mut()
                        .expect("arena invariant: parent outlives child split")
                    {
                        BNode::Internal { separators, children } => {
                            let i = separators.partition_point(|s| s.as_bytes() <= sep.as_bytes());
                            separators.insert(i, sep);
                            children.insert(i + 1, right);
                        }
                        BNode::Leaf { .. } => {
                            unreachable!("split insertion parent is an internal node")
                        }
                    }
                    return (old, self.maybe_split_internal(node));
                }
                (old, None)
            }
        }
    }

    fn maybe_split_leaf(&mut self, node: NodeRef) -> Option<(Key, NodeRef)> {
        let order = self.order;
        let (right_entries, old_next, sep, moved) =
            match self.nodes[node].as_mut().expect("arena invariant: split target is live") {
                BNode::Leaf { entries, next } if entries.len() > order => {
                    let right = entries.split_off(entries.len() / 2);
                    let sep = right[0].0.clone();
                    let moved: u64 = right.iter().map(|(k, _)| entry_bytes(k)).sum();
                    (right, *next, sep, moved)
                }
                _ => return None,
            };
        self.stats.bytes_written += moved;
        let right_id = self.alloc(BNode::Leaf { entries: right_entries, next: old_next });
        match self.nodes[node].as_mut().expect("arena invariant: split target is live") {
            BNode::Leaf { next, .. } => *next = Some(right_id),
            BNode::Internal { .. } => {
                unreachable!("leaf split patches the leaf chain, not an internal node")
            }
        }
        Some((sep, right_id))
    }

    fn maybe_split_internal(&mut self, node: NodeRef) -> Option<(Key, NodeRef)> {
        let order = self.order;
        let (right_seps, right_children, sep, moved) =
            match self.nodes[node].as_mut().expect("arena invariant: split target is live") {
                BNode::Internal { separators, children } if separators.len() > order => {
                    let mid = separators.len() / 2;
                    let sep = separators[mid].clone();
                    let right_seps: Vec<Key> = separators.split_off(mid + 1);
                    separators.pop(); // `sep` moves up, not right
                    let right_children: Vec<NodeRef> = children.split_off(mid + 1);
                    let moved: u64 = right_seps.iter().map(|k| k.len() as u64).sum::<u64>()
                        + right_children.len() as u64 * 8;
                    (right_seps, right_children, sep, moved)
                }
                _ => return None,
            };
        self.stats.bytes_written += moved;
        let right_id =
            self.alloc(BNode::Internal { separators: right_seps, children: right_children });
        Some((sep, right_id))
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &Key) -> Option<V> {
        let root = self.root;
        let removed = self.remove_rec(root, key);
        if removed.is_some() {
            self.len -= 1;
        }
        // Collapse a root with a single child.
        if let BNode::Internal { children, .. } = self.node(self.root) {
            if children.len() == 1 {
                let only = children[0];
                self.dealloc(self.root);
                self.root = only;
            }
        }
        removed
    }

    fn remove_rec(&mut self, node: NodeRef, key: &Key) -> Option<V> {
        self.stats.node_accesses += 1;
        let child_i =
            match self.nodes[node].as_mut().expect("arena invariant: remove target is live") {
                BNode::Leaf { entries, .. } => {
                    return match entries.binary_search_by(|(k, _)| k.as_bytes().cmp(key.as_bytes()))
                    {
                        Ok(i) => {
                            let shifted: u64 =
                                entries[i + 1..].iter().map(|(k, _)| entry_bytes(k)).sum();
                            self.stats.bytes_written += shifted;
                            Some(entries.remove(i).1)
                        }
                        Err(_) => None,
                    };
                }
                BNode::Internal { separators, .. } => {
                    let seps: Vec<Key> = separators.clone();
                    self.stats.comparisons += (seps.len().max(1)).ilog2() as u64 + 1;
                    seps.partition_point(|s| s.as_bytes() <= key.as_bytes())
                }
            };
        let child = match self.node(node) {
            BNode::Internal { children, .. } => children[child_i],
            BNode::Leaf { .. } => unreachable!("underflow repair walks internal nodes only"),
        };
        let removed = self.remove_rec(child, key);
        if removed.is_some() {
            self.rebalance_child(node, child_i);
        }
        removed
    }

    /// Fixes up `children[child_i]` of `node` if it underflowed: borrow
    /// from a sibling or merge with one.
    fn rebalance_child(&mut self, node: NodeRef, child_i: usize) {
        let min = self.order / 2;
        let child = match self.node(node) {
            BNode::Internal { children, .. } => children[child_i],
            BNode::Leaf { .. } => return,
        };
        let child_len = match self.node(child) {
            BNode::Leaf { entries, .. } => entries.len(),
            BNode::Internal { separators, .. } => separators.len(),
        };
        if child_len >= min {
            return;
        }
        // Prefer merging with the left sibling; fall back to the right.
        let (left_i, right_i) = if child_i > 0 { (child_i - 1, child_i) } else { (0, 1) };
        let (left, right) = match self.node(node) {
            BNode::Internal { children, .. } => {
                if children.len() < 2 {
                    return;
                }
                (children[left_i], children[right_i])
            }
            BNode::Leaf { .. } => unreachable!("sibling lookup happens in an internal parent"),
        };

        // Try borrowing from the fuller sibling first.
        let left_len = self.entry_count(left);
        let right_len = self.entry_count(right);
        if left_len + right_len >= 2 * min {
            self.borrow_between(node, left_i, left, right);
            return;
        }
        // Merge right into left. The separator between them comes down.
        let parent_sep = match self.nodes[node].as_ref().expect("arena invariant: parent is live") {
            BNode::Internal { separators, .. } => separators[left_i].clone(),
            BNode::Leaf { .. } => unreachable!("separator lives in an internal parent"),
        };
        let right_node = self.dealloc(right);
        let moved = match (
            self.nodes[left].as_mut().expect("arena invariant: merge target is live"),
            right_node,
        ) {
            (BNode::Leaf { entries, next }, BNode::Leaf { entries: mut re, next: rn }) => {
                let moved: u64 = re.iter().map(|(k, _)| entry_bytes(k)).sum();
                entries.append(&mut re);
                *next = rn;
                moved
            }
            (
                BNode::Internal { separators, children },
                BNode::Internal { separators: mut rs, children: mut rc },
            ) => {
                let moved: u64 = rs.iter().map(|k| k.len() as u64).sum::<u64>()
                    + rc.len() as u64 * 8
                    + parent_sep.len() as u64;
                separators.push(parent_sep);
                separators.append(&mut rs);
                children.append(&mut rc);
                moved
            }
            _ => unreachable!("siblings are at the same level"),
        };
        self.stats.bytes_written += moved;
        match self.nodes[node].as_mut().expect("arena invariant: parent is live") {
            BNode::Internal { separators, children } => {
                separators.remove(left_i);
                children.remove(right_i);
            }
            BNode::Leaf { .. } => unreachable!("merge updates an internal parent"),
        }
    }

    fn entry_count(&self, id: NodeRef) -> usize {
        match self.node(id) {
            BNode::Leaf { entries, .. } => entries.len(),
            BNode::Internal { separators, .. } => separators.len(),
        }
    }

    /// Evens out two leaf/internal siblings and refreshes their separator.
    fn borrow_between(&mut self, node: NodeRef, left_i: usize, left: NodeRef, right: NodeRef) {
        // Take both siblings out, rebalance, put them back.
        let l = self.nodes[left].take().expect("arena invariant: borrow sibling is live");
        let r = self.nodes[right].take().expect("arena invariant: borrow sibling is live");
        let (l, r, new_sep, moved) = match (l, r) {
            (
                BNode::Leaf { entries: mut le, next: ln },
                BNode::Leaf { entries: mut re, next: rn },
            ) => {
                let total = le.len() + re.len();
                let mut all = le;
                all.append(&mut re);
                let right_part = all.split_off(total / 2);
                le = all;
                re = right_part;
                let sep = re[0].0.clone();
                let moved: u64 = re.iter().map(|(k, _)| entry_bytes(k)).sum();
                (
                    BNode::Leaf { entries: le, next: ln },
                    BNode::Leaf { entries: re, next: rn },
                    sep,
                    moved,
                )
            }
            (
                BNode::Internal { separators: ls, children: lc },
                BNode::Internal { separators: rs, children: rc },
            ) => {
                // Flatten through the parent separator, then re-split.
                let parent_sep =
                    match self.nodes[node].as_ref().expect("arena invariant: parent is live") {
                        BNode::Internal { separators, .. } => separators[left_i].clone(),
                        BNode::Leaf { .. } => unreachable!("separator lives in an internal parent"),
                    };
                let mut seps = ls;
                seps.push(parent_sep);
                seps.extend(rs);
                let mut children = lc;
                children.extend(rc);
                let mid = seps.len() / 2;
                let new_sep = seps[mid].clone();
                let right_seps: Vec<Key> = seps.split_off(mid + 1);
                seps.pop();
                let right_children = children.split_off(seps.len() + 1);
                let moved: u64 = right_seps.iter().map(|k| k.len() as u64).sum::<u64>()
                    + right_children.len() as u64 * 8;
                (
                    BNode::Internal { separators: seps, children },
                    BNode::Internal { separators: right_seps, children: right_children },
                    new_sep,
                    moved,
                )
            }
            _ => unreachable!("siblings are at the same level"),
        };
        self.stats.bytes_written += moved;
        self.nodes[left] = Some(l);
        self.nodes[right] = Some(r);
        match self.nodes[node].as_mut().expect("arena invariant: parent is live") {
            BNode::Internal { separators, .. } => separators[left_i] = new_sep,
            BNode::Leaf { .. } => unreachable!("separator lives in an internal parent"),
        }
    }

    /// Returns up to `limit` values with keys `>= start`, in order,
    /// walking the linked leaves.
    pub fn range(&mut self, start: &[u8], limit: usize) -> Vec<&V> {
        // First pass: walk with ids only, so access accounting does not
        // fight the borrow of the returned references.
        let mut accesses = 0u64;
        let mut cur = self.root;
        loop {
            accesses += 1;
            match self.node(cur) {
                BNode::Internal { separators, children } => {
                    let i = separators.partition_point(|s| s.as_bytes() <= start);
                    cur = children[i];
                }
                BNode::Leaf { .. } => break,
            }
        }
        let mut hits: Vec<(NodeRef, usize)> = Vec::new();
        let mut leaf = Some(cur);
        'walk: while let Some(id) = leaf {
            accesses += 1;
            match self.node(id) {
                BNode::Leaf { entries, next } => {
                    for (i, (k, _)) in entries.iter().enumerate() {
                        if k.as_bytes() >= start {
                            hits.push((id, i));
                            if hits.len() >= limit {
                                break 'walk;
                            }
                        }
                    }
                    leaf = *next;
                }
                BNode::Internal { .. } => unreachable!("leaf chain links to leaves only"),
            }
        }
        self.stats.node_accesses += accesses;
        hits.into_iter()
            .filter_map(|(id, i)| match self.nodes[id].as_ref() {
                Some(BNode::Leaf { entries, .. }) => entries.get(i).map(|(_, v)| v),
                // A scan must never abort on a broken arena slot; skip the
                // hit (and flag it in debug builds).
                _ => {
                    debug_assert!(false, "range hit a dead or non-leaf slot");
                    None
                }
            })
            .collect()
    }
}

/// Free-function twin of `child_index` usable while a node is borrowed.
fn self_child_index(separators: &[Key], key: &[u8]) -> usize {
    separators.partition_point(|s| s.as_bytes() <= key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: u64) -> Key {
        Key::from_u64(v)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = BPlusTree::new(8);
        for v in 0..2_000u64 {
            assert_eq!(t.insert(k(v * 7), v), None);
        }
        assert_eq!(t.len(), 2_000);
        for v in 0..2_000u64 {
            assert_eq!(t.get(&k(v * 7)), Some(&v));
        }
        assert_eq!(t.get(&k(1)), None);
    }

    #[test]
    fn insert_replaces() {
        let mut t = BPlusTree::new(4);
        assert_eq!(t.insert(k(1), "a"), None);
        assert_eq!(t.insert(k(1), "b"), Some("a"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ordered_iteration() {
        let mut t = BPlusTree::new(6);
        let mut values: Vec<u64> = (0..500).map(|i| i * 2_654_435_761 % 100_000).collect();
        for &v in &values {
            t.insert(k(v), v);
        }
        values.sort_unstable();
        values.dedup();
        let got: Vec<u64> = t.range(&[], usize::MAX).into_iter().copied().collect();
        assert_eq!(got, values);
    }

    #[test]
    fn range_walks_leaf_chain() {
        let mut t = BPlusTree::new(8);
        for v in 0..1_000u64 {
            t.insert(k(v), v);
        }
        let got: Vec<u64> = t.range(k(123).as_bytes(), 10).into_iter().copied().collect();
        assert_eq!(got, (123..133).collect::<Vec<u64>>());
    }

    #[test]
    fn remove_with_rebalancing() {
        let mut t = BPlusTree::new(4); // small order forces merges
        for v in 0..1_000u64 {
            t.insert(k(v), v);
        }
        for v in (0..1_000u64).step_by(2) {
            assert_eq!(t.remove(&k(v)), Some(v));
        }
        assert_eq!(t.len(), 500);
        for v in 0..1_000u64 {
            let expect = (v % 2 == 1).then_some(v);
            assert_eq!(t.get(&k(v)).copied(), expect, "{v}");
        }
        // Drain entirely.
        for v in (1..1_000u64).step_by(2) {
            assert_eq!(t.remove(&k(v)), Some(v));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn write_amplification_exceeds_one() {
        let mut t = BPlusTree::new(16);
        // Random-order inserts shift tails and split nodes.
        for v in 0..5_000u64 {
            t.insert(k(v.wrapping_mul(0x9E37_79B9_7F4A_7C15)), v);
        }
        let amp = t.stats().amplification();
        assert!(amp > 1.5, "B+-tree write amplification {amp}");
    }
}
