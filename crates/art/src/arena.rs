//! Slab arena giving every tree node a stable integer address.
//!
//! The simulation layers treat [`NodeId`](crate::NodeId) as the node's
//! memory address: traces, cache models, and the shortcut table all key on
//! it. Storing nodes in a slab (rather than `Box`-per-node) gives ids that
//! stay valid across node *growth* — an N4 that becomes an N16 keeps its id,
//! mirroring an in-place reallocation — which matters for shortcut validity.

use crate::node::{Node, NodeId};

#[derive(Clone, Debug)]
pub(crate) struct Arena<V> {
    slots: Vec<Option<Node<V>>>,
    free: Vec<u32>,
}

impl<V> Arena<V> {
    pub(crate) fn new() -> Self {
        Arena { slots: Vec::new(), free: Vec::new() }
    }

    /// Number of live nodes.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub(crate) fn alloc(&mut self, node: Node<V>) -> NodeId {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(node);
            NodeId(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("arena exceeds u32 capacity");
            self.slots.push(Some(node));
            NodeId(idx)
        }
    }

    /// Frees a node, returning it. Its id may be reused by later allocations.
    pub(crate) fn free(&mut self, id: NodeId) -> Node<V> {
        let node = self.slots[id.0 as usize].take().expect("double free of node");
        self.free.push(id.0);
        node
    }

    pub(crate) fn get(&self, id: NodeId) -> &Node<V> {
        self.slots[id.0 as usize].as_ref().expect("dangling node id")
    }

    pub(crate) fn get_mut(&mut self, id: NodeId) -> &mut Node<V> {
        self.slots[id.0 as usize].as_mut().expect("dangling node id")
    }

    /// Best-effort prefetch of a node into cache ahead of its `get`.
    ///
    /// Used by the traversal loops to overlap the next level's memory
    /// latency with the current node's search; a hint only, so an invalid
    /// id is silently ignored. It takes the slot's address without reading
    /// the slot: looking inside first would be the very load it is meant
    /// to hide.
    #[inline]
    pub(crate) fn prefetch(&self, id: NodeId) {
        if let Some(slot) = self.slots.get(id.0 as usize) {
            // Slots are not line-aligned: half of the 40-byte slots of an
            // `Art<u64>` straddle two lines, with a leaf's value in the
            // second.
            crate::simd::prefetch_ends(slot);
        }
    }

    /// Checked lookup for externally supplied (possibly stale) ids, e.g.
    /// shortcut-table entries.
    pub(crate) fn try_get(&self, id: NodeId) -> Option<&Node<V>> {
        self.slots.get(id.0 as usize).and_then(|s| s.as_ref())
    }

    /// Iterates `(id, node)` over all live nodes.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &Node<V>)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|n| (NodeId(i as u32), n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Key;

    fn leaf(v: u32) -> Node<u32> {
        Node::Leaf { key: Key::from_u32(v), value: v }
    }

    #[test]
    fn alloc_free_reuses_slots() {
        let mut a: Arena<u32> = Arena::new();
        let n1 = a.alloc(leaf(1));
        let n2 = a.alloc(leaf(2));
        assert_ne!(n1, n2);
        assert_eq!(a.len(), 2);
        a.free(n1);
        assert_eq!(a.len(), 1);
        assert!(a.try_get(n1).is_none());
        let n3 = a.alloc(leaf(3));
        assert_eq!(n3, n1, "freed slot is reused");
        assert_eq!(a.len(), 2);
        match a.get(n3) {
            Node::Leaf { value, .. } => assert_eq!(*value, 3),
            Node::Inner(_) => panic!("expected leaf"),
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a: Arena<u32> = Arena::new();
        let n = a.alloc(leaf(1));
        a.free(n);
        a.free(n);
    }

    /// `prefetch` requests a slot's first and last line, which covers the
    /// whole slot only while it is at most a line long.
    #[test]
    fn a_u64_slot_fits_in_a_line() {
        assert!(std::mem::size_of::<Option<Node<u64>>>() <= 64);
    }

    #[test]
    fn iter_skips_freed() {
        let mut a: Arena<u32> = Arena::new();
        let n1 = a.alloc(leaf(1));
        let _n2 = a.alloc(leaf(2));
        a.free(n1);
        let ids: Vec<NodeId> = a.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![NodeId(1)]);
    }
}
