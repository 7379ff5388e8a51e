//! The 4-way node layout: parallel key/child arrays kept in sorted order.

use super::{Node16, NodeId};

const NULL: NodeId = NodeId(u32::MAX);

/// Smallest adaptive layout: up to 4 children in sorted parallel arrays.
///
/// Keeping the key array sorted costs a short shift on insert but makes
/// ordered iteration (range scans, min/max) trivial.
#[derive(Clone, Debug)]
pub struct Node4 {
    keys: [u8; 4],
    children: [NodeId; 4],
    len: u8,
}

impl Default for Node4 {
    fn default() -> Self {
        Node4 { keys: [0; 4], children: [NULL; 4], len: 0 }
    }
}

impl Node4 {
    /// Number of children stored.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Returns `true` if no children are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position of `byte` in the sorted key array, if present.
    fn position(&self, byte: u8) -> Option<usize> {
        self.keys[..self.len()].iter().position(|&k| k == byte)
    }

    /// Looks up the child for `byte`.
    pub fn find(&self, byte: u8) -> Option<NodeId> {
        self.position(byte).map(|i| self.children[i])
    }

    /// Prefetches what [`find`](Self::find) reads: the whole node, which
    /// fits in one line.
    pub fn prefetch_find(&self) {
        crate::simd::prefetch(self);
    }

    /// Inserts `(byte, child)` preserving sort order; `false` if full.
    pub fn add(&mut self, byte: u8, child: NodeId) -> bool {
        let len = self.len();
        if len == 4 {
            return false;
        }
        let pos = self.keys[..len].iter().position(|&k| k > byte).unwrap_or(len);
        self.keys.copy_within(pos..len, pos + 1);
        self.children.copy_within(pos..len, pos + 1);
        self.keys[pos] = byte;
        self.children[pos] = child;
        self.len += 1;
        true
    }

    /// Replaces the child for `byte`, returning the previous child.
    ///
    /// # Panics
    ///
    /// Panics if `byte` is absent.
    pub fn replace(&mut self, byte: u8, child: NodeId) -> NodeId {
        let i = self.position(byte).expect("replace of absent partial key");
        std::mem::replace(&mut self.children[i], child)
    }

    /// Removes and returns the child for `byte`.
    pub fn remove(&mut self, byte: u8) -> Option<NodeId> {
        let i = self.position(byte)?;
        let removed = self.children[i];
        let len = self.len();
        self.keys.copy_within(i + 1..len, i);
        self.children.copy_within(i + 1..len, i);
        self.len -= 1;
        Some(removed)
    }

    /// Copies the children into a fresh [`Node16`].
    pub fn grow(&self) -> Node16 {
        let mut n = Node16::default();
        for i in 0..self.len() {
            let ok = n.add(self.keys[i], self.children[i]);
            debug_assert!(ok);
        }
        n
    }

    /// Returns the child with the smallest partial key `>= from`.
    pub(super) fn next_from(&self, from: u8) -> Option<(u8, NodeId)> {
        let pos = self.keys[..self.len()].iter().position(|&k| k >= from)?;
        Some((self.keys[pos], self.children[pos]))
    }

    /// Fills `out` with the children at the positions from the first key
    /// `>= from` on; returns how many it wrote.
    pub(super) fn next_k(&self, from: u8, out: &mut [(u8, NodeId)]) -> usize {
        let len = self.len();
        let pos = self.keys[..len].partition_point(|&k| k < from);
        let n = (len - pos).min(out.len());
        for (slot, i) in out.iter_mut().zip(pos..pos + n) {
            *slot = (self.keys[i], self.children[i]);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_sorted_order() {
        let mut n = Node4::default();
        for (i, b) in [9u8, 3, 7, 1].into_iter().enumerate() {
            assert!(n.add(b, NodeId(i as u32)));
        }
        let order: Vec<u8> = [0u8, 2, 4, 8].map(|from| n.next_from(from).unwrap().0).to_vec();
        assert_eq!(order, vec![1, 3, 7, 9]);
        assert_eq!(n.next_from(10), None);
        assert!(!n.add(5, NodeId(99)), "full node must refuse");
    }

    #[test]
    fn remove_shifts_tail() {
        let mut n = Node4::default();
        for b in [1u8, 2, 3] {
            n.add(b, NodeId(u32::from(b)));
        }
        assert_eq!(n.remove(2), Some(NodeId(2)));
        assert_eq!(n.len(), 2);
        assert_eq!(n.find(1), Some(NodeId(1)));
        assert_eq!(n.find(3), Some(NodeId(3)));
        assert_eq!(n.find(2), None);
    }
}
