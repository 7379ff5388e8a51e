//! The 256-way node layout: a direct child-pointer array, as in a
//! traditional radix tree node.

use super::{Node48, NodeId};

const NULL: NodeId = NodeId(u32::MAX);

/// 256-way layout: one pointer slot per possible partial key.
#[derive(Clone, Debug)]
pub struct Node256 {
    children: [NodeId; 256],
    len: u16,
}

impl Default for Node256 {
    fn default() -> Self {
        Node256 { children: [NULL; 256], len: 0 }
    }
}

impl Node256 {
    /// Number of children stored.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Returns `true` if no children are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the child for `byte`.
    pub fn find(&self, byte: u8) -> Option<NodeId> {
        let c = self.children[usize::from(byte)];
        (c != NULL).then_some(c)
    }

    /// Prefetches what [`find`](Self::find) reads: the one slot for
    /// `byte`.
    pub fn prefetch_find(&self, byte: u8) {
        crate::simd::prefetch(&self.children[usize::from(byte)]);
    }

    /// Inserts `(byte, child)`. Never full; always returns `true`.
    pub fn add(&mut self, byte: u8, child: NodeId) -> bool {
        debug_assert!(child != NULL);
        debug_assert!(self.children[usize::from(byte)] == NULL);
        self.children[usize::from(byte)] = child;
        self.len += 1;
        true
    }

    /// Replaces the child for `byte`, returning the previous child.
    ///
    /// # Panics
    ///
    /// Panics if `byte` is absent.
    pub fn replace(&mut self, byte: u8, child: NodeId) -> NodeId {
        let slot = &mut self.children[usize::from(byte)];
        assert!(*slot != NULL, "replace of absent partial key");
        std::mem::replace(slot, child)
    }

    /// Removes and returns the child for `byte`.
    pub fn remove(&mut self, byte: u8) -> Option<NodeId> {
        let slot = &mut self.children[usize::from(byte)];
        if *slot == NULL {
            return None;
        }
        self.len -= 1;
        Some(std::mem::replace(slot, NULL))
    }

    /// Copies the children into a fresh [`Node48`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more than 48 children are stored.
    pub fn shrink(&self) -> Node48 {
        debug_assert!(self.len() <= 48);
        let mut n = Node48::default();
        for byte in 0..=255u8 {
            if let Some(child) = self.find(byte) {
                let ok = n.add(byte, child);
                debug_assert!(ok);
            }
        }
        n
    }

    /// Returns the child with the smallest partial key `>= from`.
    pub(super) fn next_from(&self, from: u8) -> Option<(u8, NodeId)> {
        let from = usize::from(from);
        let byte = from + self.children[from..].iter().position(|&c| c != NULL)?;
        Some((byte as u8, self.children[byte]))
    }

    /// Fills `out` with the next non-null slots from `from` on; returns how
    /// many it wrote.
    pub(super) fn next_k(&self, from: u8, out: &mut [(u8, NodeId)]) -> usize {
        let present = (usize::from(from)..256).filter(|&b| self.children[b] != NULL);
        let mut n = 0;
        for (slot, byte) in out.iter_mut().zip(present) {
            *slot = (byte as u8, self.children[byte]);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_fanout() {
        let mut n = Node256::default();
        for b in 0..=255u8 {
            assert!(n.add(b, NodeId(u32::from(b) + 1)));
        }
        assert_eq!(n.len(), 256);
        for b in 0..=255u8 {
            assert_eq!(n.find(b), Some(NodeId(u32::from(b) + 1)));
        }
    }

    #[test]
    fn remove_then_find_none() {
        let mut n = Node256::default();
        n.add(42, NodeId(1));
        assert_eq!(n.remove(42), Some(NodeId(1)));
        assert_eq!(n.find(42), None);
        assert_eq!(n.remove(42), None);
        assert!(n.is_empty());
    }
}
