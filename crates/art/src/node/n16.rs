//! The 16-way node layout: sorted parallel key/child arrays.
//!
//! The original ART paper searches the key lanes with one SSE compare;
//! here [`crate::simd::search16`] does it with a branch-free SWAR compare
//! over the lanes as one `u128`, the same code on every target.

use super::{Node4, Node48, NodeId};

const NULL: NodeId = NodeId(u32::MAX);

/// 16-way layout: up to 16 children in sorted parallel arrays.
#[derive(Clone, Debug)]
pub struct Node16 {
    keys: [u8; 16],
    children: [NodeId; 16],
    len: u8,
}

impl Default for Node16 {
    fn default() -> Self {
        Node16 { keys: [0; 16], children: [NULL; 16], len: 0 }
    }
}

impl Node16 {
    /// Number of children stored.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Returns `true` if no children are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lane holding `byte`, found with the SWAR compare of
    /// [`crate::simd::search16`].
    fn match_lane(&self, byte: u8) -> Option<usize> {
        crate::simd::search16(&self.keys, self.len(), byte)
    }

    /// Looks up the child for `byte`.
    pub fn find(&self, byte: u8) -> Option<NodeId> {
        self.match_lane(byte).map(|i| self.children[i])
    }

    /// Prefetches what [`find`](Self::find) reads: the key lanes and both
    /// ends of the child array (the lane is not known before the search).
    pub fn prefetch_find(&self) {
        crate::simd::prefetch(&self.keys);
        crate::simd::prefetch(&self.children[0]);
        crate::simd::prefetch(&self.children[15]);
    }

    /// Inserts `(byte, child)` preserving sort order; `false` if full.
    pub fn add(&mut self, byte: u8, child: NodeId) -> bool {
        let len = self.len();
        if len == 16 {
            return false;
        }
        debug_assert!(self.match_lane(byte).is_none(), "duplicate partial key {byte:#04x}");
        // Insertion point: first lane holding a byte greater than the new
        // one. Inserts are cold next to lookups (a node sees at most 16 of
        // them before growing), so a scan of the sorted lanes is fine.
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
        let i = self.match_lane(byte).expect("replace of absent partial key");
        std::mem::replace(&mut self.children[i], child)
    }

    /// Removes and returns the child for `byte`.
    pub fn remove(&mut self, byte: u8) -> Option<NodeId> {
        let i = self.match_lane(byte)?;
        let removed = self.children[i];
        let len = self.len();
        self.keys.copy_within(i + 1..len, i);
        self.children.copy_within(i + 1..len, i);
        self.len -= 1;
        Some(removed)
    }

    /// Copies the children into a fresh [`Node48`].
    pub fn grow(&self) -> Node48 {
        let mut n = Node48::default();
        for i in 0..self.len() {
            let ok = n.add(self.keys[i], self.children[i]);
            debug_assert!(ok);
        }
        n
    }

    /// Copies the children into a fresh [`Node4`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more than 4 children are stored.
    pub fn shrink(&self) -> Node4 {
        debug_assert!(self.len() <= 4);
        let mut n = Node4::default();
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
    fn masked_search_finds_all() {
        let mut n = Node16::default();
        let bytes: Vec<u8> = (0..16).map(|i| 255 - i * 16).collect();
        for &b in &bytes {
            assert!(n.add(b, NodeId(u32::from(b))));
        }
        assert!(!n.add(1, NodeId(0)));
        for &b in &bytes {
            assert_eq!(n.find(b), Some(NodeId(u32::from(b))));
        }
        assert_eq!(n.find(2), None);
    }

    #[test]
    fn shrink_preserves_children() {
        let mut n = Node16::default();
        for b in [10u8, 20, 30] {
            n.add(b, NodeId(u32::from(b)));
        }
        let small = n.shrink();
        assert_eq!(small.len(), 3);
        for b in [10u8, 20, 30] {
            assert_eq!(small.find(b), Some(NodeId(u32::from(b))));
        }
    }

    /// Remove leaves stale bytes past `len`; a probe equal to a stale byte
    /// must miss.
    #[test]
    fn stale_lanes_do_not_match() {
        let mut n = Node16::default();
        for b in [5u8, 9, 200, 255] {
            n.add(b, NodeId(u32::from(b)));
        }
        assert_eq!(n.remove(255), Some(NodeId(255)));
        assert_eq!(n.find(255), None);
        assert_eq!(n.remove(255), None);
        assert_eq!(n.len(), 3);
        assert_eq!(n.find(200), Some(NodeId(200)));
    }
}
