//! The 48-way node layout: a 256-entry index array into 48 child slots.

use super::{Node16, Node256, NodeId};

const NULL: NodeId = NodeId(u32::MAX);
/// Sentinel in the index array marking "no child for this byte".
const EMPTY: u8 = 0xFF;

/// 48-way layout: a direct-mapped 256-byte index into a 48-slot child array.
///
/// Lookup is a two-step indirection (`index[byte]` then `children[slot]`),
/// which is exactly the access pattern the hardware model charges for.
#[derive(Clone, Debug)]
pub struct Node48 {
    index: [u8; 256],
    children: [NodeId; 48],
    /// Bitmask of occupied child slots (bit i = slot i in use).
    occupied: u64,
}

impl Default for Node48 {
    fn default() -> Self {
        Node48 { index: [EMPTY; 256], children: [NULL; 48], occupied: 0 }
    }
}

impl Node48 {
    /// Number of children stored.
    pub fn len(&self) -> usize {
        self.occupied.count_ones() as usize
    }

    /// Returns `true` if no children are stored.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Looks up the child for `byte`.
    pub fn find(&self, byte: u8) -> Option<NodeId> {
        let slot = self.index[usize::from(byte)];
        (slot != EMPTY).then(|| self.children[usize::from(slot)])
    }

    /// Prefetches what [`find`](Self::find) reads: the index line holding
    /// `byte`, and every line of the child array (the slot is not known
    /// before the index is read).
    pub fn prefetch_find(&self, byte: u8) {
        crate::simd::prefetch(&self.index[usize::from(byte)]);
        for slot in [0, 16, 32, 47] {
            crate::simd::prefetch(&self.children[slot]);
        }
    }

    /// Inserts `(byte, child)`; `false` if all 48 slots are in use.
    pub fn add(&mut self, byte: u8, child: NodeId) -> bool {
        if self.len() == 48 {
            return false;
        }
        let slot = (!self.occupied).trailing_zeros() as usize;
        debug_assert!(slot < 48);
        self.index[usize::from(byte)] = slot as u8;
        self.children[slot] = child;
        self.occupied |= 1 << slot;
        true
    }

    /// Replaces the child for `byte`, returning the previous child.
    ///
    /// # Panics
    ///
    /// Panics if `byte` is absent.
    pub fn replace(&mut self, byte: u8, child: NodeId) -> NodeId {
        let slot = self.index[usize::from(byte)];
        assert!(slot != EMPTY, "replace of absent partial key");
        std::mem::replace(&mut self.children[usize::from(slot)], child)
    }

    /// Removes and returns the child for `byte`.
    pub fn remove(&mut self, byte: u8) -> Option<NodeId> {
        let slot = self.index[usize::from(byte)];
        if slot == EMPTY {
            return None;
        }
        self.index[usize::from(byte)] = EMPTY;
        self.occupied &= !(1 << slot);
        Some(std::mem::replace(&mut self.children[usize::from(slot)], NULL))
    }

    /// Copies the children into a fresh [`Node256`].
    pub fn grow(&self) -> Node256 {
        let mut n = Node256::default();
        for (byte, child) in self.ordered() {
            let ok = n.add(byte, child);
            debug_assert!(ok);
        }
        n
    }

    /// Copies the children into a fresh [`Node16`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more than 16 children are stored.
    pub fn shrink(&self) -> Node16 {
        debug_assert!(self.len() <= 16);
        let mut n = Node16::default();
        for (byte, child) in self.ordered() {
            let ok = n.add(byte, child);
            debug_assert!(ok);
        }
        n
    }

    /// Returns the child with the smallest partial key `>= from`.
    pub(super) fn next_from(&self, from: u8) -> Option<(u8, NodeId)> {
        let from = usize::from(from);
        let byte = from + self.index[from..].iter().position(|&slot| slot != EMPTY)?;
        Some((byte as u8, self.children[usize::from(self.index[byte])]))
    }

    /// Fills `out` with the children of the occupied index bytes from
    /// `from` on, in byte order (slot order is insertion order, not key
    /// order); returns how many it wrote.
    pub(super) fn next_k(&self, from: u8, out: &mut [(u8, NodeId)]) -> usize {
        let occupied = (usize::from(from)..256).filter(|&b| self.index[b] != EMPTY);
        let mut n = 0;
        for (slot, byte) in out.iter_mut().zip(occupied) {
            *slot = (byte as u8, self.children[usize::from(self.index[byte])]);
            n += 1;
        }
        n
    }

    /// Ordered `(byte, child)` pairs, one [`next_from`](Self::next_from)
    /// step each.
    fn ordered(&self) -> impl Iterator<Item = (u8, NodeId)> + '_ {
        std::iter::successors(self.next_from(0), |&(byte, _)| self.next_from(byte.checked_add(1)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_reuse_after_remove() {
        let mut n = Node48::default();
        for b in 0..48u8 {
            assert!(n.add(b, NodeId(u32::from(b))));
        }
        assert!(!n.add(100, NodeId(100)), "48 slots exhausted");
        assert_eq!(n.remove(7), Some(NodeId(7)));
        assert!(n.add(100, NodeId(100)), "freed slot must be reusable");
        assert_eq!(n.find(100), Some(NodeId(100)));
        assert_eq!(n.find(7), None);
        assert_eq!(n.len(), 48);
    }

    #[test]
    fn ordered_iteration_skips_holes() {
        let mut n = Node48::default();
        for b in [200u8, 3, 150] {
            n.add(b, NodeId(u32::from(b)));
        }
        let order: Vec<u8> = [0u8, 4, 151].map(|from| n.next_from(from).unwrap().0).to_vec();
        assert_eq!(order, vec![3, 150, 200]);
        assert_eq!(n.next_from(201), None);
    }
}
