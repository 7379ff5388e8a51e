//! The 16-way node layout: sorted parallel key/child arrays.
//!
//! On real hardware the key search is a single SIMD compare (the original
//! ART paper's SSE `_mm_cmpeq_epi8` trick). Lookups dispatch through
//! [`crate::simd::search16`], which selects an SSE2/NEON kernel at compile
//! time and falls back to the branch-free SWAR search elsewhere.

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

    /// Lane holding `byte`, found with the compile-time-selected vector
    /// compare (SSE2/NEON) or its SWAR fallback.
    fn match_lane(&self, byte: u8) -> Option<usize> {
        crate::simd::search16(&self.keys, self.len(), byte)
    }

    /// Looks up the child for `byte`.
    pub fn find(&self, byte: u8) -> Option<NodeId> {
        self.match_lane(byte).map(|i| self.children[i])
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

    /// Returns the child with the largest partial key.
    pub(super) fn max_child(&self) -> Option<(u8, NodeId)> {
        let len = self.len();
        (len > 0).then(|| (self.keys[len - 1], self.children[len - 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The binary search the SWAR lookup replaced, kept as the reference
    /// the equivalence test compares [`crate::simd::search16_swar`] against.
    fn binary_search_lane(keys: &[u8; 16], len: usize, byte: u8) -> Option<usize> {
        keys[..len].binary_search(&byte).ok()
    }

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

    /// The SWAR lookup and the binary search it replaced must agree on
    /// every (occupancy, probe byte) pair, including boundary bytes 0x00,
    /// 0x7F/0x80 (the detector's high-bit edge), and 0xFF.
    #[test]
    fn masked_equals_binary_exhaustively() {
        // Strided key sets of every occupancy, several phases/strides.
        for phase in [0u16, 1, 7, 127, 128, 200] {
            for stride in [1u16, 3, 16, 17] {
                for len in 0..=16usize {
                    let mut keys = [0u8; 16];
                    for (i, slot) in keys.iter_mut().enumerate().take(len) {
                        *slot = (phase + stride * i as u16).min(255) as u8;
                    }
                    // Keep the live prefix sorted and unique, as Node16 does.
                    let live = &mut keys[..len];
                    live.sort_unstable();
                    let unique = {
                        let mut prev: Option<u8> = None;
                        live.iter().all(|&k| {
                            let ok = prev != Some(k);
                            prev = Some(k);
                            ok
                        })
                    };
                    if !unique {
                        continue;
                    }
                    // Garbage in the stale lanes must never affect results.
                    for slot in keys.iter_mut().skip(len) {
                        *slot = 0xAB;
                    }
                    for probe in 0..=255u8 {
                        assert_eq!(
                            crate::simd::search16_swar(&keys, len, probe),
                            binary_search_lane(&keys, len, probe),
                            "len={len} phase={phase} stride={stride} probe={probe:#04x} keys={keys:?}"
                        );
                    }
                }
            }
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
