//! The four adaptive inner-node layouts of ART (N4, N16, N48, N256).
//!
//! ART replaces the traditional radix tree's fixed 256-slot inner node with
//! four layouts sized 4, 16, 48, and 256 children; a node grows to the next
//! layout when full and shrinks when underfull, so memory tracks the actual
//! key distribution (paper §II-A, Fig. 1(c)).

mod n16;
mod n256;
mod n4;
mod n48;

pub use n16::Node16;
pub use n256::Node256;
pub use n4::Node4;
pub use n48::Node48;

use crate::Key;

/// Arena index of a node. Stable for the lifetime of the node, which lets
/// traces and cache models treat it as the node's address.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub(crate) u32);

impl Default for NodeId {
    /// The null sentinel (`u32::MAX`): an id no arena ever hands out. Used
    /// as filler in fixed-size child arrays and inline scratch buffers.
    fn default() -> Self {
        NodeId(u32::MAX)
    }
}

impl NodeId {
    /// Returns the raw arena index, usable as a simulated memory address.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Reconstructs a node id from a raw index.
    ///
    /// For simulation components (shortcut tables, contention models) that
    /// store ids as plain integers; an id fabricated for a slot that was
    /// never allocated simply misses on [`Art::node`](crate::Art::node).
    pub fn from_index(index: u32) -> Self {
        NodeId(index)
    }
}

/// The adaptive layout tag of an inner node (paper Fig. 1(c)).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub enum NodeType {
    /// Up to 4 children: parallel key/pointer arrays.
    N4,
    /// Up to 16 children: parallel key/pointer arrays (SIMD-searchable).
    N16,
    /// Up to 48 children: 256-byte index array into a 48-slot pointer array.
    N48,
    /// Up to 256 children: direct pointer array.
    N256,
}

impl NodeType {
    /// Maximum number of children this layout can hold.
    pub fn capacity(self) -> usize {
        match self {
            NodeType::N4 => 4,
            NodeType::N16 => 16,
            NodeType::N48 => 48,
            NodeType::N256 => 256,
        }
    }

    /// In-memory footprint of the layout in bytes, excluding the header.
    ///
    /// Matches the sizes from the original ART paper: keys are 1 byte and
    /// child pointers 8 bytes (paper §II, Challenge 1).
    pub fn payload_bytes(self) -> u32 {
        match self {
            NodeType::N4 => 4 + 4 * 8,
            NodeType::N16 => 16 + 16 * 8,
            NodeType::N48 => 256 + 48 * 8,
            NodeType::N256 => 256 * 8,
        }
    }
}

impl std::fmt::Display for NodeType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NodeType::N4 => "N4",
            NodeType::N16 => "N16",
            NodeType::N48 => "N48",
            NodeType::N256 => "N256",
        };
        f.write_str(s)
    }
}

/// Size of an inner-node header in bytes: type tag, child count, prefix
/// length, and the path-compression prefix storage pointer.
pub const HEADER_BYTES: u32 = 16;

/// A node in the tree: either a leaf holding the full key (lazy expansion)
/// or an inner node with a compressed path prefix and adaptive children.
#[derive(Clone, Debug)]
pub enum Node<V> {
    /// A leaf stores the complete key so that single-branch paths below the
    /// last real branch point need no inner nodes ("lazy expansion").
    Leaf {
        /// The full, encoded key.
        key: Key,
        /// The stored value.
        value: V,
    },
    /// An inner branch node.
    Inner(InnerNode),
}

impl<V> Node<V> {
    /// In-memory footprint of this node in bytes, for the cache models.
    pub fn footprint(&self) -> u32 {
        match self {
            Node::Leaf { key, .. } => HEADER_BYTES + key.len() as u32 + 8,
            Node::Inner(inner) => {
                HEADER_BYTES
                    + inner.prefix.len() as u32
                    + inner.children.node_type().payload_bytes()
            }
        }
    }

    /// Returns the inner node, panicking on a leaf. Internal helper.
    pub(crate) fn expect_inner(&self) -> &InnerNode {
        match self {
            Node::Inner(inner) => inner,
            Node::Leaf { .. } => unreachable!("expected inner node"),
        }
    }

    pub(crate) fn expect_inner_mut(&mut self) -> &mut InnerNode {
        match self {
            Node::Inner(inner) => inner,
            Node::Leaf { .. } => unreachable!("expected inner node"),
        }
    }
}

/// An inner node: a path-compression prefix plus an adaptive child layout.
#[derive(Clone, Debug)]
pub struct InnerNode {
    /// Pessimistic path compression: the complete sequence of bytes that
    /// every key below this node shares at this depth.
    pub prefix: Vec<u8>,
    /// The adaptive child container.
    pub children: Children,
}

impl InnerNode {
    /// Creates an inner node with the given prefix and an empty N4 layout.
    pub fn new(prefix: Vec<u8>) -> Self {
        InnerNode { prefix, children: Children::N4(Box::default()) }
    }
}

/// The adaptive child container; dispatches to one of the four layouts.
#[derive(Clone, Debug)]
pub enum Children {
    /// 4-way layout.
    N4(Box<Node4>),
    /// 16-way layout.
    N16(Box<Node16>),
    /// 48-way layout.
    N48(Box<Node48>),
    /// 256-way layout.
    N256(Box<Node256>),
}

impl Default for Children {
    fn default() -> Self {
        Children::N4(Box::default())
    }
}

impl Children {
    /// Returns the layout tag.
    pub fn node_type(&self) -> NodeType {
        match self {
            Children::N4(_) => NodeType::N4,
            Children::N16(_) => NodeType::N16,
            Children::N48(_) => NodeType::N48,
            Children::N256(_) => NodeType::N256,
        }
    }

    /// Number of children currently stored.
    pub fn len(&self) -> usize {
        match self {
            Children::N4(n) => n.len(),
            Children::N16(n) => n.len(),
            Children::N48(n) => n.len(),
            Children::N256(n) => n.len(),
        }
    }

    /// Returns `true` if the node has no children.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if the layout cannot accept another child.
    pub fn is_full(&self) -> bool {
        self.len() == self.node_type().capacity()
    }

    /// Looks up the child for partial key `byte`.
    pub fn find(&self, byte: u8) -> Option<NodeId> {
        match self {
            Children::N4(n) => n.find(byte),
            Children::N16(n) => n.find(byte),
            Children::N48(n) => n.find(byte),
            Children::N256(n) => n.find(byte),
        }
    }

    /// Inserts a child for `byte`.
    ///
    /// Returns `false` (and does not insert) if the layout is full; the
    /// caller must [`grow`](Children::grow) first.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `byte` is already present; use
    /// [`replace`](Children::replace) for updates.
    pub fn add(&mut self, byte: u8, child: NodeId) -> bool {
        debug_assert!(self.find(byte).is_none(), "duplicate partial key {byte:#04x}");
        match self {
            Children::N4(n) => n.add(byte, child),
            Children::N16(n) => n.add(byte, child),
            Children::N48(n) => n.add(byte, child),
            Children::N256(n) => n.add(byte, child),
        }
    }

    /// Replaces the child stored for `byte`, returning the old child.
    ///
    /// # Panics
    ///
    /// Panics if `byte` is not present.
    pub fn replace(&mut self, byte: u8, child: NodeId) -> NodeId {
        match self {
            Children::N4(n) => n.replace(byte, child),
            Children::N16(n) => n.replace(byte, child),
            Children::N48(n) => n.replace(byte, child),
            Children::N256(n) => n.replace(byte, child),
        }
    }

    /// Removes the child for `byte`, returning it if present.
    pub fn remove(&mut self, byte: u8) -> Option<NodeId> {
        match self {
            Children::N4(n) => n.remove(byte),
            Children::N16(n) => n.remove(byte),
            Children::N48(n) => n.remove(byte),
            Children::N256(n) => n.remove(byte),
        }
    }

    /// Converts to the next larger layout. Returns `true` if a conversion
    /// happened (i.e. the node was not already N256).
    pub fn grow(&mut self) -> bool {
        let grown = match self {
            Children::N4(n) => Children::N16(Box::new(n.grow())),
            Children::N16(n) => Children::N48(Box::new(n.grow())),
            Children::N48(n) => Children::N256(Box::new(n.grow())),
            Children::N256(_) => return false,
        };
        *self = grown;
        true
    }

    /// Converts to the next smaller layout if the occupancy has dropped to
    /// the smaller layout's capacity or below. Returns `true` on conversion.
    pub fn shrink(&mut self) -> bool {
        let shrunk = match self {
            Children::N4(_) => return false,
            Children::N16(n) if n.len() <= 4 => Children::N4(Box::new(n.shrink())),
            Children::N48(n) if n.len() <= 16 => Children::N16(Box::new(n.shrink())),
            Children::N256(n) if n.len() <= 48 => Children::N48(Box::new(n.shrink())),
            _ => return false,
        };
        *self = shrunk;
        true
    }

    /// Iterates `(partial key, child)` pairs in ascending partial-key order.
    pub fn iter(&self) -> ChildIter<'_> {
        ChildIter { children: self, next: 0 }
    }

    /// Returns the `(byte, child)` pair with the smallest partial key
    /// `>= from` — the resumable step ordered traversals keep one byte of
    /// state for, instead of materialising the child list.
    pub fn next_from(&self, from: u8) -> Option<(u8, NodeId)> {
        match self {
            Children::N4(n) => n.next_from(from),
            Children::N16(n) => n.next_from(from),
            Children::N48(n) => n.next_from(from),
            Children::N256(n) => n.next_from(from),
        }
    }

    /// Returns the `(byte, child)` pair with the smallest partial key.
    pub fn min_child(&self) -> Option<(u8, NodeId)> {
        self.next_from(0)
    }

    /// Returns the `(byte, child)` pair with the largest partial key.
    pub fn max_child(&self) -> Option<(u8, NodeId)> {
        match self {
            Children::N4(n) => n.max_child(),
            Children::N16(n) => n.max_child(),
            Children::N48(n) => n.max_child(),
            Children::N256(n) => n.max_child(),
        }
    }

    /// Returns the sole `(byte, child)` pair, if exactly one child remains.
    /// Used for path-compression merging on removal.
    pub fn single_child(&self) -> Option<(u8, NodeId)> {
        if self.len() == 1 {
            self.min_child()
        } else {
            None
        }
    }
}

/// Iterator over `(partial key, child)` pairs in ascending byte order.
///
/// Produced by [`Children::iter`].
#[derive(Debug)]
pub struct ChildIter<'a> {
    children: &'a Children,
    /// Smallest partial key not yet yielded; 256 once exhausted.
    next: u16,
}

impl Iterator for ChildIter<'_> {
    type Item = (u8, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.children.next_from(u8::try_from(self.next).ok()?);
        self.next = item.map_or(256, |(byte, _)| u16::from(byte) + 1);
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Drives one container through add/find/remove/grow/shrink against a
    /// BTreeMap model. Shared by the per-layout tests below.
    fn exercise_layout(bytes: &[u8]) {
        use std::collections::BTreeMap;
        let mut c = Children::default();
        let mut model = BTreeMap::new();
        for (i, &b) in bytes.iter().enumerate() {
            if c.is_full() {
                assert!(!c.add(b, id(i as u32)), "add on a full node must refuse");
                assert!(c.grow());
            }
            assert!(c.add(b, id(i as u32)));
            model.insert(b, id(i as u32));
            assert_eq!(c.len(), model.len());
        }
        for (&b, &n) in &model {
            assert_eq!(c.find(b), Some(n), "find {b:#04x}");
        }
        // Order of iteration must be ascending byte order.
        let got: Vec<u8> = c.iter().map(|(b, _)| b).collect();
        let want: Vec<u8> = model.keys().copied().collect();
        assert_eq!(got, want);
        assert_eq!(c.min_child().map(|(b, _)| b), model.keys().next().copied());
        assert_eq!(c.max_child().map(|(b, _)| b), model.keys().last().copied());
        // Remove everything, shrinking opportunistically.
        let all: Vec<u8> = model.keys().copied().collect();
        for b in all {
            assert!(c.remove(b).is_some());
            model.remove(&b);
            c.shrink();
            assert_eq!(c.len(), model.len());
            for (&mb, &mn) in &model {
                assert_eq!(c.find(mb), Some(mn));
            }
        }
        assert!(c.is_empty());
        assert_eq!(c.node_type(), NodeType::N4);
    }

    #[test]
    fn n4_only() {
        exercise_layout(&[3, 1, 2, 0]);
    }

    #[test]
    fn grows_to_n16() {
        let bytes: Vec<u8> = (0..10).map(|i| i * 7 + 1).collect();
        exercise_layout(&bytes);
    }

    #[test]
    fn grows_to_n48() {
        let bytes: Vec<u8> = (0..40).map(|i| i * 5).collect();
        exercise_layout(&bytes);
    }

    #[test]
    fn grows_to_n256() {
        let bytes: Vec<u8> = (0..=255).rev().collect();
        exercise_layout(&bytes);
    }

    #[test]
    fn replace_swaps_child_in_place() {
        let mut c = Children::default();
        assert!(c.add(9, id(1)));
        assert_eq!(c.replace(9, id(2)), id(1));
        assert_eq!(c.find(9), Some(id(2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_missing_byte_is_none() {
        let mut c = Children::default();
        assert!(c.add(1, id(1)));
        assert_eq!(c.remove(2), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn shrink_requires_low_occupancy() {
        let mut c = Children::default();
        for b in 0..16 {
            if c.is_full() {
                c.grow();
            }
            c.add(b, id(u32::from(b)));
        }
        assert_eq!(c.node_type(), NodeType::N16);
        assert!(!c.shrink(), "16 children cannot shrink to N4");
        for b in 0..12 {
            c.remove(b);
        }
        assert!(c.shrink());
        assert_eq!(c.node_type(), NodeType::N4);
        for b in 12..16 {
            assert_eq!(c.find(b), Some(id(u32::from(b))));
        }
    }

    #[test]
    fn grow_caps_at_n256() {
        let mut c = Children::N256(Box::default());
        assert!(!c.grow());
    }

    #[test]
    fn payload_bytes_match_paper_layouts() {
        assert_eq!(NodeType::N4.payload_bytes(), 36);
        assert_eq!(NodeType::N16.payload_bytes(), 144);
        assert_eq!(NodeType::N48.payload_bytes(), 640);
        assert_eq!(NodeType::N256.payload_bytes(), 2048);
    }

    #[test]
    fn single_child_detects_merge_candidates() {
        let mut c = Children::default();
        c.add(5, id(50));
        assert_eq!(c.single_child(), Some((5, id(50))));
        c.add(6, id(60));
        assert_eq!(c.single_child(), None);
    }
}
